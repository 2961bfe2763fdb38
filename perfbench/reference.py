"""Independent references for the benchmark's correctness checks.

Nothing here imports lambda_crossing: every reference is rebuilt from the
model's definition with numpy's LAPACK eigensolvers, so a fault in the
code under test cannot hide in its own reference.

Conventions are the package's: hbar = 1, angular frequencies, bare basis
(|1>, |2>, |3>), levels in ascending order, and

    H(delta1) = [[0,      O1/2,    0             ],
                 [O1/2,  -delta1,  O2/2          ],
                 [0,      O2/2,    delta2 - delta1]].

Tolerances are derived from the accuracy the package documents, never
from what it happens to reach, and hold for any backward-stable 3x3
eigensolver (the package's Jacobi sweep or LAPACK).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EPS = float(np.finfo(float).eps)

# The package documents its loci to an abscissa tolerance of 1e-10 delta2
# (resonance.DEFAULT_TOL). It is restated here rather than imported, so a
# change that loosens the library's default still has to meet it.
DEFAULT_TOL = 1e-10

# Rounding noise of a spectral quantity, in units in the last place of the
# spectral scale max(delta2, O1, O2): a few ulps for any backward-stable
# 3x3 eigensolver.
NOISE_ULPS = 8.0

# The Jacobi sweep stops once every off-diagonal element is below
# 1e-14 ||H||, which bounds the eigenvalue error (Weyl) by about that much;
# ten times that leaves room for rounding.
EIGENVALUE_RTOL = 1e-13

# iterate_levels converges each branch to a step of 1e-12 delta2; criterion
# 4(b) of the acceptance suite holds the converged levels to 1e-10 delta2.
LEVEL_TOL = 1e-10

# Criterion 4(a): the first-order closed form matches the time-domain
# integration to 5 % at the probe peaks.
ORACLE_RTOL = 0.05

# The loci closed forms are checked only through second order: their
# error must be bounded by this multiple of (O1^2 + O2^2)^2 / delta2^3,
# which admits either fourth-order coefficient (/4 or /8) of the shift.
FOURTH_ORDER_BOUND = 0.5


def hamiltonian(o1: float, o2: float, delta1, delta2: float) -> np.ndarray:
    """(N, 3, 3) stack of Hamiltonians for an array of delta1 values."""
    d1 = np.atleast_1d(np.asarray(delta1, dtype=float))
    h = np.zeros((d1.size, 3, 3))
    h[:, 0, 1] = h[:, 1, 0] = 0.5 * o1
    h[:, 1, 2] = h[:, 2, 1] = 0.5 * o2
    h[:, 1, 1] = -d1
    h[:, 2, 2] = delta2 - d1
    return h


def spectrum(o1: float, o2: float, delta1, delta2: float):
    """Ascending energies (N, 3) and eigenvectors (N, 3, 3), columns = levels."""
    return np.linalg.eigh(hamiltonian(o1, o2, delta1, delta2))


def energies(o1: float, o2: float, delta1, delta2: float) -> np.ndarray:
    return np.linalg.eigvalsh(hamiltonian(o1, o2, delta1, delta2))


def gap(o1: float, o2: float, delta1, delta2: float) -> np.ndarray:
    e = energies(o1, o2, delta1, delta2)
    return e[:, 2] - e[:, 1]


def noise(o1: float, o2: float, delta2: float) -> float:
    return NOISE_ULPS * EPS * max(delta2, o1, o2)


def _stencil(f, x: float, h: float):
    """First and second derivative by fourth-order central differences."""
    y = f(x + h * np.array([-2.0, -1.0, 0.0, 1.0, 2.0]))
    d1 = (y[0] - 8.0 * y[1] + 8.0 * y[3] - y[4]) / (12.0 * h)
    d2 = (-y[0] + 16.0 * y[1] - 30.0 * y[2] + 16.0 * y[3] - y[4]) / (12.0 * h * h)
    return d1, d2


def zoom_argmax(f, lo, hi, rounds: int = 40, points: int = 17):
    """Maximize f on [lo, hi] by dense grids zooming onto the grid maximum.

    f maps an (..., points) array to values of the same shape, so many
    independent maximizations (leading axes of lo, hi) run at once.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    centre = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    frac = np.linspace(-1.0, 1.0, points)
    for _ in range(rounds):
        xs = centre[..., None] + half[..., None] * frac
        i = np.argmax(f(xs), axis=-1)
        centre = np.take_along_axis(xs, i[..., None], axis=-1)[..., 0]
        half = half * (4.0 / (points - 1))
    return centre


# --- resonance loci --------------------------------------------------------


def _gap_slope(o1, o2, d1, d2) -> np.ndarray:
    """d(eps3 - eps2)/d delta1 by Hellmann-Feynman: v_{0,2}^2 - v_{0,1}^2.

    dH/d delta1 = diag(0, -1, -1), so d eps_k / d delta1 = v_{0,k}^2 - 1.
    """
    _, v = spectrum(o1, o2, d1, d2)
    return v[:, 0, 2] ** 2 - v[:, 0, 1] ** 2


def structural_locus(o1: float, o2: float, d2: float) -> float:
    """delta1 where eps3 - eps2 is smallest: the bracketed root of its
    Hellmann-Feynman derivative on [0.5, 1.5] delta2, by multisection
    (bisection evaluating 32 points per step)."""
    lo, hi = 0.5 * d2, 1.5 * d2
    slope = _gap_slope(o1, o2, [lo, hi], d2)
    if slope[0] >= 0.0 or slope[1] <= 0.0:
        raise ValueError("splitting slope does not change sign on [0.5, 1.5] delta2")
    while hi - lo > 4.0 * EPS * d2:
        xs = np.linspace(lo, hi, 33)
        rising = _gap_slope(o1, o2, xs[1:-1], d2) >= 0.0
        i = int(np.argmax(rising)) if rising.any() else 31
        lo, hi = xs[i], xs[i + 1]
    return 0.5 * (lo + hi)


def transfer_coefficients(o1: float, o2: float, delta1, delta2: float) -> np.ndarray:
    """c_k = <3|eps_k><eps_k|1>, shape (N, 3): the 1 -> 3 amplitude is
    sum_k c_k exp(-i eps_k t)."""
    _, v = spectrum(o1, o2, delta1, delta2)
    return v[:, 2, :] * v[:, 0, :]


def transfer_supremum(o1: float, o2: float, delta1, delta2: float) -> np.ndarray:
    """(sum_k |c_k|)^2, the supremum over time of P(1 -> 3)."""
    shape = np.shape(delta1)
    c = transfer_coefficients(o1, o2, np.ravel(delta1), delta2)
    return (np.abs(c).sum(axis=1) ** 2).reshape(shape)


@dataclass(frozen=True)
class Loci:
    """Reference loci at delta1 ~ delta2 and the accuracy owed on each."""

    structural: float
    dynamical: float
    width: float  # minimum upper splitting: the delta1 scale of the crossing
    structural_tol: float
    dynamical_tol: float

    @property
    def shift(self) -> float:
        return self.structural - self.dynamical


def loci(o1: float, o2: float, d2: float) -> Loci:
    """Structural and dynamical loci with their tolerances.

    The dynamical locus is the maximum of the transfer supremum: dense
    grids zoom onto it, then Newton steps on fourth-order finite
    differences resolve its flat top far below the square-root noise
    floor of a value-only search.

    The package finds both loci by value-only (Brent) searches to an
    abscissa tolerance of DEFAULT_TOL. Such a search cannot place an
    extremum of f closer than sqrt(2 eta / |f''|) when f is known to
    +-eta, so each tolerance is ten times DEFAULT_TOL plus twice that
    floor: eta is the spectral noise for the splitting, and the
    eigenvector error noise / width for the transfer supremum.
    """
    s, w, s_tol = structural(o1, o2, d2)
    sup = lambda d1: transfer_supremum(o1, o2, d1, d2)  # noqa: E731
    d = float(zoom_argmax(sup, s - 8.0 * w, s + 8.0 * w, rounds=6, points=41))
    h = 1e-3 * w
    for _ in range(8):
        slope, curv = _stencil(sup, d, h)
        if curv >= 0.0:
            break
        step = -slope / curv
        d += step
        if abs(step) <= 1e-3 * h:
            break
    sup_curv = abs(_stencil(sup, d, 1e-2 * w)[1])
    return Loci(
        structural=s,
        dynamical=d,
        width=w,
        structural_tol=s_tol,
        dynamical_tol=10.0 * DEFAULT_TOL * d2
        + 2.0 * math.sqrt(2.0 * noise(o1, o2, d2) / w / sup_curv),
    )


def structural(o1: float, o2: float, d2: float):
    """(structural locus, crossing width, tolerance); see loci()."""
    s = structural_locus(o1, o2, d2)
    w = float(gap(o1, o2, s, d2)[0])
    gap_curv = abs(_stencil(lambda d1: gap(o1, o2, d1, d2), s, 1e-2 * w)[1])
    return s, w, 10.0 * DEFAULT_TOL * d2 + 2.0 * math.sqrt(2.0 * noise(o1, o2, d2) / gap_curv)


def effective_locus(o1: float, o2: float, d2: float) -> float:
    """delta_eff(delta1) = (d2 - d1)/2 + (O2^2 - O1^2)/(8 d1) = 0, solved as
    the quadratic d1^2 - d2 d1 - (O2^2 - O1^2)/4 = 0 (root near d2)."""
    roots = np.roots([1.0, -d2, -(o2 * o2 - o1 * o1) / 4.0])
    return float(roots.real[np.argmin(np.abs(roots.real - d2))])


def within_fourth_order(approx: float, exact: float, o1: float, o2: float, d2: float) -> bool:
    return abs(approx - exact) <= FOURTH_ORDER_BOUND * (o1 * o1 + o2 * o2) ** 2 / d2**3


# --- dressed-state character ---------------------------------------------


def character_labels(o1: float, o2: float, grid, d2: float):
    """Dominant bare state of each level along a delta1 grid.

    Returns (labels, margin): labels[i, k] is the bare index with the
    largest squared overlap, margin[i, k] the lead of the top weight over
    the runner-up.
    """
    _, v = spectrum(o1, o2, grid, d2)
    w = np.sort(v**2, axis=1)
    return np.argmax(v**2, axis=1), w[:, 2, :] - w[:, 1, :]


def swap_point(grid, labels, level: int = 1) -> float:
    """Midpoint of the first grid step where a level swaps between |1> and |3>."""
    lab = labels[:, level]
    for i in range(len(lab) - 1):
        if {int(lab[i]), int(lab[i + 1])} == {0, 2}:
            return 0.5 * (grid[i] + grid[i + 1])
    raise ValueError("no |1>/|3> character swap on the grid")


# --- weak probe ------------------------------------------------------------


@dataclass(frozen=True)
class ProbeLevels:
    """Upper splitting and the probe matrix elements a = <e3|3><1|e2>,
    b = <e3|1><3|e2> at each delta1."""

    gap: np.ndarray
    a: np.ndarray
    b: np.ndarray


def probe_levels(o1: float, o2: float, delta1, d2: float) -> ProbeLevels:
    e, v = spectrum(o1, o2, delta1, d2)
    return ProbeLevels(
        gap=e[:, 2] - e[:, 1],
        a=v[:, 2, 2] * v[:, 0, 1],
        b=v[:, 0, 2] * v[:, 2, 1],
    )


def probe_probability(g, a, b, omega_p: float, nu, duration: float):
    """First-order |e2> -> |e3> probability with probe coupling
    (omega_p / 2)(exp(i nu t)|3><1| + h.c.) switched on for `duration`.

    c3 = -i (omega_p / 2) sum_x m_x int_0^T exp(i x t) dt with x = gap +- nu:
    the integral is exp(i x T / 2) sin(x T / 2) / (x / 2), evaluated through
    its removable zero.
    """
    g, a, b = (np.asarray(q, dtype=float)[..., None] for q in (g, a, b))
    nu = np.asarray(nu, dtype=float)
    t = duration

    def integral(x):
        return np.exp(0.5j * x * t) * t * np.sinc(x * t / (2.0 * math.pi))

    amp = 0.5 * omega_p * (a * integral(g + nu) + b * integral(g - nu))
    return np.abs(amp) ** 2


def probe_rtol(o1: float, o2: float, d2: float, width: float, duration: float) -> float:
    """Relative accuracy (to the spectrum maximum) of a first-order probe
    spectrum: spectral noise enters the sinc arguments multiplied by the
    duration, and the overlaps divided by the crossing width."""
    eta = noise(o1, o2, d2)
    return eta * (duration + 4.0 / width) + 1e-12


def _probe_rows(levels: ProbeLevels, rows, omega_p: float, duration: float):
    g, a, b = levels.gap[rows], levels.a[rows], levels.b[rows]
    return lambda nu: probe_probability(g, a, b, omega_p, nu, duration)


def negative_peak_floor(levels: ProbeLevels, omega_p: float, duration: float) -> np.ndarray:
    """Per delta1, the least true height the package's negative-nu peak has.

    The package samples the spectrum every (2 pi / duration) / 12 and takes
    its highest sample at nu < 0. A sample lies within half a spacing of
    some hump's top, so the highest sample reads at least the larger over
    humps of min p(top -+ spacing / 2). Far from the crossing the weak peak
    at -gap splits into two humps of nearly equal height, and either may
    win; every local maximum of a dense reference spectrum is a candidate.
    """
    lobe = 2.0 * math.pi / duration
    half = lobe / 24.0
    n = levels.gap.size
    points = int(math.ceil(1.6 * levels.gap.max() / (lobe / 24.0))) + 2
    nu = -1.6 * levels.gap[:, None] * np.linspace(1.0, 0.0, points)
    y = _probe_rows(levels, slice(None), omega_p, duration)(nu)
    top = (y[:, 1:-1] > y[:, :-2]) & (y[:, 1:-1] >= y[:, 2:])
    top &= y[:, 1:-1] >= 0.9 * y.max(axis=1, keepdims=True)
    rows, cols = np.nonzero(top)
    cols = cols + 1
    step = nu[rows, cols] - nu[rows, cols - 1]
    f = _probe_rows(levels, rows, omega_p, duration)
    pos = zoom_argmax(f, nu[rows, cols] - step, nu[rows, cols] + step, rounds=16)
    sampled = np.minimum(_at(f, pos - half), _at(f, pos + half))
    floor = np.zeros(n)
    np.maximum.at(floor, rows, sampled)
    return floor


def _at(f, x: np.ndarray) -> np.ndarray:
    """f at one point per row."""
    return f(x[:, None])[:, 0]


def highest_near(levels: ProbeLevels, omega_p: float, duration: float, centre, radius: float):
    """Per delta1, the highest first-order probability within radius of centre."""
    f = _probe_rows(levels, slice(None), omega_p, duration)
    centre = np.asarray(centre, dtype=float)
    return _at(f, zoom_argmax(f, centre - radius, centre + radius, rounds=16))


# --- dynamics --------------------------------------------------------------


def envelope_bounds(o1: float, o2: float, d1: float, d2: float, grid_points: int = 400):
    """Bounds on the largest P(1 -> 3) that a 400-point grid over two
    effective Rabi periods, polished around its best point, can report.

    P(t) = |sum_k c_k exp(-i eps_k t)|^2. The two upper levels beat slowly
    and reach (|c_1| + |c_2|)^2 within the window; the far level |c_0|
    adds a fast ripple. Upper bound: the supremum (sum |c_k|)^2. Lower
    bound: the slow maximum less what a grid step can miss of it
    (|c_1 c_2| (gap dt)^2 / 4), less the ripple.
    """
    e, v = spectrum(o1, o2, d1, d2)
    c = np.abs(v[0, 2, :] * v[0, 0, :])
    omega_eff = o1 * o2 / (4.0 * d1)
    dt = 4.0 * math.pi / omega_eff / (grid_points - 1)
    beat = float(e[0, 2] - e[0, 1])
    slow = (c[1] + c[2]) ** 2 - c[1] * c[2] * (beat * dt) ** 2 / 4.0
    reach = max(math.sqrt(max(slow, 0.0)) - c[0], 0.0)
    # Eigenvector noise of the two upper levels, noise / splitting.
    slack = 4.0 * noise(o1, o2, d2) / beat + 1e-12
    return reach**2 - slack, float(c.sum() ** 2) + slack


# --- alkali numbers ----------------------------------------------------------

# Rb-87 ground-state figures quoted by the paper, with the tolerances of
# acceptance criterion 1.
RB87_QUOTED = {
    "bias_field_G": (1219.0, 0.005),
    "delta_e31_Hz": (5.919e9, 0.005),
    "delta_e23_Hz": (860e6, 0.01),
    "delta_e21_Hz": (6.779e9, 0.005),
}
RB87_GAMMA_HZ = 6.1e6
