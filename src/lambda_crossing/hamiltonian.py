"""Three-level Lambda Hamiltonian and its exact spectral decomposition.

All quantities are angular frequencies with hbar = 1. The two-photon
reference detuning delta2 sets the natural scale; working with delta2 = 1
is the recommended dimensionless convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral

import numpy as np

_AMBIG_TOL = 1e-9  # track_character's top-two squared-overlap gap for 'ambiguous'
# _overlap_weights takes the quotient form of n0 or n2 where the direct
# difference keeps less than this share of its subtracted b^2 or a^2
_CANCEL = 0.5
# the two other levels of levels 0, 1, 2
_PREV, _NEXT = np.array([1, 0, 0]), np.array([2, 2, 1])
# A trigonometric seed of a spectrum is kept, and polished by _NEWTON_STEPS
# deflated Newton steps, only where its smaller level gap exceeds _SEED_GAP
# (frame units): nearer a degeneracy its acos loses up to sqrt(eps), and
# eigvalsh takes the row. Two steps, not one: after one, a seed's error of
# about eps / gap leaves gaps near _SEED_GAP off by up to 1e-10 relative.
_SEED_GAP = 2.0**-20
_NEWTON_STEPS = 2
_SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class RamanParams:
    """Drive parameters of the probeless Lambda system.

    omega1, omega2 are the (real, non-negative) Rabi frequencies coupling
    |1>-|2> and |2>-|3>; delta1 is the detuning of the first field and
    delta2 the two-photon reference detuning (> 0).
    """

    omega1: float
    omega2: float
    delta1: float
    delta2: float = 1.0

    def __post_init__(self):
        for name in ("omega1", "omega2", "delta1", "delta2"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        if self.omega1 < 0 or self.omega2 < 0:
            raise ValueError("Rabi frequencies must be non-negative")
        if self.delta2 <= 0:
            raise ValueError("delta2 must be positive")

    def with_delta1(self, delta1: float) -> "RamanParams":
        return RamanParams(self.omega1, self.omega2, delta1, self.delta2)


@dataclass(frozen=True)
class DressedSpectrum:
    """Sorted eigenvalues and orthonormal eigenvectors of the full Hamiltonian.

    energies are ascending; states[:, k] is the unit eigenvector of
    energies[k] in the bare basis, sign-fixed so that its largest-magnitude
    component is positive. A spectrum batched over a delta1 grid carries a
    leading grid axis on both arrays.
    """

    energies: np.ndarray
    states: np.ndarray


def build_hamiltonian(params: RamanParams, delta1=None) -> np.ndarray:
    """Assemble the Lambda-system Hamiltonian in the laser-adapted picture.

    Returns the (3, 3) matrix at params.delta1, or, for a 1-D delta1 array
    (params.delta1 is then ignored), the (N, 3, 3) stack of matrices at
    each of its values.
    """
    d1 = params.delta1 if delta1 is None else _finite_grid(delta1)
    m = np.zeros(np.shape(d1) + (3, 3))
    m[..., 0, 1] = m[..., 1, 0] = params.omega1 / 2.0
    m[..., 1, 2] = m[..., 2, 1] = params.omega2 / 2.0
    m[..., 1, 1] = -d1
    m[..., 2, 2] = -(d1 - params.delta2)
    return m


def _at_drive(params: RamanParams) -> str:
    return "at " + ", ".join(f"{f.name} = {getattr(params, f.name):g}" for f in fields(params))


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ValueError(f"{name} must be finite")


def _finite_grid(delta1_grid) -> np.ndarray:
    grid = np.asarray(delta1_grid, dtype=float)
    if grid.ndim != 1:
        raise ValueError("delta1_grid must be a 1-D grid")
    _check_finite("delta1_grid", grid)
    return grid


def _monotone_grid(delta1_grid) -> np.ndarray:
    """A finite 1-D delta1 grid that is strictly ascending or descending."""
    grid = _finite_grid(delta1_grid)
    steps = np.diff(grid)
    if not (np.all(steps > 0) or np.all(steps < 0)):
        raise ValueError("delta1_grid must be monotone")
    return grid


def _signed_eigh(matrices: np.ndarray) -> DressedSpectrum:
    """LAPACK eigh of a (..., 3, 3) stack, ascending energies, with each
    eigenvector's largest-magnitude component made positive."""
    energies, states = np.linalg.eigh(matrices)
    peak = np.take_along_axis(states, np.abs(states).argmax(axis=-2)[..., None, :], axis=-2)
    states *= np.where(peak < 0.0, -1.0, 1.0)
    return DressedSpectrum(energies=energies, states=states)


def diagonalize(h) -> DressedSpectrum:
    """Exact spectral decomposition of a symmetric 3x3 matrix a caller passes in.

    Energies are returned ascending; eigenvector signs are fixed by making
    the largest-magnitude component positive, so overlaps are reproducible
    across parameter scans. A complex, non-3x3, non-finite or asymmetric
    matrix raises ValueError, in that order.
    """
    m = np.asarray(h)
    if np.iscomplexobj(m):
        raise ValueError("Hamiltonian matrix must be real")
    m = m.astype(float)
    if m.shape != (3, 3):
        raise ValueError("Hamiltonian must be 3x3")
    _check_finite("Hamiltonian matrix", m)
    if not np.abs(m - m.T).max() <= 1e-12 * max(np.abs(m).max(), 1e-300):
        raise ValueError("Hamiltonian matrix is not symmetric")
    return _signed_eigh(m)


def dressed_spectrum(params: RamanParams, delta1_grid=None) -> DressedSpectrum:
    """diagonalize(build_hamiltonian(params)), less its checks of the matrix.

    With delta1_grid, the spectra at every delta1 of the grid (params.delta1
    is ignored) from one batched eigh: energies has shape (N, 3) and
    states[i] is the sign-fixed eigenvector matrix at delta1_grid[i].
    """
    return _signed_eigh(build_hamiltonian(params, delta1_grid))


def _gap(energies):
    """eps3 - eps2 of ascending energies, along their last axis."""
    return energies[..., 2] - energies[..., 1]


def _frame(params: RamanParams, reach):
    """k, the one scale of every spectrum of a Lambda matrix: the frexp
    exponent of the largest of omega1 / 2, omega2 / 2, |reach| and delta2, one
    k per entry of an array reach. Times 2^-k, which is exact short of
    subnormals, no entry of a matrix at |delta1| <= |reach| reaches 2, so
    drives a power of two apart give results exactly that power apart."""
    top = max(0.5 * params.omega1, 0.5 * params.omega2, params.delta2)
    if isinstance(reach, np.ndarray):
        return np.frexp(np.maximum(np.abs(reach), top))[1]
    return math.frexp(max(abs(reach), top))[1]


def _scalar_spectrum(params: RamanParams, k: int):
    """(a, b, d2, levels): omega1 / 2, omega2 / 2 and delta2 in the frame 2^-k,
    and levels(x), the spectrum of the frame's matrix at delta1 = x 2^k
    (c = d2 - x): its ascending e_k and n_k = (e_k + x)(e_k - c) - b^2, the
    (1, 1) entry of adj(e_k - H). The one spectrum of gap32, the transfer and
    both slope loci.

    The levels are the roots of det(e - H) = e^3 + (x - c) e^2 - (x c + a^2 +
    b^2) e + a^2 c, seeded by the trigonometric formula (O. K. Smith, Commun.
    ACM 4, 168 (1961)) about the mean m of the diagonal, m + 2 r cos(phi),
    m + 2 r cos(phi -+ 2 pi / 3), which come ascending, and polished by
    _NEWTON_STEPS deflated Newton steps e_k -= det(e_k) / prod_{j != k}
    (e_k - e_j), with det as _secular writes it. A seed whose smaller gap is
    not above _SEED_GAP takes one eigvalsh of the matrix, refilled in place,
    instead. Plain floats throughout: numpy scalars would cost the gain."""
    a, b = math.ldexp(params.omega1, -k - 1), math.ldexp(params.omega2, -k - 1)
    d2 = math.ldexp(params.delta2, -k)
    m, a2, b2 = np.array([[0.0, a, 0.0], [a, 0.0, b], [0.0, b, 0.0]]), a * a, b * b
    s = (a2 + b2) / 3.0

    def levels(x: float):
        c = d2 - x
        mean = (c - x) / 3.0
        q0, q1, q2 = -mean, -x - mean, c - mean
        r = math.sqrt((q0 * q0 + q1 * q1 + q2 * q2) / 6.0 + s)
        cos3 = (q0 * (q1 * q2 - b2) - a2 * q2) / (2.0 * r * r * r)
        phi = math.acos(min(max(cos3, -1.0), 1.0)) / 3.0
        rc, rs = r * math.cos(phi), _SQRT3 * r * math.sin(phi)
        e1, e2, e3 = mean - rc - rs, mean - rc + rs, mean + 2.0 * rc
        if min(e2 - e1, e3 - e2) > _SEED_GAP:
            for _ in range(_NEWTON_STEPS):
                g12, g13, g23 = e1 - e2, e1 - e3, e2 - e3
                f1 = (e1 - c) * (e1 * (e1 + x) - a2) - b2 * e1
                f2 = (e2 - c) * (e2 * (e2 + x) - a2) - b2 * e2
                f3 = (e3 - c) * (e3 * (e3 + x) - a2) - b2 * e3
                e1, e2, e3 = e1 - f1 / (g12 * g13), e2 + f2 / (g12 * g23), e3 - f3 / (g13 * g23)
            e = [e1, e2, e3]
        else:
            m[1, 1], m[2, 2] = -x, c
            e = np.linalg.eigvalsh(m).tolist()
        return e, [(ek + x) * (ek - c) - b2 for ek in e]

    return a, b, d2, levels


def _point_spectrum(params: RamanParams):
    """(k, a, b, e): _scalar_spectrum's a, b and ascending levels at
    params.delta1, in the _frame k of that delta1."""
    k = _frame(params, params.delta1)
    a, b, _, levels = _scalar_spectrum(params, k)
    return k, a, b, levels(math.ldexp(params.delta1, -k))[0]


def _secular(e, u, v, a2, b2):
    """(det(e - H), n0, n1, n2), the diagonal of adj(e - H), for floats or
    arrays: v n2 - b^2 e, u v - b^2, e v, e u - a^2 with u = e + delta1 and
    v = e - (delta2 - delta1), passed apart from e so each keeps its own size."""
    n2 = e * u - a2
    return v * n2 - b2 * e, u * v - b2, e * v, n2


def gap32(params: RamanParams) -> float:
    """eps3 - eps2 >= 0 from _point_spectrum, the spectrum the structural locus
    reads; a ValueError names the drive where it exceeds the float range."""
    k, _, _, e = _point_spectrum(params)
    try:
        return math.ldexp(e[2] - e[1], k)
    except OverflowError:
        raise ValueError(f"the level gap overflows {_at_drive(params)}") from None


@dataclass(frozen=True)
class CharacterScan:
    """Dominant-bare-state labels of each dressed level along a delta1 scan.

    labels[i, k] is the bare-state index (0..2) with the largest squared
    overlap with dressed level k at delta1_grid[i]; ambiguous[i, k] marks
    points where the top two overlaps are numerically indistinguishable.
    """

    delta1_grid: np.ndarray
    labels: np.ndarray
    ambiguous: np.ndarray


def _overlap_weights(params: RamanParams, grid: np.ndarray) -> np.ndarray:
    """Squared overlaps |<j|eps_k>|^2, shape (N, bare j, level k), at each
    delta1 of grid, from one eigvalsh and no eigenvectors.

    With c = delta2 - delta1 and a, b = omega1 / 2, omega2 / 2, |<j|eps_k>|^2
    is n_j / (n0 + n1 + n2) for _secular's diagonal n_j of adj(e - H) at
    e = eps_k, all read off each row's matrix in the _frame of its delta1.
    One Newton step on _secular's det(x - H), subtracted from each of e,
    e + delta1 and e - c, leaves each accurate to its own size, however near
    zero. Where the difference in n0 or n2 keeps less than _CANCEL of its b^2
    or a^2, the equal quotient a^2 (e - c) / e or b^2 e / (e - c) (det = 0 at
    e) replaces it. A row with a non-finite weight, which a zero gap gives
    through the Newton step, takes _signed_eigh's states ** 2 instead. The
    energies stay here."""
    m = build_hamiltonian(params, grid)
    framed = np.ldexp(m, -_frame(params, grid)[:, None, None])
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e = np.linalg.eigvalsh(framed)
        u, v = e - framed[:, 1, 1:2], e - framed[:, 2, 2:]
        a2, b2 = framed[:, 0, 1:2] ** 2, framed[:, 1, 2:] ** 2
        step = _secular(e, u, v, a2, b2)[0] / ((e - e[:, _PREV]) * (e - e[:, _NEXT]))
        e -= step
        u -= step
        v -= step
        n = np.array(_secular(e, u, v, a2, b2)[1:])
        np.copyto(n[0], a2 * v / e, where=np.abs(n[0]) < _CANCEL * b2)
        np.copyto(n[2], b2 * e / v, where=np.abs(n[2]) < _CANCEL * a2)
        n /= n[0] + n[1] + n[2]
    weights = n.transpose(1, 0, 2)
    if not np.isfinite(n).all():
        bad = ~np.isfinite(weights).all(axis=(1, 2))
        weights[bad] = _signed_eigh(m[bad]).states ** 2
    return weights


def _dominant(weights: np.ndarray):
    """Dominant bare state of each level from (..., bare, level) squared
    overlaps: the last index of the largest (so exact ties resolve as
    np.argsort orders them), flagged ambiguous when the runner-up, the
    median of the three, is within _AMBIG_TOL of it."""
    w0, w1, w2 = weights[..., 0, :], weights[..., 1, :], weights[..., 2, :]
    lo, hi = np.minimum(w0, w1), np.maximum(w0, w1)
    top = np.maximum(hi, w2)
    runner_up = np.maximum(lo, np.minimum(hi, w2))
    labels = np.where(w2 == top, 2, np.where(w1 == top, 1, 0))
    return labels, top - runner_up <= _AMBIG_TOL


def track_character(params: RamanParams, delta1_grid) -> CharacterScan:
    """Track which bare state dominates each dressed level across a delta1
    scan, from _overlap_weights (no eigenvectors); near-ties are flagged
    ambiguous (_dominant)."""
    grid = _monotone_grid(delta1_grid)
    if grid.size < 2:
        raise ValueError("delta1_grid must be a 1-D grid with at least 2 points")
    labels, ambiguous = _dominant(_overlap_weights(params, grid))
    return CharacterScan(delta1_grid=grid, labels=labels, ambiguous=ambiguous)


def character_swap_point(scan: CharacterScan, level: int = 1) -> float:
    """delta1 where the given dressed level swaps its dominant bare state
    between |1> and |3> (midpoint of the bracketing grid step). level must
    be 0, 1 or 2: an int or numpy integer, not a bool."""
    if isinstance(level, bool) or not isinstance(level, Integral) or level not in (0, 1, 2):
        raise ValueError(f"level must be 0, 1 or 2, got {level!r}")
    lab = scan.labels[:, level]
    # labels are 0..2, so a step's two labels sum to 2 only as {0, 2} or {1, 1}
    swaps = np.flatnonzero((lab[:-1] + lab[1:] == 2) & (lab[:-1] != 1))
    if swaps.size == 0:
        raise ValueError("no |1>/|3> character swap found on the scan")
    i = swaps[0]
    return float(0.5 * (scan.delta1_grid[i] + scan.delta1_grid[i + 1]))
