"""Weak-probe measurement of the dressed-level splitting.

A weak auxiliary field couples |1> and |3> at beat frequency nu. To first
order in the probe, the |eps2> -> |eps3> transition probability shows
sinc^2 peaks at nu ~ +/- (eps3 - eps2); sweeping nu therefore measures the
splitting, and repeating over delta1 locates the structural resonance.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from ._minimize import parabolic_vertex
from .errors import BracketError, ExtractionError, GridError
from .hamiltonian import DressedSpectrum, RamanParams, build_hamiltonian, dressed_spectrum
from .resonance import _check_count, shift_approx

# First-order probabilities above this are outside the perturbative regime.
PERTURBATIVE_CEILING = 0.5

# Feasibility thresholds: probe duration vs. peak-width requirement and
# probe amplitude vs. the perturbative upper bound.
TIME_RATIO_PASS = 10.0
RABI_RATIO_PASS = 0.1

# Steps per chunk of the oracle's pairwise product (a power of two); bounds
# its (3, 3, chunk) temporaries.
_CHUNK = 1024


def _check_probe(omega_p: float, duration: float):
    """Reject a probe amplitude that is not finite and non-negative, or a
    duration that is not finite and positive."""
    if not (math.isfinite(omega_p) and omega_p >= 0.0):
        raise ValueError(f"omega_p must be finite and non-negative, got {omega_p!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration!r}")


@dataclass(frozen=True)
class ProbeParams:
    """Probe drive: Rabi frequency omega_p, beat frequency nu, duration."""

    omega_p: float
    nu: float
    duration: float

    def __post_init__(self):
        _check_probe(self.omega_p, self.duration)
        if not math.isfinite(self.nu):
            raise ValueError(f"nu must be finite, got {self.nu!r}")


@dataclass(frozen=True)
class AlphaElements:
    """Dressed-bare overlap products entering the probe matrix element."""

    alpha13: float
    alpha31: float


@dataclass(frozen=True)
class Peak:
    position: float
    height: float
    width: float


@dataclass(frozen=True)
class ProbeSpectrum:
    """Transition probability versus nu, with extracted peaks."""

    nu_grid: np.ndarray
    probabilities: np.ndarray
    peaks: tuple
    perturbative_flag: bool


def alpha_elements(spectrum: DressedSpectrum) -> AlphaElements:
    """alpha13 = <eps3|1><3|eps2>, alpha31 = <eps3|3><1|eps2> from the
    sign-fixed eigenvectors."""
    v = spectrum.states
    return AlphaElements(
        alpha13=float(v[0, 2] * v[2, 1]),
        alpha31=float(v[2, 2] * v[0, 1]),
    )


def _gap(spectrum: DressedSpectrum) -> float:
    return float(spectrum.energies[2] - spectrum.energies[1])


def _sinc_half(x, t):
    """sin(x t / 2) / x, evaluated through its removable zero at x = 0."""
    return 0.5 * t * np.sinc(np.asarray(x) * t / (2.0 * math.pi))


def _closed_form(alpha: AlphaElements, gap: float, omega_p: float, nu, t: float):
    f_plus = _sinc_half(gap + np.asarray(nu), t)
    f_minus = _sinc_half(gap - np.asarray(nu), t)
    cross = 2.0 * alpha.alpha13 * alpha.alpha31 * f_plus * f_minus * np.cos(np.asarray(nu) * t)
    return omega_p**2 * (alpha.alpha31**2 * f_plus**2 + alpha.alpha13**2 * f_minus**2 + cross)


def probe_transition_probability(params: RamanParams, probe: ProbeParams) -> float:
    """First-order |eps2> -> |eps3> probability after time probe.duration.

    Closed form of the perturbative transition amplitude; the removable
    singularities at nu = +/- gap are evaluated through their finite
    sinc limits.
    """
    spec = dressed_spectrum(params)
    return float(
        _closed_form(alpha_elements(spec), _gap(spec), probe.omega_p, probe.nu, probe.duration)
    )


def probe_time_domain_oracle(params: RamanParams, probe: ProbeParams, steps: int) -> float:
    """Independent check of the closed form: integrate the time-dependent
    Schroedinger equation with the oscillating probe coupling.

    Fixed-step classical 4th-order Runge-Kutta from |eps2>, returning
    |<eps3|psi(t)>|^2. Requires a positive integer number of steps, at
    least 50 per period of the fastest frequency in the problem.

    Each RK4 step is the linear map psi -> (I + E_n) psi built from the
    stage matrices at t_n, t_n + dt/2 and t_n + dt. The step propagators
    are multiplied pairwise, chunk by chunk, rather than applied in a
    step loop; the nodes t_n are the step loop's clock t += dt.
    """
    _check_count("steps", steps)
    steps = int(steps)
    spec = dressed_spectrum(params)
    fastest = max(_gap(spec), abs(probe.nu), params.omega1, params.omega2, abs(params.delta1))
    if fastest > 0:
        min_steps = int(math.ceil(50.0 * probe.duration * fastest / (2.0 * math.pi)))
        if steps < min_steps:
            raise ValueError(
                f"steps={steps} under-resolves the fastest frequency; need >= {min_steps}"
            )
    dt = probe.duration / steps
    coeffs = _rk4_step_coefficients(build_hamiltonian(params), 0.5 * probe.omega_p, probe.nu, dt)
    psi = spec.states[:, 1].astype(complex)
    t = 0.0
    for start in range(0, steps, _CHUNK):
        n = min(_CHUNK, steps - start)
        clock = np.full(n, dt)
        clock[0] = t
        t_n = np.cumsum(clock)
        t = t_n[-1] + dt
        # Row k + 4 holds z_n^k. Columns past n stay zero, padding the chunk
        # to a power of two with steps E_n = 0 that multiply as the identity.
        zk = np.zeros((9, 1 << (n - 1).bit_length()), dtype=complex)
        z = np.exp(1j * probe.nu * t_n)
        zk[4, :n] = 1.0
        for k in range(5, 9):
            zk[k, :n] = zk[k - 1, :n] * z
        zk[3::-1] = zk[5:].conj()
        psi = psi + _pairwise_product((coeffs @ zk).reshape(3, 3, -1)) @ psi
    return float(abs(spec.states[:, 2] @ psi) ** 2)


def _rk4_step_coefficients(h0: np.ndarray, half_p: float, nu: float, dt: float) -> np.ndarray:
    """(9, 9) coefficients C[3 i + j, k + 4] of the RK4 step map
    E(z)[i, j] = sum_k C[3 i + j, k + 4] z^k for psi' = -i H(t) psi, where
    H(t) = h0 + w |3><1| + conj(w) |1><3| and w = half_p z, z = exp(i nu t).

    Each of the four RK4 stages adds one factor of the probe, which carries
    z or 1/z, so the exponents run over k = -4..4 and the coefficients follow
    from samples at the 9th roots of unity by an inverse 9-point DFT.
    """
    samples = np.arange(9)
    roots = np.exp(2j * np.pi / 9 * samples)
    inv_dft = np.exp(-2j * np.pi / 9 * samples[:, None] * np.arange(-4, 5)) / 9

    def stage(z):
        m = np.broadcast_to((-1j * h0)[:, :, None], (3, 3, 9)).copy()
        m[2, 0] -= 1j * half_p * z
        m[0, 2] -= 1j * half_p / z
        return m

    eye = np.eye(3)[:, :, None]
    b = stage(roots * cmath.exp(0.5j * nu * dt))
    k1 = stage(roots)
    k2 = _mul(b, eye + 0.5 * dt * k1)
    k3 = _mul(b, eye + 0.5 * dt * k2)
    k4 = _mul(stage(roots * cmath.exp(1j * nu * dt)), eye + dt * k3)
    e = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return e.reshape(9, 9) @ inv_dft


def _mul(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Matrix products b @ a of 3x3 matrices stacked along the trailing axis."""
    return np.einsum("imn,mjn->ijn", b, a)


def _pairwise_product(e: np.ndarray) -> np.ndarray:
    """E with I + E = (I + e[..., n-1]) ... (I + e[..., 0]) for a (3, 3, n)
    stack, n a power of two, multiplied pairwise as
    (I + B)(I + A) = I + (A + B + BA) to keep the small E apart from I."""
    while e.shape[2] > 1:
        a, b = e[:, :, 0::2], e[:, :, 1::2]
        e = a + b + _mul(b, a)
    return e[:, :, 0]


def _extract_peaks(nu, p):
    """Local maxima with parabolic sub-grid refinement and FWHM estimate."""
    inner = p[1:-1]
    maxima = 1 + np.flatnonzero((inner > p[:-2]) & (inner >= p[2:]) & (inner > 0.0))
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf).tolist()
    nu, p = nu.tolist(), p.tolist()
    last = len(nu) - 1
    peaks = []
    for i in maxima.tolist():
        if math.isfinite(logp[i - 1]) and math.isfinite(logp[i + 1]):
            pos = parabolic_vertex(nu[i - 1], logp[i - 1], nu[i], logp[i], nu[i + 1], logp[i + 1])
            pos = min(max(pos, nu[i - 1]), nu[i + 1])
        else:
            pos = nu[i]
        half = 0.5 * p[i]
        lo = i
        while lo > 0 and p[lo] > half:
            lo -= 1
        hi = i
        while hi < last and p[hi] > half:
            hi += 1
        peaks.append(Peak(position=pos, height=p[i], width=nu[hi] - nu[lo]))
    return tuple(peaks)


def _probe_spectrum(spec: DressedSpectrum, omega_p: float, duration: float, nu) -> ProbeSpectrum:
    p = _closed_form(alpha_elements(spec), _gap(spec), omega_p, nu, duration)
    return ProbeSpectrum(
        nu_grid=nu,
        probabilities=p,
        peaks=_extract_peaks(nu, p),
        perturbative_flag=bool(np.any(p > PERTURBATIVE_CEILING)),
    )


def probe_spectrum(params: RamanParams, omega_p: float, duration: float, nu_grid) -> ProbeSpectrum:
    """Evaluate the probe transition probability over a nu grid and extract peaks.

    The grid must be finite and strictly ascending, span at least
    [-1.5 gap, 1.5 gap] and have a spacing no coarser than a tenth of the
    2 pi / duration peak width.
    """
    _check_probe(omega_p, duration)
    nu = np.asarray(nu_grid, dtype=float)
    if nu.ndim != 1 or nu.size < 5:
        raise GridError("nu_grid must be a 1-D grid with at least 5 points")
    dnu = np.diff(nu)
    if not (np.all(np.isfinite(nu)) and np.all(dnu > 0.0)):
        raise GridError("nu_grid must be finite and strictly ascending")
    spec = dressed_spectrum(params)
    gap = _gap(spec)
    if nu[0] > -1.5 * gap or nu[-1] < 1.5 * gap:
        raise GridError("nu_grid must span at least [-1.5 gap, 1.5 gap]")
    spacing = float(np.max(dnu))
    if spacing > (2.0 * math.pi / duration) / 10.0:
        raise GridError(
            f"nu grid spacing {spacing:g} too coarse to resolve 2 pi / t wide peaks"
        )
    return _probe_spectrum(spec, omega_p, duration, nu)


def _strong_probe(omega_p, spectrum: ProbeSpectrum, where: str = "") -> ValueError:
    """The error for a probe whose spectrum has perturbative_flag set."""
    return ValueError(
        f"omega_p = {omega_p} is too strong for the first-order probe{where}: peak "
        f"probability {float(np.max(spectrum.probabilities)):.3g} exceeds "
        f"PERTURBATIVE_CEILING = {PERTURBATIVE_CEILING}"
    )


def measured_splitting(spectrum: ProbeSpectrum) -> float:
    """Splitting estimate |nu| of the highest peak at negative nu."""
    negative = [pk for pk in spectrum.peaks if pk.position < 0.0]
    if not negative:
        raise ExtractionError("no probe peak found at negative nu")
    best = max(negative, key=lambda pk: pk.height)
    return abs(best.position)


def default_nu_grid(params: RamanParams, duration: float) -> np.ndarray:
    """Grid spanning +/- 1.6 gap with spacing (2 pi / duration) / 12."""
    _check_probe(0.0, duration)
    return _nu_grid(_gap(dressed_spectrum(params)), duration)


def _nu_grid(gap: float, duration: float) -> np.ndarray:
    span = 1.6 * gap
    spacing = (2.0 * math.pi / duration) / 12.0
    n = max(int(math.ceil(2.0 * span / spacing)) + 1, 5)
    return np.linspace(-span, span, n)


@dataclass(frozen=True)
class ProbedResonance:
    delta1: float
    delta1_grid: np.ndarray
    splittings: np.ndarray


def probed_structural_resonance(
    params: RamanParams, delta1_grid, omega_p: float, duration: float
) -> ProbedResonance:
    """Structural resonance as the probe protocol would measure it.

    For each delta1 on the grid, sweep nu, extract the negative-nu peak
    and record the measured splitting; the resonance is the parabolic
    refinement of the grid minimum. The probe prefactor omega_p^2 scales
    the whole spectrum and cannot move the extremum, but a probe strong
    enough to set any spectrum's perturbative_flag raises ValueError, and
    so does a grid of fewer than 3 points.
    """
    _check_probe(omega_p, duration)
    grid = np.asarray(delta1_grid, dtype=float)
    if grid.size < 3:
        raise ValueError(f"delta1_grid must have at least 3 points, got {grid.size}")
    spectra = dressed_spectrum(params, grid)
    splittings = np.empty(grid.size)
    for i, d1 in enumerate(grid):
        point = DressedSpectrum(energies=spectra.energies[i], states=spectra.states[i])
        nu = _nu_grid(_gap(point), duration)
        spectrum = _probe_spectrum(point, omega_p, duration, nu)
        if spectrum.perturbative_flag:
            raise _strong_probe(omega_p, spectrum, f" at delta1 = {d1:g}")
        try:
            splittings[i] = measured_splitting(spectrum)
        except ExtractionError as err:
            raise ExtractionError(f"delta1 = {d1:g}: {err}") from err
    i = int(np.argmin(splittings))
    if i == 0 or i == grid.size - 1:
        raise BracketError("measured-splitting minimum is on the delta1 grid edge")
    d1_star = parabolic_vertex(
        grid[i - 1], splittings[i - 1], grid[i], splittings[i], grid[i + 1], splittings[i + 1]
    )
    return ProbedResonance(delta1=float(d1_star), delta1_grid=grid, splittings=splittings)


@dataclass(frozen=True)
class FeasibilityReport:
    """Resolution and weak-probe checks for a proposed probe setting."""

    time_ratio: float
    rabi_ratio: float
    time_ok: bool
    rabi_ok: bool
    time_required: float
    rabi_bound: float


def feasibility_check(params: RamanParams, omega_p: float, duration: float) -> FeasibilityReport:
    """Compare duration and omega_p against the shift-resolution requirements.

    The peaks narrow like 2 pi / t, so resolving the dynamical shift needs
    duration >> 2 pi / shift; keeping first-order peak heights below unity
    bounds the probe amplitude by twice the shift.
    """
    _check_probe(omega_p, duration)
    shift = shift_approx(params)
    time_required = 2.0 * math.pi / shift if shift > 0 else math.inf
    rabi_bound = 2.0 * shift
    time_ratio = duration / time_required if time_required < math.inf else 0.0
    rabi_ratio = omega_p / rabi_bound if rabi_bound > 0 else math.inf
    return FeasibilityReport(
        time_ratio=time_ratio,
        rabi_ratio=rabi_ratio,
        time_ok=time_ratio >= TIME_RATIO_PASS,
        rabi_ok=rabi_ratio <= RABI_RATIO_PASS,
        time_required=time_required,
        rabi_bound=rabi_bound,
    )
