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
from .hamiltonian import DressedSpectrum, RamanParams, _gap, _monotone_grid, build_hamiltonian
from .hamiltonian import dressed_spectrum
from .resonance import _check_count, shift_approx

# First-order probabilities above this are outside the perturbative regime.
PERTURBATIVE_CEILING = 0.5

# Feasibility thresholds: probe duration vs. peak-width requirement and
# probe amplitude vs. the perturbative upper bound.
TIME_RATIO_PASS = 10.0
RABI_RATIO_PASS = 0.1

_NO_PEAK = "no probe peak found at negative nu"

# Cap on the nu points _nu_grids builds in one call, all rows together: 32 MiB
# of floats, about a hundred times the largest grid of the perfbench workloads.
_MAX_NU_POINTS = 1 << 22

# Steps per block of the oracle (a power of two): one block of steps is one
# Laurent polynomial in z with exponents -4 _BLOCK..4 _BLOCK.
_BLOCK = 8

# Maps per chunk of the oracle's pairwise product (a power of two), so blocks
# in a run of blocks; bounds its (8 _BLOCK + 1, chunk) temporaries.
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
    """Dressed-bare overlap products entering the probe matrix element:
    floats for one spectrum, arrays over the grid of a stacked one."""

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
    sign-fixed eigenvectors; arrays over the grid of a stacked spectrum."""
    v = spectrum.states
    alpha13, alpha31 = v[..., 0, 2] * v[..., 2, 1], v[..., 2, 2] * v[..., 0, 1]
    if v.ndim == 2:
        alpha13, alpha31 = float(alpha13), float(alpha31)
    return AlphaElements(alpha13=alpha13, alpha31=alpha31)


def _sinc_half(x, t):
    """sin(x t / 2) / x, evaluated through its removable zero at x = 0."""
    return 0.5 * t * np.sinc(np.asarray(x) * t / (2.0 * math.pi))


def _closed_form(spectrum: DressedSpectrum, omega_p: float, nu, t: float):
    """First-order probability at nu for one spectrum, or for a stack of N
    spectra against (N, M) rows of nu. Squares are products, so a row of a
    stack and the same spectrum alone agree to the last bit."""
    alpha = alpha_elements(spectrum)
    a13, a31, gap = alpha.alpha13, alpha.alpha31, _gap(spectrum.energies)
    if np.ndim(gap):
        a13, a31, gap = a13[:, None], a31[:, None], gap[:, None]
    f_plus = _sinc_half(gap + np.asarray(nu), t)
    f_minus = _sinc_half(gap - np.asarray(nu), t)
    cross = 2.0 * a13 * a31 * f_plus * f_minus * np.cos(np.asarray(nu) * t)
    return (omega_p * omega_p) * (
        a31 * a31 * (f_plus * f_plus) + a13 * a13 * (f_minus * f_minus) + cross
    )


def probe_transition_probability(params: RamanParams, probe: ProbeParams) -> float:
    """First-order |eps2> -> |eps3> probability after time probe.duration.

    Closed form of the perturbative transition amplitude; the removable
    singularities at nu = +/- gap are evaluated through their finite
    sinc limits.
    """
    return float(_closed_form(dressed_spectrum(params), probe.omega_p, probe.nu, probe.duration))


def probe_time_domain_oracle(params: RamanParams, probe: ProbeParams, steps: int) -> float:
    """Independent check of the closed form: integrate the time-dependent
    Schroedinger equation with the oscillating probe coupling.

    Fixed-step classical 4th-order Runge-Kutta from |eps2>, returning
    |<eps3|psi(t)>|^2. Requires a positive integer number of steps, at
    least 50 per period of the fastest frequency in the problem.

    Each RK4 step is the linear map psi -> (I + E(z_n)) psi built from the
    stage matrices at t_n, t_n + dt/2 and t_n + dt, where z_n = exp(i nu t_n)
    on the nodes t_n = n dt and E is a Laurent polynomial in z. A block of
    _BLOCK steps is then one Laurent polynomial too, found once per call;
    the block maps, and the steps past the last whole block, are multiplied
    pairwise, chunk by chunk, rather than applied in a step loop.
    """
    _check_count("steps", steps)
    steps = int(steps)
    spec = dressed_spectrum(params)
    fastest = max(_gap(spec.energies), abs(probe.nu), params.omega1, params.omega2,
                  abs(params.delta1))
    # a float, since duration * fastest may overflow to inf
    need = 50.0 * probe.duration * fastest / (2.0 * math.pi)
    if steps < need:
        raise ValueError(
            f"steps={steps} under-resolves the fastest frequency; need >= {np.ceil(need):.3g}"
        )
    dt = probe.duration / steps
    step = _rk4_step_coefficients(build_hamiltonian(params), 0.5 * probe.omega_p, probe.nu, dt)
    phase = probe.nu * dt
    blocks, rest = divmod(steps, _BLOCK)
    psi = spec.states[:, 1].astype(complex)
    psi = _advance(psi, _block_coefficients(step, phase), phase, 0, _BLOCK, blocks)
    psi = _advance(psi, step, phase, blocks * _BLOCK, 1, rest)
    return float(abs(spec.states[:, 2] @ psi) ** 2)


def _block_coefficients(step: np.ndarray, phase: float) -> np.ndarray:
    """(9, 8 _BLOCK + 1) coefficients of F, exponents -4 _BLOCK..4 _BLOCK, with
    I + F(z) = (I + E(w^(_BLOCK-1) z)) ... (I + E(z)), w = exp(i phase), from the
    (9, 9) coefficients step of E.

    F is sampled at the (8 _BLOCK + 1)-th roots of unity r_m: every E(w^j r_m)
    comes from one matrix product, the maps of a block are multiplied pairwise,
    and one FFT turns the samples into coefficients.
    """
    n = 8 * _BLOCK + 1
    angle = 2.0 * math.pi / n * np.arange(n) + phase * np.arange(_BLOCK)[:, None]
    z = np.exp(1j * angle.ravel())
    e = (step @ _powers(z, 4, z.size)).reshape(3, 3, _BLOCK, n)
    # The FFT takes the samples less the first one, so that it rounds only
    # their small spread in z and not the large z-free part of F.
    f = _pairwise_product(e)
    f0 = f[..., 0].copy()
    f = np.fft.fft(f - f0[..., None], axis=-1) / n
    f[..., 0] += f0
    return np.fft.fftshift(f, axes=-1).reshape(9, n)


def _advance(psi: np.ndarray, coeffs: np.ndarray, phase: float, first: int, stride: int,
             count: int) -> np.ndarray:
    """Apply the maps I + F(z_n), z_n = exp(i phase (first + n stride)), to psi
    in order for n < count, where F has the (9, 2 K + 1) coefficients coeffs
    with exponents -K..K; the maps are multiplied pairwise, chunk by chunk."""
    half = coeffs.shape[1] // 2
    for start in range(0, count, _CHUNK):
        n = min(_CHUNK, count - start)
        z = np.exp(1j * phase * (first + stride * np.arange(start, start + n)))
        # Columns past n are zero, padding the chunk to a power of two with
        # maps F = 0 that multiply as the identity.
        zk = _powers(z, half, 1 << (n - 1).bit_length())
        psi = psi + _pairwise_product((coeffs @ zk).reshape(3, 3, -1)) @ psi
    return psi


def _powers(z: np.ndarray, half: int, width: int) -> np.ndarray:
    """(2 half + 1, width) array whose row k + half holds z^k, k = -half..half,
    for z on the unit circle; the columns past z.size are zero."""
    n = z.size
    zk = np.empty((2 * half + 1, width), dtype=complex)
    zk[:, n:] = 0.0
    zk[half, :n] = 1.0
    for k in range(half + 1, 2 * half + 1):
        np.multiply(zk[k - 1, :n], z, out=zk[k, :n])
    np.conjugate(zk[half + 1:], out=zk[half - 1::-1])
    return zk


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
    """Matrix products b @ a of 3x3 matrices stacked along the trailing axes."""
    return np.einsum("im...,mj...->ij...", b, a)


def _pairwise_product(e: np.ndarray) -> np.ndarray:
    """E with I + E = (I + e[:, :, n-1]) ... (I + e[:, :, 0]) for a (3, 3, n, ...)
    stack, n a power of two, multiplied pairwise as
    (I + B)(I + A) = I + (A + B + BA) to keep the small E apart from I."""
    while e.shape[2] > 1:
        a, b = e[:, :, 0::2], e[:, :, 1::2]
        e = a + b + _mul(b, a)
    return e[:, :, 0]


def _refined_maxima(nu, p):
    """Interior local maxima of p along the last axis and their positions.

    Returns (at, position): at indexes the maxima in p, in row-major order.
    A maximum is an interior point with p[i] > p[i-1], p[i] >= p[i+1] and
    p[i] > 0, so NaN padding never is one or borders one. Its position is
    the vertex of the parabola through log p at i-1, i, i+1, clamped to
    [nu[i-1], nu[i+1]], or nu[i] when a neighbour has p <= 0.
    """
    mid = p[..., 1:-1]
    *rows, i = np.nonzero((mid > p[..., :-2]) & (mid >= p[..., 2:]) & (mid > 0.0))
    at, left, right = (*rows, i + 1), (*rows, i), (*rows, i + 2)
    finite = (p[left] > 0.0) & (p[right] > 0.0)
    lo, hi = nu[left], nu[right]
    log_lo, log_hi = (np.log(np.where(finite, p[k], 1.0)) for k in (left, right))
    pos = parabolic_vertex(lo, log_lo, nu[at], np.log(p[at]), hi, log_hi)
    pos = np.where(lo > pos, lo, pos)
    pos = np.where(hi < pos, hi, pos)
    return at, np.where(finite, pos, nu[at])


def _extract_peaks(nu, p):
    """Local maxima (see _refined_maxima) with their heights and an FWHM
    estimate, for the peak list of one spectrum."""
    (maxima,), positions = _refined_maxima(nu, p)
    nu, p = nu.tolist(), p.tolist()
    last = len(nu) - 1
    peaks = []
    for i, position in zip(maxima.tolist(), positions.tolist()):
        half = 0.5 * p[i]
        lo = i
        while lo > 0 and p[lo] > half:
            lo -= 1
        hi = i
        while hi < last and p[hi] > half:
            hi += 1
        peaks.append(Peak(position=position, height=p[i], width=nu[hi] - nu[lo]))
    return tuple(peaks)


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
    # steps only of a finite grid: inf - inf would warn
    if not (np.all(np.isfinite(nu)) and np.all((dnu := np.diff(nu)) > 0.0)):
        raise GridError("nu_grid must be finite and strictly ascending")
    spec = dressed_spectrum(params)
    gap = _gap(spec.energies)
    if nu[0] > -1.5 * gap or nu[-1] < 1.5 * gap:
        raise GridError("nu_grid must span at least [-1.5 gap, 1.5 gap]")
    spacing = float(np.max(dnu))
    if spacing > (2.0 * math.pi / duration) / 10.0:
        raise GridError(
            f"nu grid spacing {spacing:g} too coarse to resolve 2 pi / t wide peaks"
        )
    p = _closed_form(spec, omega_p, nu, duration)
    return ProbeSpectrum(nu, p, _extract_peaks(nu, p), bool(np.any(p > PERTURBATIVE_CEILING)))


def _strong_probe(omega_p, probabilities, where: str = "") -> ValueError:
    """The error for a probe whose spectrum, probabilities, rises above
    PERTURBATIVE_CEILING."""
    return ValueError(
        f"omega_p = {omega_p} is too strong for the first-order probe{where}: peak "
        f"probability {float(np.max(probabilities)):.3g} exceeds "
        f"PERTURBATIVE_CEILING = {PERTURBATIVE_CEILING}"
    )


def measured_splitting(spectrum: ProbeSpectrum):
    """Splitting estimate |nu| of the highest peak at negative nu.

    Reads only spectrum.nu_grid and spectrum.probabilities, along their last
    axis. A peak is an interior point with p[i] > p[i-1], p[i] >= p[i+1]
    and p[i] > 0, at the vertex of the parabola through log p at i-1, i,
    i+1 clamped to [nu[i-1], nu[i+1]]. It counts when that refined position
    is below 0; the highest such peak wins, the first on a tie.

    For one spectrum returns a float, and raises ExtractionError when no
    peak counts. For an (N, M) stack of spectra, whose rows may end in NaN
    padding, returns an array of N splittings, NaN where a row has none.
    """
    p = np.asarray(spectrum.probabilities)
    at, pos = _refined_maxima(np.asarray(spectrum.nu_grid), p)
    negative = pos < 0.0
    at = tuple(k[negative] for k in at)
    # One spare column past the last point keeps argmax defined for M = 0.
    height = np.full((*p.shape[:-1], p.shape[-1] + 1), -math.inf)
    height[at] = p[at]
    position = np.zeros(height.shape)
    position[at] = pos[negative]
    best = np.argmax(height, axis=-1)[..., None]
    found = np.take_along_axis(height, best, axis=-1)[..., 0] > -math.inf
    split = np.where(found, np.abs(np.take_along_axis(position, best, axis=-1)[..., 0]), math.nan)
    if split.ndim:
        return split
    if math.isnan(split):
        raise ExtractionError(_NO_PEAK)
    return float(split)


def default_nu_grid(params: RamanParams, duration: float) -> np.ndarray:
    """Grid spanning +/- 1.6 gap with spacing (2 pi / duration) / 12."""
    _check_probe(0.0, duration)
    return _nu_grids(_gap(dressed_spectrum(params).energies), duration)[0]


def _nu_grids(gaps, duration: float) -> np.ndarray:
    """The default nu grid of each gap, one row each and NaN past the row's
    own length: np.linspace(-span, span, n) in one broadcast, with its
    arithmetic (k * step + start, the last point set to the span). Raises
    GridError, before anything is allocated, when the rows would hold more
    than _MAX_NU_POINTS points in all."""
    span = 1.6 * np.reshape(gaps, (-1, 1))
    spacing = (2.0 * math.pi / duration) / 12.0
    n = np.maximum(np.ceil(2.0 * span / spacing) + 1.0, 5.0)
    points = n.size * float(n.max())
    if not points <= _MAX_NU_POINTS:
        raise GridError(
            f"duration = {duration:g} needs {points:.3g} nu points, over the cap of "
            f"{_MAX_NU_POINTS}"
        )
    k = np.arange(int(n.max()), dtype=float)
    nu = k * (2.0 * span / (n - 1.0)) - span
    return np.where(k < n - 1.0, nu, np.where(k == n - 1.0, span, math.nan))


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
    refinement of the grid minimum. The spectra are one (N, M) array, each
    row on its own default nu grid padded with NaN, and measured_splitting
    reads all N splittings from it at once. The probe prefactor omega_p^2
    scales the whole spectrum and cannot move the extremum, but a probe
    strong enough to set any spectrum's perturbative_flag raises
    ValueError, and so does a grid of fewer than 3 points or one that is
    not strictly monotone (ascending or descending). At the first delta1
    whose spectrum is too strong or has no negative-nu peak, the
    ValueError or ExtractionError names that delta1.
    """
    _check_probe(omega_p, duration)
    grid = np.asarray(delta1_grid, dtype=float)
    if grid.size < 3:
        raise ValueError(f"delta1_grid must have at least 3 points, got {grid.size}")
    spectra = dressed_spectrum(params, _monotone_grid(grid))
    nu = _nu_grids(_gap(spectra.energies), duration)
    p = _closed_form(spectra, omega_p, nu, duration)
    strong = np.any(p > PERTURBATIVE_CEILING, axis=1)
    splittings = measured_splitting(ProbeSpectrum(nu, p, (), bool(strong.any())))
    bad = strong | np.isnan(splittings)
    if bad.any():
        i = int(np.argmax(bad))
        if strong[i]:
            raise _strong_probe(omega_p, p[i][~np.isnan(nu[i])], f" at delta1 = {grid[i]:g}")
        raise ExtractionError(f"delta1 = {grid[i]:g}: {_NO_PEAK}")
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
