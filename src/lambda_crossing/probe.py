"""Weak-probe measurement of the dressed-level splitting.

A weak auxiliary field couples |1> and |3> at beat frequency nu. To first
order in the probe, the |eps2> -> |eps3> transition probability shows
sinc^2 peaks at nu ~ +/- (eps3 - eps2); sweeping nu therefore measures the
splitting, and repeating over delta1 locates the structural resonance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from ._minimize import parabolic_vertex
from .errors import BracketError, ExtractionError, GridError
from .hamiltonian import DressedSpectrum, RamanParams, _gap, _monotone_grid, build_hamiltonian
from .hamiltonian import dressed_spectrum
from .resonance import shift_approx

# First-order probabilities above this are outside the perturbative regime.
PERTURBATIVE_CEILING = 0.5

# Feasibility thresholds: probe duration vs. peak-width requirement and
# probe amplitude vs. the perturbative upper bound.
TIME_RATIO_PASS = 10.0
RABI_RATIO_PASS = 0.1

_NO_PEAK = "no probe peak found at negative nu"

# Points of the default nu grid per peak width 2 pi / duration.
_POINTS_PER_WIDTH = 12

# Half-width, in peak widths, of the window around -gap on which
# probed_structural_resonance first evaluates each delta1.
_REACH = 3

# Relative allowance for rounding in the bounds that let a row keep its window.
_ROUNDING = 1e-9

# Cap on the points of the default nu grids of one call, all rows together: 32 MiB
# of floats, about a hundred times the largest grid of the perfbench workloads.
_MAX_NU_POINTS = 1 << 22

# Steps per block of the oracle: one block of steps is one Laurent polynomial
# in z with exponents -4 _BLOCK..4 _BLOCK, of which only -K..K are kept.
_BLOCK = 16

# Maps per chunk of the oracle's pairwise product, so blocks in a run of
# blocks; bounds its (2 K + 1, chunk) temporaries.
_CHUNK = 1024

# The 9th roots of unity, at which a step map is sampled, the inverse DFT from
# those samples to its coefficients of z^-4..z^4, the times of its three RK4
# stages in steps, and the half-widths K = 0..4 _BLOCK of _tail_bounds.
_ROOTS9 = np.exp(2j * np.pi / 9 * np.arange(9))
_INV_DFT9 = np.exp(-2j * np.pi / 9 * np.arange(9)[:, None] * np.arange(-4, 5)) / 9
_STAGE_TIMES = np.array([[0.0], [0.5], [1.0]])
_WIDTHS = np.arange(4 * _BLOCK + 1.0)


def _check_probe(omega_p: float, duration: float):
    """Reject a probe amplitude that is not finite and non-negative, or a
    duration that is not finite and positive."""
    if not (math.isfinite(omega_p) and omega_p >= 0.0):
        raise ValueError(f"omega_p must be finite and non-negative, got {omega_p!r}")
    if not (math.isfinite(duration) and duration > 0.0):
        raise ValueError(f"duration must be finite and positive, got {duration!r}")


@dataclass(frozen=True)
class ProbeParams:
    """Probe drive: Rabi frequency omega_p, beat frequency nu (finite), duration."""

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
    """Transition probability versus nu, with its two lines: peaks holds at
    most two Peaks, the highest maximum on each side of nu = 0 (by refined
    position, the negative side first), each with its half-maximum width."""

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


def _closed_form(alpha: AlphaElements, gap, omega_p: float, nu, t: float):
    """First-order probability at nu for the overlaps alpha and splitting gap
    of one spectrum, or of N spectra (arrays of N) against (N, M) rows of nu.
    Squares are products, so a row of a stack and the same spectrum alone
    agree to the last bit."""
    a13, a31 = alpha.alpha13, alpha.alpha31
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
    spec = dressed_spectrum(params)
    p = _closed_form(alpha_elements(spec), _gap(spec.energies), probe.omega_p, probe.nu,
                     probe.duration)
    return float(p)


def probe_time_domain_oracle(params: RamanParams, probe: ProbeParams, steps: int) -> float:
    """Independent check of the closed form: integrate the time-dependent
    Schroedinger equation with the oscillating probe coupling.

    Fixed-step classical 4th-order Runge-Kutta from |eps2>, returning
    |<eps3|psi(t)>|^2. Requires a positive integer number of steps, at
    least 50 per period of the fastest frequency in the problem, the probe's
    Rabi frequency included.

    Each RK4 step is the linear map psi -> (I + E(z_n)) psi built from the
    stage matrices at t_n, t_n + dt/2 and t_n + dt, where z_n = exp(i nu t_n)
    on the nodes t_n = n dt and E is a Laurent polynomial in z. A block of
    _BLOCK steps is then one Laurent polynomial I + F(z) too, with exponents
    -4 _BLOCK..4 _BLOCK, found once per call. Only its exponents -K..K are
    kept: Cauchy's estimate bounds every entry's sum of |C_k| over |k| > K by
    T_K (see _tail_bounds), which bounds both what truncation drops and what
    the (2 K + 1)-point sampling aliases onto the kept coefficients, and K is
    the smallest whose T_K lies below the rounding the samples of F already
    carry, eps _BLOCK max|C| over the coefficients C of E. A zero probe gives
    K = 0; where no K < 4 _BLOCK meets the bound, K = 4 _BLOCK keeps all of
    F. The block maps are multiplied pairwise, chunk by chunk, with the steps
    past the last whole block in the last chunk, not applied in a step loop.
    """
    # an int or numpy integer, not a bool
    if isinstance(steps, bool) or not isinstance(steps, Integral) or steps < 1:
        raise ValueError(f"steps must be a positive integer, got {steps!r}")
    steps = int(steps)
    spec = dressed_spectrum(params)
    fastest = max(_gap(spec.energies), abs(probe.nu), params.omega1, params.omega2,
                  abs(params.delta1), probe.omega_p)
    # a float, since duration * fastest may overflow to inf
    need = 50.0 * probe.duration * fastest / (2.0 * math.pi)
    if steps < need:
        raise ValueError(
            f"steps={steps} under-resolves the fastest frequency; need >= {np.ceil(need):.3g}"
        )
    dt = probe.duration / steps
    h0 = build_hamiltonian(params)
    half_p = 0.5 * probe.omega_p
    step = _rk4_step_coefficients(h0, half_p, probe.nu, dt)
    half = _half_width(step, _tail_bounds(np.abs(h0).sum(axis=1).max(), half_p, dt))
    phase = probe.nu * dt
    psi = _advance(spec.states[:, 1].astype(complex), _block_coefficients(step, phase, half),
                   step, phase, steps)
    return float(abs(spec.states[:, 2] @ psi) ** 2)


def _tail_bounds(h0_norm: float, half_p: float, dt: float) -> np.ndarray:
    """T_K for K = 0..4 _BLOCK: a bound on the sum of |C_k| over |k| > K, for
    every entry of the coefficients C_k of a block map F, with the probe
    coupling half_p, step dt and h0_norm the infinity norm of h0.

    On |z| = rho >= 1, and on |z| = 1/rho, every RK4 stage matrix -iH has
    infinity norm at most a = h0_norm + half_p rho, so |E| <= expm1(dt a)
    and |F| <= M = expm1(_BLOCK dt a). Cauchy's estimate gives
    |C_k| <= M rho^-|k|, so T_K = 2 M rho^-(K+1) / (1 - 1/rho), here at the
    rho that minimises it with exp for expm1, a root of
    x rho^2 - (x + K + 1) rho + K = 0 with x = _BLOCK dt half_p. Without a
    probe F has no exponent but 0, and every T_K is 0.
    """
    k = _WIDTHS
    x = _BLOCK * dt * half_p
    s = x + k + 1.0
    x_rho = 0.5 * (s + np.sqrt(s * s - 4.0 * x * k))
    inv_rho = x / x_rho
    return 2.0 * np.expm1(_BLOCK * dt * h0_norm + x_rho) * inv_rho ** (k + 1.0) / (1.0 - inv_rho)


def _half_width(step: np.ndarray, tails: np.ndarray) -> int:
    """The smallest K whose tail bound T_K lies below eps _BLOCK max|C| over
    the coefficients step of E, the rounding the samples of a block map carry;
    4 _BLOCK, which keeps every exponent, if none does."""
    kept = np.flatnonzero(tails <= np.finfo(float).eps * _BLOCK * np.abs(step).max())
    return int(kept[0]) if kept.size else 4 * _BLOCK


def _block_coefficients(step: np.ndarray, phase: float, half: int) -> np.ndarray:
    """(9, 2 half + 1) coefficients of F, exponents -half..half, with
    I + F(z) = (I + E(w^(_BLOCK-1) z)) ... (I + E(z)), w = exp(i phase), from the
    (9, 9) coefficients step of E.

    F is sampled at the (2 half + 1)-th roots of unity r_m: every E(w^j r_m)
    comes from one matrix product, the maps of a block are multiplied pairwise,
    and one FFT turns the samples into coefficients. Each kept coefficient is
    off by the aliased sum of those with |k| > half, and the dropped ones sum
    to at most T_half of _tail_bounds too. The oracle takes the smallest half
    whose T_half lies below the rounding of the samples, or half = 4 _BLOCK,
    which keeps and aliases nothing, where none does.
    """
    n = 2 * half + 1
    angle = 2.0 * math.pi / n * np.arange(n) + phase * np.arange(_BLOCK)[:, None]
    e = (step @ _powers(np.exp(1j * angle.ravel()), 4)).reshape(3, 3, _BLOCK, n)
    # The FFT takes the samples less the first one, so that it rounds only
    # their small spread in z and not the large z-free part of F.
    f = _pairwise_product(e)
    f0 = f[..., 0].copy()
    f = np.fft.fft(f - f0[..., None], axis=-1) / n
    f[..., 0] += f0
    return np.concatenate((f[..., half + 1:], f[..., :half + 1]), axis=-1).reshape(9, n)


def _advance(psi: np.ndarray, coeffs: np.ndarray, step: np.ndarray, phase: float,
             steps: int) -> np.ndarray:
    """Apply to psi, in order, I + F(z_n) at each whole block's first step n
    and I + E(z_n) at each step past the last, z_n = exp(i phase n), from the
    (9, 2 K + 1) coefficients coeffs of F (exponents -K..K) and step of E; the
    maps are multiplied pairwise, chunk by chunk of blocks, the last chunk's
    product taking the steps past the last block too."""
    blocks, rest = divmod(steps, _BLOCK)
    half = coeffs.shape[1] // 2
    for start in range(0, max(blocks, 1), _CHUNK):
        stop = min(start + _CHUNK, blocks)
        z = np.exp(1j * phase * (_BLOCK * np.arange(start, stop)))
        e = (coeffs @ _powers(z, half)).reshape(3, 3, stop - start)
        if stop == blocks and rest:
            z = np.exp(1j * phase * np.arange(steps - rest, steps))
            e = np.concatenate((e, (step @ _powers(z, 4)).reshape(3, 3, rest)), axis=2)
        psi = psi + _pairwise_product(e) @ psi
    return psi


def _powers(z: np.ndarray, half: int) -> np.ndarray:
    """(2 half + 1, z.size) array whose row k + half holds z^k, k = -half..half,
    for z on the unit circle."""
    zk = np.empty((2 * half + 1, z.size), dtype=complex)
    zk[half] = 1.0
    for k in range(half + 1, 2 * half + 1):
        np.multiply(zk[k - 1], z, out=zk[k])
    np.conjugate(zk[half + 1:], out=zk[:half][::-1])
    return zk


def _rk4_step_coefficients(h0: np.ndarray, half_p: float, nu: float, dt: float) -> np.ndarray:
    """(9, 9) coefficients C[3 i + j, k + 4] of the RK4 step map
    E(z)[i, j] = sum_k C[3 i + j, k + 4] z^k for psi' = -i H(t) psi, where
    H(t) = h0 + w |3><1| + conj(w) |1><3| and w = half_p z, z = exp(i nu t).

    Each of the four RK4 stages adds one factor of the probe, which carries
    z or 1/z, so the exponents run over k = -4..4 and the coefficients follow
    from samples at the 9th roots of unity by an inverse 9-point DFT. The
    stages at z, z exp(i nu dt / 2) and z exp(i nu dt) are one stack, m.
    """
    m = np.empty((3, 3, 3, 9), dtype=complex)
    m[...] = (-1j * h0)[:, :, None]
    z = _ROOTS9 * np.exp(1j * nu * dt * _STAGE_TIMES)
    m[:, 2, 0] -= 1j * half_p * z
    m[:, 0, 2] -= 1j * half_p / z
    k1, b, c = m
    eye = np.eye(3)[:, :, None]
    k2 = _mul(b, eye + 0.5 * dt * k1)
    k3 = _mul(b, eye + 0.5 * dt * k2)
    k4 = _mul(c, eye + dt * k3)
    e = (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return e.reshape(9, 9) @ _INV_DFT9


def _mul(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Matrix products b @ a of 3x3 matrices stacked along the trailing axes."""
    return np.einsum("im...,mj...->ij...", b, a)


def _pairwise_product(e: np.ndarray) -> np.ndarray:
    """E with I + E = (I + e[:, :, n-1]) ... (I + e[:, :, 0]) for a (3, 3, n, ...)
    stack, multiplied pairwise as (I + B)(I + A) = I + (A + B + BA) to keep the
    small E apart from I; an odd last map joins the next level as its last."""
    while e.shape[2] > 1:
        n = e.shape[2]
        a, b = e[:, :, 0:n - 1:2], e[:, :, 1::2]
        pairs = a + b + _mul(b, a)
        e = np.concatenate((pairs, e[:, :, n - 1:]), axis=2) if n % 2 else pairs
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


def _highest(p, at, positions, side):
    """Per row of p (along its last axis), the highest of the maxima at, at
    refined positions (from _refined_maxima), that the mask side keeps, the
    first on a tie. Returns (column, position): the maximum's column, -1
    where a row keeps none, and its refined position."""
    at = tuple(k[side] for k in at)
    # One spare column past the last point keeps argmax defined for M = 0.
    height = np.full((*p.shape[:-1], p.shape[-1] + 1), -math.inf)
    height[at] = p[at]
    position = np.zeros(height.shape)
    position[at] = positions[side]
    best = np.argmax(height, axis=-1)[..., None]
    found = np.take_along_axis(height, best, axis=-1)[..., 0] > -math.inf
    return np.where(found, best[..., 0], -1), np.take_along_axis(position, best, axis=-1)[..., 0]


def _extract_peaks(nu, p):
    """The two lines of one spectrum: on each side of nu = 0 by refined
    position (below 0, then 0 and above), the highest maximum (_highest),
    with its height and full width at half maximum, the span between the
    nearest samples on either side at or below half its height (or the
    grid end where there is none)."""
    at, positions = _refined_maxima(nu, p)
    peaks = []
    for side in (positions < 0.0, positions >= 0.0):
        column, position = _highest(p, at, positions, side)
        i = int(column)
        if i < 0:
            continue
        low = ~(p > 0.5 * p[i])
        left, right = np.flatnonzero(low[:i]), np.flatnonzero(low[i:])
        lo = left[-1] if left.size else 0
        hi = i + right[0] if right.size else p.size - 1
        peaks.append(Peak(position=float(position), height=float(p[i]),
                          width=float(nu[hi] - nu[lo])))
    return tuple(peaks)


def probe_spectrum(params: RamanParams, omega_p: float, duration: float, nu_grid) -> ProbeSpectrum:
    """Evaluate the probe transition probability over a nu grid and extract
    its two lines.

    The grid must be finite and strictly ascending, span at least
    [-1.5 gap, 1.5 gap] and have a spacing no coarser than a tenth of the
    2 pi / duration peak width.

    peaks holds at most two Peaks, the line at negative nu first: on each
    side of nu = 0, by refined position, the highest local maximum (the
    first on a tie), which at negative nu is the one measured_splitting
    reads. The sinc^2 side lobes are not listed. Where the lines merge
    (gap below about 2 pi / duration) the merged hump is the peak on the
    side of its refined position, and the other side reports its own
    highest maximum, a side lobe, or nothing.
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
    p = _closed_form(alpha_elements(spec), gap, omega_p, nu, duration)
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
    at, positions = _refined_maxima(np.asarray(spectrum.nu_grid), p)
    column, position = _highest(p, at, positions, positions < 0.0)
    split = np.where(column >= 0, np.abs(position), math.nan)
    if split.ndim:
        return split
    if math.isnan(split):
        raise ExtractionError(_NO_PEAK)
    return float(split)


def default_nu_grid(params: RamanParams, duration: float) -> np.ndarray:
    """Grid spanning +/- 1.6 gap with spacing (2 pi / duration) / 12; GridError at gap 0
    and where it would hold more than _MAX_NU_POINTS points."""
    _check_probe(0.0, duration)
    gap = _gap(dressed_spectrum(params).energies)
    if not gap > 0.0:
        raise GridError("the default nu grid spans +/- 1.6 gap and the splitting "
                        "gap = eps3 - eps2 is 0: give a nu grid")
    span, n = _nu_rows(gap, duration)
    return _nu_grids(span, n, 0.0, n)[0]


def _nu_rows(gaps, duration: float):
    """(span, n): the half-span 1.6 gap and the point count of each gap's
    default nu grid, as (N, 1) columns. Raises GridError when the full rows
    would hold more than _MAX_NU_POINTS points in all."""
    span = 1.6 * np.reshape(gaps, (-1, 1))
    spacing = (2.0 * math.pi / duration) / _POINTS_PER_WIDTH
    n = np.maximum(np.ceil(2.0 * span / spacing) + 1.0, 5.0)
    points = n.size * float(n.max())
    if not points <= _MAX_NU_POINTS:
        raise GridError(
            f"duration = {duration:g} needs {points:.3g} nu points, over the cap of "
            f"{_MAX_NU_POINTS}"
        )
    return span, n


def _nu_grids(span, n, lo, hi) -> np.ndarray:
    """Points lo <= k < hi of each row's default nu grid
    np.linspace(-span, span, n), one row each and NaN past the row's own
    hi - lo points. The arithmetic is linspace's (k * step + start, the last
    point set to the span), so a point is the same float in every range."""
    k = lo + np.arange(int(np.max(hi - lo)), dtype=float)
    nu = k * (2.0 * span / (n - 1.0)) - span
    return np.where(k < hi, np.where(k < n - 1.0, nu, span), math.nan)


def _window_splittings(alpha: AlphaElements, gap, span, n, omega_p: float, duration: float):
    """Splittings read off each row's default nu grid near -gap alone, and
    the mask of rows whose full grid provably gives the same splitting and
    no probability above PERTURBATIVE_CEILING.

    A row's window is the 2 _REACH _POINTS_PER_WIDTH + 1 points of its grid
    nearest -gap (index 3 (n - 1) / 16), at most _REACH peak widths
    2 pi / duration from it. With P = omega_p^2 |a31 f+ + a13 f- e^(i nu t)|^2
    and |f+-| <= min(t / 2, 1 / |gap +- nu|), a row is kept when:
    - omega_p^2 (|a31| + |a13|)^2 t^2 / 4, a bound on P at every nu, is at
      most the ceiling;
    - the window lies at nu < 0 and is not cut by the grid's start; and
    - its highest sample exceeds omega_p^2 (|a31| / d + 2 |a13| / gap)^2, a
      bound on P at nu < gap / 2 at least d from -gap, with d the distance
      of the window's end points. No maximum outside the window's interior
      can then win, and the interior maxima, their neighbours and positions
      are the full grid's, to the last bit.
    Each bound carries a relative margin _ROUNDING for rounding.
    """
    half = _REACH * _POINTS_PER_WIDTH
    centre = np.round(0.1875 * (n - 1.0))
    lo, hi = np.maximum(centre - half, 0.0), np.minimum(centre + half + 1.0, n)
    nu = _nu_grids(span, n, lo, hi)
    p = _closed_form(alpha, gap, omega_p, nu, duration)
    splittings = measured_splitting(ProbeSpectrum(nu, p, (), False))
    a13, a31 = np.abs(alpha.alpha13), np.abs(alpha.alpha31)
    first, last = nu[:, 0], nu[np.arange(gap.size), (hi - lo - 1.0).astype(int)[:, 0]]
    d = np.minimum(-(gap + first), gap + last)
    cap = omega_p * (a13 + a31) * (0.5 * duration)
    with np.errstate(divide="ignore", invalid="ignore"):
        far = omega_p * (a31 / d + 2.0 * a13 / gap)
    margin = 1.0 + _ROUNDING
    keep = (lo[:, 0] > 0.0) & (last < 0.0) & (d > 0.0) & ~np.isnan(splittings)
    keep &= cap * cap * margin <= PERTURBATIVE_CEILING
    return splittings, keep & (far * far * margin < np.nanmax(p, axis=1))


@dataclass(frozen=True)
class ProbedResonance:
    delta1: float
    delta1_grid: np.ndarray
    splittings: np.ndarray


def probed_structural_resonance(
    params: RamanParams, delta1_grid, omega_p: float, duration: float
) -> ProbedResonance:
    """Structural resonance as the probe protocol would measure it.

    For each delta1 on the grid, sweep nu over its default_nu_grid, extract
    the negative-nu peak and record the measured splitting; the resonance
    is the parabolic refinement of the grid minimum. Only the line near
    -gap is evaluated where bounds prove that the full grid gives the same
    result (_window_splittings): 2 _REACH peak widths per row, one (N, 73)
    array. Every other row is evaluated on its full grid, in one NaN-padded
    array, so the splittings, and every error, equal a full-grid
    evaluation's bit for bit. Both arrays use one alpha_elements call, and
    measured_splitting reads each array at once. The probe prefactor
    omega_p^2 scales the whole spectrum and cannot move the extremum, but a
    probe strong enough to set any spectrum's perturbative_flag raises
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
    gap = _gap(spectra.energies)
    span, n = _nu_rows(gap, duration)
    alpha = alpha_elements(spectra)
    splittings, kept = _window_splittings(alpha, gap, span, n, omega_p, duration)
    strong = np.zeros(grid.size, dtype=bool)
    redo = np.flatnonzero(~kept)
    if redo.size:
        nu = _nu_grids(span[redo], n[redo], 0.0, n[redo])
        rows = AlphaElements(alpha.alpha13[redo], alpha.alpha31[redo])
        p = _closed_form(rows, gap[redo], omega_p, nu, duration)
        strong[redo] = np.any(p > PERTURBATIVE_CEILING, axis=1)
        splittings[redo] = measured_splitting(ProbeSpectrum(nu, p, (), bool(strong.any())))
    bad = strong | np.isnan(splittings)
    if bad.any():
        i = int(np.argmax(bad))
        if strong[i]:
            row = int(np.searchsorted(redo, i))
            raise _strong_probe(omega_p, p[row][~np.isnan(nu[row])], f" at delta1 = {grid[i]:g}")
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


def _probe_bounds(shift: float, cycle: float):
    """Probe time cycle / shift (inf at zero shift), amplitude 2 shift; cycle: 2 pi or 1 (Hz)."""
    return (cycle / shift if shift > 0 else math.inf), 2.0 * shift


def feasibility_check(params: RamanParams, omega_p: float, duration: float) -> FeasibilityReport:
    """Compare duration and omega_p against the shift-resolution requirements.

    The peaks narrow like 2 pi / t, so resolving the dynamical shift needs
    duration >> 2 pi / shift; keeping first-order peak heights below unity
    bounds the probe amplitude by twice the shift.
    """
    _check_probe(omega_p, duration)
    time_required, rabi_bound = _probe_bounds(shift_approx(params), 2.0 * math.pi)
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
