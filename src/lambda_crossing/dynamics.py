"""Exact time evolution of the probeless system and the effective Rabi formula."""

from __future__ import annotations

import math

import numpy as np

from ._minimize import modular_minimum
from .effective import effective_energies, eliminate
from .errors import EnvelopeError
from .hamiltonian import RamanParams, _at_drive, _check_finite, _point_spectrum, dressed_spectrum


def evolve(params: RamanParams, psi0, t: float) -> np.ndarray:
    """Spectral propagation psi(t) = sum_k exp(-i eps_k t) <eps_k|psi0> |eps_k>.

    Exact for the time-independent Hamiltonian; psi0 must be normalized
    (tolerance 1e-6) and t one finite time, else ValueError.
    """
    _check_finite("t", t)
    if np.ndim(t) != 0:
        raise ValueError(f"t must be a scalar time, got shape {np.shape(t)}")
    psi0 = np.asarray(psi0, dtype=complex)
    if psi0.shape != (3,):
        raise ValueError("state vector must have 3 components")
    norm = np.linalg.norm(psi0)
    if not abs(norm - 1.0) <= 1e-6:
        raise ValueError(f"initial state psi0 is not normalized, norm {norm:g}")
    spec = dressed_spectrum(params)
    coeff = spec.states.T @ psi0
    return spec.states @ (np.exp(-1j * spec.energies * t) * coeff)


def _check_phase(params: RamanParams, t, rate: float, name: str) -> None:
    """ValueError naming the drive and the largest |t| where t * rate is not finite."""
    t_max = float(np.max(np.abs(t), initial=0.0))
    if not math.isfinite(t_max * rate):
        raise ValueError(f"the phase t * ({name}) overflows {_at_drive(params)}, t = {t_max:g}")


def p13_effective(params: RamanParams, t: float) -> float:
    """Two-level Rabi transfer probability |1> -> |3> of the effective model.
    Raises ValueError naming the drive where the Rabi frequency, or t times it, overflows."""
    _check_finite("t", t)
    model = eliminate(params)
    _, rabi = effective_energies(model)
    # rabi >= |omega_eff|, and is NaN where delta_eff is: one test covers both
    if not math.isfinite(rabi):
        raise ValueError(f"the effective Rabi frequency overflows {_at_drive(params)}")
    _check_phase(params, t, rabi, "effective Rabi frequency")
    if rabi == 0.0:
        return 0.0
    return (model.omega_eff / rabi) ** 2 * math.sin(t * rabi) ** 2


def _residues(params: RamanParams):
    """(c, f) from _point_spectrum: the residues c_k = <3|eps_k><eps_k|1> = a b /
    prod_{j != k} (e_k - e_j) as ratio products in its frame, which cannot
    overflow (all 0 when a b = 0), and f, the half-gaps of pairs (1, 2),
    (1, 3), (2, 3) scaled out of it (inf past the float range)."""
    k, a, b, (e1, e2, e3) = _point_spectrum(params)
    h, g, w, half = e2 - e1, e3 - e2, e3 - e1, 2.0 ** (k - 1)
    f = (half * h, half * w, half * g)
    if a == 0.0 or b == 0.0:
        return (0.0, 0.0, 0.0), f
    if not (h > 0.0 and g > 0.0):
        raise ValueError("double precision does not resolve the dressed levels "
                         + _at_drive(params))
    return ((a / h) * (b / w), -(a / h) * (b / g), (a / g) * (b / w)), f


def _transfer(c, f, t):
    """P(t) = -4 sum_{j<k} c_j c_k sin^2((eps_k - eps_j) t / 2), which is
    |sum_k c_k exp(-i eps_k t)|^2 as sum_k c_k = <3|1> = 0, clipped to [0, 1]
    against rounding; t is a scalar or an array, and P(0) = 0 exactly."""
    c1, c2, c3 = c
    s = np.sin(np.asarray(t, dtype=float)[..., None] * np.array(f))
    out = np.minimum(np.maximum((s * s) @ np.array([c1 * c2, c1 * c3, c2 * c3]) * -4.0, 0.0), 1.0)
    return float(out) if out.ndim == 0 else out


def p13_full(params: RamanParams, t) -> float:
    """Exact |<3| exp(-iHt) |1>|^2 at a scalar or array of finite times t:
    _transfer over _residues. A ValueError names the drive where double precision
    gives two equal levels, or t times the largest half-gap overflows."""
    _check_finite("t", t)
    c, f = _residues(params)
    _check_phase(params, t, max(f), "largest half-gap")
    return _transfer(c, f, t)


def _crest(c, f, t, lo, hi):
    """The local maximum of P near t in [lo, hi]: Newton on
    dP/dt = sum_i W_i f_i sin(2 f_i t), W = -4 (c1 c2, c1 c3, c2 c3), with its
    closed-form next derivative. A step past an end visits that end once,
    and the end is returned when P still rises towards it; a step past a
    visited end, or where P is not concave, bisects the bracket that the
    signs of dP/dt have left."""
    c1, c2, c3 = c
    w1, w2, w3 = 2.0 * f[0], 2.0 * f[1], 2.0 * f[2]
    d1, d2, d3 = -2.0 * c1 * c2 * w1, -2.0 * c1 * c3 * w2, -2.0 * c2 * c3 * w3
    tol = max(1e-5 / w2, 4.0 * math.ulp(hi))  # w2 = w is the fastest tone
    lo_seen = hi_seen = False
    for _ in range(100):
        x1, x2, x3 = w1 * t, w2 * t, w3 * t
        slope = d1 * math.sin(x1) + d2 * math.sin(x2) + d3 * math.sin(x3)
        if slope > 0.0:
            if t >= hi:
                return t
            lo, lo_seen = t, True
        else:
            if t <= lo:
                return t
            hi, hi_seen = t, True
        curve = d1 * w1 * math.cos(x1) + d2 * w2 * math.cos(x2) + d3 * w3 * math.cos(x3)
        nxt = t - slope / curve if curve < 0.0 else 0.5 * (lo + hi)
        if abs(nxt - t) <= tol:
            return min(max(nxt, lo), hi)
        if nxt >= hi:
            nxt = 0.5 * (lo + hi) if hi_seen else hi
        elif nxt <= lo:
            nxt = 0.5 * (lo + hi) if lo_seen else lo
        t = nxt
    return t


def transfer_envelope(params: RamanParams) -> float:
    """Maximum of the 1->3 transfer P(t) over two effective Rabi periods,
    [0, T] with T = 4 pi / |omega_eff|, from one _point_spectrum and no time grid.

    P reaches its supremum where h t = g t = pi (mod 2 pi), h, g = eps2 -
    eps1, eps3 - eps2. With s, F = min(h, g), max(h, g) and r = F / s, the
    k-th slow beat t_k = (2 k + 1) pi / s misses the nearest fast crest
    t = (2 j + 1) pi / F by u_k = {k r + (r - 1) / 2} cycles, and the best
    point of a beat's whole span depends on u_k alone. So the maximum is at
    the crest of the beat with the least u_k from above, or from below
    (modular_minimum over the complete beats, with r and (r - 1) / 2 as
    exact dyadic fractions), at a crest of the beat whose span holds T, or
    at T; each crest is polished by _crest within a quarter fast period.
    The cost does not grow with the window. Returns 0 where the supremum
    4 c2^2 underflows. Raises EnvelopeError at zero effective coupling,
    where T is not finite and positive, and where F T overflows, and
    p13_full's ValueError where double precision gives two equal levels.
    """
    omega_eff = eliminate(params).omega_eff
    if omega_eff == 0.0:
        raise EnvelopeError("zero effective coupling: transfer envelope is degenerate")
    window = 4.0 * math.pi / abs(omega_eff)
    if not 0.0 < window < math.inf:
        raise EnvelopeError(f"transfer window 4 pi / |omega_eff| is not finite and positive "
                            f"at omega_eff = {omega_eff:g}")
    c, f = _residues(params)
    if c[1] * c[1] == 0.0:
        return 0.0  # P <= 4 c2^2, the supremum, which underflows to 0
    h, g = 2.0 * f[0], 2.0 * f[2]
    slow, fast = min(h, g), max(h, g)
    if not fast * window < math.inf:
        raise EnvelopeError(f"transfer window 4 pi / |omega_eff| = {window:g} holds more "
                            f"fast crests than double precision counts at omega_eff = "
                            f"{omega_eff:g}")
    # Beat k's count k r + (r - 1) / 2 is (2 p k + p - q) / (2 q) exactly; its
    # floor and ceiling index the fast crests just before and just after t_k.
    p, q = (fast / slow).as_integer_ratio()
    m = 2 * q

    def before(k):
        return (2 * p * k + p - q) // m

    def after(k):
        return -((q - p - 2 * p * k) // m)

    beats = int(slow * window / (2.0 * math.pi))  # the complete spans in [0, T]
    crests = [before(beats), after(beats)]
    if beats > 0:
        crests += [before(modular_minimum(2 * p, p - q, m, beats)[1]),
                   after(modular_minimum(-2 * p, q - p, m, beats)[1])]
    last = max(math.floor(fast * window / (2.0 * math.pi) - 0.5), 0)
    times = [window]
    half = 0.5 * math.pi / fast
    for j in {min(j, last) for j in crests}:
        t = min((2 * j + 1) * (math.pi / fast), window)
        times.append(_crest(c, f, t, max(t - half, 0.0), min(t + half, window)))
    return float(np.max(_transfer(c, f, np.array(times))))


def transfer_supremum(params: RamanParams) -> float:
    """Supremum over time of the 1->3 transfer, (sum_k |c_k|)^2 = 4 c2^2 =
    (2 a b / (h g))^2 with h, g = eps2 - eps1, eps3 - eps2, as the residues
    alternate in sign and sum to zero: smooth in delta1, and the quantity
    whose slope resonance.transfer_supremum_slope roots; clipped at 1.
    Exactly 0 where a coupling is 0; p13_full's ValueError where double
    precision gives two equal levels."""
    (_, c2, _), _ = _residues(params)
    return min(4.0 * c2 * c2, 1.0)
