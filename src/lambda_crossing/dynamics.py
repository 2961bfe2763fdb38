"""Exact time evolution of the probeless system and the effective Rabi formula."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import _minimize
from ._minimize import parabolic_vertex
from .effective import effective_energies, eliminate
from .errors import EnvelopeError
from .hamiltonian import RamanParams, _check_finite, dressed_spectrum

# Time-grid resolution of the transfer envelope: two effective Rabi
# periods sampled at 400 points, then refined around the peak.
ENVELOPE_POINTS = 400


def evolve(params: RamanParams, psi0, t: float) -> np.ndarray:
    """Spectral propagation psi(t) = sum_k exp(-i eps_k t) <eps_k|psi0> |eps_k>.

    Exact for the time-independent Hamiltonian; psi0 must be normalized
    (tolerance 1e-6) and t one finite time.
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


def p13_effective(params: RamanParams, t: float) -> float:
    """Two-level Rabi transfer probability |1> -> |3> of the effective model."""
    _check_finite("t", t)
    model = eliminate(params)
    _, rabi = effective_energies(model)
    if rabi == 0.0:
        return 0.0
    return model.omega_eff**2 / rabi**2 * math.sin(t * rabi) ** 2


def _transfer_coeffs(params: RamanParams):
    """Spectral coefficients c_k = <3|eps_k><eps_k|1> of the 1->3 amplitude."""
    spec = dressed_spectrum(params)
    return spec.states[2, :] * spec.states[0, :], spec.energies


def _three_tone(coeffs, energies, t):
    """|sum_k c_k exp(-i eps_k t)|^2 for a scalar or array t."""
    t = np.asarray(t, dtype=float)
    amp = np.exp(-1j * energies * t[..., None]) @ coeffs
    out = np.abs(amp) ** 2
    return float(out) if out.ndim == 0 else out


def p13_full(params: RamanParams, t) -> float:
    """Exact |<3| exp(-iHt) |1>|^2; t may be a scalar or array of finite times."""
    _check_finite("t", t)
    return _three_tone(*_transfer_coeffs(params), t)


def transfer_envelope(params: RamanParams) -> float:
    """Maximum 1->3 transfer over two effective Rabi periods.

    Samples p13_full, from one spectrum, on a 400-point grid over
    [0, 4 pi / omega_eff], refines the grid peak parabolically, then
    polishes it in continuous time on the bracketing interval.
    """
    model = eliminate(params)
    if model.omega_eff == 0.0:
        raise EnvelopeError("zero effective coupling: transfer envelope is degenerate")
    t_scan = 4.0 * math.pi / abs(model.omega_eff)
    ts = np.linspace(0.0, t_scan, ENVELOPE_POINTS)
    p13 = partial(_three_tone, *_transfer_coeffs(params))
    ps = p13(ts)
    i = int(np.argmax(ps))
    if 0 < i < ts.size - 1:
        t_guess = parabolic_vertex(ts[i - 1], ps[i - 1], ts[i], ps[i], ts[i + 1], ps[i + 1])
        lo, hi = ts[i - 1], ts[i + 1]
    else:
        t_guess = ts[i]
        lo = max(ts[i] - (ts[1] - ts[0]), 0.0)
        hi = min(ts[i] + (ts[1] - ts[0]), t_scan)
    # Read from the module at call time, so a patched minimize_scalar sees this polish.
    _, p_neg = _minimize.minimize_scalar(lambda t: -p13(t), lo, hi, xtol=1e-12 * max(t_guess, 1.0))
    return float(max(-p_neg, ps[i]))


def transfer_supremum(params: RamanParams) -> float:
    """Supremum over time of the 1->3 transfer probability.

    The transfer amplitude is a three-tone trigonometric sum with spectral
    coefficients c_k; its supremum (sum_k |c_k|)^2 is approached within the
    envelope window to far better accuracy than any time grid resolves,
    and unlike a sampled maximum it is smooth in delta1. The dynamical
    resonance finder roots its delta1-slope, transfer_supremum_slope.
    """
    coeffs, _ = _transfer_coeffs(params)
    return float(np.abs(coeffs).sum() ** 2)


def transfer_supremum_slope(energies, states) -> float:
    """d(sum_k |c_k|)/d delta1 times (eps3 - eps2)^3, from the eigh of a
    Hamiltonian (eigenvector signs are free); its sign is that of the
    delta1-slope of transfer_supremum.

    The c_k = v_{0,k} v_{2,k} sum to <3|1> = 0, so sum_k |c_k| = 2 |c_m| for
    the dominant m = argmax_k |c_k|. With dH/d delta1 = diag(0, -1, -1),
    first-order perturbation gives dv_m = sum_{j != m} v_j v_{0,j} v_{0,m} /
    (eps_m - eps_j), so the slope is 2 sign(c_m) times the sum over the two
    j != m of v_{0,j} v_{0,m} (v_{0,j} v_{2,m} + v_{0,m} v_{2,j}) / (eps_m - eps_j).
    The positive gap factor leaves the root, the dynamical locus, in place
    and makes the slope nearly linear in delta1 across the crossing.
    """
    e = energies.tolist()
    u, _, w = states.tolist()
    c = [abs(x * y) for x, y in zip(u, w)]
    m = c.index(max(c))
    j, k = ((1, 2), (0, 2), (0, 1))[m]
    slope = (u[j] * u[m] * (u[j] * w[m] + u[m] * w[j]) / (e[m] - e[j])
             + u[k] * u[m] * (u[k] * w[m] + u[m] * w[k]) / (e[m] - e[k]))
    return math.copysign(2.0, u[m] * w[m]) * slope * (e[2] - e[1]) ** 3
