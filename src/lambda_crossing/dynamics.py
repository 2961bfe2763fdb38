"""Exact time evolution of the probeless system and the effective Rabi formula."""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import _minimize
from .effective import effective_energies, eliminate
from .errors import EnvelopeError
from .hamiltonian import RamanParams, _check_finite, build_hamiltonian, dressed_spectrum

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


def _residues(params: RamanParams):
    """(c, f) from one eigvalsh: the residues c_k = <3|eps_k><eps_k|1> =
    a b / prod_{j != k} (eps_k - eps_j), a, b = omega1 / 2, omega2 / 2, as
    products of ratios that cannot overflow (all zero when a b = 0), and f,
    the half-gaps of the level pairs (1, 2), (1, 3), (2, 3)."""
    e1, e2, e3 = np.linalg.eigvalsh(build_hamiltonian(params)).tolist()
    h, g, w = e2 - e1, e3 - e2, e3 - e1
    a, b = 0.5 * params.omega1, 0.5 * params.omega2
    f = np.array([0.5 * h, 0.5 * w, 0.5 * g])
    if a == 0.0 or b == 0.0:
        return (0.0, 0.0, 0.0), f
    if not (h > 0.0 and g > 0.0):
        raise ValueError(f"double precision does not resolve the dressed levels at omega1 = "
                         f"{params.omega1:g}, omega2 = {params.omega2:g}, "
                         f"delta1 = {params.delta1:g}, delta2 = {params.delta2:g}")
    return ((a / h) * (b / w), -(a / h) * (b / g), (a / g) * (b / w)), f


def _transfer(c, f, t):
    """P(t) = -4 sum_{j<k} c_j c_k sin^2((eps_k - eps_j) t / 2), which is
    |sum_k c_k exp(-i eps_k t)|^2 as sum_k c_k = <3|1> = 0, clipped at 0
    against rounding; t is a scalar or an array, and P(0) = 0 exactly."""
    c1, c2, c3 = c
    s = np.sin(np.asarray(t, dtype=float)[..., None] * f)
    out = np.maximum((s * s) @ np.array([c1 * c2, c1 * c3, c2 * c3]) * -4.0, 0.0)
    return float(out) if out.ndim == 0 else out


def p13_full(params: RamanParams, t) -> float:
    """Exact |<3| exp(-iHt) |1>|^2 at a scalar or array of finite times t:
    _transfer over _residues, whose ValueError names a drive where double
    precision gives two equal levels."""
    _check_finite("t", t)
    return _transfer(*_residues(params), t)


def transfer_envelope(params: RamanParams) -> float:
    """Maximum 1->3 transfer over two effective Rabi periods: _transfer,
    from one eigvalsh, on a 400-point grid ts over [0, 4 pi / omega_eff],
    its peak ts[i] polished in continuous time on [ts[i - 1], ts[i + 1]]."""
    model = eliminate(params)
    if model.omega_eff == 0.0:
        raise EnvelopeError("zero effective coupling: transfer envelope is degenerate")
    ts = np.linspace(0.0, 4.0 * math.pi / abs(model.omega_eff), ENVELOPE_POINTS)
    p13 = partial(_transfer, *_residues(params))
    ps = p13(ts)
    i = int(np.argmax(ps))
    lo, hi = ts[max(i - 1, 0)], ts[min(i + 1, ts.size - 1)]
    # Read from the module at call time, so a patched minimize_scalar sees this polish.
    _, p_neg = _minimize.minimize_scalar(lambda t: -p13(t), lo, hi, xtol=1e-12 * max(ts[i], 1.0))
    return float(max(-p_neg, ps[i]))


def transfer_supremum(params: RamanParams) -> float:
    """Supremum over time of the 1->3 transfer, (sum_k |c_k|)^2 = 4 c2^2 =
    (2 a b / (h g))^2 with h, g = eps2 - eps1, eps3 - eps2, as the residues
    alternate in sign and sum to zero: smooth in delta1, and the quantity
    whose slope resonance.transfer_supremum_slope roots."""
    (_, c2, _), _ = _residues(params)
    return 4.0 * c2 * c2
