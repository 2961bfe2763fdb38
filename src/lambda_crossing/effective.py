"""Adiabatic elimination of the intermediate level |2>.

Reduces the Lambda system to an effective two-level model in the
(|1>, |3>) subspace, valid when delta1 ~ delta2 >> omega1, omega2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PoleError, SingularEliminationError
from .hamiltonian import RamanParams

# Heuristic coupling/detuning ratio beyond which the reduction is dubious.
VALIDITY_RATIO = 0.5


@dataclass(frozen=True)
class EffectiveModel:
    """Effective two-level model: coupling, detuning, mixing angle.

    theta in (0, pi) satisfies tan(theta) = -omega_eff / delta_eff and is
    pi/2 exactly at delta_eff = 0. The model is the symmetrized
    elimination, with no energy offset; level_shift gives the resolvent's
    energy-dependent one.
    """

    omega_eff: float
    delta_eff: float
    theta: float
    validity_warning: bool = False


def mixing_angle(omega_eff: float, delta_eff: float) -> float:
    """Branch-fixed mixing angle in (0, pi); pi/2 iff delta_eff = 0."""
    return math.atan2(omega_eff, -delta_eff)


@dataclass(frozen=True)
class ImplicitModel:
    """Level-shift matrix elements and derived quantities at energy E."""

    r11: float
    r33: float
    r13: float
    delta_eff_of_e: float
    offset_c_of_e: float


def _shift_terms(params: RamanParams, e: float):
    """level_shift on plain floats: (offset_c, delta_eff, r13, omega1^2,
    omega2^2, 4 (E + delta1)); r11 and r33 are the squares over the last."""
    if not math.isfinite(e):
        raise ValueError(f"e must be finite, got {e!r}")
    denom = e + params.delta1
    if abs(denom) <= 1e-12 * params.delta2:
        raise PoleError("energy E too close to the bare intermediate level -delta1")
    o1, o2, bare = params.omega1, params.omega2, params.delta2 - params.delta1
    o1sq, o2sq, quarter = o1 * o1, o2 * o2, 4.0 * denom
    offset_c = 0.5 * (bare + (o2sq + o1sq) / quarter)
    delta_eff = 0.5 * (bare + (o2sq - o1sq) / quarter)
    return offset_c, delta_eff, o1 * o2 / quarter, o1sq, o2sq, quarter


def level_shift(params: RamanParams, e: float) -> ImplicitModel:
    """Closed-form level-shift elements at energy E: the exact,
    energy-dependent form of the elimination, which is its E = 0 value.

    The single intermediate level makes the shift matrix rank one:
    r13^2 = r11 * r33 identically. Raises ValueError for a non-finite E
    and PoleError within 1e-12 delta2 of the bare intermediate energy -delta1.
    """
    offset_c, delta_eff, r13, o1sq, o2sq, quarter = _shift_terms(params, e)
    return ImplicitModel(o1sq / quarter, o2sq / quarter, r13, delta_eff, offset_c)


def eliminate(params: RamanParams) -> EffectiveModel:
    """Adiabatically eliminate |2> and return the effective two-level model.

    omega_eff and delta_eff are the level shift's r13 and delta_eff at
    E = 0. Raises SingularEliminationError at delta1 = 0 (the reduction
    divides by delta1) and the level shift's PoleError for
    0 < |delta1| <= 1e-12 delta2. Sets validity_warning (warn-only) when the
    couplings are not small against the detunings.
    """
    if params.delta1 == 0.0:
        raise SingularEliminationError("adiabatic elimination is singular at delta1 = 0")
    shift = level_shift(params, 0.0)
    ratio = max(params.omega1, params.omega2) / min(abs(params.delta1), params.delta2)
    return EffectiveModel(
        omega_eff=shift.r13,
        delta_eff=shift.delta_eff_of_e,
        theta=mixing_angle(shift.r13, shift.delta_eff_of_e),
        validity_warning=ratio > VALIDITY_RATIO,
    )


def effective_energies(model: EffectiveModel):
    """Eigenenergies (eps_minus, eps_plus) = -/+ sqrt(delta_eff^2 + omega_eff^2)."""
    eps = math.hypot(model.delta_eff, model.omega_eff)
    return -eps, eps
