"""Adiabatic elimination of the intermediate level |2>.

Reduces the Lambda system to an effective two-level model in the
(|1>, |3>) subspace, valid when delta1 ~ delta2 >> omega1, omega2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleError, SingularEliminationError
from .hamiltonian import RamanParams

# Heuristic coupling/detuning ratio beyond which the reduction is dubious.
VALIDITY_RATIO = 0.5


@dataclass(frozen=True)
class EffectiveModel:
    """Effective two-level model: coupling, detuning, energy offset, mixing angle.

    theta in (0, pi) satisfies tan(theta) = -omega_eff / delta_eff and is
    pi/2 exactly at delta_eff = 0. offset_c is zero for the plain
    (symmetrized) elimination; the resolvent construction supplies an
    energy-dependent offset instead.
    """

    omega_eff: float
    delta_eff: float
    offset_c: float
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


def level_shift(params: RamanParams, e: float) -> ImplicitModel:
    """Closed-form level-shift elements at energy E: the exact,
    energy-dependent form of the elimination, which is its E = 0 value.

    The single intermediate level makes the shift matrix rank one:
    r13^2 = r11 * r33 identically. Raises ValueError for a non-finite E
    and PoleError when E approaches the bare intermediate energy -delta1.
    """
    if not math.isfinite(e):
        raise ValueError(f"e must be finite, got {e!r}")
    denom = e + params.delta1
    if abs(denom) <= 1e-12 * params.delta2:
        raise PoleError("energy E too close to the bare intermediate level -delta1")
    o1sq, o2sq = params.omega1 * params.omega1, params.omega2 * params.omega2
    quarter = 4.0 * denom
    return ImplicitModel(
        r11=o1sq / quarter,
        r33=o2sq / quarter,
        r13=params.omega1 * params.omega2 / quarter,
        delta_eff_of_e=0.5 * (params.delta2 - params.delta1 + (o2sq - o1sq) / quarter),
        offset_c_of_e=0.5 * (params.delta2 - params.delta1 + (o2sq + o1sq) / quarter),
    )


def adiabatic_limit(params: RamanParams) -> ImplicitModel:
    """Level-shift elements at E = 0: identical to plain adiabatic elimination."""
    return level_shift(params, 0.0)


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
        offset_c=0.0,
        theta=mixing_angle(shift.r13, shift.delta_eff_of_e),
        validity_warning=ratio > VALIDITY_RATIO,
    )


def effective_energies(model: EffectiveModel):
    """Eigenenergies (eps_minus, eps_plus) = -/+ sqrt(delta_eff^2 + omega_eff^2)."""
    eps = math.hypot(model.delta_eff, model.omega_eff)
    return -eps, eps


def effective_states(model: EffectiveModel):
    """Orthonormal eigenvectors of the symmetrized two-level Hamiltonian.

    Returned in the (|1>, |3>) basis as (state_minus, state_plus) with
    |eps_plus> = (sin(theta/2), cos(theta/2)) and
    |eps_minus> = (cos(theta/2), -sin(theta/2)).
    """
    half = 0.5 * model.theta
    plus = np.array([math.sin(half), math.cos(half)])
    minus = np.array([math.cos(half), -math.sin(half)])
    return minus, plus


def effective_matrix(model: EffectiveModel) -> np.ndarray:
    """Symmetrized 2x2 matrix [[delta_eff, omega_eff], [omega_eff, -delta_eff]].

    The diagonal sign follows the mixing-angle convention above: with
    theta = atan2(omega_eff, -delta_eff), the +eps eigenvector is
    (sin(theta/2), cos(theta/2)), which tends to the second basis state
    as theta -> 0 (delta_eff < 0 dominant).
    """
    return np.array(
        [
            [model.delta_eff, model.omega_eff],
            [model.omega_eff, -model.delta_eff],
        ]
    )
