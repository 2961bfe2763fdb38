"""Level-shift-operator treatment of the delta1 ~ delta2 crossing.

The coupling to the intermediate level is summed exactly into an
energy-dependent 2x2 Hamiltonian on the (|1>, |3>) subspace; its
self-consistent eigenvalues are exact eigenvalues of the full 3x3 system
and are found by fixed-point iteration seeded at E = 0, which reproduces
plain adiabatic elimination on the first step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._minimize import minimize_scalar
from .effective import _shift_terms
from .errors import ConvergenceError
from .hamiltonian import RamanParams
from .resonance import DEFAULT_TOL, _check_count, _check_tol, _locus

DEFAULT_MAX_ITER = 200
_LEVEL_TOL = 1e-12


@dataclass(frozen=True)
class LevelIteration:
    """Converged crossing-branch energies and iteration diagnostics."""

    e_minus: float
    e_plus: float
    iterations: tuple
    converged: bool
    char_residuals: tuple


def _char_residual(params: RamanParams, e: float) -> float:
    """det(H - E I) in closed form, with a = omega1/2, b = omega2/2 and
    c = delta2 - delta1 - E: -E ((-delta1 - E) c - b^2) - a^2 c."""
    a, b = 0.5 * params.omega1, 0.5 * params.omega2
    c = params.delta2 - params.delta1 - e
    return -e * ((-params.delta1 - e) * c - b * b) - a * a * c


def _iterate_branch(params: RamanParams, sign: float, tol: float, max_iter: int):
    e = 0.0
    prev_step = None
    bound = tol * params.delta2
    for n in range(1, max_iter + 1):
        offset_c, delta_eff, r13, _, _, _ = _shift_terms(params, e)
        target = offset_c + sign * math.hypot(delta_eff, r13)
        step = target - e
        if abs(step) <= bound:
            return target, n, True
        # Damp when iterates oscillate without contracting.
        if prev_step is not None and step * prev_step < 0 and abs(step) >= 0.9 * abs(prev_step):
            e = e + 0.5 * step
        else:
            e = target
        prev_step = step
    return e, max_iter, False


def iterate_levels(
    params: RamanParams, tol: float = _LEVEL_TOL, max_iter: int = DEFAULT_MAX_ITER
) -> LevelIteration:
    """Fixed-point iteration of both crossing-branch energies.

    Each branch iterates E <- C(E) + s * sqrt(delta_eff(E)^2 + r13(E)^2)
    from E = 0. max_iter must be a positive integer; raises ConvergenceError
    if either branch fails within max_iter. Converged energies are exact
    eigenvalues of the full 3x3 Hamiltonian (characteristic residuals are
    returned for inspection).
    """
    _check_tol(tol)
    _check_count("max_iter", max_iter)
    e_minus, n_minus, ok_minus = _iterate_branch(params, -1.0, tol, max_iter)
    e_plus, n_plus, ok_plus = _iterate_branch(params, +1.0, tol, max_iter)
    if not (ok_minus and ok_plus):
        raise ConvergenceError(
            f"fixed-point iteration did not converge within {max_iter} steps "
            f"(minus: {ok_minus}, plus: {ok_plus})"
        )
    residuals = (_char_residual(params, e_minus), _char_residual(params, e_plus))
    return LevelIteration(e_minus, e_plus, (n_minus, n_plus), True, residuals)


def resolvent_structural_resonance(params: RamanParams, tol: float = DEFAULT_TOL) -> float:
    """Structural locus from the iterated branch splitting E_plus - E_minus."""

    def splitting(d1: float) -> float:
        levels = iterate_levels(params.with_delta1(d1))
        return levels.e_plus - levels.e_minus

    return _locus(params, splitting, minimize_scalar, "structural (resolvent)", tol)
