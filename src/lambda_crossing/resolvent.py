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

from ._minimize import _GOLD, minimize_scalar
from .effective import _shift_terms
from .errors import ConvergenceError
from .hamiltonian import RamanParams, _at_drive, _secular
from .resonance import _locus, _structural_seed

# Each branch stops at a step of _LEVEL_TOL delta2, within _MAX_ITER steps.
_LEVEL_TOL = 1e-12
_MAX_ITER = 200
_LOCUS_TOL = 1e-10


@dataclass(frozen=True)
class LevelIteration:
    """Converged crossing-branch energies and iteration diagnostics."""

    e_minus: float
    e_plus: float
    iterations: tuple
    converged: bool
    char_residuals: tuple


def _iterate_branch(params: RamanParams, sign: float):
    e = 0.0
    prev_step = None
    bound = _LEVEL_TOL * params.delta2
    try:
        for n in range(1, _MAX_ITER + 1):
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
    except ValueError:
        # _shift_terms' one ValueError: the inf or nan an overflowing shift left in e
        raise ValueError(f"the level shift overflows {_at_drive(params)}") from None
    return e, _MAX_ITER, False


def iterate_levels(params: RamanParams) -> LevelIteration:
    """Fixed-point iteration of both crossing-branch energies.

    Each branch iterates E <- C(E) + s * sqrt(delta_eff(E)^2 + r13(E)^2)
    from E = 0 until a step is at most _LEVEL_TOL delta2. Raises
    ConvergenceError if either branch fails within _MAX_ITER steps, and
    ValueError where the level shift overflows. Converged energies are
    exact eigenvalues of the full 3x3 Hamiltonian; char_residuals, for
    inspection, are det(H - E I) = -det(E - H) at them, from _secular.
    """
    e_minus, n_minus, ok_minus = _iterate_branch(params, -1.0)
    e_plus, n_plus, ok_plus = _iterate_branch(params, +1.0)
    if not (ok_minus and ok_plus):
        raise ConvergenceError(
            f"fixed-point iteration did not converge within {_MAX_ITER} steps "
            f"(minus: {ok_minus}, plus: {ok_plus})"
        )
    a, b, d1 = 0.5 * params.omega1, 0.5 * params.omega2, params.delta1
    c = params.delta2 - d1
    residuals = (-_secular(e_minus, e_minus + d1, e_minus - c, a * a, b * b)[0],
                 -_secular(e_plus, e_plus + d1, e_plus - c, a * a, b * b)[0])
    return LevelIteration(e_minus, e_plus, (n_minus, n_plus), True, residuals)


def resolvent_structural_resonance(params: RamanParams) -> float:
    """Structural locus from the iterated branch splitting E_plus - E_minus,
    by a value-only search to _LOCUS_TOL delta2: it resolves the flat
    minimum to no better than about sqrt(eps), so a tighter tolerance costs
    evaluations and buys no accuracy. Started at the structural series, it
    takes a mean of 6.1 iterate_levels calls over the benchmark's draws,
    against 15.0 on the full bracket. Its ConvergenceError reads "structural
    (resolvent) locus: ...". It reads minimize_scalar and iterate_levels,
    benchmark trace and fault sites, from this module at call time."""

    def splitting(d1: float) -> float:
        levels = iterate_levels(params.with_delta1(d1))
        return levels.e_plus - levels.e_minus

    def solve(lo, hi):
        # Brent starts at a + G (b - a) = x0 with w + 8 xtol (xtol: above its 4-ulp floor)
        # of room either side; [lo, hi] if [a, b] is not inside or x ends within 4 xtol of it
        xtol = _LOCUS_TOL * params.delta2
        x0, w = _structural_seed(params)
        span = (w + 8.0 * xtol) / _GOLD
        a, b = x0 - _GOLD * span, x0 + (1.0 - _GOLD) * span
        if lo < a < b < hi:
            x, _ = minimize_scalar(splitting, a, b, xtol=xtol)
            if min(x - a, b - x) > 4.0 * xtol:
                return x
        return minimize_scalar(splitting, lo, hi, xtol=xtol)[0]

    return _locus(params, "structural (resolvent)", solve)
