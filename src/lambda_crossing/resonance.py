"""Structural and dynamical resonance loci and the dynamical shift.

The structural resonance minimizes the dressed-level splitting eps3 - eps2;
the dynamical resonance maximizes the bare-state 1 -> 3 transfer. Both are
located on the avoided crossing at delta1 ~ delta2 (the delta1 ~ 0 crossing
is out of scope). The two loci differ by the dynamical shift.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from numbers import Integral

import numpy as np

from ._minimize import slope_root
from .errors import BracketError
from .hamiltonian import RamanParams

# Search bracket around the delta1 ~ delta2 crossing, in units of delta2.
# At zero coupling (eps2 - eps1)(eps3 - eps2) = x (1 - x) at x = delta1 /
# delta2 < 1, stationary exactly at x = 1/2: the dynamical slope's second
# root, just below BRACKET_LO, is the maximum of that product, not a locus.
BRACKET_LO = 0.5
BRACKET_HI = 1.5
_EDGE_MARGIN = 1e-4

DEFAULT_TOL = 1e-13
# Clamp on the couplings a, b of the delta2 = 1 Hamiltonian: the slopes'
# cofactors and products of eigenvalues, about a^2, stay finite.
_COUPLING_CLAMP = 1e150


@dataclass(frozen=True)
class ResonanceReport:
    """All resonance loci (delta1 values) plus the exact/approximate shift."""

    structural_exact: float
    structural_approx: float
    dynamical_exact_effective: float
    dynamical_exact_full: float
    dynamical_approx: float
    shift_exact: float
    shift_approx: float


def _check_tol(tol: float) -> None:
    """The one tolerance rule of the locus searches and iterate_levels."""
    if not (tol > 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")


def _check_count(name: str, value) -> None:
    """The one positive-integer rule, for the probe oracle's steps and
    iterate_levels' max_iter: an int or numpy integer, not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _locus(params: RamanParams, f, search, what: str, tol: float, seed=None) -> float:
    """delta1 where search(f, lo, hi, xtol=tol * delta2) puts the locus in
    [lo, hi] = [BRACKET_LO, BRACKET_HI] * delta2; f is a function of delta1.

    structural_exact and dynamical_exact_full pass an analytic slope,
    slope_root and a seed (x0, w): the locus's sixth-order series plus or
    minus the bound on its remainder. The search then tries
    [a, b] = [x0 - w, x0 + w] first; when slope_root returns an end of it
    with the slope pointing outward, it searches only the rest, [lo, a] or
    [b, hi]. A seed that is NaN, infinite or whose [a, b] is not strictly
    inside [lo, hi] gives the full-bracket search. Either way the result is
    a slope_root sign change to max(tol * delta2, 4 ulp): the seed picks the
    bracket, the slope decides the value. Over log-uniform couplings this
    takes a mean of 3.9 slope evaluations for either locus (at most 6),
    against 6.6 and 8.8 on the full bracket.

    resolvent_structural_resonance passes its splitting, no seed and
    minimize_scalar, read from its module globals at call time (a benchmark
    trace and fault site, so nothing here may bind search when it is
    defined): a value-only search that resolves a flat minimum to no better
    than about sqrt(eps). A bad tol raises ValueError; a coupling that is not
    positive or a locus at the bracket edge raises BracketError naming the
    locus kind what.
    """
    _check_tol(tol)
    if not (params.omega1 > 0 and params.omega2 > 0):
        raise BracketError(f"{what} resonance requires omega1 * omega2 > 0")
    d2 = params.delta2
    lo, hi = BRACKET_LO * d2, BRACKET_HI * d2
    x0, w = (math.nan, math.nan) if seed is None else seed
    a, b = x0 - w, x0 + w
    if lo < a < b < hi:
        x, fx = search(f, a, b, xtol=tol * d2)
        if x == a and fx >= 0.0:
            x, _ = search(f, lo, a, xtol=tol * d2)
        elif x == b and fx <= 0.0:
            x, _ = search(f, b, hi, xtol=tol * d2)
    else:
        x, _ = search(f, lo, hi, xtol=tol * d2)
    if min(x - lo, hi - x) < _EDGE_MARGIN * d2:
        raise BracketError(
            f"{what} locus {x:g} is at the edge of the search bracket [{lo:g}, {hi:g}]; "
            "parameters are outside the isolated-crossing regime"
        )
    return x


def _cofactors(energies, x: float, b2: float):
    """n_k = (e_k + x)(e_k - (1 - x)) - b^2, the (1, 1) entry of adj(e_k - H)
    = v_k v_k^T prod_{j != k} (e_k - e_j) for the eigenvalues e_k of the
    delta2 = 1 Hamiltonian H at x; its (1, 3) entry is a b, so v_{0,k}^2 and
    c_k = v_{0,k} v_{2,k} divide only by gaps between levels. 1 - x is exact
    on the bracket, where (e_k + x) - 1 would round digits away."""
    c = 1.0 - x
    return [(e + x) * (e - c) - b2 for e in energies]


def gap32_slope(energies, x: float, b2: float) -> float:
    """g dg/d delta1 for g = e3 - e2, from the ascending eigenvalues e1 < e2
    < e3 of the delta2 = 1 Hamiltonian at x: n3 / (e3 - e1) + n2 / (e2 - e1)
    with _cofactors' n_k, since d e_k/d delta1 = v_{0,k}^2 - 1
    (Hellmann-Feynman). Negative left of the structural locus; the positive
    factor g makes it nearly linear in delta1 across the crossing."""
    e1, e2, e3 = energies
    _, n2, n3 = _cofactors(energies, x, b2)
    return n3 / (e3 - e1) + n2 / (e2 - e1)


def transfer_supremum_slope(energies, x: float, b2: float) -> float:
    """(g / h^2) d(h g)/d delta1 for g = e3 - e2 and h = e2 - e1, as
    gap32_slope. dynamics.transfer_supremum is (2 a b / (h g))^2, so the
    dynamical locus is the minimum of h g: with S = gap32_slope and
    w = e3 - e1 the slope is (S - (g / h^2)(n2 + g n1 / w)) / h, negative
    left of the locus."""
    e1, e2, e3 = energies
    n1, n2, n3 = _cofactors(energies, x, b2)
    h, g, w = e2 - e1, e3 - e2, e3 - e1
    s = n3 / w + n2 / h
    return (s - g / (h * h) * (n2 + g * (n1 / w))) / h


def _slope_locus(params: RamanParams, slope, what: str, tol: float, seed=None) -> float:
    """_locus from seed (None: the full bracket) as the root of
    slope(eigvalsh, x, b^2), one 3x3 eigvalsh per step. The slope is read at
    x = delta1 / delta2 on the delta2 = 1 Hamiltonian, its couplings a and b
    clamped at _COUPLING_CLAMP, so it is scale-free."""
    d2 = params.delta2
    a = min(0.5 * params.omega1 / d2, _COUPLING_CLAMP)
    b = min(0.5 * params.omega2 / d2, _COUPLING_CLAMP)
    m, b2 = np.array([[0.0, a, 0.0], [a, 0.0, b], [0.0, b, 0.0]]), b * b

    def f(d1):
        x = d1 / d2
        m[1, 1], m[2, 2] = -x, 1.0 - x
        return slope(np.linalg.eigvalsh(m).tolist(), x, b2)

    return _locus(params, f, partial(slope_root, what=what), what, tol, seed)


def _couplings(params: RamanParams):
    """(alpha, beta) = (Omega1^2, Omega2^2) / (4 delta2^2), the variables of
    every seed and closed form; a product overflows to inf, not an error."""
    r1, r2 = params.omega1 / (2.0 * params.delta2), params.omega2 / (2.0 * params.delta2)
    return r1 * r1, r2 * r2


def _seed_window(params: RamanParams, tol: float, s: float) -> float:
    """max(0.75 tol, 10 s^4) delta2 for s = alpha + beta: the bound on either
    seed series' remainder (tests: TestSixthOrderSeries), floored under tol so
    one secant step from an exact seed leaves slope_root less than xtol."""
    return max(0.75 * tol, 10.0 * s * s * s * s) * params.delta2


def _structural_seed(params: RamanParams, tol: float):
    """(x0, w): the full model's structural series through sixth order in
    the couplings, with _seed_window's w."""
    a, b = _couplings(params)
    y = (b - a) + b * (3.0 * a - b) + b * (-3.0 * a * a - 11.0 * a * b + 2.0 * b * b)
    return params.delta2 + params.delta2 * y, _seed_window(params, tol, a + b)


def _dynamical_seed(params: RamanParams, tol: float):
    """(x0, w): dynamical_approx plus the full model's corrections through
    sixth order in the couplings, with _seed_window's w."""
    a, b = _couplings(params)
    diff, ab = b - a, a * b
    y = (diff - diff * diff + a * (a - b)
         + b * (3.0 * a * a - ab + 2.0 * b * b) - 4.0 * ab * math.sqrt(ab))
    return params.delta2 + params.delta2 * y, _seed_window(params, tol, a + b)


def _closed_form(params: RamanParams, y: float) -> float:
    """delta2 * y for a closed form y in _couplings' (alpha, beta), or a
    ValueError naming the drive where that is not finite."""
    x = params.delta2 * y
    if not math.isfinite(x):
        raise ValueError(f"closed form overflows at omega1 = {params.omega1:g}, "
                         f"omega2 = {params.omega2:g}, delta2 = {params.delta2:g}")
    return x


def structural_exact(params: RamanParams, tol: float = DEFAULT_TOL) -> float:
    """delta1 minimizing the full-model splitting gap32 over the crossing
    bracket: the root of gap32_slope, seeded by the sixth-order series."""
    return _slope_locus(params, gap32_slope, "structural", tol, _structural_seed(params, tol))


def structural_approx(params: RamanParams) -> float:
    """Fourth-order closed-form estimate of the structural locus: the
    dynamical locus plus the lowest-order shift, both expansions of the
    adiabatically eliminated (effective) model."""
    return dynamical_approx(params) + shift_approx(params)


def dynamical_exact_effective(params: RamanParams) -> float:
    """Exact dynamical locus of the effective model: the delta_eff = 0 root."""
    a, b = _couplings(params)
    disc = 1.0 + 4.0 * (b - a)
    if disc < 0:
        raise ValueError(
            "delta2^2 + omega2^2 - omega1^2 < 0: no real delta_eff = 0 root "
            "(outside effective-model validity)"
        )
    return _closed_form(params, 0.5 + 0.5 * math.sqrt(disc))


def dynamical_exact_full(params: RamanParams, tol: float = DEFAULT_TOL) -> float:
    """delta1 maximizing the full-model transfer supremum over the bracket:
    the root of transfer_supremum_slope, seeded by the sixth-order series."""
    return _slope_locus(params, transfer_supremum_slope, "dynamical", tol,
                        _dynamical_seed(params, tol))


def dynamical_approx(params: RamanParams) -> float:
    """Fourth-order closed-form estimate of the dynamical locus, expanded
    in the adiabatically eliminated (effective) model."""
    a, b = _couplings(params)
    diff = b - a
    return _closed_form(params, 1.0 + diff - diff * diff)


def shift_approx(params: RamanParams) -> float:
    """Lowest-order dynamical shift omega1^2 omega2^2 / (4 delta2^3) of the
    adiabatically eliminated (effective) model. The full model's exact
    shift is omega1^2 omega2^2 / (8 delta2^3) at lowest order."""
    a, b = _couplings(params)
    return _closed_form(params, 4.0 * a * b)


def dynamical_shift(params: RamanParams, tol: float = DEFAULT_TOL):
    """(shift_exact, shift_approx): structural minus dynamical locus, and
    its lowest-order closed form. shift_exact is within
    2 max(tol delta2, 4 ulp(delta1)) of the true difference, from the two
    slope-root searches; the shift is Omega1^2 Omega2^2 / (8 delta2^3) at
    lowest order, so at weak coupling tol must sit far below it. Below
    Omega ~ 1e-3 delta2 the shift nears ulp(delta1), which then limits its
    accuracy whatever tol is."""
    exact = structural_exact(params, tol) - dynamical_exact_full(params, tol)
    return exact, shift_approx(params)


def resonance_report(params: RamanParams, tol: float = DEFAULT_TOL) -> ResonanceReport:
    """Compute every locus and the shift in one pass; shift_exact carries
    the bound 2 max(tol delta2, 4 ulp(delta1)) of dynamical_shift."""
    s_exact = structural_exact(params, tol)
    d_full = dynamical_exact_full(params, tol)
    return ResonanceReport(
        structural_exact=s_exact,
        structural_approx=structural_approx(params),
        dynamical_exact_effective=dynamical_exact_effective(params),
        dynamical_exact_full=d_full,
        dynamical_approx=dynamical_approx(params),
        shift_exact=s_exact - d_full,
        shift_approx=shift_approx(params),
    )


@dataclass(frozen=True)
class ShiftScanRow:
    ratio: float
    shift_exact: float
    shift_approx: float


def shift_scan(omega2: float, ratio_grid, tol: float = DEFAULT_TOL, delta2: float = 1.0):
    """Dynamical shift versus coupling ratio omega1/omega2 at fixed omega2:
    one ShiftScanRow per ratio, in grid order. omega2 and delta2 must be
    finite and positive; a ratio whose shift fails raises its error.
    """
    for name, value in (("omega2", omega2), ("delta2", delta2)):
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")
    if omega2 > 0.6 * delta2:
        raise ValueError("omega2 must be <= 0.6 delta2 for a meaningful scan")
    rows = []
    for ratio in ratio_grid:
        r = float(ratio)
        if not 0.0 < r <= 1.5:
            raise ValueError(f"ratio {r:g} outside (0, 1.5]")
        params = RamanParams(omega1=r * omega2, omega2=omega2, delta1=delta2, delta2=delta2)
        exact, approx = dynamical_shift(params, tol)
        rows.append(ShiftScanRow(ratio=r, shift_exact=exact, shift_approx=approx))
    return rows
