"""Structural and dynamical resonance loci and the dynamical shift.

The structural resonance minimizes the dressed-level splitting eps3 - eps2;
the dynamical resonance maximizes the bare-state 1 -> 3 transfer. Both are
located on the avoided crossing at delta1 ~ delta2 (the delta1 ~ 0 crossing
is out of scope). The two loci differ by the dynamical shift.

Every exact locus, resolvent.resolvent_structural_resonance included, is
searched for in [0.5, 1.5] delta2 through _locus, which holds the
coupling guards and the edge check; no finder takes a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._minimize import _ROOT_RTOL, slope_root
from .errors import BracketError, ConvergenceError
from .hamiltonian import RamanParams, _at_drive, _frame, _scalar_spectrum

# Search bracket around the delta1 ~ delta2 crossing, in units of delta2.
# At zero coupling (eps2 - eps1)(eps3 - eps2) = x (1 - x) at x = delta1 /
# delta2 < 1, stationary exactly at x = 1/2: the dynamical slope's second
# root, just below BRACKET_LO, is the maximum of that product, not a locus.
BRACKET_LO = 0.5
BRACKET_HI = 1.5
_EDGE_MARGIN = 1e-4
# Omega / delta2 from which one rounding of a coupling reaches _EDGE_MARGIN.
_COUPLING_LIMIT = _EDGE_MARGIN / math.ulp(1.0)


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


def _locus(params: RamanParams, what: str, solve) -> float:
    """solve(lo, hi): the locus of kind what, by its engine's own search in
    [lo, hi] = [BRACKET_LO, BRACKET_HI] * delta2. The one place that names
    the kind: a coupling that is not positive or from _COUPLING_LIMIT delta2,
    or a locus at the bracket edge, raises BracketError naming what, a locus
    past the float range a ValueError, and a ConvergenceError from solve is
    raised again as "{what} locus: {err}"."""
    o1, o2, d2 = params.omega1, params.omega2, params.delta2
    if not (o1 > 0 and o2 > 0):
        raise BracketError(f"{what} resonance requires omega1 * omega2 > 0")
    if max(o1, o2) / d2 >= _COUPLING_LIMIT:
        raise BracketError(
            f"{what} resonance requires max(omega1, omega2) < {_COUPLING_LIMIT:.3g} delta2, "
            f"got omega1 = {o1:g}, omega2 = {o2:g}, delta2 = {d2:g}"
        )
    lo, hi = BRACKET_LO * d2, BRACKET_HI * d2
    try:
        x = solve(lo, hi)
    except ConvergenceError as err:
        raise ConvergenceError(f"{what} locus: {err}") from None
    except OverflowError:
        raise ValueError(f"{what} locus overflows {_at_drive(params)}") from None
    if min(x - lo, hi - x) < _EDGE_MARGIN * d2:
        raise BracketError(
            f"{what} locus {x:g} is at the edge of the search bracket [{BRACKET_LO:g}, "
            f"{BRACKET_HI:g}] delta2; parameters are outside the isolated-crossing regime"
        )
    return x


def gap32_slope(energies, n) -> float:
    """g dg/d delta1 for g = e3 - e2 from _scalar_spectrum's levels e1 < e2 < e3
    and n_k: n3 / (e3 - e1) + n2 / (e2 - e1), as d e_k/d delta1 = v_{0,k}^2 - 1
    (Hellmann-Feynman). Negative left of the structural locus; the positive
    factor g makes it nearly linear in delta1 across the crossing."""
    e1, e2, e3 = energies
    _, n2, n3 = n
    return n3 / (e3 - e1) + n2 / (e2 - e1)


def transfer_supremum_slope(energies, n) -> float:
    """(g / h^2) d(h g)/d delta1 for g = e3 - e2 and h = e2 - e1, as
    gap32_slope. dynamics.transfer_supremum is (2 a b / (h g))^2, so the
    dynamical locus is the minimum of h g: with S = gap32_slope and
    w = e3 - e1 the slope is (S - (g / h^2)(n2 + g n1 / w)) / h, negative
    left of the locus."""
    e1, e2, e3 = energies
    n1, n2, n3 = n
    h, g, w = e2 - e1, e3 - e2, e3 - e1
    s = n3 / w + n2 / h
    return (s - g / (h * h) * (n2 + g * (n1 / w))) / h


def _slope_locus(params: RamanParams, slope, what: str, seed) -> float:
    """_locus of kind what: the root of slope(*levels(x)) over x = delta1 2^-k
    in the _frame k of delta2, on the bracket formed in that frame (where
    1.5 delta2 cannot overflow), to slope_root's floor of 4 ulp. The seed
    (x0, w), the sixth-order series and its remainder bound, gives the window
    [x0 - w, x0 + w] 2^-k to search first, then the rest of the bracket on
    the side the slope points to; a window not strictly inside it gives the
    full bracket. A mean of 4.2 evaluations (at most 7), 6.8 and 9.1 unseeded."""
    k = _frame(params, params.delta2)
    _, _, d2, levels = _scalar_spectrum(params, k)

    def f(x):
        return slope(*levels(x))

    def solve(*_):  # _locus's bracket, formed again in the frame
        lo, hi = BRACKET_LO * d2, BRACKET_HI * d2

        def from_lo(right):
            # slope_root on [lo, right]. With one coupling negligible, x = 1/2
            # is the stationary point of (eps2 - eps1)(eps3 - eps2), so the
            # dynamical slope's sign at lo is rounding noise: a return of lo
            # is searched again from inside the edge margin, and a root found
            # there replaces it
            x, _ = slope_root(f, lo, right)
            inner = lo + 0.5 * _EDGE_MARGIN * d2
            if x == lo and inner < right:
                y, _ = slope_root(f, inner, right)
                if y > inner:
                    x = y
            return x

        x0, w = seed
        left, right = math.ldexp(x0 - w, -k), math.ldexp(x0 + w, -k)
        if lo < left < right < hi:
            x, fx = slope_root(f, left, right)
            if x == left and fx >= 0.0:
                x = from_lo(left)
            elif x == right and fx <= 0.0:
                x, _ = slope_root(f, right, hi)
        else:
            x = from_lo(hi)
        return math.ldexp(x, k)

    return _locus(params, what, solve)


def _couplings(params: RamanParams):
    """(alpha, beta) = (Omega1^2, Omega2^2) / (4 delta2^2), the variables of
    every seed and closed form; a product overflows to inf, not an error."""
    r1, r2 = params.omega1 / params.delta2 * 0.5, params.omega2 / params.delta2 * 0.5
    return r1 * r1, r2 * r2


def _seed_window(params: RamanParams, s: float) -> float:
    """max(_ROOT_RTOL, 10 s^4) delta2 for s = alpha + beta: the bound on
    either seed series' remainder (tests: TestSixthOrderSeries), floored at
    the 4 ulp where slope_root stops, so a seeded bracket is never narrower
    than the search's own resolution, and at ulp(delta2), the spacing of the
    loci themselves, which is the larger only at a subnormal delta2."""
    d2 = params.delta2
    return max(_ROOT_RTOL * d2, 10.0 * s * s * s * s * d2, math.ulp(d2))


def _structural_seed(params: RamanParams):
    """(x0, w): the full model's structural series through sixth order in
    the couplings, with _seed_window's w."""
    a, b = _couplings(params)
    y = (b - a) + b * (3.0 * a - b) + b * (-3.0 * a * a - 11.0 * a * b + 2.0 * b * b)
    return params.delta2 + params.delta2 * y, _seed_window(params, a + b)


def _dynamical_seed(params: RamanParams):
    """(x0, w): dynamical_approx plus the full model's corrections through
    sixth order in the couplings, with _seed_window's w."""
    a, b = _couplings(params)
    diff, ab = b - a, a * b
    y = (diff - diff * diff + a * (a - b)
         + b * (3.0 * a * a - ab + 2.0 * b * b) - 4.0 * ab * math.sqrt(ab))
    return params.delta2 + params.delta2 * y, _seed_window(params, a + b)


def _closed_form(params: RamanParams, y: float) -> float:
    """delta2 * y for a closed form y in _couplings' (alpha, beta), or a
    ValueError naming the drive where that is not finite."""
    x = params.delta2 * y
    if not math.isfinite(x):
        raise ValueError(f"closed form overflows at omega1 = {params.omega1:g}, "
                         f"omega2 = {params.omega2:g}, delta2 = {params.delta2:g}")
    return x


def structural_exact(params: RamanParams) -> float:
    """delta1 minimizing the full-model splitting gap32 over the crossing
    bracket: the root of gap32_slope, seeded by the sixth-order series."""
    return _slope_locus(params, gap32_slope, "structural", _structural_seed(params))


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


def dynamical_exact_full(params: RamanParams) -> float:
    """delta1 maximizing the full-model transfer supremum over the bracket:
    the root of transfer_supremum_slope, seeded by the sixth-order series."""
    return _slope_locus(params, transfer_supremum_slope, "dynamical", _dynamical_seed(params))


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


def dynamical_shift(params: RamanParams):
    """(shift_exact, shift_approx): structural minus dynamical locus, and
    its lowest-order closed form. shift_exact is within 2 x 4 ulp(delta1)
    of the difference of the float slopes' roots, each of which sits about
    eps max(omega1, omega2, delta2) from the true locus through the
    spectrum's rounding. The shift is Omega1^2 Omega2^2 / (8 delta2^3) at
    lowest order, so below Omega ~ 1e-3 delta2 it nears ulp(delta1), which
    then limits its accuracy."""
    exact = structural_exact(params) - dynamical_exact_full(params)
    return exact, shift_approx(params)


def resonance_report(params: RamanParams) -> ResonanceReport:
    """Compute every locus and the shift in one pass; shift_exact carries
    the bound of dynamical_shift."""
    s_exact = structural_exact(params)
    d_full = dynamical_exact_full(params)
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


def shift_scan(omega2: float, ratio_grid, *, delta2: float = 1.0):
    """Dynamical shift versus coupling ratio omega1/omega2 at fixed omega2:
    one ShiftScanRow per ratio, in grid order. omega2 and delta2 (keyword
    only) must be finite and positive; a ratio whose shift fails raises its
    error.
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
        exact, approx = dynamical_shift(params)
        rows.append(ShiftScanRow(ratio=r, shift_exact=exact, shift_approx=approx))
    return rows
