"""Tests for the resonance loci and the dynamical shift."""

import ast
import dataclasses
import functools
import math
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_crossing import (
    BracketError,
    ConvergenceError,
    RamanParams,
    build_hamiltonian,
    dynamical_approx,
    dynamical_exact_effective,
    dynamical_exact_full,
    default_nu_grid,
    dynamical_shift,
    eliminate,
    feasibility_check,
    gap32,
    iterate_levels,
    probe_spectrum,
    probed_structural_resonance,
    resolvent_structural_resonance,
    resonance_report,
    shift_approx,
    shift_scan,
    structural_approx,
    structural_exact,
    transfer_supremum,
)
from lambda_crossing import dynamics, probe, resolvent, resonance
from lambda_crossing._minimize import (
    minimize_scalar,
    parabolic_vertex,
    slope_root,
)
from lambda_crossing.resonance import DEFAULT_TOL, gap32_slope, transfer_supremum_slope

RNG = np.random.default_rng(1234)


def slope_at(slope, params, d1):
    """A resonance slope kernel at delta1 = d1, from the eigvalsh of the
    delta2 = 1 Hamiltonian at d1 / delta2, as the locus searches read it."""
    d2, x = params.delta2, d1 / params.delta2
    b = params.omega2 / (2.0 * d2)
    h = build_hamiltonian(RamanParams(params.omega1 / d2, params.omega2 / d2, x, 1.0))
    return slope(np.linalg.eigvalsh(h).tolist(), x, b * b)


def dense_scan_minimum(params, lo=0.9, hi=1.2, n=20001):
    """Independent structural oracle: numpy eigenvalues on a fine delta1 grid
    with parabolic refinement of the grid minimum."""
    grid = np.linspace(lo, hi, n)
    gaps = np.empty(n)
    for i, d1 in enumerate(grid):
        m = np.array(
            [
                [0.0, params.omega1 / 2.0, 0.0],
                [params.omega1 / 2.0, -d1, params.omega2 / 2.0],
                [0.0, params.omega2 / 2.0, -(d1 - params.delta2)],
            ]
        )
        e = np.linalg.eigvalsh(m)
        gaps[i] = e[2] - e[1]
    i = int(np.argmin(gaps))
    return parabolic_vertex(
        grid[i - 1], gaps[i - 1], grid[i], gaps[i], grid[i + 1], gaps[i + 1]
    )


class TestStructural:
    def test_matches_dense_scan_oracle(self):
        for o1, o2 in [(0.2, 0.5), (0.3, 0.3), (0.5, 0.2), (0.1, 0.4)]:
            p = RamanParams(o1, o2, 1.0, 1.0)
            assert structural_exact(p) == pytest.approx(
                dense_scan_minimum(p, 0.7, 1.3), abs=1e-7
            )

    def test_argmin_certificate(self):
        # a +-10 tol step at tol = 1e-10 moves gap32 by about 1e-18, below one
        # ulp, so the value certificate runs at CERTIFICATE_TOL; at 1e-10 the
        # locus is held to the 50-digit one and its slope must change sign
        # across the step (about -+9.8e-10 at (0.2, 0.5))
        for o1, o2 in [(0.2, 0.5), (0.4, 0.4)]:
            p = RamanParams(o1, o2, 1.0, 1.0)
            star = structural_exact(p, CERTIFICATE_TOL)
            g0 = gap32(p.with_delta1(star))
            eps = 10.0 * CERTIFICATE_TOL
            assert gap32(p.with_delta1(star + eps)) >= g0
            assert gap32(p.with_delta1(star - eps)) >= g0
            tol = 1e-10
            star = structural_exact(p, tol)
            assert abs(star - mp_locus(p, mp_gap, star)) <= tol * p.delta2
            eps = 10.0 * tol
            assert slope_at(gap32_slope, p, star - eps) < 0.0 < slope_at(gap32_slope, p, star + eps)

    def test_approx_reference_value(self):
        assert structural_approx(RamanParams(0.2, 0.5, 1.0, 1.0)) == pytest.approx(
            1.05224375, abs=1e-10
        )

    def test_approx_symmetric_couplings(self):
        p = RamanParams(0.3, 0.3, 1.0, 1.0)
        assert structural_approx(p) == pytest.approx(1.0 + 0.3**4 / 4.0, abs=1e-14)

    def test_weak_coupling_collapse(self):
        p = RamanParams(0.01, 0.01, 1.0, 1.0)
        assert structural_exact(p) == pytest.approx(1.0, abs=1e-7)

    def test_requires_both_couplings(self):
        with pytest.raises(BracketError):
            structural_exact(RamanParams(0.0, 0.5, 1.0, 1.0))

    def test_scale_invariance(self):
        p1 = RamanParams(0.2, 0.5, 1.0, 1.0)
        p2 = RamanParams(0.4, 1.0, 2.0, 2.0)
        assert structural_exact(p2) == pytest.approx(2.0 * structural_exact(p1), rel=1e-8)


FINDERS = {
    "structural": structural_exact,
    "dynamical": dynamical_exact_full,
    "structural (resolvent)": resolvent_structural_resonance,
}
BAD_TOLS = [0.0, -1.0, math.nan, math.inf]


class TestLocusSearch:
    @pytest.mark.parametrize("kind", FINDERS)
    @pytest.mark.parametrize(
        "omegas, reason",
        [
            ((0.0, 0.3), "resonance requires omega1 * omega2 > 0"),
            ((2.0, 0.1), "locus 0.5 is at the edge of the search bracket [0.5, 1.5]"),
            ((0.1, 2.0), "locus 1.5 is at the edge of the search bracket [0.5, 1.5]"),
        ],
        ids=["no-coupling", "low-edge", "high-edge"],
    )
    def test_bracket_failure_names_kind(self, kind, omegas, reason):
        with pytest.raises(BracketError) as err:
            FINDERS[kind](RamanParams(*omegas, 1.0, 1.0))
        assert str(err.value).startswith(f"{kind} {reason}")

    @pytest.mark.parametrize(
        "finder, params, message",
        [
            (resonance_report, RamanParams(1e200, 1e200, 1.0, 1.0),
             "structural locus 1.5 is at the edge of the search bracket [0.5, 1.5]"),
        ],
        ids=["omega-1e200"],
    )
    def test_extreme_scale_is_bracket_error(self, finder, params, message):
        # the couplings are clamped at 1e150 delta2, so the slopes stay finite
        with pytest.raises(BracketError) as err:
            finder(params)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("finder", [structural_exact, dynamical_exact_full],
                             ids=lambda f: f.__name__)
    def test_vanishing_couplings_give_delta2(self, finder):
        # at Omega / delta2 = 1e-300 the levels cross at delta2 itself
        p = RamanParams(1.0, 1.0, 1e300, 1e300)
        assert abs(finder(p) - p.delta2) <= DEFAULT_TOL * p.delta2

    @pytest.mark.parametrize("kind", FINDERS)
    def test_underflowing_coupling_product_gives_delta2(self, kind):
        # omega1 * omega2 = 1e-340 underflows to 0, yet both couplings are positive
        p = RamanParams(1e-170, 1e-170, 1.0, 1.0)
        assert abs(FINDERS[kind](p) - 1.0) <= DEFAULT_TOL

    @pytest.mark.parametrize("slope", [gap32_slope, transfer_supremum_slope],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("omega", [2.0 * resonance._COUPLING_CLAMP, 1e-300],
                             ids=["clamp", "1e-300"])
    def test_slopes_finite_at_extreme_couplings(self, slope, omega):
        # no NaN reaches slope_root: at a = b = 1e150 the cofactors stay
        # below the float range, at 1e-300 b^2 underflows to 0
        p = RamanParams(omega, omega, 1.0, 1.0)
        values = [slope_at(slope, p, float(d1)) for d1 in np.linspace(0.5, 1.5, 201)]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "delta2, omegas",
        [
            *[pytest.param(d2, (0.2, 0.5), id=f"{d2:g}") for d2 in (1e-159, 1e-110, 1e80, 1e150)],
            # Omega1 Omega2 underflows to 0 here: each coupling, not the product, is tested
            pytest.param(1e-159, (1e-3, 1e-3), id="1e-159-omega-1e-3"),
        ],
    )
    def test_report_is_scale_free(self, delta2, omegas):
        # in units of delta2 the report is that of delta2 = 1: the slopes are
        # read on the delta2 = 1 Hamiltonian, the closed forms in (alpha, beta)
        w1, w2 = omegas
        want = resonance_report(RamanParams(w1, w2, 1.0, 1.0))
        got = resonance_report(RamanParams(w1 * delta2, w2 * delta2, delta2, delta2))
        for field in dataclasses.fields(want):
            scaled, one = getattr(got, field.name) / delta2, getattr(want, field.name)
            bound = {"structural_exact": DEFAULT_TOL, "dynamical_exact_full": DEFAULT_TOL,
                     "shift_exact": 2.0 * DEFAULT_TOL}.get(field.name, 64.0 * math.ulp(one))
            assert abs(scaled - one) <= bound, field.name

    @pytest.mark.parametrize(
        "closed_form, params",
        [
            (dynamical_approx, RamanParams(1e200, 1e200, 1.0, 1.0)),
            (dynamical_exact_effective, RamanParams(1e200, 1e200, 1.0, 1.0)),
            (shift_approx, RamanParams(1e150, 1e150, 1e6, 1e6)),
            (lambda p: feasibility_check(p, 1.0, 1.0), RamanParams(1e150, 1e150, 1e6, 1e6)),
        ],
        ids=["dynamical_approx", "dynamical_exact_effective", "shift_approx", "feasibility"],
    )
    def test_closed_form_overflow_names_drive(self, closed_form, params):
        # raised, not returned as inf or NaN, which feasibility_check divides by
        message = (f"closed form overflows at omega1 = {params.omega1:g}, "
                   f"omega2 = {params.omega2:g}, delta2 = {params.delta2:g}")
        with pytest.raises(ValueError) as err:
            closed_form(params)
        assert str(err.value) == message

    def test_no_pow_in_resonance(self):
        # every seed and closed form is a product in _couplings' (alpha, beta);
        # ** on Omega or delta2 overflows where the physics is scale-free
        tree = ast.parse(Path(resonance.__file__).read_text(encoding="utf-8"))
        pows = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
        ]
        assert pows == []

    def test_loci_read_eigenvalues_only(self):
        # both exact loci come from eigvalsh of the delta2 = 1 Hamiltonian:
        # no eigenvectors, and nothing from hamiltonian but RamanParams
        tree = ast.parse(Path(resonance.__file__).read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        assert not names & {"eigh", "dressed_spectrum", "diagonalize"}
        imported = [
            (node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names
            if "hamiltonian" in (getattr(node, "module", None) or alias.name)
        ]
        assert imported == [("hamiltonian", "RamanParams")]

    def test_transfer_reads_eigenvalues_only(self):
        # the 1 -> 3 transfer comes from one eigvalsh: in dynamics only evolve,
        # which returns the state, names dressed_spectrum or a complex literal,
        # and from _minimize it imports the discrete crest search alone, so
        # neither a parabolic guess nor Brent
        tree = ast.parse(Path(dynamics.__file__).read_text(encoding="utf-8"))
        owners = {
            stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for stmt in tree.body for node in ast.walk(stmt)
            if "dressed_spectrum" in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(getattr(node, "value", None), complex)
        }
        assert owners == {"evolve"}
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "parabolic_vertex" not in imported
        from_minimize = {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module == "_minimize"
                         for alias in node.names}
        assert from_minimize == {"modular_minimum"}
        assert "_minimize" not in imported

    @pytest.mark.parametrize(
        "entry",
        [structural_exact, dynamical_exact_full, resolvent_structural_resonance, iterate_levels],
        ids=lambda f: f.__name__,
    )
    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tol_is_value_error(self, entry, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            entry(RamanParams(0.2, 0.5, 1.0, 1.0), tol=tol)


class TestDynamical:
    def test_effective_reference_value(self):
        assert dynamical_exact_effective(RamanParams(0.2, 0.5, 1.0, 1.0)) == pytest.approx(
            1.05, abs=1e-14
        )

    def test_effective_symmetric_is_delta2(self):
        assert dynamical_exact_effective(RamanParams(0.3, 0.3, 1.0, 1.0)) == 1.0

    def test_effective_root_property(self):
        for _ in range(50):
            p = RamanParams(
                float(RNG.uniform(0.01, 0.5)),
                float(RNG.uniform(0.01, 0.5)),
                1.0,
                1.0,
            )
            root = dynamical_exact_effective(p)
            assert abs(eliminate(p.with_delta1(root)).delta_eff) < 1e-14

    def test_full_local_maximum_certificate(self):
        # as test_argmin_certificate: transfer_supremum spreads 2.2e-15 within
        # 1e-9 of the locus, so the +-5 tol values are compared at
        # CERTIFICATE_TOL; at 1e-10 the slope reads about +-2.2e-11 there
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        star = dynamical_exact_full(p, CERTIFICATE_TOL)
        a0 = transfer_supremum(p.with_delta1(star))
        eps = 5.0 * CERTIFICATE_TOL
        assert a0 >= transfer_supremum(p.with_delta1(star + eps))
        assert a0 >= transfer_supremum(p.with_delta1(star - eps))
        tol = 1e-10
        star = dynamical_exact_full(p, tol)
        assert abs(star - mp_locus(p, mp_transfer, star)) <= tol * p.delta2
        eps = 5.0 * tol
        slopes = [slope_at(transfer_supremum_slope, p, star + s) for s in (-eps, eps)]
        assert slopes[0] < 0.0 < slopes[1]

    @pytest.mark.parametrize("omega1, omega2, delta2", [(2.5e-11, 2.4e-7, 4.76),
                                                        (2e-11, 1e-7, 0.08)])
    def test_full_at_ultra_weak_coupling(self, omega1, omega2, delta2):
        # the slope at the bracket's low end reads -0.0 or the wrong sign
        # here (the c_k are about 1e-38), which a full-bracket search took
        # for a locus at the edge; the supremum peaks at delta2 + (b2 - a2)/D
        p = RamanParams(omega1, omega2, delta2, delta2)
        series = delta2 + (omega2**2 - omega1**2) / (4.0 * delta2)
        assert abs(dynamical_exact_full(p) - series) <= DEFAULT_TOL * delta2

    def test_full_symmetric_is_delta2(self):
        # symmetric couplings put the full-model transfer maximum at delta2
        for om in (0.1, 0.3):
            p = RamanParams(om, om, 1.0, 1.0)
            assert dynamical_exact_full(p) == pytest.approx(1.0, abs=1e-6)

    def test_full_agrees_with_effective_at_weak_coupling(self):
        p = RamanParams(0.1, 0.2, 1.0, 1.0)
        assert abs(dynamical_exact_full(p) - dynamical_exact_effective(p)) < 0.2**4

    def test_approx_reference_value(self):
        assert dynamical_approx(RamanParams(0.2, 0.5, 1.0, 1.0)) == pytest.approx(
            1.04974375, abs=1e-10
        )

    def test_effective_negative_discriminant(self):
        with pytest.raises(ValueError):
            dynamical_exact_effective(RamanParams(1.5, 0.1, 1.0, 1.0))


class TestShift:
    def test_expansion_identity(self):
        for _ in range(200):
            p = RamanParams(
                float(RNG.uniform(0.0, 0.6)),
                float(RNG.uniform(0.0, 0.6)),
                1.0,
                1.0,
            )
            assert structural_approx(p) - dynamical_approx(p) == pytest.approx(
                shift_approx(p), abs=1e-15
            )

    def test_symmetry_and_homogeneity(self):
        for _ in range(200):
            o1, o2 = float(RNG.uniform(0.0, 0.6)), float(RNG.uniform(0.0, 0.6))
            a = shift_approx(RamanParams(o1, o2, 1.0, 1.0))
            b = shift_approx(RamanParams(o2, o1, 1.0, 1.0))
            assert a == b
            lam = 2.0
            c = shift_approx(RamanParams(lam * o1, lam * o2, lam, lam))
            assert c == pytest.approx(lam * a, rel=1e-14)

    def test_exact_shift_positive(self):
        exact, approx = dynamical_shift(RamanParams(0.2, 0.5, 1.0, 1.0))
        assert exact > 0
        assert approx == pytest.approx(0.0025)

    def test_exact_shift_weak_coupling_limit(self):
        # frozen against the dense-scan oracle: the full-model loci differ at
        # fourth order by omega1^2 omega2^2 / (8 delta2^3), so the ratio to
        # that value tends to 1 as the couplings shrink (see notes ledger)
        ratios = []
        for om in (0.2, 0.1, 0.05):
            p = RamanParams(om, om, 1.0, 1.0)
            exact, _ = dynamical_shift(p)
            ratios.append(exact / (om**4 / 8.0))
        assert ratios[0] == pytest.approx(1.0, abs=0.08)
        assert ratios[1] == pytest.approx(1.0, abs=0.02)
        assert ratios[2] == pytest.approx(1.0, abs=0.005)
        # monotone approach to the limit
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)

    def test_all_loci_collapse_as_couplings_vanish(self):
        p = RamanParams(0.02, 0.02, 1.0, 1.0)
        r = resonance_report(p)
        for locus in (
            r.structural_exact,
            r.structural_approx,
            r.dynamical_exact_effective,
            r.dynamical_exact_full,
            r.dynamical_approx,
        ):
            assert locus == pytest.approx(1.0, abs=1e-6)


class TestShiftScan:
    def test_approx_column_quadratic_in_ratio_squared(self):
        rows = shift_scan(0.2, [0.25, 0.5, 1.0])
        for row in rows:
            assert row.shift_approx == pytest.approx(
                (row.ratio * 0.2) ** 2 * 0.2**2 / 4.0, rel=1e-14
            )
        assert rows[1].shift_approx / rows[0].shift_approx == pytest.approx(4.0)

    def test_grid_order_preserved(self):
        grid = [0.3, 0.7, 0.2, 1.1]
        rows = shift_scan(0.1, grid)
        assert [row.ratio for row in rows] == grid

    def test_deviation_grows_in_breakdown_regime(self):
        rows = shift_scan(0.5, [0.4, 1.0])
        devs = [abs(r.shift_exact - r.shift_approx) / r.shift_approx for r in rows]
        assert devs[1] > devs[0]
        assert devs[1] > 0.1

    def test_rejects_large_omega2(self):
        with pytest.raises(ValueError):
            shift_scan(0.7, [0.5])

    @pytest.mark.parametrize(
        "omega2, delta2, name",
        [
            (0.0, 1.0, "omega2"),
            (-0.1, 1.0, "omega2"),
            (math.nan, 1.0, "omega2"),
            (math.inf, 1.0, "omega2"),
            (0.3, 0.0, "delta2"),
            (0.3, -1.0, "delta2"),
            (0.3, math.nan, "delta2"),
            (0.3, math.inf, "delta2"),
        ],
    )
    def test_rejects_non_positive_omega2_or_delta2(self, omega2, delta2, name):
        with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
            shift_scan(omega2, [0.5], delta2=delta2)

    @pytest.mark.parametrize("tol", BAD_TOLS)
    def test_bad_tol_raises_not_skipped(self, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            shift_scan(0.5, [0.1, 1.0], tol=tol)

    def test_underflowing_coupling_product_is_a_row(self):
        # omega1 * omega2 underflows to 0 at every ratio: the shift is 0, not an error
        rows = shift_scan(1e-170, [1e-10, 1.0])
        assert [(r.ratio, r.shift_exact, r.shift_approx) for r in rows] == [
            (1e-10, 0.0, 0.0), (1.0, 0.0, 0.0)]

    def test_failing_ratio_raises(self):
        # omega1 = 1e-10 * 1e-320 underflows to 0: no coupling, no locus, no row
        with pytest.raises(BracketError, match="structural resonance requires"):
            shift_scan(1e-320, [1.0, 1e-10])

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            shift_scan(0.2, [0.0])
        with pytest.raises(ValueError):
            shift_scan(0.2, [1.6])


def mp_locus(params, quantity, guess):
    """50-digit reference locus: the root, near guess, of the numerical
    delta1-derivative (mpmath.diff) of quantity(energies, states) of an
    mpmath.eigsy spectrum. It shares no formula with the library's slopes."""
    with mpmath.workdps(50):
        half1, half2 = mpmath.mpf(params.omega1) / 2, mpmath.mpf(params.omega2) / 2
        d2 = mpmath.mpf(params.delta2)

        def value(d1):
            h = mpmath.matrix([[0, half1, 0], [half1, -d1, half2], [0, half2, d2 - d1]])
            energies, states = mpmath.eigsy(h)
            order = sorted(range(3), key=lambda k: energies[k])
            return quantity([energies[k] for k in order], [states[:, k] for k in order])

        step = 1e-6 * params.omega1 * params.omega2
        root = mpmath.findroot(
            lambda d1: mpmath.diff(value, d1),
            (mpmath.mpf(guess) - step, mpmath.mpf(guess) + step),
            solver="secant",
            tol=mpmath.mpf(10) ** -40,
        )
        return float(root)


def mp_gap(energies, states):
    return energies[2] - energies[1]


def mp_transfer(energies, states):
    return sum(abs(v[0] * v[2]) for v in states)


REFERENCE_GRID = [
    (float(o1), float(o2))
    for o1 in np.geomspace(0.002, 0.55, 3)
    for o2 in np.geomspace(0.003, 0.5, 3)
]


class TestExactLociReference:
    @pytest.mark.parametrize("omegas", REFERENCE_GRID, ids=lambda o: f"{o[0]:.3g}-{o[1]:.3g}")
    def test_both_loci_match_50_digits(self, omegas):
        p = RamanParams(*omegas, 1.0, 1.0)
        for finder, quantity in ((structural_exact, mp_gap), (dynamical_exact_full, mp_transfer)):
            tight = finder(p, 1e-15)
            reference = mp_locus(p, quantity, tight)
            assert abs(tight - reference) <= 1e-14
            assert abs(finder(p) - reference) <= DEFAULT_TOL

    def test_scaled_delta2(self):
        p = RamanParams(0.3, 0.9, 2.0, 2.0)
        for finder, quantity in ((structural_exact, mp_gap), (dynamical_exact_full, mp_transfer)):
            tight = finder(p, 1e-15)
            assert abs(tight - mp_locus(p, quantity, tight)) <= 1e-14 * p.delta2


class TestWeakCouplingShift:
    @pytest.mark.parametrize("omegas", [(0.002, 0.003), (0.001, 0.01), (0.01, 0.002)],
                             ids=lambda o: f"{o[0]:g}-{o[1]:g}")
    def test_default_tol_resolves_the_shift(self, omegas):
        # the shift is about omega1^2 omega2^2 / (8 delta2^3), 5e-12 to
        # 5e-11 here, so the default tol must sit far below it
        p = RamanParams(*omegas, 1.0, 1.0)
        reference = mp_locus(p, mp_gap, structural_exact(p, 1e-15)) - mp_locus(
            p, mp_transfer, dynamical_exact_full(p, 1e-15)
        )
        assert dynamical_shift(p)[0] == pytest.approx(reference, rel=1e-2)
        assert resonance_report(p).shift_exact == pytest.approx(reference, rel=1e-2)


class TestSixthOrderSeries:
    def test_series_match_50_digits(self):
        # the loci and the shift through sixth order in the couplings; the
        # remainder is eighth order, within 10 (a2 + b2)^4 / D^7 (a scale far
        # above float rounding for couplings of at least 0.02 delta2)
        rng = np.random.default_rng(2024)
        for _ in range(12):
            D = float(np.exp(rng.uniform(-0.7, 0.7)))
            omega1, omega2 = (np.exp(rng.uniform(math.log(0.02), math.log(0.12), 2)) * D).tolist()
            p = RamanParams(omega1, omega2, D, D)
            a2, b2 = omega1**2 / 4, omega2**2 / 4
            structural = (
                D + (b2 - a2) / D + b2 * (3 * a2 - b2) / D**3
                + b2 * (-3 * a2**2 - 11 * a2 * b2 + 2 * b2**2) / D**5
            )
            dynamical = (
                dynamical_approx(p) + a2 * (a2 - b2) / D**3
                + (b2 * (3 * a2**2 - a2 * b2 + 2 * b2**2) - 4 * (a2 * b2) ** 1.5) / D**5
            )
            shift = (
                omega1**2 * omega2**2 / (8 * D**3) + abs(omega1 * omega2) ** 3 / (16 * D**5)
                - omega1**2 * omega2**2 * (3 * omega1**2 + 5 * omega2**2) / (32 * D**5)
            )
            s_ref = mp_locus(p, mp_gap, structural_exact(p, 1e-15))
            d_ref = mp_locus(p, mp_transfer, dynamical_exact_full(p, 1e-15))
            bound = 10 * (a2 + b2) ** 4 / D**7
            assert abs(structural - s_ref) <= bound
            assert abs(dynamical - d_ref) <= bound
            assert abs(shift - (s_ref - d_ref)) <= bound


def quartic_structural_locus(params):
    """50-digit structural locus from its polynomial: the real root nearest
    (b2 - a2)/D of the quartic in x = delta1 - delta2, with a2 = omega1^2/4,
    b2 = omega2^2/4 and D = delta2. Returns (delta1, v0^2(E3) - v0^2(E2)), the
    residual of the structural condition in a 50-digit mpmath.eigsy spectrum.

    The squared factor of the resultant that eliminates E and E' from
    det(E - H) = det(E' - H) = 0 and (v0^2(E) - v0^2(E'))/(E - E') = 0; the
    eigenvector of E is proportional to (a/E, 1, b/(E - c)), c = -x. sympy
    regenerates it in about 3 s:

        E, F, x, a2, b2, D = sympy.symbols("E F x a2 b2 D")
        P = lambda e: sympy.expand(e * (e + D + x) * (e + x) - a2 * (e + x) - b2 * e)
        N = lambda e: a2 * (e + x)**2 + e**2 * (e + x)**2 + b2 * e**2
        cond = sympy.cancel(sympy.expand((E + x)**2 * N(F) - (F + x)**2 * N(E)) / (E - F))
        sympy.factor(sympy.resultant(sympy.resultant(cond, P(F), F), P(E), E))
    """
    with mpmath.workdps(50):
        a2, b2 = mpmath.mpf(params.omega1) ** 2 / 4, mpmath.mpf(params.omega2) ** 2 / 4
        D = mpmath.mpf(params.delta2)
        coeffs = [
            D * (D**2 + 4 * b2),
            D**4 + 3 * D**2 * a2 + 4 * a2 * b2 - 16 * b2**2,
            3 * D * (D**2 * a2 - 2 * D**2 * b2 + a2**2 - 8 * b2**2),
            -(D**4) * b2 + 3 * D**2 * a2**2 - 9 * D**2 * a2 * b2 + a2**3 - 12 * a2 * b2**2
            + 16 * b2**3,
            D * (-(D**2) * a2 * b2 + D**2 * b2**2 + a2**3 - 3 * a2**2 * b2 + 4 * b2**3),
        ]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30]
        d1 = D + min(real, key=lambda r: abs(r - (b2 - a2) / D))
        half1, half2 = mpmath.sqrt(a2), mpmath.sqrt(b2)
        h = mpmath.matrix([[0, half1, 0], [half1, -d1, half2], [0, half2, D - d1]])
        energies, states = mpmath.eigsy(h)
        k1, k2, k3 = sorted(range(3), key=lambda k: energies[k])
        return d1, states[0, k3] ** 2 - states[0, k2] ** 2


class TestStructuralQuartic:
    def test_loci_match_quartic_root(self):
        # log-uniform couplings, one draw in four with omega2/omega1 in
        # [1e-3, 1e-2], where three roots of the quartic nearly meet
        rng = np.random.default_rng(4242)
        checked = 0
        for i in range(60):
            d2 = float(np.exp(rng.uniform(-0.7, 0.7)))
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-2), math.log(0.6), 2)) * d2
            if i % 4 == 0:
                omega2 = omega1 * 10 ** rng.uniform(-3.0, -2.0)
            p = RamanParams(float(omega1), float(omega2), d2, d2)
            d1, residual = quartic_structural_locus(p)
            assert abs(residual) < 1e-40
            try:
                exact = structural_exact(p)
                searched = resolvent_structural_resonance(p)
            except BracketError:
                continue
            checked += 1
            assert abs(exact - d1) <= DEFAULT_TOL * d2
            # a value-only search resolves a flat minimum to about sqrt(eps)
            assert abs(searched - d1) <= math.sqrt(np.finfo(float).eps) * d2
        assert checked >= 50


CERTIFICATE_TOL = 1e-7
LOG_COUPLING = st.floats(math.log(1e-3), math.log(0.6))


class TestExactLociProperties:
    @settings(max_examples=60, deadline=None, database=None)
    @given(log_omega1=LOG_COUPLING, log_omega2=LOG_COUPLING)
    def test_certified_and_near_value_search(self, log_omega1, log_omega2):
        p = RamanParams(math.exp(log_omega1), math.exp(log_omega2), 1.0, 1.0)
        gap = lambda d1: gap32(p.with_delta1(d1))  # noqa: E731
        supremum = lambda d1: transfer_supremum(p.with_delta1(d1))  # noqa: E731
        with mock.patch.object(resonance, "gap32_slope", wraps=resonance.gap32_slope) as s_calls:
            structural = structural_exact(p)
        with mock.patch.object(
            resonance, "transfer_supremum_slope", wraps=resonance.transfer_supremum_slope
        ) as d_calls:
            dynamical = dynamical_exact_full(p)
        assert s_calls.call_count <= 12 and d_calls.call_count <= 12
        # within 1e-8 delta2 of value-only Brent searches, which resolve a
        # flat extremum only to about sqrt(eps)
        assert abs(structural - minimize_scalar(gap, 0.5, 1.5, xtol=DEFAULT_TOL)[0]) <= 1e-8
        neg_supremum = lambda d1: -supremum(d1)  # noqa: E731
        assert abs(dynamical - minimize_scalar(neg_supremum, 0.5, 1.5, xtol=DEFAULT_TOL)[0]) <= 1e-8
        # certificates at +-10 tol delta2: tol = 1e-7 makes that step move
        # gap32 and transfer_supremum by far more than their rounding noise
        step = 10.0 * CERTIFICATE_TOL
        s_star = structural_exact(p, CERTIFICATE_TOL)
        assert gap(s_star - step) > gap(s_star) < gap(s_star + step)
        d_star = dynamical_exact_full(p, CERTIFICATE_TOL)
        assert supremum(d_star - step) < supremum(d_star) > supremum(d_star + step)


class TestLocusConvergence:
    @pytest.mark.parametrize("finder, kind", [(structural_exact, "structural"),
                                              (dynamical_exact_full, "dynamical")])
    def test_out_of_iterations_names_kind(self, monkeypatch, finder, kind):
        monkeypatch.setattr(resonance, "slope_root", functools.partial(slope_root, max_iter=1))
        with pytest.raises(ConvergenceError, match=f"^{kind} locus: slope root not found"):
            finder(RamanParams(0.2, 0.5, 1.0, 1.0), 1e-15)


class TestFaultSites:
    """The module attributes through which the benchmark injects its faults
    must be the ones these entry points reach."""

    @pytest.mark.parametrize("attr", ["structural_exact", "dynamical_exact_full"])
    def test_report_reads_locus_through_module(self, monkeypatch, attr):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        clean = getattr(resonance_report(p), attr)
        original = getattr(resonance, attr)
        monkeypatch.setattr(resonance, attr, lambda *a, **k: original(*a, **k) + 1e-6)
        assert getattr(resonance_report(p), attr) == clean + 1e-6

    def test_resolvent_locus_reads_minimize_scalar_through_module(self, monkeypatch):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        clean = resolvent_structural_resonance(p)

        def nudged(*a, **k):
            x, fx = minimize_scalar(*a, **k)
            return x + 1e-6, fx

        monkeypatch.setattr(resolvent, "minimize_scalar", nudged)
        assert resolvent_structural_resonance(p) == clean + 1e-6

    def test_resolvent_locus_reads_iterate_levels_through_module(self, monkeypatch):
        # the trace site behind resolvent.iterate_levels.us: a splitting tilted
        # upward in delta1 moves the minimum left
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        clean = resolvent_structural_resonance(p)
        original = resolvent.iterate_levels

        def tilted(params, *a, **k):
            levels = original(params, *a, **k)
            return dataclasses.replace(levels, e_plus=levels.e_plus + 0.01 * params.delta1)

        monkeypatch.setattr(resolvent, "iterate_levels", tilted)
        assert resolvent_structural_resonance(p) < clean - 1e-5

    def test_probed_resonance_reads_measured_splitting_through_module(self, monkeypatch):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        star = structural_exact(p)
        args = (p, np.linspace(star - 0.01, star + 0.01, 11), 1e-5, 250.0 * math.pi)
        clean = probed_structural_resonance(*args)
        original = probe.measured_splitting
        monkeypatch.setattr(probe, "measured_splitting", lambda *a, **k: original(*a, **k) * 1.05)
        faulty = probed_structural_resonance(*args)
        np.testing.assert_array_equal(faulty.splittings, clean.splittings * 1.05)

    def test_probe_spectrum_reads_alpha_elements_through_module(self, monkeypatch):
        p, duration = RamanParams(0.2, 0.5, 1.0, 1.0), 250.0 * math.pi
        args = (p, 1e-5, duration, default_nu_grid(p, duration))
        clean = probe_spectrum(*args)
        original = probe.alpha_elements

        def swapped(spectrum):
            alpha = original(spectrum)
            return dataclasses.replace(alpha, alpha13=alpha.alpha31, alpha31=alpha.alpha13)

        monkeypatch.setattr(probe, "alpha_elements", swapped)
        # swapping the overlaps mirrors the spectrum in nu
        mirrored = probe_spectrum(*args).probabilities
        assert not np.array_equal(mirrored, clean.probabilities)
        np.testing.assert_allclose(
            mirrored, clean.probabilities[::-1], rtol=0, atol=1e-9 * clean.probabilities.max()
        )


SLOPE_LOCI = {
    "structural": (structural_exact, "_structural_seed", "gap32_slope"),
    "dynamical": (dynamical_exact_full, "_dynamical_seed", "transfer_supremum_slope"),
}


def outcome(finder, params, tol):
    """finder's locus, or the text of the BracketError it raises."""
    try:
        return finder(params, tol)
    except BracketError as err:
        return str(err)


def full_bracket_locus(kind, params, tol):
    """The unseeded search: slope_root on all of [0.5, 1.5] delta2 of the
    same slope, through _locus's edge check."""
    slope = getattr(resonance, SLOPE_LOCI[kind][2])
    return outcome(lambda p, t: resonance._slope_locus(p, slope, kind, t, seed=None), params, tol)


def seeded_draws(n, seed, hi=0.6):
    """n draws, couplings log-uniform on [1e-3, hi] delta2 and delta2 in
    [e^-0.7, e^0.7]; one in four has Omega2/Omega1 in [1e-3, 1e-2], where the
    structural quartic has a near-triple root."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        d2 = float(np.exp(rng.uniform(-0.7, 0.7)))
        omega1, omega2 = (np.exp(rng.uniform(math.log(1e-3), math.log(hi), 2)) * d2).tolist()
        if i % 4 == 0:
            omega2 = omega1 * 10 ** rng.uniform(-3.0, -2.0)
        yield RamanParams(omega1, omega2, d2, d2)


def assert_same_outcome(got, want, tol, d2):
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert abs(got - want) <= 2.0 * max(tol * d2, 4.0 * math.ulp(want))


class TestSeededSearch:
    """The closed forms pick the bracket; the slope root decides the value."""

    @pytest.mark.parametrize("kind", SLOPE_LOCI)
    def test_matches_full_bracket_search(self, kind):
        # couplings up to 2 delta2 put some loci at the bracket edge, where
        # both searches must raise the same BracketError
        finder = SLOPE_LOCI[kind][0]
        edges = 0
        for p in seeded_draws(400, 77, hi=2.0):
            for tol in (1e-10, 1e-13, 1e-15):
                want = full_bracket_locus(kind, p, tol)
                assert_same_outcome(outcome(finder, p, tol), want, tol, p.delta2)
                edges += isinstance(want, str)
        assert edges > 0

    @pytest.mark.parametrize("kind", SLOPE_LOCI)
    @pytest.mark.parametrize("miss", [-0.05, 0.05, math.nan], ids=["low", "high", "nan"])
    def test_missed_seed_keeps_locus_and_messages(self, monkeypatch, kind, miss):
        finder, seed_name, _ = SLOPE_LOCI[kind]
        draws = list(seeded_draws(40, 78)) + [
            RamanParams(2.0, 0.1, 1.0, 1.0), RamanParams(0.1, 2.0, 1.0, 1.0),
        ]
        want = [full_bracket_locus(kind, p, DEFAULT_TOL) for p in draws]
        for p, locus in zip(draws, want):
            centre = p.delta2 if isinstance(locus, str) else locus
            seed = (centre + miss * p.delta2, DEFAULT_TOL * p.delta2)
            monkeypatch.setattr(resonance, seed_name, lambda params, tol, seed=seed: seed)
            assert_same_outcome(outcome(finder, p, DEFAULT_TOL), locus, DEFAULT_TOL, p.delta2)
        assert want[-2].startswith(f"{kind} locus 0.5 is at the edge")
        assert want[-1].startswith(f"{kind} locus 1.5 is at the edge")

    def test_mean_slope_evaluations(self):
        # the full-bracket search took a mean of 6.61 (structural) and 8.82
        # (dynamical) evaluations over such draws
        rng = np.random.default_rng(79)
        counts = {kind: [] for kind in SLOPE_LOCI}
        for _ in range(200):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2)).tolist()
            p = RamanParams(omega1, omega2, 1.0, 1.0)
            for kind, (finder, _, slope_name) in SLOPE_LOCI.items():
                slope = getattr(resonance, slope_name)
                with mock.patch.object(resonance, slope_name, wraps=slope) as calls:
                    finder(p)
                counts[kind].append(calls.call_count)
        means = {kind: float(np.mean(c)) for kind, c in counts.items()}
        assert max(means.values()) <= 5.0, means
