"""Tests for the resonance loci and the dynamical shift."""

import dataclasses
import functools
import math
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
    dynamical_approx,
    dynamical_exact_effective,
    dynamical_exact_full,
    default_nu_grid,
    dynamical_shift,
    eliminate,
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
from lambda_crossing import probe, resolvent, resonance
from lambda_crossing._minimize import (
    minimize_scalar,
    parabolic_vertex,
    slope_root,
)
from lambda_crossing.resonance import DEFAULT_TOL

RNG = np.random.default_rng(1234)


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
        tol = 1e-10
        for o1, o2 in [(0.2, 0.5), (0.4, 0.4)]:
            p = RamanParams(o1, o2, 1.0, 1.0)
            star = structural_exact(p, tol)
            g0 = gap32(p.with_delta1(star))
            eps = 10.0 * tol
            assert gap32(p.with_delta1(star + eps)) >= g0
            assert gap32(p.with_delta1(star - eps)) >= g0

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
        tol = 1e-10
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        star = dynamical_exact_full(p, tol)
        a0 = transfer_supremum(p.with_delta1(star))
        eps = 5.0 * tol
        assert a0 >= transfer_supremum(p.with_delta1(star + eps))
        assert a0 >= transfer_supremum(p.with_delta1(star - eps))

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
        rows, skipped = shift_scan(0.2, [0.25, 0.5, 1.0])
        assert not skipped
        for row in rows:
            assert row.shift_approx == pytest.approx(
                (row.ratio * 0.2) ** 2 * 0.2**2 / 4.0, rel=1e-14
            )
        assert rows[1].shift_approx / rows[0].shift_approx == pytest.approx(4.0)

    def test_grid_order_preserved(self):
        grid = [0.3, 0.7, 0.2, 1.1]
        rows, _ = shift_scan(0.1, grid)
        assert [row.ratio for row in rows] == grid

    def test_deviation_grows_in_breakdown_regime(self):
        rows, _ = shift_scan(0.5, [0.4, 1.0])
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
