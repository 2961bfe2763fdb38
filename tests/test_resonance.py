"""Tests for the resonance loci and the dynamical shift."""

import math

import numpy as np
import pytest

from lambda_crossing import (
    BracketError,
    RamanParams,
    dynamical_approx,
    dynamical_exact_effective,
    dynamical_exact_full,
    dynamical_shift,
    eliminate,
    gap32,
    iterate_levels,
    resolvent_structural_resonance,
    resonance_report,
    shift_approx,
    shift_scan,
    structural_approx,
    structural_exact,
    transfer_supremum,
)
from lambda_crossing._minimize import parabolic_vertex

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
