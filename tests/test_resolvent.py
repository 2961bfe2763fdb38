"""Tests for the energy-dependent (implicit) 2x2 reduction and its iteration."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_crossing import (
    ConvergenceError,
    PoleError,
    RamanParams,
    adiabatic_limit,
    build_hamiltonian,
    dressed_spectrum,
    eliminate,
    iterate_levels,
    level_shift,
    resolvent_structural_resonance,
    structural_approx,
    structural_exact,
)
from lambda_crossing.effective import _shift_terms

RNG = np.random.default_rng(42)

# Log-uniform couplings in [1e-3, 0.6] delta2, delta2 in [0.5, 2] and
# delta1 in [0.8, 1.2] delta2: the crossing the iteration is built for.
CROSSING_DRAWS = st.tuples(
    st.floats(math.log(1e-3), math.log(0.6)),
    st.floats(math.log(1e-3), math.log(0.6)),
    st.floats(0.8, 1.2),
    st.floats(0.5, 2.0),
).map(lambda d: RamanParams(math.exp(d[0]) * d[3], math.exp(d[1]) * d[3], d[2] * d[3], d[3]))


def loop_levels(params, tol=1e-12, max_iter=200):
    """The fixed-point loop written through level_shift and ImplicitModel:
    ((e_minus, e_plus), (iterations_minus, iterations_plus)), or None when
    a branch does not converge."""
    energies, counts = [], []
    for sign in (-1.0, 1.0):
        e, prev_step = 0.0, None
        for n in range(1, max_iter + 1):
            model = level_shift(params, e)
            target = model.offset_c_of_e + sign * math.hypot(model.delta_eff_of_e, model.r13)
            step = target - e
            if abs(step) <= tol * params.delta2:
                break
            if prev_step is not None and step * prev_step < 0 and abs(step) >= 0.9 * abs(prev_step):
                e = e + 0.5 * step
            else:
                e = target
            prev_step = step
        else:
            return None
        energies.append(target)
        counts.append(n)
    return tuple(energies), tuple(counts)


class TestLevelShift:
    def test_e_zero_reproduces_elimination(self):
        for _ in range(50):
            p = RamanParams(
                float(RNG.uniform(0.01, 0.5)),
                float(RNG.uniform(0.01, 0.5)),
                float(RNG.uniform(0.5, 1.5)),
                1.0,
            )
            m0 = level_shift(p, 0.0)
            m = eliminate(p)
            assert m0.r13 == m.omega_eff
            assert m0.delta_eff_of_e == m.delta_eff

    def test_symmetric_couplings(self):
        m = level_shift(RamanParams(0.3, 0.3, 1.0, 1.0), 0.1)
        assert m.r11 == m.r33

    def test_rank_one_identity(self):
        for _ in range(100):
            p = RamanParams(
                float(RNG.uniform(0.0, 1.0)),
                float(RNG.uniform(0.0, 1.0)),
                float(RNG.uniform(0.5, 1.5)),
                1.0,
            )
            e = float(RNG.uniform(-0.2, 0.2))
            m = level_shift(p, e)
            assert m.r13**2 == pytest.approx(m.r11 * m.r33, rel=1e-13, abs=1e-30)

    def test_pole_raises(self):
        with pytest.raises(PoleError):
            level_shift(RamanParams(0.2, 0.5, 1.0, 1.0), -1.0)

    @pytest.mark.parametrize("e", [math.nan, math.inf, -math.inf])
    def test_non_finite_energy_rejected(self, e):
        # a NaN energy passes the pole guard's comparison, so it is refused first
        with pytest.raises(ValueError, match=r"e must be finite, got (nan|inf|-inf)"):
            level_shift(RamanParams(0.2, 0.5, 1.0, 1.0), e)

    @settings(max_examples=200, deadline=None, database=None)
    @given(params=CROSSING_DRAWS, e=st.floats(-0.5, 0.5))
    def test_fields_are_the_scalar_kernel(self, params, e):
        e *= params.delta2
        offset_c, delta_eff, r13, o1sq, o2sq, quarter = _shift_terms(params, e)
        m = level_shift(params, e)
        fields = (m.r11, m.r33, m.r13, m.delta_eff_of_e, m.offset_c_of_e)
        assert fields == (o1sq / quarter, o2sq / quarter, r13, delta_eff, offset_c)
        # ... which is the closed form term by term, squares as products
        o1, o2, d1, d2 = params.omega1, params.omega2, params.delta1, params.delta2
        q = 4.0 * (e + d1)
        assert fields == (
            o1 * o1 / q,
            o2 * o2 / q,
            o1 * o2 / q,
            0.5 * (d2 - d1 + (o2 * o2 - o1 * o1) / q),
            0.5 * (d2 - d1 + (o2 * o2 + o1 * o1) / q),
        )

    def test_adiabatic_limit_helper(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        assert adiabatic_limit(p) == level_shift(p, 0.0)


class TestIterateLevels:
    def test_first_step_is_adiabatic_elimination(self):
        # seeding at E = 0, the first iterate is C(0) +/- sqrt(deff^2 + r13^2)
        p = RamanParams(0.2, 0.5, 0.97, 1.0)
        m0 = level_shift(p, 0.0)
        eps = math.hypot(m0.delta_eff_of_e, m0.r13)
        levels = iterate_levels(p, tol=1e30)  # huge tol: stop after one step
        assert levels.e_plus == pytest.approx(m0.offset_c_of_e + eps, rel=1e-14)
        assert levels.e_minus == pytest.approx(m0.offset_c_of_e - eps, rel=1e-14)

    def test_converged_match_full_diagonalization(self):
        for o1 in (0.1, 0.3, 0.5):
            for o2 in (0.1, 0.3, 0.5):
                for d1 in (0.8, 0.9, 1.0, 1.1, 1.2):
                    p = RamanParams(o1, o2, d1, 1.0)
                    levels = iterate_levels(p)
                    e = dressed_spectrum(p).energies
                    assert abs(levels.e_minus - e[1]) < 1e-10
                    assert abs(levels.e_plus - e[2]) < 1e-10

    def test_characteristic_residuals_small(self):
        p = RamanParams(0.3, 0.4, 1.05, 1.0)
        levels = iterate_levels(p)
        assert max(abs(r) for r in levels.char_residuals) < 1e-10

    @settings(max_examples=200, deadline=None, database=None)
    @given(params=CROSSING_DRAWS)
    def test_same_arithmetic_as_level_shift_loop(self, params):
        expected = loop_levels(params)
        assert expected is not None
        levels = iterate_levels(params)
        assert ((levels.e_minus, levels.e_plus), levels.iterations) == expected

    @pytest.mark.parametrize(
        "o1, o2, d1",
        [(2.86, 0.52, -0.058), (1.911, 0.005, 0.049), (0.72, 0.108, -0.094), (0.005, 1.887, -0.54)],
    )
    def test_same_arithmetic_when_damped(self, o1, o2, d1):
        # away from the crossing the iterates oscillate and the damped step
        # runs; the last point's minus branch never converges
        params = RamanParams(o1, o2, d1, 1.0)
        expected = loop_levels(params)
        if expected is None:
            with pytest.raises(ConvergenceError):
                iterate_levels(params)
        else:
            levels = iterate_levels(params)
            assert ((levels.e_minus, levels.e_plus), levels.iterations) == expected

    @settings(max_examples=100, deadline=None, database=None)
    @given(params=CROSSING_DRAWS)
    def test_residuals_are_the_determinant(self, params):
        # det(H - E I) at the converged energies, against 50 digits and the
        # LAPACK determinant, to a few ulp of the cubed largest matrix scale
        levels = iterate_levels(params)
        h = build_hamiltonian(params)
        bound = 4.0 * 2.0**-52 * max(abs(params.delta1), params.delta2,
                                     params.omega1, params.omega2) ** 3
        for e, residual in zip((levels.e_minus, levels.e_plus), levels.char_residuals):
            with mpmath.workdps(50):
                exact = mpmath.det(mpmath.matrix(h.tolist()) - mpmath.mpf(e) * mpmath.eye(3))
            assert abs(residual - float(exact)) <= bound
            assert abs(residual - float(np.linalg.det(h - e * np.eye(3)))) <= bound

    def test_uncoupled_converges_immediately(self):
        # the first application already lands on the bare levels; the loop
        # needs at most one more pass to detect the zero step
        levels = iterate_levels(RamanParams(0.0, 0.0, 0.7, 1.0))
        assert max(levels.iterations) <= 2
        assert levels.e_minus == pytest.approx(0.0, abs=1e-15)
        assert levels.e_plus == pytest.approx(0.3, abs=1e-15)

    def test_nonconvergence_raises(self):
        p = RamanParams(0.5, 0.5, 1.0, 1.0)
        with pytest.raises(ConvergenceError):
            iterate_levels(p, tol=1e-12, max_iter=2)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            iterate_levels(RamanParams(0.2, 0.5, 1.0, 1.0), tol=0.0)

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, True])
    def test_rejects_bad_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be a positive integer"):
            iterate_levels(RamanParams(0.2, 0.5, 1.0, 1.0), max_iter=max_iter)

    def test_accepts_numpy_integer_max_iter(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        assert iterate_levels(p, max_iter=np.int64(200)) == iterate_levels(p)


class TestResolventResonance:
    def test_matches_full_model_finder(self):
        for o1, o2 in [(0.2, 0.5), (0.3, 0.3), (0.1, 0.2)]:
            p = RamanParams(o1, o2, 1.0, 1.0)
            assert resolvent_structural_resonance(p) == pytest.approx(
                structural_exact(p), abs=1e-8
            )

    def test_iteration_zero_reproduces_fourth_order_expansion(self):
        # minimizing the E = 0 (plain elimination) splitting recovers the
        # closed-form fourth-order locus
        from lambda_crossing._minimize import minimize_scalar

        p = RamanParams(0.08, 0.1, 1.0, 1.0)

        def split0(d1):
            m0 = level_shift(p.with_delta1(d1), 0.0)
            return 2.0 * math.hypot(m0.delta_eff_of_e, m0.r13)

        star, _ = minimize_scalar(split0, 0.5, 1.5, xtol=1e-12)
        assert star == pytest.approx(structural_approx(p), abs=1e-7)

    def test_weak_coupling_collapse(self):
        p = RamanParams(0.02, 0.03, 1.0, 1.0)
        assert resolvent_structural_resonance(p) == pytest.approx(1.0, abs=1e-3)
