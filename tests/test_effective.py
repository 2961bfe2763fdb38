"""Tests for the adiabatic elimination and the effective two-level model."""

import math

import numpy as np
import pytest

from lambda_crossing import (
    PoleError,
    RamanParams,
    SingularEliminationError,
    effective_energies,
    eliminate,
    evolve,
    gap32,
    mixing_angle,
)

RNG = np.random.default_rng(7)


class TestEliminate:
    def test_symmetric_couplings_on_crossing(self):
        m = eliminate(RamanParams(0.3, 0.3, 1.0, 1.0))
        assert m.omega_eff == pytest.approx(0.09 / 4.0)
        assert m.delta_eff == pytest.approx(0.0, abs=1e-16)
        assert m.theta == pytest.approx(math.pi / 2.0)

    def test_reference_values(self):
        m = eliminate(RamanParams(0.2, 0.5, 1.0, 1.0))
        assert m.omega_eff == pytest.approx(0.025)
        assert m.delta_eff == pytest.approx(0.02625)

    def test_ccdot_zero_linear_solve_oracle(self):
        # independent check: solve the c2dot = 0 stationarity condition for c2
        # and read the induced 2x2 block off the remaining equations
        o1, o2, d1, d2 = 0.17, 0.43, 0.93, 1.0
        m = eliminate(RamanParams(o1, o2, d1, d2))
        # stationarity of c2 gives c2 = (o1 c1 + o2 c3) / (2 d1); substituting
        # back yields Stark-shifted diagonals and the coupling o1 o2 / (4 d1)
        coupling = o1 * o2 / (4.0 * d1)
        stark1 = o1 * o1 / (4.0 * d1)
        stark3 = o2 * o2 / (4.0 * d1) + (d2 - d1)
        assert m.omega_eff == pytest.approx(coupling, rel=1e-14)
        # symmetrized detuning: half the diagonal difference
        assert m.delta_eff == pytest.approx(0.5 * (stark3 - stark1), rel=1e-13)

    def test_decoupled_when_omega2_zero(self):
        m = eliminate(RamanParams(0.4, 0.0, 0.8, 1.0))
        assert m.omega_eff == 0.0
        assert m.delta_eff == pytest.approx((1.0 - 0.8) / 2.0 - 0.16 / (8.0 * 0.8))

    def test_singular_at_delta1_zero(self):
        with pytest.raises(SingularEliminationError):
            eliminate(RamanParams(0.2, 0.5, 0.0, 1.0))

    @pytest.mark.parametrize("delta1", [1e-12, -1e-12, 3e-16, 5e-324])
    def test_pole_next_to_delta1_zero(self, delta1):
        # the level shift's pole guard, 0 < |delta1| <= 1e-12 delta2, where
        # omega_eff = omega1 omega2 / 4 delta1 would reach 2.5e10 and beyond
        with pytest.raises(PoleError, match="too close to the bare intermediate level"):
            eliminate(RamanParams(0.2, 0.5, delta1, 1.0))
        assert eliminate(RamanParams(0.2, 0.5, 1e-12, 0.5)).omega_eff == 0.1 / 4e-12

    def test_validity_warning(self):
        assert eliminate(RamanParams(0.7, 0.7, 1.0, 1.0)).validity_warning
        assert not eliminate(RamanParams(0.1, 0.1, 1.0, 1.0)).validity_warning


class TestMixingAngle:
    def test_branch(self):
        assert mixing_angle(1.0, 0.0) == pytest.approx(math.pi / 2.0)
        assert mixing_angle(0.1, 1.0) > math.pi / 2.0
        assert mixing_angle(0.1, -1.0) < math.pi / 2.0
        for _ in range(100):
            th = mixing_angle(float(RNG.uniform(1e-6, 1.0)), float(RNG.uniform(-1.0, 1.0)))
            assert 0.0 < th < math.pi

    def test_tan_identity(self):
        for _ in range(100):
            om, de = float(RNG.uniform(0.01, 1.0)), float(RNG.uniform(-1.0, 1.0))
            th = mixing_angle(om, de)
            assert math.tan(th) == pytest.approx(-om / de, rel=1e-10)


class TestEffectiveEnergies:
    def test_pure_coupling(self):
        m = eliminate(RamanParams(0.3, 0.3, 1.0, 1.0))
        lo, hi = effective_energies(m)
        assert hi == pytest.approx(m.omega_eff)
        assert lo == pytest.approx(-m.omega_eff)

    def test_pure_detuning(self):
        m = eliminate(RamanParams(0.4, 0.0, 0.8, 1.0))
        lo, hi = effective_energies(m)
        assert hi == pytest.approx(abs(m.delta_eff))

    def test_splitting_matches_full_gap(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        _, hi = effective_energies(eliminate(p))
        assert abs(2.0 * hi - gap32(p)) < 0.5**4


class TestEffectiveMatrix:
    def test_eigensystem_consistency(self):
        for _ in range(100):
            p = RamanParams(
                float(RNG.uniform(0.01, 0.5)),
                float(RNG.uniform(0.01, 0.5)),
                float(RNG.uniform(0.5, 1.5)),
                1.0,
            )
            m = eliminate(p)
            # the symmetrized 2x2 matrix of the elimination, solved independently
            h = np.array([[m.delta_eff, m.omega_eff], [m.omega_eff, -m.delta_eff]])
            np.testing.assert_allclose(effective_energies(m), np.linalg.eigvalsh(h), atol=1e-12)


class TestReductionQuality:
    def test_quartic_convergence_under_halving(self):
        # |gap32(full) - 2 eps_plus| shrinks ~16x when Omega is halved
        def err(om):
            p = RamanParams(om, om, 1.0, 1.0)
            _, hi = effective_energies(eliminate(p))
            return abs(gap32(p) - 2.0 * hi)

        ratio = err(0.2) / err(0.1)
        assert ratio == pytest.approx(16.0, rel=0.2)

    def test_population_2_stays_small(self):
        p = RamanParams(0.3, 0.3, 1.0, 1.0)
        bound = (p.omega1**2 + p.omega2**2) / (2.0 * p.delta2**2)
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        for t in np.linspace(0.0, 200.0, 400):
            psi = evolve(p, psi0, float(t))
            assert abs(psi[1]) ** 2 <= bound
