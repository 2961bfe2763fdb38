"""Tests for the alkali-atom settings: bias field, splittings, rates, verdicts."""

import dataclasses
import math

import pytest

from lambda_crossing import (
    RB87,
    AlkaliSpec,
    ScenarioError,
    bias_field,
    scattering_rate,
    scenario_report,
    splittings,
)
from lambda_crossing.experiment import PRESETS


class TestAlkaliSpec:
    def test_chi(self):
        assert RB87.chi == pytest.approx(0.5)
        assert AlkaliSpec(1e9, 0.5, 2.0, -1e-3).chi == pytest.approx(1.0)

    def test_rejects_bad_spin(self):
        with pytest.raises(ValueError):
            AlkaliSpec(1e9, 0.3, 2.0, -1e-3)
        with pytest.raises(ValueError):
            AlkaliSpec(1e9, -0.5, 2.0, -1e-3)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hfs_splitting", math.nan, "hfs_splitting must be finite"),
            ("hfs_splitting", math.inf, "hfs_splitting must be finite"),
            ("g_j", math.nan, "g_j must be finite"),
            ("g_i", -math.inf, "g_i must be finite"),
            ("gamma_excited", -6e6, "gamma_excited must be finite and positive"),
            ("gamma_excited", 0.0, "gamma_excited must be finite and positive"),
            ("gamma_excited", math.nan, "gamma_excited must be finite and positive"),
            ("gamma_excited", math.inf, "gamma_excited must be finite and positive"),
            ("hfs_splitting", -6.835e9, "hfs_splitting must be positive, got -6835000000.0"),
            ("hfs_splitting", 0.0, "hfs_splitting must be positive"),
            ("g_j", -2.0023, "g_j must be >= g_i, got g_j = -2.0023 < g_i = -0.000995"),
            ("g_i", 2.5, "g_j must be >= g_i"),
        ],
    )
    def test_rejects_bad_field(self, field, value, message):
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(RB87, **{field: value})

    def test_finite_checked_before_sign(self):
        with pytest.raises(ValueError, match="g_i must be finite"):
            AlkaliSpec(-6.835e9, 1.5, -2.0023, math.nan)

    def test_spin_checked_first(self):
        with pytest.raises(ValueError, match="nuclear spin"):
            AlkaliSpec(math.nan, 0.3, math.nan, -1e-3, gamma_excited=-1.0)

    def test_preset_registry(self):
        assert PRESETS["rb87"] is RB87


class TestBiasField:
    def test_rb87_value(self):
        # 1.219 kG within 0.5%
        assert bias_field(RB87) == pytest.approx(1219.0, rel=0.005)

    def test_large_spin_limit(self):
        spec = AlkaliSpec(6.835e9, 50.5, 2.0023, -0.000995)
        assert bias_field(spec) < 50.0

    def test_linear_in_hfs(self):
        doubled = dataclasses.replace(RB87, hfs_splitting=2.0 * RB87.hfs_splitting)
        assert bias_field(doubled) == pytest.approx(2.0 * bias_field(RB87), rel=1e-14)

    def test_singular_g_factors(self):
        spec = AlkaliSpec(1e9, 1.5, 2.0, 2.0)
        with pytest.raises(ValueError):
            bias_field(spec)


class TestSplittings:
    def test_rb87_values(self):
        de31, de23, de21 = splittings(RB87)
        assert de31 == pytest.approx(5.919e9, rel=0.005)
        assert de23 == pytest.approx(860e6, rel=0.01)
        assert de21 == pytest.approx(6.779e9, rel=0.005)

    def test_sum_identity_exact(self):
        de31, de23, de21 = splittings(RB87)
        assert de21 == de31 + de23

    def test_spin_half_degenerate(self):
        spec = AlkaliSpec(1e9, 0.5, 2.0, -1e-3)
        de31, _, _ = splittings(spec)
        assert de31 == 0.0


class TestScatteringRate:
    def test_rb87_optical(self):
        # Omega = 2 pi * 200 MHz, detuning 2 pi * 10 GHz: ~3.8e3 events/s
        rate = scattering_rate(RB87, 200e6, 200e6, 10e9)
        assert rate == pytest.approx(3.8e3, rel=0.05)

    def test_far_detuned(self):
        rate = scattering_rate(RB87, 200e6, 200e6, 100e9)
        assert rate == pytest.approx(38.0, rel=0.05)

    def test_zero_couplings(self):
        assert scattering_rate(RB87, 0.0, 0.0, 10e9) == 0.0

    def test_requires_gamma(self):
        spec = AlkaliSpec(1e9, 1.5, 2.0, -1e-3, gamma_excited=None)
        with pytest.raises(ScenarioError):
            scattering_rate(spec, 1e6, 1e6, 1e9)

    @pytest.mark.parametrize(
        "omegas, name",
        [
            ((math.nan, 1.0, 1.0), "omega1"),
            ((1.0, math.inf, 1.0), "omega2"),
            ((1.0, 1.0, math.nan), "delta1"),
            ((1.0, 1.0, -math.inf), "delta1"),
        ],
    )
    def test_rejects_non_finite_drive(self, omegas, name):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            scattering_rate(RB87, *omegas)

    def test_checks_keep_their_order(self):
        no_gamma = AlkaliSpec(1e9, 1.5, 2.0, -1e-3)
        with pytest.raises(ScenarioError):
            scattering_rate(no_gamma, math.nan, 1.0, 0.0)
        with pytest.raises(ValueError, match="delta1 must be nonzero"):
            scattering_rate(RB87, math.nan, 1.0, 0.0)

    def test_depends_only_on_ratios(self):
        a = scattering_rate(RB87, 200e6, 200e6, 10e9)
        b = scattering_rate(RB87, 2.0, 2.0, 100.0)
        assert a == pytest.approx(b, rel=1e-14)


def shift_hz(omega1, omega2, delta2):
    return scenario_report(RB87, omega1, omega2, delta2).dynamical_shift


class TestDynamicalShiftHz:
    def test_optical_case(self):
        assert shift_hz(200e6, 200e6, 10e9) == pytest.approx(400.0, rel=0.01)

    def test_far_detuned_case(self):
        assert shift_hz(200e6, 200e6, 100e9) == pytest.approx(0.4, rel=0.01)

    def test_microwave_case(self):
        assert shift_hz(300e3, 300e3, 1e6) == pytest.approx(2025.0, rel=0.001)

    def test_frequency_homogeneity(self):
        base = shift_hz(1.0, 2.0, 10.0)
        assert shift_hz(3.0, 6.0, 30.0) == pytest.approx(3.0 * base, rel=1e-14)


class TestScenarioReport:
    def test_optical_infeasible(self):
        report = scenario_report(RB87, 200e6, 200e6, 10e9, delta1=10e9, scenario="optical")
        assert report.dynamical_shift == pytest.approx(400.0, rel=0.01)
        assert report.scattering_rate == pytest.approx(3.8e3, rel=0.05)
        assert not report.feasible

    def test_optical_far_detuned_still_infeasible(self):
        report = scenario_report(RB87, 200e6, 200e6, 100e9, delta1=100e9, scenario="optical")
        assert report.dynamical_shift == pytest.approx(0.4, rel=0.05)
        assert report.scattering_rate == pytest.approx(38.0, rel=0.05)
        assert not report.feasible

    def test_microwave_feasible(self):
        report = scenario_report(RB87, 300e3, 300e3, 1e6, scenario="microwave")
        assert report.dynamical_shift == pytest.approx(2025.0, rel=0.001)
        # probe time bound ~ 500 us, probe amplitude bound above the
        # 1 kHz operating point
        assert report.probe_time_bound == pytest.approx(500e-6, rel=0.02)
        assert report.probe_rabi_bound >= 1e3
        assert report.scattering_rate is None
        assert report.feasible

    @pytest.mark.parametrize("scenario", ["optical", "microwave"])
    @pytest.mark.parametrize("omega1", [0.0, 1e-200], ids=["zero", "underflow"])
    def test_zero_shift_is_infeasible(self, scenario, omega1):
        # no shift to resolve, exact or underflowed: neither verdict holds
        report = scenario_report(RB87, omega1, 300e3, 1e6, scenario=scenario)
        assert report.dynamical_shift == 0.0
        assert report.probe_time_bound == math.inf
        assert report.feasible is False

    def test_transition_frequencies_included(self):
        report = scenario_report(RB87, 300e3, 300e3, 1e6, scenario="microwave")
        assert report.delta_e21 == report.delta_e31 + report.delta_e23
        assert report.bias_field == pytest.approx(1219.0, rel=0.005)

    def test_suppressed_shifts_note(self):
        report = scenario_report(RB87, 300e3, 300e3, 1e6, scenario="microwave")
        assert "suppressed" in report.notes

    def test_unknown_scenario(self):
        with pytest.raises(ValueError):
            scenario_report(RB87, 1.0, 1.0, 10.0, scenario="rf")

    @pytest.mark.parametrize(
        "delta1, message",
        [
            (0.0, "delta1 must be nonzero"),
            (math.nan, "delta1 must be finite, got nan"),
            (math.inf, "delta1 must be finite, got inf"),
        ],
    )
    def test_bad_delta1_named(self, delta1, message):
        # delta1 enters only the optical scattering rate; it is checked as
        # the other drive values are, and delta1 = 0 would divide by zero
        with pytest.raises(ValueError, match=message):
            scenario_report(RB87, 200e6, 200e6, 10e9, delta1=delta1, scenario="optical")
        if delta1 == 0.0:
            with pytest.raises(ValueError, match=message):
                scattering_rate(RB87, 200e6, 200e6, delta1)

    def test_verdict_unit_invariance(self):
        # the feasibility comparison is dimensionless: scaling every input
        # frequency by 2 pi leaves the verdict unchanged
        s = 2.0 * math.pi
        spec = dataclasses.replace(
            RB87,
            hfs_splitting=RB87.hfs_splitting * s,
            gamma_excited=RB87.gamma_excited * s,
        )
        a = scenario_report(RB87, 200e6, 200e6, 10e9, delta1=10e9, scenario="optical")
        b = scenario_report(spec, s * 200e6, s * 200e6, s * 10e9, delta1=s * 10e9, scenario="optical")
        assert a.feasible == b.feasible
        assert b.dynamical_shift == pytest.approx(s * a.dynamical_shift, rel=1e-12)
