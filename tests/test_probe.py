"""Tests for the weak-probe spectroscopy of the dressed splitting."""

import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_crossing import (
    BracketError,
    ExtractionError,
    GridError,
    Peak,
    ProbeParams,
    ProbeSpectrum,
    RamanParams,
    alpha_elements,
    build_hamiltonian,
    default_nu_grid,
    dressed_spectrum,
    feasibility_check,
    gap32,
    measured_splitting,
    probe_spectrum,
    probe_time_domain_oracle,
    probe_transition_probability,
    probed_structural_resonance,
    structural_exact,
)
from lambda_crossing import probe
from lambda_crossing._minimize import parabolic_vertex
from lambda_crossing.probe import _BLOCK, _CHUNK, _extract_peaks

REF = RamanParams(0.2, 0.5, 1.0, 1.0)
T_REF = 125.0 * 2.0 * math.pi
# perturbative amplitude bound for the reference parameters
RABI_BOUND = 0.2**2 * 0.5**2 / 2.0


BAD_PROBE = [
    (math.nan, T_REF, "omega_p must be finite"),
    (math.inf, T_REF, "omega_p must be finite"),
    (-1e-4, T_REF, "omega_p must be finite and non-negative"),
    (1e-4, 0.0, "duration must be finite and positive"),
    (1e-4, -1.0, "duration must be finite and positive"),
    (1e-4, math.nan, "duration must be finite"),
    (1e-4, math.inf, "duration must be finite"),
]


class TestProbeInputs:
    @pytest.mark.parametrize("omega_p, duration, message", BAD_PROBE)
    def test_probe_params_rejects(self, omega_p, duration, message):
        with pytest.raises(ValueError, match=message):
            ProbeParams(omega_p, 0.05, duration)

    @pytest.mark.parametrize("nu", [math.nan, math.inf, -math.inf])
    def test_probe_params_rejects_non_finite_nu(self, nu):
        with pytest.raises(ValueError, match="nu must be finite"):
            ProbeParams(1e-4, nu, 785.4)

    @pytest.mark.parametrize("omega_p, duration, message", BAD_PROBE)
    def test_entry_points_reject_before_any_grid(self, omega_p, duration, message):
        nu = np.linspace(-1.0, 1.0, 11)
        calls = [
            lambda: probe_spectrum(REF, omega_p, duration, nu),
            lambda: probed_structural_resonance(REF, [1.04, 1.05, 1.06], omega_p, duration),
            lambda: feasibility_check(REF, omega_p, duration),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=message):
                call()
        if message.startswith("duration"):
            with pytest.raises(ValueError, match=message):
                default_nu_grid(REF, duration)

    def test_default_nu_grid_refuses_oversized(self):
        # about 6.1 gap x duration points: 4e14 here, refused before any allocation
        with pytest.raises(GridError, match=r"^duration = 1e\+15 needs 4\.15e\+14 nu points"):
            default_nu_grid(REF, 1e15)

    def test_default_nu_grid_refuses_zero_splitting(self):
        # no coupling at delta1 = delta2: eps3 = eps2, so +/- 1.6 gap is one point
        with pytest.raises(GridError, match=r"^the default nu grid spans \+/- 1\.6 gap and the "
                           r"splitting gap = eps3 - eps2 is 0"):
            default_nu_grid(RamanParams(0.0, 0.0, 1.0, 1.0), 10.0)

    def test_probed_resonance_counts_every_row(self):
        # each row's grid alone is about a quarter of the cap; the eleven rows
        # together are over it
        grid = np.linspace(1.04, 1.06, 11)
        duration = probe._MAX_NU_POINTS / 4 * 2.0 * math.pi / (3.2 * 12.0 * gap32(REF))
        widest = max(default_nu_grid(REF.with_delta1(d1), duration).size for d1 in grid)
        assert widest < probe._MAX_NU_POINTS < grid.size * widest
        message = f"duration = {duration:g} needs {grid.size * widest:.3g} nu points"
        with pytest.raises(GridError, match=f"^{re.escape(message)}"):
            probed_structural_resonance(REF, grid, 1e-12, duration)


class TestAlphaElements:
    def test_bare_limit(self):
        # without couplings the dressed states are bare states and each
        # overlap is a Kronecker delta
        spec = dressed_spectrum(RamanParams(0.0, 0.0, 0.5, 1.0))
        alpha = alpha_elements(spec)
        assert {abs(alpha.alpha13), abs(alpha.alpha31)} <= {0.0, 1.0}

    def test_equal_weight_crossing_center(self):
        # at the avoided-crossing center both products approach 1/2 in
        # magnitude (equal-weight superpositions of |1> and |3>)
        p = RamanParams(0.1, 0.1, 1.0, 1.0)
        alpha = alpha_elements(dressed_spectrum(p))
        assert abs(alpha.alpha13) == pytest.approx(0.5, abs=0.01)
        assert abs(alpha.alpha31) == pytest.approx(0.5, abs=0.01)

    def test_against_independent_eigensolve(self):
        p = REF
        h = np.array(
            [
                [0.0, 0.1, 0.0],
                [0.1, -1.0, 0.25],
                [0.0, 0.25, 0.0],
            ]
        )
        w, v = np.linalg.eigh(h)
        # apply the same sign convention: largest-magnitude component positive
        for k in range(3):
            if v[np.argmax(np.abs(v[:, k])), k] < 0:
                v[:, k] = -v[:, k]
        alpha = alpha_elements(dressed_spectrum(p))
        assert alpha.alpha13 == pytest.approx(v[0, 2] * v[2, 1], abs=1e-10)
        assert alpha.alpha31 == pytest.approx(v[2, 2] * v[0, 1], abs=1e-10)


class TestClosedForm:
    def test_zero_probe(self):
        assert probe_transition_probability(REF, ProbeParams(0.0, 0.05, T_REF)) == 0.0

    def test_short_time_quadratic(self):
        omega_p = 1e-3
        probs = [
            probe_transition_probability(REF, ProbeParams(omega_p, 0.03, t))
            for t in (1e-3, 2e-3)
        ]
        assert probs[1] / probs[0] == pytest.approx(4.0, rel=1e-3)
        # leading coefficient: (alpha31^2 + alpha13^2 + 2 a13 a31) (omega_p t / 2)^2
        alpha = alpha_elements(dressed_spectrum(REF))
        lead = (alpha.alpha31 + alpha.alpha13) ** 2 * (omega_p * 1e-3 / 2.0) ** 2
        assert probs[0] == pytest.approx(lead, rel=1e-4)

    def test_omega_p_squared_scaling_exact(self):
        base = probe_transition_probability(REF, ProbeParams(1e-4, -0.068, T_REF))
        scaled = probe_transition_probability(REF, ProbeParams(3e-4, -0.068, T_REF))
        assert scaled == pytest.approx(9.0 * base, rel=1e-14)

    def test_matches_time_domain_oracle_at_peaks(self):
        omega_p = 0.01 * RABI_BOUND
        gap = gap32(REF)
        for nu in (-gap, gap):
            closed = probe_transition_probability(REF, ProbeParams(omega_p, nu, T_REF))
            oracle = probe_time_domain_oracle(REF, ProbeParams(omega_p, nu, T_REF), 40000)
            assert closed == pytest.approx(oracle, rel=0.05)

    def test_removable_singularity_is_finite(self):
        gap = gap32(REF)
        p_on = probe_transition_probability(REF, ProbeParams(1e-4, gap, T_REF))
        p_near = probe_transition_probability(REF, ProbeParams(1e-4, gap + 1e-13, T_REF))
        assert math.isfinite(p_on)
        assert p_on == pytest.approx(p_near, rel=1e-6)


def matrix_rk4_oracle(params, probe, steps):
    """Reference RK4 on the 3x3 matrix form of the probed Hamiltonian."""
    spec = dressed_spectrum(params)
    h0 = build_hamiltonian(params).astype(complex)
    dt = probe.duration / steps

    def deriv(t, psi):
        w = 0.5 * probe.omega_p * np.exp(1j * probe.nu * t)
        h = h0.copy()
        h[2, 0] += w
        h[0, 2] += np.conj(w)
        return -1j * (h @ psi)

    psi = spec.states[:, 1].astype(complex)
    for n in range(steps):
        t = n * dt
        k1 = deriv(t, psi)
        k2 = deriv(t + 0.5 * dt, psi + 0.5 * dt * k1)
        k3 = deriv(t + 0.5 * dt, psi + 0.5 * dt * k2)
        k4 = deriv(t + dt, psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(np.abs(spec.states[:, 2] @ psi) ** 2)


def mp_rk4_oracle(params, probe, steps):
    """Reference RK4 in 40-digit mpmath arithmetic, on the oracle's float
    nodes t_n = n dt."""
    spec = dressed_spectrum(params)
    with mpmath.workdps(40):
        h = [[mpmath.mpf(float(x)) for x in row] for row in build_hamiltonian(params)]
        half_p, nu = mpmath.mpf(probe.omega_p) / 2, mpmath.mpf(probe.nu)
        dt = probe.duration / steps
        mdt = mpmath.mpf(dt)

        def deriv(t, psi):
            w = half_p * mpmath.expj(nu * t)
            a, b, c = psi
            return [
                -1j * (h[0][1] * b + mpmath.conj(w) * c),
                -1j * (h[1][0] * a + h[1][1] * b + h[1][2] * c),
                -1j * (w * a + h[2][1] * b + h[2][2] * c),
            ]

        psi = [mpmath.mpf(float(x)) for x in spec.states[:, 1]]
        for n in range(steps):
            t0 = mpmath.mpf(n * dt)
            k1 = deriv(t0, psi)
            k2 = deriv(t0 + mdt / 2, [p + mdt / 2 * k for p, k in zip(psi, k1)])
            k3 = deriv(t0 + mdt / 2, [p + mdt / 2 * k for p, k in zip(psi, k2)])
            k4 = deriv(t0 + mdt, [p + mdt * k for p, k in zip(psi, k3)])
            psi = [
                p + mdt / 6 * (s1 + 2 * s2 + 2 * s3 + s4)
                for p, s1, s2, s3, s4 in zip(psi, k1, k2, k3, k4)
            ]
        amp = sum(mpmath.mpf(float(v)) * p for v, p in zip(spec.states[:, 2], psi))
        return float(abs(amp) ** 2)


# (params, probe, steps, message) the oracle refuses
UNDER_RESOLVED = [
    (REF, ProbeParams(1e-4, 0.05, T_REF), 100, "under-resolves"),
    (REF, ProbeParams(1e-4, 0.05, T_REF), 25000.0, "steps must be a positive integer"),
    (REF, ProbeParams(1e-4, 0.05, T_REF), True, "steps must be a positive integer"),
    (REF, ProbeParams(1e-4, 0.05, T_REF), 0, "steps must be a positive integer"),
    (REF, ProbeParams(1e-4, 0.05, T_REF), -5, "steps must be a positive integer"),
    # a need past the largest float, and a finite but huge one, quoted in
    # three digits
    (RamanParams(0.2, 0.3, 1.0, 1.0), ProbeParams(1e-4, 1e300, 1e300), 10,
     r"steps=10 under-resolves the fastest frequency; need >= inf$"),
    (RamanParams(0.2, 0.3, 1.0, 1.0), ProbeParams(1e-4, 1e150, 1e150), 10,
     r"steps=10 under-resolves the fastest frequency; need >= 7.96e\+300$"),
    # the probe's own Rabi frequency is the fastest
    (RamanParams(0.2, 0.3, 1.0, 1.0), ProbeParams(1e3, 0.05, 20.0), 2000,
     r"steps=2000 under-resolves the fastest frequency; need >= 1.59e\+05$"),
]


def workload_drives(seed, count):
    """Seeded drives like the benchmark's oracle tasks: couplings log-uniform
    on 1e-3..0.6, delta1 near the structural locus, 3000-20000 steps at 50-90 %
    of the resolution limit, nu = -+gap and omega_p = 0.02 / duration."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        o1, o2 = 1e-3 * 600.0 ** rng.random(2)
        d1 = structural_exact(RamanParams(o1, o2, 1.0, 1.0)) + rng.uniform(-1.0, 1.0) * o1 * o2
        params = RamanParams(o1, o2, d1, 1.0)
        gap = gap32(params)
        steps = int(3000 * (20 / 3) ** rng.random())
        duration = rng.uniform(0.5, 0.9) * steps * 2 * math.pi / (50 * max(gap, o1, o2, abs(d1)))
        yield params, ProbeParams(0.02 / duration, rng.choice([-1.0, 1.0]) * gap, duration), steps


def block_inputs(params, drive, steps):
    """The step coefficients, step phase and tail bounds of an oracle run."""
    dt = drive.duration / steps
    h0 = build_hamiltonian(params)
    half_p = 0.5 * drive.omega_p
    step = probe._rk4_step_coefficients(h0, half_p, drive.nu, dt)
    return step, drive.nu * dt, probe._tail_bounds(np.abs(h0).sum(axis=1).max(), half_p, dt)


def kept_widths(monkeypatch):
    """Record the half-width of every _block_coefficients call."""
    widths = []
    block_coefficients = probe._block_coefficients

    def recorded(step, phase, half):
        widths.append(half)
        return block_coefficients(step, phase, half)

    monkeypatch.setattr(probe, "_block_coefficients", recorded)
    return widths


class TestTimeDomainOracle:
    @pytest.mark.parametrize(
        "params, probe, steps",
        [
            (REF, ProbeParams(0.01 * RABI_BOUND, -0.0688, 100.0), 1000),
            (REF, ProbeParams(0.05, 0.07, 50.0), 800),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 40.0), 2000),
            # shorter than, exactly, and one step past one chunk of the
            # product; a numpy integer is a valid step count
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 40.0), _CHUNK - 1),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 40.0), np.int64(_CHUNK)),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 40.0), _CHUNK + 1),
            # one step; runs shorter than a block; an odd count of blocks
            # and the longest rest, and a power of two of blocks and 3 steps
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 0.15), 1),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 1.0), 7),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 1.2), 8),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 1.4), 9),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 1000.0), 8191),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 1000.0), 8195),
            # one step short of, exactly, and one step past a block; one step
            # short of and three steps past a chunk of blocks
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 2.0), _BLOCK - 1),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 2.2), _BLOCK),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 2.4), _BLOCK + 1),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 2000.0),
             _CHUNK * _BLOCK - 1),
            (RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 2000.0),
             _CHUNK * _BLOCK + 3),
        ],
    )
    def test_matches_matrix_form(self, params, probe, steps):
        assert probe_time_domain_oracle(params, probe, steps) == pytest.approx(
            matrix_rk4_oracle(params, probe, steps), rel=1e-12
        )

    def test_zero_probe_preserves_state(self):
        p = probe_time_domain_oracle(REF, ProbeParams(0.0, 0.05, 20.0), 2000)
        assert p == pytest.approx(0.0, abs=1e-20)

    def test_self_convergence_fourth_order(self):
        # a probe strong enough that truncation error sits above roundoff
        probe = ProbeParams(0.05, -gap32(REF), 50.0)
        ref = probe_time_domain_oracle(REF, probe, 32000)
        coarse = probe_time_domain_oracle(REF, probe, 400)
        fine = probe_time_domain_oracle(REF, probe, 800)
        assert abs(fine - coarse) < 1e-6
        # error shrinks ~16x per halving of the step
        assert abs(coarse - ref) / abs(fine - ref) == pytest.approx(16.0, rel=0.2)

    @pytest.mark.parametrize(
        "params, probe, steps, message",
        UNDER_RESOLVED,
        ids=[f"{steps}-{message}" for _, _, steps, message in UNDER_RESOLVED],
    )
    def test_under_resolved_steps_rejected(self, params, probe, steps, message):
        with pytest.raises(ValueError, match=message):
            probe_time_domain_oracle(params, probe, steps)

    def test_numpy_integer_steps_are_the_int(self):
        params, probe = RamanParams(0.6, 0.3, 0.8, 1.0), ProbeParams(0.02, -0.3, 40.0)
        assert (probe_time_domain_oracle(params, probe, np.int64(2000))
                == probe_time_domain_oracle(params, probe, 2000))

    def test_matches_extended_precision_rk4(self):
        cases = [
            # a first-order probability of 4e-6, so a small amplitude, over a
            # run of whole blocks and one step past them
            (REF, ProbeParams(0.01 * RABI_BOUND, -0.0688, 100.0), _CHUNK + 1, 1e-12),
            # near the structural locus (0.9161905885 = structural_exact), a
            # probability of 2e-6 over a run that crosses a chunk of blocks: the
            # float floor, eps sqrt(steps / _BLOCK) over an amplitude of 1.4e-3,
            # sits far below the RK4 truncation error
            (RamanParams(0.579, 0.00165, 0.9161905885208919, 1.0),
             ProbeParams(2.05e-5, -4.588e-4, 790.0), 8300, 5e-11),
        ]
        for params, probe, steps, rel in cases:
            assert probe_time_domain_oracle(params, probe, steps) == pytest.approx(
                mp_rk4_oracle(params, probe, steps), rel=rel
            )

    def test_products_per_block_not_per_step(self, monkeypatch):
        # the einsum products of a run scale with its blocks, not its steps,
        # and no chunk of blocks is padded
        sizes = []
        pairwise = probe._pairwise_product

        def counted(e):
            sizes.append(e.shape[2])
            return pairwise(e)

        monkeypatch.setattr(probe, "_pairwise_product", counted)
        steps = 20000
        probe_time_domain_oracle(REF, ProbeParams(1e-4, 0.05, T_REF), steps)
        assert sum(sizes) <= steps / _BLOCK + 2 * _BLOCK

    @pytest.mark.parametrize("count", [1, 2, 3, 5, 7, 12, 101])
    def test_pairwise_product_of_any_count(self, count):
        # an odd last map is carried up a level, in order
        rng = np.random.default_rng(count)
        shape = (3, 3, count, 2)
        e = 0.05 * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
        eye = np.eye(3)[:, :, None]
        product = np.broadcast_to(eye, (3, 3, 2)).astype(complex)
        for n in range(count):
            product = np.einsum("ims,mjs->ijs", eye + e[:, :, n], product)
        assert np.abs(probe._pairwise_product(e) - (product - eye)).max() <= 1e-14

    def test_truncated_coefficients_within_tail_bound(self):
        # every kept coefficient is off by at most T_K, and the dropped ones
        # sum to at most T_K, against the full 8 _BLOCK + 1 point sampling,
        # to within the rounding fl that both samplings carry
        full_width = 4 * _BLOCK
        for params, drive, steps in workload_drives(1, 20):
            step, phase, tails = block_inputs(params, drive, steps)
            chosen = probe._half_width(step, tails)
            assert chosen < full_width
            full = probe._block_coefficients(step, phase, full_width)
            fl = np.finfo(float).eps * _BLOCK * np.abs(step).max()
            for half in range(chosen + 1):
                kept = full[:, full_width - half:full_width + half + 1]
                cut = probe._block_coefficients(step, phase, half)
                dropped = np.abs(full).sum(axis=1) - np.abs(kept).sum(axis=1)
                assert np.abs(cut - kept).max() <= tails[half] + 4 * fl
                assert dropped.max() <= tails[half] + full.shape[1] * fl / 4
            # the bound at the chosen width lies below the rounding
            assert tails[chosen] <= fl < tails[chosen - 1]

    def test_zero_probe_keeps_only_exponent_zero(self, monkeypatch):
        widths = kept_widths(monkeypatch)
        probe_time_domain_oracle(REF, ProbeParams(0.0, 0.05, 20.0), 2000)
        assert widths == [0]
        _, _, tails = block_inputs(REF, ProbeParams(0.0, 0.05, 20.0), 2000)
        assert not tails.any()

    def test_strong_probe_keeps_every_exponent(self):
        # a step past the resolution guard (omega_p dt = 4): no K < 4 _BLOCK
        # meets the bound, and the full sampling is the block product itself
        h0 = build_hamiltonian(REF)
        half_p, nu, dt = 20.0, 0.1, 0.1
        step = probe._rk4_step_coefficients(h0, half_p, nu, dt)
        tails = probe._tail_bounds(np.abs(h0).sum(axis=1).max(), half_p, dt)
        half = probe._half_width(step, tails)
        assert half == 4 * _BLOCK
        coeffs = probe._block_coefficients(step, nu * dt, half)
        for z in np.exp(2j * math.pi * np.random.default_rng(5).random(4)):
            block = np.eye(3, dtype=complex)
            for j in range(_BLOCK):
                e = step @ (z * np.exp(1j * nu * dt * j)) ** np.arange(-4, 5)
                block = (np.eye(3) + e.reshape(3, 3)) @ block
            f = (coeffs @ z ** np.arange(-half, half + 1.0)).reshape(3, 3)
            assert np.abs(f - (block - np.eye(3))).max() <= 1e-14 * np.abs(block).max()

    def test_strong_and_workload_probes_match_extended_precision_rk4(self, monkeypatch):
        widths = kept_widths(monkeypatch)
        workload = RamanParams(0.0037, 0.317, 1.02445, 1.0)
        cases = [
            # the self-convergence probe: a probability of 0.72, K above 3
            (REF, ProbeParams(0.05, -gap32(REF), 50.0), 400, 1e-13),
            # a benchmark-like point, omega_p = 0.02 / duration: a probability
            # of 5.8e-6, so the float floor eps sqrt(steps / _BLOCK) over an
            # amplitude of 2.4e-3, doubled in the probability, is 4e-12
            (workload, ProbeParams(0.02 / 738.6, -gap32(workload), 738.6), 7660, 1e-11),
        ]
        for params, drive, steps, rel in cases:
            assert probe_time_domain_oracle(params, drive, steps) == pytest.approx(
                mp_rk4_oracle(params, drive, steps), rel=rel
            )
        assert 3 < widths[0] < 4 * _BLOCK and widths[1] == 3

    def test_breakdown_beyond_perturbative_bound(self):
        # a strong probe drives the transition out of the first-order regime
        gap = gap32(REF)
        weak, strong = 0.01 * RABI_BOUND, 20.0 * RABI_BOUND
        for omega_p in (weak, strong):
            closed = probe_transition_probability(REF, ProbeParams(omega_p, -gap, T_REF))
            oracle = probe_time_domain_oracle(REF, ProbeParams(omega_p, -gap, T_REF), 40000)
            if omega_p == weak:
                assert abs(closed - oracle) / oracle < 0.05
            else:
                assert abs(closed - oracle) / oracle > 0.5


class TestProbeSpectrum:
    def test_two_principal_peaks(self):
        spectrum = probe_spectrum(REF, 1e-4, T_REF, default_nu_grid(REF, T_REF))
        gap = gap32(REF)
        neg = max((pk for pk in spectrum.peaks if pk.position < 0), key=lambda pk: pk.height)
        pos = max((pk for pk in spectrum.peaks if pk.position > 0), key=lambda pk: pk.height)
        assert neg.position == pytest.approx(-gap, abs=0.01 * gap)
        assert pos.position == pytest.approx(gap, abs=0.01 * gap)
        # heights reflect the alpha31 / alpha13 asymmetry of the overlaps
        alpha = alpha_elements(dressed_spectrum(REF))
        assert pos.height / neg.height == pytest.approx(
            (alpha.alpha13 / alpha.alpha31) ** 2, rel=0.2
        )

    def test_peak_height_growth(self):
        omega_p = 1e-5
        heights = []
        for t in (T_REF, 2.0 * T_REF):
            spectrum = probe_spectrum(REF, omega_p, t, default_nu_grid(REF, t))
            heights.append(max(pk.height for pk in spectrum.peaks))
        # height ~ alpha^2 omega_p^2 t^2 / 4, bounded by omega_p^2 t^2 / 4
        assert heights[1] / heights[0] == pytest.approx(4.0, rel=0.05)
        assert heights[0] < omega_p**2 * T_REF**2 / 4.0

    def test_peak_width_matches_sinc_profile(self):
        spectrum = probe_spectrum(REF, 1e-4, T_REF, default_nu_grid(REF, T_REF))
        best = max(spectrum.peaks, key=lambda pk: pk.height)
        expected = 2.0 * math.pi * 0.886 / T_REF
        assert best.width == pytest.approx(expected, rel=0.15)

    def test_grid_span_validation(self):
        with pytest.raises(GridError):
            probe_spectrum(REF, 1e-4, T_REF, np.linspace(-0.05, 0.05, 2001))
        with pytest.raises(GridError, match="nu_grid must be a 1-D grid with at least 5 points"):
            probe_spectrum(REF, 1e-4, T_REF, np.linspace(-1.0, 1.0, 4))
        # a descending grid that spans the peaks is refused for its order
        with pytest.raises(GridError, match="nu_grid must be finite and strictly ascending"):
            probe_spectrum(REF, 1e-4, T_REF, default_nu_grid(REF, T_REF)[::-1])

    def test_grid_spacing_validation(self):
        with pytest.raises(GridError):
            probe_spectrum(REF, 1e-4, T_REF, np.linspace(-0.12, 0.12, 51))
        # one non-finite or repeated point in an otherwise valid grid
        nu = default_nu_grid(REF, T_REF)
        for value in (math.nan, math.inf, nu[100]):
            with pytest.raises(GridError, match="nu_grid must be finite and strictly ascending"):
                probe_spectrum(REF, 1e-4, T_REF, np.insert(nu, 100, value))

    def test_perturbative_flag(self):
        weak = probe_spectrum(REF, 1e-5, T_REF, default_nu_grid(REF, T_REF))
        assert not weak.perturbative_flag
        strong = probe_spectrum(REF, 0.05, T_REF, default_nu_grid(REF, T_REF))
        assert strong.perturbative_flag


def loop_extract_peaks(nu, p):
    """Reference two-line rule: scan every interior point for maxima, keep
    the highest on each side of nu = 0 by refined position (the first on a
    tie), negative side first, and walk out to its half-maximum points."""
    best = {True: None, False: None}
    logp = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), -math.inf)
    for i in range(1, len(nu) - 1):
        if p[i] > p[i - 1] and p[i] >= p[i + 1] and p[i] > 0.0:
            if np.isfinite(logp[i - 1]) and np.isfinite(logp[i + 1]):
                pos = parabolic_vertex(
                    nu[i - 1], logp[i - 1], nu[i], logp[i], nu[i + 1], logp[i + 1]
                )
                pos = min(max(pos, nu[i - 1]), nu[i + 1])
            else:
                pos = nu[i]
            side = bool(pos < 0.0)
            if best[side] is None or p[i] > p[best[side][0]]:
                best[side] = (i, pos)
    peaks = []
    for found in (best[True], best[False]):
        if found is None:
            continue
        i, pos = found
        half = 0.5 * p[i]
        lo = i
        while lo > 0 and p[lo] > half:
            lo -= 1
        hi = i
        while hi < len(nu) - 1 and p[hi] > half:
            hi += 1
        peaks.append(Peak(position=float(pos), height=float(p[i]), width=float(nu[hi] - nu[lo])))
    return tuple(peaks)


def peak_fixtures():
    for omega_p, t in ((1e-4, T_REF), (1e-5, 2.0 * T_REF), (0.05, T_REF), (0.0, T_REF)):
        yield probe_spectrum(REF, omega_p, t, default_nu_grid(REF, t))
    nu = np.linspace(-0.6, 0.6, 4001)
    yield probe_spectrum(REF, 1e-4, 400.0, nu)
    # isolated sinc^2 peak, exact zeros between lobes, plateaus and edge maxima
    p = 1e-6 * np.sinc((nu + 0.35) * 200.0 / math.pi) ** 2
    yield ProbeSpectrum(nu, p, (), False)
    yield ProbeSpectrum(nu, np.where(np.abs(nu) < 0.3, p, 0.0), (), False)
    flat = np.array([0.0, 1.0, 1.0, 2.0, 2.0, 1.0, 3.0, 0.0, 0.0, 5.0])
    yield ProbeSpectrum(np.arange(flat.size, dtype=float), flat, (), False)


class TestMeasuredSplitting:
    @pytest.mark.parametrize("fixture", list(peak_fixtures()))
    def test_extract_peaks_matches_loop(self, fixture):
        nu, p = fixture.nu_grid, fixture.probabilities
        assert _extract_peaks(nu, p) == loop_extract_peaks(nu, p)

    def test_two_lines_not_side_lobes(self):
        # 10^4 points over many sinc^2 lobes: the weak line at -gap is lower
        # than the strong line's side lobes, yet each side reports its line
        params, t = RamanParams(0.2, 0.5, 1.0, 1.0), 2000.0
        spectrum = probe_spectrum(params, 1e-5, t, np.linspace(-1.0, 1.0, 10**4))
        gap, width = gap32(params), 2.0 * math.pi / t
        neg, pos = spectrum.peaks
        assert abs(neg.position + gap) <= width and abs(pos.position - gap) <= width
        assert neg.position == -measured_splitting(spectrum)
        lobes = spectrum.probabilities[np.abs(spectrum.nu_grid - gap) > 2.0 * width]
        assert lobes.max() > min(neg.height, pos.height)

    def test_synthetic_single_peak(self):
        # analytic sinc^2 peak at nu0: the extractor must recover nu0
        nu0, t = -0.35, 400.0
        nu = np.linspace(-0.6, 0.6, 4001)
        x = (nu - nu0) * t / 2.0
        p = 1e-6 * np.sinc(x / math.pi) ** 2
        peaks = _extract_peaks(nu, p)
        best = max((pk for pk in peaks if pk.position < 0), key=lambda pk: pk.height)
        assert best.position == pytest.approx(nu0, abs=(nu[1] - nu[0]) / 10.0)

    def test_converges_to_gap_with_time(self):
        gap = gap32(REF)
        errors = []
        for mult in (25.0, 125.0, 500.0):
            t = mult * 2.0 * math.pi
            spectrum = probe_spectrum(REF, 1e-5, t, default_nu_grid(REF, t))
            errors.append(abs(measured_splitting(spectrum) - gap))
        assert errors[2] < errors[1] < errors[0]
        assert errors[2] < 1e-4

    def test_positive_and_negative_estimates_agree(self):
        spectrum = probe_spectrum(REF, 1e-5, T_REF, default_nu_grid(REF, T_REF))
        neg = measured_splitting(spectrum)
        pos = max((pk for pk in spectrum.peaks if pk.position > 0.0), key=lambda pk: pk.height)
        assert neg == pytest.approx(pos.position, rel=0.01)

    def test_no_peak_raises(self):
        from lambda_crossing import ProbeSpectrum

        empty = ProbeSpectrum(
            nu_grid=np.linspace(-1, 1, 5),
            probabilities=np.zeros(5),
            peaks=(),
            perturbative_flag=False,
        )
        with pytest.raises(ExtractionError):
            measured_splitting(empty)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_too_short_for_a_peak_raises(self, n):
        # no interior point, so no peak, and no numpy error on an empty grid
        short = ProbeSpectrum(np.linspace(-1.0, -0.5, n), np.ones(n), (), False)
        with pytest.raises(ExtractionError, match="no probe peak found at negative nu"):
            measured_splitting(short)


def stack(spectra):
    """(N, M) ProbeSpectrum of the rows' grids and probabilities, each row
    padded with NaN to the longest."""
    width = max(sp.nu_grid.size for sp in spectra)
    nu, p = np.full((2, len(spectra), width), math.nan)
    for i, sp in enumerate(spectra):
        nu[i, : sp.nu_grid.size] = sp.nu_grid
        p[i, : sp.nu_grid.size] = sp.probabilities
    return ProbeSpectrum(nu, p, (), False)


def loop_splittings(spectra):
    """Reference: measured_splitting one spectrum at a time, NaN for none."""
    out = []
    for sp in spectra:
        try:
            out.append(measured_splitting(sp))
        except ExtractionError:
            out.append(math.nan)
    return np.array(out)


def synthetic(nu, p):
    return ProbeSpectrum(np.array(nu, dtype=float), np.array(p, dtype=float), (), False)


# A maximum at a grid point on one side of nu = 0 whose refined position lies
# on the other side, on grids with an uneven step across 0.
CROSSES_UP = synthetic([-3, -2, -1.1, -0.2, 1.0, 2, 3], [0, 0.5, 0.1, 1.0, 0.999, 0.1, 0])
CROSSES_DOWN = synthetic([-3, -2, -1.0, 0.2, 1.1, 2, 3], [0, 0.5, 0.999, 1.0, 0.1, 0.5, 0])
# Two equal negative peaks, the first at -3, the second at -1.
EQUAL = synthetic(np.arange(-4.0, 5.0), [0.1, 1, 0.1, 1, 0.1, 0, 0, 0, 0])
NO_NEGATIVE = synthetic(np.arange(-4.0, 5.0), [0, 0, 0, 0, 0, 0, 1, 0, 0])


class TestBatchedPick:
    def test_refined_position_decides_the_side(self):
        # the higher peak of CROSSES_UP sits at nu = -0.2 but refines past 0,
        # so the lower one at -2 is measured; CROSSES_DOWN is the converse
        up = _extract_peaks(CROSSES_UP.nu_grid, CROSSES_UP.probabilities)
        down = _extract_peaks(CROSSES_DOWN.nu_grid, CROSSES_DOWN.probabilities)
        assert up[1].height == 1.0 and CROSSES_UP.nu_grid[3] < 0.0 < up[1].position
        assert down[0].height == 1.0 and down[0].position < 0.0 < CROSSES_DOWN.nu_grid[3]
        assert measured_splitting(CROSSES_UP) == 2.0
        assert measured_splitting(CROSSES_DOWN) == -down[0].position

    def test_first_of_equal_peaks_wins(self):
        assert measured_splitting(EQUAL) == 3.0
        assert measured_splitting(stack([NO_NEGATIVE, EQUAL]))[1] == 3.0

    def test_stack_matches_rows(self):
        rows = [CROSSES_UP, EQUAL, NO_NEGATIVE, CROSSES_DOWN]
        rows += [probe_spectrum(REF, 1e-5, T_REF, default_nu_grid(REF, T_REF))]
        got = measured_splitting(stack(rows))
        np.testing.assert_array_equal(got, loop_splittings(rows))
        assert math.isnan(got[2]) and np.isfinite(np.delete(got, 2)).all()
        with pytest.raises(ExtractionError, match="no probe peak found at negative nu"):
            measured_splitting(NO_NEGATIVE)


def loop_probed_splittings(params, grid, omega_p, duration):
    """Reference: the per-delta1 loop over one probe_spectrum at a time,
    with its errors."""
    splittings = []
    for d1 in np.asarray(grid, dtype=float):
        point = params.with_delta1(float(d1))
        spectrum = probe_spectrum(point, omega_p, duration, default_nu_grid(point, duration))
        if spectrum.perturbative_flag:
            raise ValueError(
                f"omega_p = {omega_p} is too strong for the first-order probe at "
                f"delta1 = {d1:g}: peak probability "
                f"{float(np.max(spectrum.probabilities)):.3g} exceeds PERTURBATIVE_CEILING = 0.5"
            )
        try:
            splittings.append(measured_splitting(spectrum))
        except ExtractionError as err:
            raise ExtractionError(f"delta1 = {d1:g}: {err}") from err
    return np.array(splittings)


def outcome(call):
    """The splittings a call returns, or the type and message it raises."""
    try:
        return call()
    except (ValueError, ExtractionError) as err:
        return type(err), str(err)


class TestProbedResonance:
    @settings(max_examples=40, deadline=None, database=None)
    @given(
        log_omega=st.tuples(*[st.floats(math.log(0.03), math.log(0.6))] * 2),
        log_points=st.floats(math.log(30.0), math.log(300.0)),
        log_strength=st.floats(math.log(0.02), math.log(3.0)),
        n=st.integers(3, 9),
        offset=st.floats(-1.0, 1.0),
        half=st.floats(0.2, 3.0),
    )
    def test_batched_pick_matches_per_row_loop(
        self, log_omega, log_points, log_strength, n, offset, half
    ):
        params = RamanParams(*np.exp(log_omega).tolist(), 1.0, 1.0)
        star = structural_exact(params)
        gap = gap32(params.with_delta1(star))
        grid = np.linspace(star + (offset - half) * gap, star + (offset + half) * gap, n)
        duration = 2.0 * math.pi * math.exp(log_points) / (3.2 * 12.0 * gap)
        omega_p = math.exp(log_strength) / duration
        expected = outcome(lambda: loop_probed_splittings(params, grid, omega_p, duration))
        try:
            result = probed_structural_resonance(params, grid, omega_p, duration)
        except BracketError:
            assert isinstance(expected, np.ndarray) and np.argmin(expected) in (0, n - 1)
        except (ValueError, ExtractionError) as err:
            assert (type(err), str(err)) == expected
        else:
            assert isinstance(expected, np.ndarray)
            assert (result.splittings == expected).all()

    def test_row_without_negative_peak_named(self, monkeypatch):
        # a zero probe amplitude leaves no peak at all, so the first delta1 is named
        grid = np.linspace(1.04, 1.06, 5)
        expected = outcome(lambda: loop_probed_splittings(REF, grid, 0.0, T_REF))
        assert expected == (ExtractionError, "delta1 = 1.04: no probe peak found at negative nu")
        assert outcome(lambda: probed_structural_resonance(REF, grid, 0.0, T_REF)) == expected
        # a flat row past the first: its own delta1 is named
        original = probe.alpha_elements

        def flat_row(spectrum):
            alpha = original(spectrum)
            if np.ndim(alpha.alpha13):
                alpha.alpha13[2] = alpha.alpha31[2] = 0.0
            return alpha

        monkeypatch.setattr(probe, "alpha_elements", flat_row)
        with pytest.raises(
            ExtractionError, match=r"^delta1 = 1.05: no probe peak found at negative nu$"
        ):
            probed_structural_resonance(REF, grid, 1e-5, T_REF)

    def test_strong_probe_named_at_its_row(self):
        # the peak probability grows away from the locus: with this probe the
        # fourth delta1 is the first too strong, and its row is the 526-point one
        star = structural_exact(REF)
        grid = np.linspace(star - 0.05, star + 0.25, 7)
        expected = outcome(lambda: loop_probed_splittings(REF, grid, 2e-3, T_REF))
        assert expected[0] is ValueError and f"delta1 = {grid[3]:g}:" in expected[1]
        assert outcome(lambda: probed_structural_resonance(REF, grid, 2e-3, T_REF)) == expected

    def test_window_holds_the_line_alone(self, monkeypatch):
        # a workload-like scan: one closed-form pass of 24 _REACH + 1 points
        # per row around -gap, against rows of about 880 points
        star, t = structural_exact(REF), 4.0 * T_REF
        grid = np.linspace(star - 0.01, star + 0.01, 21)
        shapes = []
        original = probe._closed_form

        def spy(alpha, gap, omega_p, nu, t):
            shapes.append(np.shape(nu))
            return original(alpha, gap, omega_p, nu, t)

        monkeypatch.setattr(probe, "_closed_form", spy)
        result = probed_structural_resonance(REF, grid, 1e-5, t)
        assert shapes == [(grid.size, 24 * probe._REACH + 1)]
        assert default_nu_grid(REF.with_delta1(star), t).size > 12 * shapes[0][1]
        monkeypatch.undo()
        assert (result.splittings == loop_probed_splittings(REF, grid, 1e-5, t)).all()

    @pytest.mark.parametrize(
        "grid, omega_p, window_is_wrong",
        [
            # far above the crossing the line at -gap is weak, and the highest
            # negative-nu maximum is a side lobe of the +gap line near nu = 0,
            # which the window around -gap does not hold
            (np.linspace(1.55, 1.6, 3), 1e-5, True),
            # balanced lines, and a probe whose bound omega_p^2 (|a31| +
            # |a13|)^2 t^2 / 4 exceeds PERTURBATIVE_CEILING though no sample does
            (np.linspace(1.04, 1.06, 11), 2.2e-3, False),
        ],
        ids=["unbalanced", "cap-over-ceiling"],
    )
    def test_fallback_rows_match_full_grid(self, monkeypatch, grid, omega_p, window_is_wrong):
        windows = []
        original = probe._window_splittings

        def spy(*args):
            splittings, keep = original(*args)
            windows.append((splittings.copy(), keep))
            return splittings, keep

        monkeypatch.setattr(probe, "_window_splittings", spy)
        got = probed_structural_resonance(REF, grid, omega_p, T_REF).splittings
        window, keep = windows[0]
        assert not keep.any()
        expected = loop_probed_splittings(REF, grid, omega_p, T_REF)
        assert (got == expected).all()
        assert (window != expected).any() == window_is_wrong

    def test_close_to_probeless_resonance(self):
        star = structural_exact(REF)
        grid = np.linspace(star - 0.01, star + 0.01, 21)
        result = probed_structural_resonance(REF, grid, 1e-5, T_REF)
        # finite-time bias stays below the dynamical shift scale
        assert abs(result.delta1 - star) < 0.0025

    def test_independent_of_probe_amplitude(self):
        star = structural_exact(REF)
        grid = np.linspace(star - 0.01, star + 0.01, 11)
        a = probed_structural_resonance(REF, grid, 1e-5, T_REF)
        b = probed_structural_resonance(REF, grid, 1e-7, T_REF)
        assert a.delta1 == pytest.approx(b.delta1, abs=1e-12)

    def test_matches_per_point_spectra(self):
        star = structural_exact(REF)
        grid = np.linspace(star - 0.01, star + 0.01, 21)
        result = probed_structural_resonance(REF, grid, 1e-5, T_REF)
        for d1, split in zip(grid, result.splittings):
            point = REF.with_delta1(float(d1))
            spectrum = probe_spectrum(point, 1e-5, T_REF, default_nu_grid(point, T_REF))
            assert split == measured_splitting(spectrum)

    @pytest.mark.parametrize("grid", [[], [1.05], [1.04, 1.06]])
    def test_rejects_grid_under_three_points(self, grid):
        with pytest.raises(ValueError, match="delta1_grid must have at least 3 points"):
            probed_structural_resonance(REF, grid, 1e-5, T_REF)

    def test_rejects_non_finite_grid(self):
        with pytest.raises(ValueError, match="finite"):
            probed_structural_resonance(REF, [1.04, math.nan, 1.06], 1e-5, T_REF)

    def test_rejects_unsorted_grid(self):
        # the parabolic refinement takes the grid neighbours of the minimum,
        # which on a shuffled grid are not the neighbouring delta1 values
        star = structural_exact(REF)
        grid = np.linspace(star - 0.01, star + 0.01, 21)
        shuffled = np.random.default_rng(0).permutation(grid)
        for bad in (shuffled, [1.04, 1.06, 1.05], np.full(5, 1.05)):
            with pytest.raises(ValueError, match="^delta1_grid must be monotone$"):
                probed_structural_resonance(REF, bad, 1e-5, T_REF)
        ascending = probed_structural_resonance(REF, grid, 1e-5, T_REF)
        descending = probed_structural_resonance(REF, grid[::-1], 1e-5, T_REF)
        np.testing.assert_array_equal(descending.splittings, ascending.splittings[::-1])
        assert descending.delta1 == pytest.approx(ascending.delta1, abs=1e-12)

    def test_strong_probe_rejected(self):
        grid = np.linspace(1.04, 1.06, 11)
        with pytest.raises(
            ValueError,
            match=r"omega_p = 0.05 is too strong for the first-order probe at delta1 = 1.04: "
            r"peak probability .* exceeds PERTURBATIVE_CEILING = 0.5",
        ):
            probed_structural_resonance(REF, grid, 0.05, T_REF)

    def test_edge_minimum_raises(self):
        grid = np.linspace(1.2, 1.3, 11)
        with pytest.raises(BracketError):
            probed_structural_resonance(REF, grid, 1e-5, T_REF)


class TestFeasibility:
    def test_reference_bounds(self):
        report = feasibility_check(REF, 1e-5, T_REF)
        assert report.time_required == pytest.approx(2.0 * math.pi / 0.0025, rel=1e-12)
        assert report.rabi_bound == pytest.approx(RABI_BOUND, rel=1e-12)

    def test_marginal_duration_warns(self):
        # duration exactly at the resolution bound: time ratio 1, not passed
        shift = 0.0025
        report = feasibility_check(REF, 1e-5, 2.0 * math.pi / shift)
        assert report.time_ratio == pytest.approx(1.0, rel=1e-12)
        assert not report.time_ok

    def test_long_weak_probe_passes(self):
        shift = 0.0025
        report = feasibility_check(REF, 0.05 * RABI_BOUND, 20.0 * 2.0 * math.pi / shift)
        assert report.time_ok
        assert report.rabi_ok

    def test_strong_probe_fails(self):
        report = feasibility_check(REF, RABI_BOUND, 1e6)
        assert not report.rabi_ok
