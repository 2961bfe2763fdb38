"""Tests for time evolution and the 1->3 transfer envelope."""

import math

import numpy as np
import pytest

from lambda_crossing import (
    EnvelopeError,
    RamanParams,
    build_hamiltonian,
    dressed_spectrum,
    dynamical_exact_effective,
    eliminate,
    evolve,
    p13_effective,
    p13_full,
    transfer_envelope,
    transfer_supremum,
)
from lambda_crossing import dynamics, gap32
from lambda_crossing._minimize import minimize_scalar, parabolic_vertex
from lambda_crossing.dynamics import transfer_supremum_slope

RNG = np.random.default_rng(99)


def envelope_per_evaluation(params):
    """The envelope search with p13_full, and so one eigensolve, at every
    evaluation: the reference for the one-spectrum transfer_envelope."""
    t_scan = 4.0 * math.pi / abs(eliminate(params).omega_eff)
    ts = np.linspace(0.0, t_scan, dynamics.ENVELOPE_POINTS)
    ps = p13_full(params, ts)
    i = int(np.argmax(ps))
    if 0 < i < ts.size - 1:
        t_guess = parabolic_vertex(ts[i - 1], ps[i - 1], ts[i], ps[i], ts[i + 1], ps[i + 1])
        lo, hi = ts[i - 1], ts[i + 1]
    else:
        t_guess = ts[i]
        lo = max(ts[i] - (ts[1] - ts[0]), 0.0)
        hi = min(ts[i] + (ts[1] - ts[0]), t_scan)
    _, p_neg = minimize_scalar(
        lambda t: -p13_full(params, t), lo, hi, xtol=1e-12 * max(t_guess, 1.0)
    )
    return float(max(-p_neg, ps[i]))


def rk4_evolve(params, psi0, t_final, steps):
    """Independent oracle: fixed-step RK4 on i dpsi/dt = H psi."""
    h = build_hamiltonian(params).astype(complex)
    dt = t_final / steps

    def deriv(psi):
        return -1j * (h @ psi)

    psi = np.asarray(psi0, dtype=complex)
    for _ in range(steps):
        k1 = deriv(psi)
        k2 = deriv(psi + 0.5 * dt * k1)
        k3 = deriv(psi + 0.5 * dt * k2)
        k4 = deriv(psi + dt * k3)
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return psi


class TestEvolve:
    def test_t_zero_identity(self):
        p = RamanParams(0.3, 0.4, 0.9, 1.0)
        for _ in range(10):
            psi0 = RNG.normal(size=3) + 1j * RNG.normal(size=3)
            psi0 /= np.linalg.norm(psi0)
            np.testing.assert_allclose(evolve(p, psi0, 0.0), psi0, atol=1e-14)

    def test_diagonal_phases(self):
        p = RamanParams(0.0, 0.0, 0.7, 1.0)
        psi0 = np.array([1.0, 1.0, 1.0], dtype=complex) / math.sqrt(3.0)
        t = 2.3
        psi = evolve(p, psi0, t)
        expected = psi0 * np.exp(-1j * np.array([0.0, -0.7, 0.3]) * t)
        np.testing.assert_allclose(psi, expected, atol=1e-12)

    def test_against_rk4_oracle(self):
        p = RamanParams(0.3, 0.3, 1.0, 1.0)
        t = 50.0
        psi0 = np.array([1.0, 0.0, 0.0], dtype=complex)
        exact = evolve(p, psi0, t)
        oracle = rk4_evolve(p, psi0, t, 40000)
        assert np.max(np.abs(exact - oracle)) < 1e-8

    def test_unitarity(self):
        for _ in range(50):
            p = RamanParams(
                float(RNG.uniform(0.0, 1.0)),
                float(RNG.uniform(0.0, 1.0)),
                float(RNG.uniform(-1.0, 3.0)),
                1.0,
            )
            psi0 = RNG.normal(size=3) + 1j * RNG.normal(size=3)
            psi0 /= np.linalg.norm(psi0)
            psi = evolve(p, psi0, float(RNG.uniform(0.0, 100.0)))
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_rejects_unnormalized(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            evolve(p, np.array([1.0, 1.0, 0.0]), 1.0)

    @pytest.mark.parametrize(
        "psi0, t, message",
        [
            ([math.nan, 0.0, 0.0], 1.0, "psi0 is not normalized, norm nan"),
            ([math.inf, 0.0, 0.0], 1.0, "psi0 is not normalized, norm inf"),
            ([1.0, 0.0, 0.0], math.nan, "t must be finite"),
            ([1.0, 0.0, 0.0], math.inf, "t must be finite"),
        ],
    )
    def test_rejects_non_finite_input(self, psi0, t, message):
        with pytest.raises(ValueError, match=message):
            evolve(RamanParams(0.2, 0.5, 1.0, 1.0), psi0, t)

    @pytest.mark.parametrize("t", [np.array([1.0, 2.0, 3.0]), [1.0], np.arange(4.0)])
    def test_rejects_non_scalar_time(self, t):
        # a length-3 t would pair eps_k with t_k: the state at no single time
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^t must be a scalar time, got shape"):
            evolve(p, [1.0, 0.0, 0.0], t)
        assert np.array_equal(evolve(p, [1.0, 0.0, 0.0], np.float64(2.0)),
                              evolve(p, [1.0, 0.0, 0.0], 2.0))


class TestP13Effective:
    def test_maximum_on_dynamical_resonance(self):
        p = RamanParams(0.3, 0.3, 1.0, 1.0)
        m = eliminate(p)
        assert m.delta_eff == pytest.approx(0.0, abs=1e-16)
        t_max = math.pi / (2.0 * m.omega_eff)
        assert p13_effective(p, t_max) == pytest.approx(1.0, abs=1e-12)

    def test_t_zero(self):
        assert p13_effective(RamanParams(0.2, 0.5, 1.0, 1.0), 0.0) == 0.0

    def test_envelope_value(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        envelope = 0.025**2 / (0.02625**2 + 0.025**2)
        m = eliminate(p)
        t_peak = 0.5 * math.pi / math.hypot(m.delta_eff, m.omega_eff)
        assert p13_effective(p, t_peak) == pytest.approx(envelope, rel=1e-12)
        assert envelope == pytest.approx(0.4756, abs=5e-4)


class TestP13Full:
    def test_no_path_without_omega2(self):
        p = RamanParams(0.4, 0.0, 1.0, 1.0)
        for t in np.linspace(0.0, 100.0, 50):
            assert p13_full(p, float(t)) == pytest.approx(0.0, abs=1e-28)

    def test_agrees_with_effective_model(self):
        p = RamanParams(0.1, 0.1, 1.0, 1.0)
        m = eliminate(p)
        for t in np.linspace(0.0, 2.0 * math.pi / m.omega_eff, 200):
            assert abs(p13_full(p, float(t)) - p13_effective(p, float(t))) < 0.05

    def test_vectorized_matches_scalar(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        ts = np.linspace(0.0, 50.0, 17)
        vec = p13_full(p, ts)
        for t, v in zip(ts, vec):
            assert v == pytest.approx(p13_full(p, float(t)), rel=1e-14)

    @pytest.mark.parametrize(
        "p13, t",
        [
            (p13_full, math.nan),
            (p13_full, math.inf),
            (p13_full, [0.0, math.nan]),
            (p13_effective, math.nan),
            (p13_effective, math.inf),
        ],
        ids=["full-nan", "full-inf", "full-array", "effective-nan", "effective-inf"],
    )
    def test_rejects_non_finite_time(self, p13, t):
        with pytest.raises(ValueError, match="t must be finite"):
            p13(RamanParams(0.2, 0.5, 1.0, 1.0), t)

    def test_time_average_below_envelope(self):
        p = RamanParams(0.2, 0.4, 1.05, 1.0)
        ts = np.linspace(0.0, 50.0 * 2.0 * math.pi / eliminate(p).omega_eff, 20000)
        assert np.mean(p13_full(p, ts)) <= transfer_envelope(p)


class TestTransferEnvelope:
    def test_near_unity_on_resonance(self):
        # symmetric weak drive sits at delta_eff = 0 where transfer is complete
        assert transfer_envelope(RamanParams(0.1, 0.1, 1.0, 1.0)) >= 0.99

    def test_zero_coupling_raises(self):
        with pytest.raises(EnvelopeError):
            transfer_envelope(RamanParams(0.0, 0.5, 1.0, 1.0))

    def test_agrees_with_dense_time_scan(self):
        p = RamanParams(0.2, 0.5, 1.03, 1.0)
        ts = np.linspace(0.0, 4.0 * math.pi / eliminate(p).omega_eff, 40000)
        dense = float(np.max(p13_full(p, ts)))
        assert transfer_envelope(p) == pytest.approx(dense, abs=1e-6)
        assert transfer_envelope(p) >= dense - 1e-12

    def test_supremum_bounds_envelope(self):
        for _ in range(30):
            p = RamanParams(
                float(RNG.uniform(0.05, 0.5)),
                float(RNG.uniform(0.05, 0.5)),
                float(RNG.uniform(0.9, 1.1)),
                1.0,
            )
            env = transfer_envelope(p)
            sup = transfer_supremum(p)
            assert env <= sup + 1e-12
            # the three-tone sum comes close to its supremum within the window
            assert env >= 0.98 * sup

    def test_one_spectrum_per_call(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return dressed_spectrum(*args, **kwargs)

        monkeypatch.setattr(dynamics, "dressed_spectrum", counted)
        transfer_envelope(RamanParams(0.2, 0.5, 1.03, 1.0))
        assert len(calls) == 1

    def test_matches_per_evaluation_spectra(self):
        for _ in range(200):
            omega1, omega2 = np.exp(RNG.uniform(math.log(1e-3), math.log(0.6), 2))
            p = RamanParams(float(omega1), float(omega2), float(RNG.uniform(0.5, 1.5)), 1.0)
            assert transfer_envelope(p) == envelope_per_evaluation(p)


def pair_loop_slope(energies, states):
    """transfer_supremum_slope summed over level pairs with per-level signs
    s_k = sign(c_k): each pair j < k of opposite signs adds
    (s_k - s_j) v_{0,j} v_{0,k} (v_{0,j} v_{2,k} + v_{0,k} v_{2,j}) / (eps_k - eps_j)."""
    e = energies.tolist()
    u, _, w = states.tolist()
    s = [math.copysign(1.0, u[k] * w[k]) for k in range(3)]
    slope = 0.0
    for j, k in ((0, 1), (0, 2), (1, 2)):
        if s[j] != s[k]:
            uu = u[j] * u[k]
            slope += (s[k] - s[j]) * uu * (u[j] * w[k] + u[k] * w[j]) / (e[k] - e[j])
    return slope * (e[2] - e[1]) ** 3


class TestTransferSupremumSlope:
    def test_equals_pair_loop(self):
        # the dominant coefficient alone gives the pair sum bit for bit, with
        # couplings down to 1e-5 delta2 and delta1 on and off the crossing;
        # there the middle level always dominates (the c_k of a tridiagonal
        # matrix alternate in sign), so random symmetric matrices, whose c_k
        # also sum to zero, reach the other two
        rng = np.random.default_rng(2718)
        dominant = set()
        for _ in range(1500):
            d2 = float(np.exp(rng.uniform(-1.0, 1.0)))
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-5), math.log(0.6), 2)) * d2
            d1 = float(rng.choice([rng.uniform(0.9, 1.1), rng.uniform(-3.0, 3.0)])) * d2
            h = build_hamiltonian(RamanParams(omega1, omega2, d1, d2))
            noise = rng.normal(size=(3, 3))
            for m in (h, h + noise + noise.T):
                e, v = np.linalg.eigh(m)
                v = v * rng.choice([-1.0, 1.0], size=3)
                assert transfer_supremum_slope(e, v) == pair_loop_slope(e, v)
                dominant.add(int(np.argmax(np.abs(v[0] * v[2]))))
        assert dominant == {0, 1, 2}

    @pytest.mark.parametrize(
        "omegas", [(0.2, 0.5), (0.01, 0.03), (0.5, 0.05), (0.002, 0.003)], ids=str
    )
    def test_equals_central_difference(self, omegas):
        # gap32^3 times the central difference of sqrt(transfer_supremum) =
        # sum_k |c_k|, at a step of 1e-4 crossing widths
        p = RamanParams(*omegas, 1.0, 1.0)
        width = p.omega1 * p.omega2 / 2.0
        centre = dynamical_exact_effective(p)
        h = 1e-4 * width
        for d1 in (0.6, centre - 3.0 * width, centre - 0.3 * width, centre + 0.5 * width,
                   centre + 4.0 * width, 1.4):
            q = p.with_delta1(d1)
            s_plus = math.sqrt(transfer_supremum(q.with_delta1(d1 + h)))
            s_minus = math.sqrt(transfer_supremum(q.with_delta1(d1 - h)))
            spec = dressed_spectrum(q)
            assert transfer_supremum_slope(spec.energies, spec.states) == pytest.approx(
                gap32(q) ** 3 * (s_plus - s_minus) / (2.0 * h), rel=1e-5
            )

    def test_eigenvector_signs_are_free(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2))
            p = RamanParams(float(omega1), float(omega2), float(rng.uniform(0.5, 1.5)), 1.0)
            e, v = np.linalg.eigh(build_hamiltonian(p))
            flipped = v * rng.choice([-1.0, 1.0], size=3)
            assert transfer_supremum_slope(e, flipped) == transfer_supremum_slope(e, v)
