"""Tests for time evolution and the 1->3 transfer envelope."""

import math
import re
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest

from lambda_crossing import (
    EnvelopeError,
    RamanParams,
    build_hamiltonian,
    dressed_spectrum,
    dynamical_exact_effective,
    dynamical_exact_full,
    dynamical_shift,
    eliminate,
    evolve,
    p13_effective,
    p13_full,
    transfer_envelope,
    transfer_supremum,
)
from lambda_crossing import dynamics, gap32
from lambda_crossing.hamiltonian import _scalar_spectrum, _secular
from lambda_crossing.resonance import transfer_supremum_slope

from _reference import spectrum

RNG = np.random.default_rng(99)


def crest_reference(params, top=16):
    """Brute-force window maximum, or None where [0, T], T = 4 pi / |omega_eff|,
    holds more than 3e5 fast crests: P at every crest (2 j + 1) pi / F of the
    faster of the two level gaps F and at T, then the best `top` crests each
    zoomed in on by six rounds of 65-point sampling over the fast period
    around it. These periods tile the window, so no crest search is shared
    with the library."""
    t_end = 4.0 * math.pi / abs(eliminate(params).omega_eff)
    e = np.linalg.eigvalsh(build_hamiltonian(params))
    fast = float(max(e[1] - e[0], e[2] - e[1]))
    count = fast * t_end / (2.0 * math.pi)
    if count > 3e5:
        return None
    ts = np.append(np.minimum((2.0 * np.arange(int(count) + 1) + 1.0) * math.pi / fast, t_end),
                   t_end)
    ps = p13_full(params, ts)
    best = float(ps.max())
    for i in np.argsort(ps)[-top:]:
        lo, hi = max(ts[i] - math.pi / fast, 0.0), min(ts[i] + math.pi / fast, t_end)
        for _ in range(6):
            grid = np.linspace(lo, hi, 65)
            vals = p13_full(params, grid)
            k = int(np.argmax(vals))
            best = max(best, float(vals[k]))
            lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, 64)]
    return best


def envelope_draws(seed, count=200):
    """Drives with couplings log-uniform on 1e-3..0.6 delta2 and delta1
    uniform on 0.5..1.5 delta2."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        omega1, omega2 = np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2)).tolist()
        draws.append(RamanParams(omega1, omega2, float(rng.uniform(0.5, 1.5)), 1.0))
    return draws


ENVELOPE_DRAWS = envelope_draws(2305)


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
        # a normalized state of the wrong size
        with pytest.raises(ValueError, match="state vector must have 3 components"):
            evolve(p, np.array([1.0, 0.0]), 1.0)

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

    def test_full_transfer_at_weak_coupling(self):
        # omega_eff^2 and the Rabi frequency squared both underflow here: the
        # transfer is their ratio, taken first
        p = RamanParams(1e-90, 1e-90, 1.0, 1.0)
        t_max = math.pi / (2.0 * eliminate(p).omega_eff)
        assert p13_effective(p, t_max) == pytest.approx(1.0, abs=1e-12)

    def test_t_zero(self):
        assert p13_effective(RamanParams(0.2, 0.5, 1.0, 1.0), 0.0) == 0.0
        # zero effective Rabi frequency (no coupling, delta1 = delta2): no transfer at any t
        assert p13_effective(RamanParams(0.0, 0.0, 1.0, 1.0), 1.0) == 0.0

    @pytest.mark.parametrize("o1, o2", [(1e200, 1e200), (1e160, 1e150)])
    def test_overflowing_rabi_frequency_is_named(self, o1, o2):
        # omega_eff overflows to inf, and delta_eff to NaN (inf - inf) or -inf
        message = (f"the effective Rabi frequency overflows at omega1 = {o1:g}, "
                   f"omega2 = {o2:g}, delta1 = 1, delta2 = 1")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            p13_effective(RamanParams(o1, o2, 1.0, 1.0), 1.0)

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

    @pytest.mark.parametrize(
        "p13, rate",
        [(p13_effective, "effective Rabi frequency"), (p13_full, "largest half-gap")],
        ids=["effective", "full"],
    )
    @pytest.mark.parametrize("t", [1e200, np.array([0.0, -1e200, 3.0])], ids=["scalar", "array"])
    def test_overflowing_phase_is_named(self, p13, rate, t):
        # both times are finite, and so is the rate, but their product is not;
        # an array is named by its largest |t|
        p = RamanParams(1e150, 1e150, 1.0, 1.0)
        message = (f"the phase t * ({rate}) overflows at omega1 = 1e+150, omega2 = 1e+150, "
                   "delta1 = 1, delta2 = 1, t = 1e+200")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            p13(p, t)
        assert 0.0 <= p13(p, 1e-200) <= 1.0

    def test_never_negative(self):
        # <3|H|1> = 0 makes P = O(t^4), so the sin^2 terms cancel at order t^2
        # and their rounded sum dips below zero (to -2e-33 here) unless clipped
        ps = p13_full(RamanParams(0.01, 0.02, 1.0, 1.0), np.linspace(0.0, 1e-3, 1001))
        assert np.all(ps >= 0.0)

    def test_time_average_below_envelope(self):
        p = RamanParams(0.2, 0.4, 1.05, 1.0)
        ts = np.linspace(0.0, 50.0 * 2.0 * math.pi / eliminate(p).omega_eff, 20000)
        assert np.mean(p13_full(p, ts)) <= transfer_envelope(p)


class TestTransferReference:
    def test_against_60_digit_reference(self):
        # couplings log-uniform on 1e-9..0.6 delta2 and delta1 within
        # omega1 omega2 delta2 of the dynamical locus, t uniform on the
        # envelope window [0, 4 pi / omega_eff]. What double precision leaves
        # is the error of eigvalsh's upper gap, about eps delta2 / min(omega):
        # the supremum is held to 4 and the transfer to 16 of that unit
        # (worst draws: 1.0 and 4.6 units; 2.8e-8 and 6.5e-8 absolute, and
        # 5.7e-15 and 2.2e-14 at couplings >= 1e-3 delta2).
        rng = np.random.default_rng(4242)
        eps = np.finfo(float).eps
        for _ in range(200):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-9), math.log(0.6), 2)).tolist()
            p = RamanParams(omega1, omega2, 1.0, 1.0)
            p = p.with_delta1(dynamical_exact_full(p) + rng.uniform(-1.0, 1.0) * omega1 * omega2)
            ts = rng.uniform(0.0, 4.0 * math.pi / eliminate(p).omega_eff, 3)
            ref = spectrum(*astuple(p), dps=60)
            sup, ps = float(ref.supremum), [float(ref.transfer(t)) for t in ts.tolist()]
            unit = eps / min(omega1, omega2)
            assert abs(transfer_supremum(p) - sup) <= 4.0 * unit
            assert np.all(np.abs(p13_full(p, ts) - ps) <= 16.0 * unit)
            assert p13_full(p, 0.0) == 0.0

    @pytest.mark.parametrize(
        "call", [transfer_supremum, lambda p: p13_full(p, 1.0), transfer_envelope],
        ids=["supremum", "p13_full", "envelope"],
    )
    def test_unresolved_levels_raise_named_error(self, call):
        # eps3 - eps2 is 0 in double precision while h g ~ a^2 + b^2 puts the
        # true supremum near 1: a ValueError naming the drive, not 0, NaN or
        # a ZeroDivisionError
        message = ("double precision does not resolve the dressed levels at omega1 = 1, "
                   "omega2 = 1, delta1 = 1e+300, delta2 = 1e+300")
        with pytest.raises(ValueError) as err:
            call(RamanParams(1.0, 1.0, 1e300, 1e300))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "p",
        [RamanParams(0.0011427226480782747, 0.0011427707362548537, 1.0000000000274762, 1.0),
         RamanParams(1e300, 1e300, 1e300, 1e300)],
        ids=["weak-on-locus", "1e300"],
    )
    def test_supremum_is_a_probability(self, p):
        # unclipped, 4 c2^2 rounded to 1.0000000000000004 and, on the absolute
        # matrix, 1.0000000000000009 at these two drives
        sup = transfer_supremum(p)
        assert 1.0 - 1e-12 <= sup <= 1.0
        _, f = dynamics._residues(p)
        ts = np.linspace(0.0, 8.0 * math.pi / (2.0 * f[2]), 101)
        assert np.all((0.0 <= p13_full(p, ts)) & (p13_full(p, ts) <= 1.0))

    def test_envelope_is_a_probability(self):
        # unclipped, P(t) at the envelope's best crest rounded to
        # 1.0000000000000007 here; _transfer clips it at 1, as at 0
        p = RamanParams(0.0012493585211037447, 0.001249343800134766, 0.9999999999908041, 1.0)
        assert 1.0 - 1e-12 <= transfer_envelope(p) <= 1.0

    @pytest.mark.parametrize(
        "call", [gap32, transfer_supremum, lambda p: p13_full(p, 1.0)],
        ids=["gap32", "supremum", "p13_full"],
    )
    @pytest.mark.parametrize("p", [RamanParams(1.0, 1.0, 0.0, 1e-310),
                                   RamanParams(1.0, 1.0, 1e300, 1e-10)], ids=["omega", "delta1"])
    def test_overflowing_scaled_drive_is_named(self, call, p):
        # omega / delta2 or delta1 / delta2 overflows a delta2 = 1 matrix, but
        # not the frame of the largest entry: the 50-digit value (gap32 1e300
        # where |delta1| dwarfs the couplings), or, where double precision
        # merges the lower pair (eps1 = eps2 = -1e300), the named error
        if p.delta1 == 1e300 and call is not gap32:
            message = ("double precision does not resolve the dressed levels at omega1 = 1, "
                       "omega2 = 1, delta1 = 1e+300, delta2 = 1e-10")
            with pytest.raises(ValueError) as err:
                call(p)
            assert str(err.value) == message
            return
        if call is gap32:
            want = {0.0: 0.7071067811865476, 1e300: 1e300}[p.delta1]
            assert gap32(p) == float(spectrum(*astuple(p)).gaps[1]) == want
            return
        ref = spectrum(*astuple(p), dps=60)
        want = float(ref.supremum if call is transfer_supremum else ref.transfer(1.0))
        assert abs(call(p) - want) <= 4.0 * np.finfo(float).eps

    def test_gap_below_eps_norm_is_zero(self):
        # the true gap, delta2 = 1e-300, lies below eps |H| = 2e-316: it is 0,
        # as in the 50-digit spectrum, not an error
        p = RamanParams(0.0, 0.0, -1e300, 1e-300)
        assert gap32(p) == float(spectrum(*astuple(p)).gaps[1]) == 0.0
        assert transfer_supremum(p) == p13_full(p, 1.0) == 0.0

    @pytest.mark.parametrize("call", [gap32, transfer_supremum], ids=["gap32", "supremum"])
    def test_against_50_digit_reference_at_any_delta2(self, call):
        # 300 drives with delta2 = e^U(-40, 40), couplings log-uniform on
        # 1e-3..0.6 delta2 and delta1 within omega1 omega2 / delta2 of delta2,
        # against a 50-digit mpmath.eigsy spectrum, to 5e-13 relative (worst
        # draws: gap32 1.0e-13 and the supremum 2.0e-13)
        rng = np.random.default_rng(3636)
        for _ in range(300):
            d2 = math.exp(rng.uniform(-40.0, 40.0))
            omega1, omega2 = (np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2)) * d2).tolist()
            p = RamanParams(omega1, omega2, d2 + rng.uniform(-1.0, 1.0) * omega1 * omega2 / d2, d2)
            want = (float(spectrum(*astuple(p)).gaps[1]) if call is gap32 else
                    float(spectrum(*astuple(p), dps=60).supremum))
            assert abs(call(p) - want) <= 5e-13 * want

    def test_underflowed_supremum_gives_zero_envelope(self):
        # c2 ~ 1e-601: the supremum 4 c2^2 and so the envelope are 0, although
        # the window times the level gap overflows
        p = RamanParams(1.0, 1.0, 1e300, 2e300)
        assert transfer_supremum(p) == 0.0
        assert transfer_envelope(p) == 0.0

    def test_no_coupling_is_exactly_zero(self):
        # with a b = 0 no residue is formed, so two equal levels (the last
        # drive, eps1 = eps2 = 0) give exactly zero, not the named error
        for p in (RamanParams(0.4, 0.0, 1.0, 1.0), RamanParams(0.0, 0.4, 1.0, 1.0),
                  RamanParams(0.0, 0.0, 0.0, 1.0)):
            assert transfer_supremum(p) == 0.0
            assert np.all(p13_full(p, np.linspace(0.0, 100.0, 50)) == 0.0)


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
        # the crest search reads one _point_spectrum, and no eigenvectors
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(dynamics, "_point_spectrum",
                            counted("_point_spectrum", dynamics._point_spectrum))
        monkeypatch.setattr(dynamics, "dressed_spectrum",
                            counted("dressed_spectrum", dressed_spectrum))
        transfer_envelope(RamanParams(0.2, 0.5, 1.03, 1.0))
        assert calls == ["_point_spectrum"]

    def test_reaches_every_crest(self):
        # against P at every fast crest, the best ones polished, on the draws
        # whose window holds at most 3e5 crests (176 of the 200; worst 2.2e-16
        # below). A 400-point grid with a Brent polish read up to 3.0e-4 low
        # here, more than 1e-12 low on 166 of them.
        checked = 0
        for p in ENVELOPE_DRAWS:
            reference = crest_reference(p)
            if reference is not None:
                checked += 1
                assert transfer_envelope(p) >= reference - 1e-12
        assert checked >= 150

    def test_between_grid_and_supremum(self):
        for p in ENVELOPE_DRAWS:
            t_end = 4.0 * math.pi / abs(eliminate(p).omega_eff)
            env = transfer_envelope(p)
            assert env >= float(np.max(p13_full(p, np.linspace(0.0, t_end, 400))))
            assert env <= transfer_supremum(p) + 1e-12

    @pytest.mark.parametrize(
        "p", [RamanParams(1e-4, 2e-4, 0.7, 1.0), RamanParams(3e-4, 1e-4, 0.6, 1.0)], ids=str
    )
    def test_long_window_reaches_supremum(self, p):
        # about 8e7 slow beats in the window: the best of them comes within
        # 1e-9 of the supremum, and the search holds no array that grows with
        # them (an enumeration of the beats would take gigabytes)
        tracemalloc.start()
        try:
            env = transfer_envelope(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        sup = transfer_supremum(p)
        assert sup * (1.0 - 1e-9) <= env <= sup + 1e-12
        assert peak < 100_000

    @pytest.mark.parametrize(
        "p, message",
        [
            (RamanParams(1e-160, 1e-160, 1.0, 1.0),
             "is not finite and positive at omega_eff = 2.49997e-321"),
            (RamanParams(1e300, 1e300, 1.0, 1.0), "is not finite and positive at omega_eff = inf"),
            (RamanParams(1.0, 1e150, 1e300, 1e300),
             "= 5.02655e[+]151 holds more fast crests than double precision counts at "
             "omega_eff = 2.5e-151"),
        ],
        ids=["window-overflows", "window-underflows", "crests-overflow"],
    )
    def test_unsampled_window_is_named_error(self, p, message):
        # 4 pi / |omega_eff| overflows, underflows to 0, or times the level
        # gap ~1e300 overflows: a named error quoting omega_eff
        prefix = r"^transfer window 4 pi / \|omega_eff\| "
        with pytest.raises(EnvelopeError, match=prefix + message):
            transfer_envelope(p)

    @pytest.mark.parametrize(
        "omegas", [(0.2, 0.3), (0.1, 0.1), (0.05, 0.3), (0.3, 0.05)], ids=str
    )
    def test_delta1_scan_peaks_at_locus(self, omegas):
        # 25 points over +-6 shifts around the dynamical locus: the envelope
        # rises to one peak and falls, with its argmax within one grid step of
        # the locus (the 400-point grid gave up to 5 turns, 3 shifts off)
        p = RamanParams(*omegas, 1.0, 1.0)
        locus = dynamical_exact_full(p)
        shift, _ = dynamical_shift(p)
        grid = np.linspace(locus - 6.0 * shift, locus + 6.0 * shift, 25)
        env = np.array([transfer_envelope(p.with_delta1(float(d1))) for d1 in grid])
        rises = np.diff(env) > 0.0
        assert np.count_nonzero(rises[1:] != rises[:-1]) == 1
        assert abs(grid[int(np.argmax(env))] - locus) <= grid[1] - grid[0]


def pair_loop_slope(energies, states):
    """gap32^3 d(sum_k |c_k|)/d delta1 from eigenvectors, summed over level
    pairs with per-level signs s_k = sign(c_k): each pair j < k of opposite
    signs adds (s_k - s_j) v_{0,j} v_{0,k} (v_{0,j} v_{2,k} + v_{0,k} v_{2,j})
    / (eps_k - eps_j). It is -2 a b times transfer_supremum_slope."""
    e = energies.tolist()
    u, _, w = states.tolist()
    s = [math.copysign(1.0, u[k] * w[k]) for k in range(3)]
    slope = 0.0
    for j, k in ((0, 1), (0, 2), (1, 2)):
        if s[j] != s[k]:
            uu = u[j] * u[k]
            slope += (s[k] - s[j]) * uu * (u[j] * w[k] + u[k] * w[j]) / (e[k] - e[j])
    gap = e[2] - e[1]
    return slope * gap * gap * gap


def eigenvalue_slope(p):
    """-2 a b transfer_supremum_slope at p (delta2 = 1), as pair_loop_slope."""
    a, b = p.omega1 / 2.0, p.omega2 / 2.0
    return -2.0 * a * b * transfer_supremum_slope(*_scalar_spectrum(p, 0)[3](p.delta1))


class TestTransferSupremumSlope:
    def test_equals_pair_loop(self):
        # the eigenvalue-only slope against the eigenvector pair sum, with
        # couplings down to 1e-5 delta2 and delta1 on and off the crossing,
        # to 1e-10 relative (the worst draw reaches 1.2e-12)
        rng = np.random.default_rng(2718)
        for _ in range(1500):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-5), math.log(0.6), 2)).tolist()
            d1 = float(rng.choice([rng.uniform(0.9, 1.1), rng.uniform(-3.0, 3.0)]))
            p = RamanParams(omega1, omega2, d1, 1.0)
            e, v = np.linalg.eigh(build_hamiltonian(p))
            assert eigenvalue_slope(p) == pytest.approx(pair_loop_slope(e, v), rel=1e-10)

    def test_eigenvector_signs_are_free(self):
        # the pair sum on eigh's vectors with random signs matches the slope,
        # which reads no eigenvector, to 1e-10 relative (worst 3.1e-14)
        rng = np.random.default_rng(13)
        for _ in range(50):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2))
            p = RamanParams(float(omega1), float(omega2), float(rng.uniform(0.5, 1.5)), 1.0)
            e, v = np.linalg.eigh(build_hamiltonian(p))
            flipped = v * rng.choice([-1.0, 1.0], size=3)
            assert eigenvalue_slope(p) == pytest.approx(pair_loop_slope(e, flipped), rel=1e-10)

    def test_residue_identities(self):
        # adj(e_k - H) = v_k v_k^T prod_{j != k} (e_k - e_j) on the delta2 = 1
        # Hamiltonian at x = delta1 / delta2, so v_{0,k}^2 = n_k / prod and
        # c_k = v_{0,k} v_{2,k} = a b / prod, checked against eigh with
        # couplings down to 1e-5 delta2 and delta1 on and off the crossing.
        # An eigh eigenvector is good to about eps ||H|| / (smallest gap), so
        # both are held to 8 eps max(1, |x|) / min(h, g) (the worst draw
        # reaches 3.2 eps max(1, |x|) / min(h, g)), and so is transfer_supremum,
        # the residue form, against the eigenvector sum (sum_k |v_{0,k} v_{2,k}|)^2
        # (worst 0.97 eps max(1, |x|) / min(h, g)).
        rng = np.random.default_rng(2718)
        eps = np.finfo(float).eps
        for _ in range(1500):
            d2 = float(np.exp(rng.uniform(-1.0, 1.0)))
            omega1, omega2 = (np.exp(rng.uniform(math.log(1e-5), math.log(0.6), 2)) * d2).tolist()
            d1 = float(rng.choice([rng.uniform(0.9, 1.1), rng.uniform(-3.0, 3.0)])) * d2
            x, a, b = d1 / d2, omega1 / (2.0 * d2), omega2 / (2.0 * d2)
            q = RamanParams(2.0 * a, 2.0 * b, x, 1.0)
            spec = dressed_spectrum(q)
            e = spec.energies.tolist()
            n = _secular(spec.energies, spec.energies + x, spec.energies - (1.0 - x),
                         a * a, b * b)[1]
            prod = [(e[k] - e[(k + 1) % 3]) * (e[k] - e[(k + 2) % 3]) for k in range(3)]
            h, g = e[1] - e[0], e[2] - e[1]
            bound = 8.0 * eps * max(1.0, abs(x)) / min(h, g)
            v0, _, v2 = spec.states
            for k in range(3):
                assert abs(v0[k] * v0[k] - n[k] / prod[k]) <= bound
                assert abs(v0[k] * v2[k] - a * b / prod[k]) <= bound
            # the c_k alternate in sign, so the middle level dominates
            assert np.array_equal(np.sign(v0 * v2), [1.0, -1.0, 1.0])
            assert abs(transfer_supremum(q) - np.abs(v0 * v2).sum() ** 2) <= bound

    @pytest.mark.parametrize(
        "omegas", [(0.2, 0.5), (0.01, 0.03), (0.5, 0.05), (0.002, 0.003)], ids=str
    )
    def test_equals_central_difference(self, omegas):
        # -2 a b times the slope is gap32^3 times the central difference of
        # sqrt(transfer_supremum) = sum_k |c_k|, at a step of 1e-4 crossing widths
        p = RamanParams(*omegas, 1.0, 1.0)
        width = p.omega1 * p.omega2 / 2.0
        centre = dynamical_exact_effective(p)
        h = 1e-4 * width
        for d1 in (0.6, centre - 3.0 * width, centre - 0.3 * width, centre + 0.5 * width,
                   centre + 4.0 * width, 1.4):
            q = p.with_delta1(d1)
            s_plus = math.sqrt(transfer_supremum(q.with_delta1(d1 + h)))
            s_minus = math.sqrt(transfer_supremum(q.with_delta1(d1 - h)))
            a, b = p.omega1 / 2.0, p.omega2 / 2.0
            slope = transfer_supremum_slope(*_scalar_spectrum(q, 0)[3](d1))
            assert -2.0 * a * b * slope == pytest.approx(
                gap32(q) ** 3 * (s_plus - s_minus) / (2.0 * h), rel=1e-5
            )
