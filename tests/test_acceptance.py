"""Acceptance suite: one test per top-level criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 2 is split so the weak-coupling band and the breakdown check
report separately.
"""

import math
import time

import numpy as np
import pytest

import lambda_crossing as lc

DELTA2 = 1.0
REF = lc.RamanParams(0.2, 0.5, 1.0, 1.0)


def _verdict(name, ok):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {name}")
    return ok


def test_criterion_1_alkali_numbers():
    """rb87 preset reproduces the quoted bias field, splittings, shifts,
    scattering rates, and probe bounds; runtime under 1 s."""
    start = time.perf_counter()
    checks = []

    checks.append(abs(lc.bias_field(lc.RB87) - 1219.0) <= 0.005 * 1219.0)
    de31, de23, de21 = lc.splittings(lc.RB87)
    checks.append(abs(de31 - 5.919e9) <= 0.005 * 5.919e9)
    checks.append(abs(de23 - 860e6) <= 0.01 * 860e6)
    checks.append(abs(de21 - 6.779e9) <= 0.005 * 6.779e9)

    optical = lc.scenario_report(lc.RB87, 200e6, 200e6, 10e9, delta1=10e9, scenario="optical")
    checks.append(abs(optical.dynamical_shift - 400.0) <= 0.01 * 400.0)
    checks.append(abs(optical.scattering_rate - 3.8e3) <= 0.05 * 3.8e3)

    far = lc.scenario_report(lc.RB87, 200e6, 200e6, 100e9, delta1=100e9, scenario="optical")
    checks.append(abs(far.dynamical_shift - 0.4) <= 0.05 * 0.4)
    checks.append(abs(far.scattering_rate - 38.0) <= 0.05 * 38.0)

    microwave = lc.scenario_report(lc.RB87, 300e3, 300e3, 1e6, scenario="microwave")
    checks.append(abs(microwave.dynamical_shift - 2.0e3) <= 0.02 * 2.0e3)
    # probe applied much longer than ~500 us; amplitude well under the bound,
    # which itself sits above the quoted 1 kHz operating point
    checks.append(abs(microwave.probe_time_bound - 500e-6) <= 0.02 * 500e-6)
    checks.append(microwave.probe_rabi_bound >= 1e3)

    elapsed = time.perf_counter() - start
    checks.append(elapsed < 1.0)
    ok = all(checks)
    _verdict(f"criterion 1: alkali-atom number suite ({elapsed:.2f} s)", ok)
    assert ok, checks


def test_criterion_2_weak_coupling_coincidence():
    """shift_exact/shift_approx within [0.9, 1.1] for omega2 = 0.1 delta2
    across coupling ratios 0.2..1.0.

    The full-model loci actually differ at fourth order by half of
    shift_approx, so this band is not met; see the notes ledger for the
    analysis. The criterion is asserted as stated.
    """
    start = time.perf_counter()
    ratios = {}
    for r in (0.2, 0.4, 0.6, 0.8, 1.0):
        p = lc.RamanParams(0.1 * r, 0.1, 1.0, DELTA2)
        exact, approx = lc.dynamical_shift(p)
        ratios[r] = exact / approx
    elapsed = time.perf_counter() - start
    ok = all(0.9 <= v <= 1.1 for v in ratios.values()) and elapsed < 60.0
    _verdict(
        "criterion 2a: weak-coupling shift coincidence "
        f"(ratios {', '.join(f'{k}:{v:.3f}' for k, v in ratios.items())}; {elapsed:.1f} s)",
        ok,
    )
    assert ok, ratios


def test_criterion_2_breakdown_regime():
    """For omega2 = 0.5 delta2 the exact/approx shift ratio deviates from 1
    by more than 10% at equal couplings."""
    start = time.perf_counter()
    exact, approx = lc.dynamical_shift(lc.RamanParams(0.5, 0.5, 1.0, DELTA2))
    deviation = abs(exact / approx - 1.0)
    elapsed = time.perf_counter() - start
    ok = deviation > 0.1 and elapsed < 60.0
    _verdict(f"criterion 2b: breakdown regime (deviation {deviation:.3f}; {elapsed:.1f} s)", ok)
    assert ok, deviation


def test_criterion_3_probe_protocol():
    """Probe-derived splittings converge to gap32 and the probed resonance
    lands within the dynamical shift of the probeless one for long probes."""
    start = time.perf_counter()
    shift = lc.shift_approx(REF)  # 2.5e-3
    star = lc.structural_exact(REF)
    checks = []

    # measured splitting converges toward the exact gap as t grows
    gap = lc.gap32(REF)
    errors = []
    for mult in (25.0, 125.0, 500.0):
        t = mult * 2.0 * math.pi
        spectrum = lc.probe_spectrum(REF, 1e-5, t, lc.default_nu_grid(REF, t))
        errors.append(abs(lc.measured_splitting(spectrum) - gap))
    checks.append(errors[2] < errors[1] < errors[0])

    def probed(duration):
        grid = np.linspace(star - 0.01, star + 0.01, 25)
        return lc.probed_structural_resonance(REF, grid, 1e-5, duration).delta1

    # reference duration of the delta1 x nu scan
    checks.append(abs(probed(125.0 * 2.0 * math.pi) - star) < shift)
    # resolvable regime: t >= 2 * (2 pi / shift)
    checks.append(abs(probed(2.0 * 2.0 * math.pi / shift) - star) < shift)
    # at t = 2 pi / shift the duration only just reaches the resolution
    # bound: the feasibility check must not pass it
    marginal = lc.feasibility_check(REF, 1e-5, 2.0 * math.pi / shift)
    checks.append(marginal.time_ratio == pytest.approx(1.0, rel=1e-12))
    checks.append(not marginal.time_ok)

    elapsed = time.perf_counter() - start
    checks.append(elapsed < 300.0)
    ok = all(checks)
    _verdict(f"criterion 3: probe measurement protocol ({elapsed:.1f} s)", ok)
    assert ok, checks


def test_criterion_4_oracle_equivalence():
    """Closed forms against independent integrations and diagonalization."""
    start = time.perf_counter()
    checks = []

    # (a) probe closed form vs time-dependent integration at both peaks,
    # probe amplitude at 1% of the perturbative bound
    t_ref = 125.0 * 2.0 * math.pi
    omega_p = 0.01 * (REF.omega1**2 * REF.omega2**2 / (2.0 * DELTA2**3))
    gap = lc.gap32(REF)
    for nu in (-gap, gap):
        probe = lc.ProbeParams(omega_p, nu, t_ref)
        closed = lc.probe_transition_probability(REF, probe)
        oracle = lc.probe_time_domain_oracle(REF, probe, 40000)
        checks.append(abs(closed - oracle) / oracle < 0.05)

    # (b) converged implicit-model levels vs full diagonalization
    worst = 0.0
    for o1 in (0.1, 0.3, 0.5):
        for o2 in (0.1, 0.3, 0.5):
            for d1 in (0.8, 1.0, 1.2):
                p = lc.RamanParams(o1, o2, d1, DELTA2)
                levels = lc.iterate_levels(p)
                e = lc.dressed_spectrum(p).energies
                worst = max(worst, abs(levels.e_minus - e[1]), abs(levels.e_plus - e[2]))
    checks.append(worst < 1e-10 * DELTA2)

    # (c) iteration seed at E = 0 equals plain adiabatic elimination
    for d1 in (0.8, 1.0, 1.2):
        p = lc.RamanParams(0.2, 0.5, d1, DELTA2)
        seed = lc.level_shift(p, 0.0)
        model = lc.eliminate(p)
        checks.append(seed.r13 == model.omega_eff)
        checks.append(seed.delta_eff_of_e == model.delta_eff)

    # (d) spectral propagator vs 4th-order ODE integration
    p = lc.RamanParams(0.3, 0.3, 1.0, DELTA2)
    t_final = 50.0
    h = lc.build_hamiltonian(p).astype(complex)
    psi = np.array([1.0, 0.0, 0.0], dtype=complex)
    steps = 40000
    dt = t_final / steps
    for _ in range(steps):
        k1 = -1j * (h @ psi)
        k2 = -1j * (h @ (psi + 0.5 * dt * k1))
        k3 = -1j * (h @ (psi + 0.5 * dt * k2))
        k4 = -1j * (h @ (psi + dt * k3))
        psi = psi + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    exact = lc.evolve(p, np.array([1.0, 0.0, 0.0], dtype=complex), t_final)
    checks.append(float(np.max(np.abs(exact - psi))) < 1e-8)

    elapsed = time.perf_counter() - start
    ok = all(checks)
    _verdict(f"criterion 4: oracle equivalence suite ({elapsed:.1f} s)", ok)
    assert ok, checks


def test_criterion_5_invariants():
    """Structural invariants property-tested over 1000 random draws."""
    start = time.perf_counter()
    rng = np.random.default_rng(2468)
    checks = []

    for _ in range(1000):
        p = lc.RamanParams(
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(-1.0, 3.0)),
            DELTA2,
        )
        spec = lc.dressed_spectrum(p)
        # trace identity
        if abs(spec.energies.sum() - (DELTA2 - 2.0 * p.delta1)) > 1e-12 * max(
            1.0, abs(DELTA2 - 2.0 * p.delta1)
        ):
            checks.append(("trace", p))
        # orthonormality
        if np.max(np.abs(spec.states.T @ spec.states - np.eye(3))) > 1e-12:
            checks.append(("orthonormality", p))

    # unitarity of the propagator
    for _ in range(100):
        p = lc.RamanParams(
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(0.0, 1.0)),
            float(rng.uniform(-1.0, 3.0)),
            DELTA2,
        )
        psi0 = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi0 /= np.linalg.norm(psi0)
        psi = lc.evolve(p, psi0, float(rng.uniform(0.0, 100.0)))
        if abs(np.linalg.norm(psi) - 1.0) > 1e-9:
            checks.append(("unitarity", p))

    # probe amplitude scaling is exactly quadratic
    base = lc.probe_transition_probability(REF, lc.ProbeParams(1e-4, -0.068, 500.0))
    scaled = lc.probe_transition_probability(REF, lc.ProbeParams(2e-4, -0.068, 500.0))
    if scaled != pytest.approx(4.0 * base, rel=1e-13):
        checks.append(("omega_p^2 scaling", None))

    # shift symmetry, homogeneity, and the expansion identity
    for _ in range(200):
        o1, o2 = float(rng.uniform(0.0, 0.6)), float(rng.uniform(0.0, 0.6))
        p = lc.RamanParams(o1, o2, 1.0, DELTA2)
        q = lc.RamanParams(o2, o1, 1.0, DELTA2)
        if lc.shift_approx(p) != lc.shift_approx(q):
            checks.append(("shift symmetry", p))
        lam = 3.0
        scaled_shift = lc.shift_approx(lc.RamanParams(lam * o1, lam * o2, lam, lam))
        if scaled_shift != pytest.approx(lam * lc.shift_approx(p), rel=1e-12):
            checks.append(("shift homogeneity", p))
        identity = lc.structural_approx(p) - lc.dynamical_approx(p)
        if identity != pytest.approx(lc.shift_approx(p), abs=1e-15):
            checks.append(("expansion identity", p))

    # quartic convergence of the two-level reduction under coupling halving
    def reduction_error(om):
        p = lc.RamanParams(om, om, 1.0, DELTA2)
        _, hi = lc.effective_energies(lc.eliminate(p))
        return abs(lc.gap32(p) - 2.0 * hi)

    ratio = reduction_error(0.2) / reduction_error(0.1)
    if not 16.0 * 0.8 <= ratio <= 16.0 * 1.2:
        checks.append(("quartic convergence", ratio))

    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        checks.append(("runtime", elapsed))
    ok = not checks
    _verdict(f"criterion 5: invariant suite ({elapsed:.1f} s)", ok)
    assert ok, checks
