"""Tests for the 3-level Hamiltonian, its spectrum, and character tracking."""

import math
import warnings
from dataclasses import astuple

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_crossing import (
    CharacterScan,
    RamanParams,
    build_hamiltonian,
    character_swap_point,
    diagonalize,
    dressed_spectrum,
    dynamical_exact_effective,
    gap32,
    track_character,
    transfer_envelope,
)
from lambda_crossing import hamiltonian
from lambda_crossing.hamiltonian import (
    _dominant, _frame, _overlap_weights, _point_spectrum, _scalar_spectrum,
)
from lambda_crossing.resonance import gap32_slope

from _reference import levels, spectrum

RNG = np.random.default_rng(20260823)


def random_params(n, omega_lo=0.0, omega_hi=1.0, d1_lo=-1.0, d1_hi=3.0):
    """Seeded parameter draws with delta2 = 1."""
    for _ in range(n):
        yield RamanParams(
            omega1=float(RNG.uniform(omega_lo, omega_hi)),
            omega2=float(RNG.uniform(omega_lo, omega_hi)),
            delta1=float(RNG.uniform(d1_lo, d1_hi)),
            delta2=1.0,
        )


def charpoly_eigs(h):
    """Independent eigenvalue oracle: roots of the characteristic polynomial."""
    coeffs = [
        1.0,
        -np.trace(h),
        0.5 * (np.trace(h) ** 2 - np.trace(h @ h)),
        -np.linalg.det(h),
    ]
    roots = np.roots(coeffs)
    assert np.max(np.abs(roots.imag)) < 1e-8
    return np.sort(roots.real)


class TestBuildHamiltonian:
    def test_lasers_off(self):
        h = build_hamiltonian(RamanParams(0.0, 0.0, 1.0, 1.0))
        np.testing.assert_array_equal(h, np.diag([0.0, -1.0, 0.0]))

    def test_direct_substitution(self):
        h = build_hamiltonian(RamanParams(0.2, 0.5, 1.0, 1.0))
        assert h[0, 1] == h[1, 0] == 0.1
        assert h[1, 2] == h[2, 1] == 0.25
        assert h[0, 2] == h[2, 0] == 0.0
        np.testing.assert_allclose(np.diag(h), [0.0, -1.0, 0.0])

    def test_trace_identity(self):
        for p in random_params(50):
            h = build_hamiltonian(p)
            assert np.trace(h) == pytest.approx(p.delta2 - 2.0 * p.delta1, abs=1e-15)

    def test_symmetry_flag(self):
        h = build_hamiltonian(RamanParams(0.3, 0.4, 0.9, 1.0))
        np.testing.assert_array_equal(h, h.T)

    def test_stack_matches_points(self):
        p = RamanParams(0.3, 0.4, 0.9, 1.0)
        grid = np.linspace(-1.0, 3.0, 41)
        stack = build_hamiltonian(p, grid)
        assert stack.shape == (grid.size, 3, 3)
        for i, d1 in enumerate(grid):
            np.testing.assert_array_equal(stack[i], build_hamiltonian(p.with_delta1(float(d1))))

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            RamanParams(-0.1, 0.5, 1.0, 1.0)

    def test_rejects_nonpositive_delta2(self):
        with pytest.raises(ValueError):
            RamanParams(0.1, 0.5, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["omega1", "omega2", "delta1", "delta2"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, field, value):
        values = {"omega1": 0.2, "omega2": 0.5, "delta1": 1.0, "delta2": 1.0, field: value}
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            RamanParams(**values)

    def test_numpy_and_int_fields_are_stored_as_floats(self):
        # a drive of the parity tool's wide sweep whose transfer_envelope
        # overflows Omega^2: with numpy.float64 fields it reads the float
        # drive's value, not numpy's overflow warning (an error in this suite)
        drive = (2.2197552235550947e22, 7.240115446260131e175, 1.3330158182685688e201,
                 1.3330158182685688e201)
        p = RamanParams(*map(np.float64, drive))
        assert all(type(v) is float for v in vars(p).values())
        assert transfer_envelope(p) == transfer_envelope(RamanParams(*drive))
        assert all(type(v) is float for v in vars(RamanParams(1, 0, np.int64(2), 3)).values())


class TestDiagonalize:
    def test_diagonal_input(self):
        spec = dressed_spectrum(RamanParams(0.0, 0.0, 0.5, 1.0))
        np.testing.assert_allclose(spec.energies, [-0.5, 0.0, 0.5], atol=1e-15)
        # eigenvectors of a diagonal matrix are the basis vectors
        assert np.allclose(np.abs(spec.states), np.abs(spec.states).round())

    def test_against_charpoly_oracle(self):
        for p in random_params(200):
            h = build_hamiltonian(p)
            np.testing.assert_allclose(
                diagonalize(h).energies, charpoly_eigs(h), atol=1e-10
            )

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ValueError):
            diagonalize(m)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_by_name(self, bad):
        # named before the symmetry check, which would call it asymmetric
        m = build_hamiltonian(RamanParams(0.2, 0.5, 1.0, 1.0))
        m[0, 2] = m[2, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Hamiltonian matrix must be finite$"):
                diagonalize(m)

    @pytest.mark.parametrize("imag", [0.0, 1e-3])
    def test_rejects_complex(self, imag):
        # a complex matrix is refused, not cast with its imaginary part dropped
        m = build_hamiltonian(RamanParams(0.2, 0.5, 1.0, 1.0)).astype(complex)
        m[0, 1] += 1j * imag
        m[1, 0] -= 1j * imag
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^Hamiltonian matrix must be real$"):
                diagonalize(m)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 3, 3)])
    def test_rejects_non_3x3(self, shape):
        with pytest.raises(ValueError, match="3x3"):
            diagonalize(np.zeros(shape))

    def test_orthonormality_and_residuals(self):
        # property sweep: 1000 draws over the documented parameter box
        for p in random_params(1000):
            h = build_hamiltonian(p)
            spec = dressed_spectrum(p)
            v = spec.states
            np.testing.assert_allclose(v.T @ v, np.eye(3), atol=1e-12)
            for k in range(3):
                residual = h @ v[:, k] - spec.energies[k] * v[:, k]
                assert np.max(np.abs(residual)) < 1e-12 * max(1.0, np.abs(h).max())
            total = spec.energies.sum()
            expected = p.delta2 - 2.0 * p.delta1
            assert abs(total - expected) <= 1e-12 * max(1.0, abs(expected))

    def test_sign_convention(self):
        for p in random_params(100):
            v = dressed_spectrum(p).states
            for k in range(3):
                assert v[np.argmax(np.abs(v[:, k])), k] > 0

    def test_energies_sorted(self):
        for p in random_params(100):
            e = dressed_spectrum(p).energies
            assert e[0] <= e[1] <= e[2]

    def test_point_spectrum_equals_checked_path(self):
        # dressed_spectrum skips diagonalize's matrix checks, not its numbers
        draws = list(random_params(200))
        draws += [p.with_delta1(0.0) for p in draws[:20]]
        draws += [RamanParams(0.0, p.omega2, p.delta1, 1.0) for p in draws[:20]]
        draws += [RamanParams(0.0, 0.0, p.delta1, 1.0) for p in draws[:20]]
        for p in draws:
            spec, ref = dressed_spectrum(p), diagonalize(build_hamiltonian(p))
            np.testing.assert_array_equal(spec.energies, ref.energies)
            np.testing.assert_array_equal(spec.states, ref.states)


class TestBatchedSpectrum:
    def test_matches_per_point(self):
        grid = np.concatenate([np.linspace(-1.0, 3.0, 201), [0.0, 1.0]])
        for p in random_params(20):
            batch = dressed_spectrum(p, grid)
            assert batch.energies.shape == (grid.size, 3)
            assert batch.states.shape == (grid.size, 3, 3)
            for i, d1 in enumerate(grid):
                spec = dressed_spectrum(p.with_delta1(float(d1)))
                np.testing.assert_allclose(
                    batch.energies[i], spec.energies, rtol=0.0,
                    atol=1e-14 * np.abs(spec.energies).max(),
                )
                np.testing.assert_array_equal(batch.states[i], spec.states)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="finite"):
            dressed_spectrum(RamanParams(0.2, 0.5, 1.0, 1.0), [0.9, bad, 1.1])

    def test_rejects_non_1d_grid(self):
        with pytest.raises(ValueError, match="1-D"):
            dressed_spectrum(RamanParams(0.2, 0.5, 1.0, 1.0), np.ones((2, 2)))

    @settings(max_examples=200, deadline=None, database=None)
    @given(
        omega1=st.floats(0.0, 2.0),
        omega2=st.floats(0.0, 2.0),
        delta2=st.floats(0.1, 10.0),
        grid=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=20),
    )
    def test_spectral_invariants(self, omega1, omega2, delta2, grid):
        p = RamanParams(omega1, omega2, 0.0, delta2)
        batch = dressed_spectrum(p, grid)
        for i, d1 in enumerate(grid):
            h = build_hamiltonian(p.with_delta1(d1))
            scale = np.linalg.norm(h)
            e, v = batch.energies[i], batch.states[i]
            assert abs(e.sum() - np.trace(h)) <= 1e-12 * scale
            np.testing.assert_allclose(v.T @ v, np.eye(3), rtol=0.0, atol=1e-12)
            assert np.linalg.norm(h @ v - v * e, axis=0).max() <= 1e-12 * scale


class TestGap32:
    def test_bare_crossing(self):
        assert gap32(RamanParams(0.0, 0.0, 1.0, 1.0)) == pytest.approx(0.0, abs=1e-15)

    def test_bare_gap(self):
        assert gap32(RamanParams(0.0, 0.0, 0.5, 1.0)) == pytest.approx(0.5, abs=1e-14)

    def test_positivity(self):
        for p in random_params(200):
            assert gap32(p) >= 0.0

    def test_avoided_not_actual(self):
        # with both couplings on, the gap never closes near delta1 ~ delta2
        for d1 in np.linspace(0.8, 1.2, 41):
            assert gap32(RamanParams(0.2, 0.5, float(d1), 1.0)) > 1e-3

    def test_matches_effective_minimum_at_weak_coupling(self):
        # the minimum over delta1 agrees with the 2-level closed form up to
        # elimination error O((Omega/delta2)^4)
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        grid = np.linspace(0.95, 1.15, 2001)
        gaps = [gap32(p.with_delta1(float(d))) for d in grid]
        full_min = min(gaps)
        eff_min = p.omega1 * p.omega2 / (2.0 * dynamical_exact_effective(p))
        assert abs(full_min - eff_min) < (0.5) ** 4


SLOPE_COUPLINGS = [(0.2, 0.5), (0.01, 0.03), (0.5, 0.05), (0.002, 0.003)]


def crossing_points(p):
    """(delta1, width): delta1 values across the delta1 ~ delta2 crossing,
    from the bracket ends in to a fraction of its width."""
    centre = dynamical_exact_effective(p)
    width = p.omega1 * p.omega2 / (2.0 * p.delta2)
    offsets = (-3.0, -0.3, 0.5, 4.0)
    return [0.6 * p.delta2, *(centre + k * width for k in offsets), 1.4 * p.delta2], width


class TestGap32Slope:
    @pytest.mark.parametrize("omegas", SLOPE_COUPLINGS, ids=str)
    def test_equals_central_difference(self, omegas):
        # gap32 times the central difference of gap32, at a step of 1e-4 widths
        p = RamanParams(*omegas, 1.0, 1.0)
        points, width = crossing_points(p)
        h = 1e-4 * width
        for d1 in points:
            q = p.with_delta1(d1)
            diff = (gap32(q.with_delta1(d1 + h)) - gap32(q.with_delta1(d1 - h))) / (2.0 * h)
            slope = gap32_slope(*_scalar_spectrum(q, 0)[3](d1))
            assert slope == pytest.approx(gap32(q) * diff, rel=1e-5)

    def test_eigenvector_signs_are_free(self):
        # the eigenvector form g (v_{0,3}^2 - v_{0,2}^2) of g dg/d delta1, on
        # eigh's vectors with random signs, matches the eigenvalue-only slope
        # to 8 g eps max(1, |x|) / min(h, g) (the worst draw reaches 2.9)
        eps = np.finfo(float).eps
        rng = np.random.default_rng(32)
        for _ in range(50):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2))
            p = RamanParams(float(omega1), float(omega2), float(rng.uniform(0.5, 1.5)), 1.0)
            e, v = np.linalg.eigh(build_hamiltonian(p))
            v = v * rng.choice([-1.0, 1.0], size=3)
            h, g = e[1] - e[0], e[2] - e[1]
            bound = 8.0 * g * eps * max(1.0, abs(p.delta1)) / min(h, g)
            slope = gap32_slope(*_scalar_spectrum(p, 0)[3](p.delta1))
            assert abs(g * (v[0, 2] ** 2 - v[0, 1] ** 2) - slope) <= bound

    def test_eigh_along_delta1_matches_fresh_matrix(self, monkeypatch):
        # _scalar_spectrum refills one matrix in place along delta1; each call
        # gives the levels of a fresh _scalar_spectrum at the same x, in any
        # call order, and the adjugate entries (e + x)(e - (d2 - x)) - b^2 of
        # its levels. A row that takes eigvalsh (here the weak drive at the
        # crossing) gives the eigvalsh of a fresh matrix scaled into the frame.
        eigvalsh, fallbacks = np.linalg.eigvalsh, []

        def counted(m):
            fallbacks.append(m.copy())
            return eigvalsh(m)

        p = RamanParams(0.2, 0.5, 1.0, 1.3)
        k = _frame(p, 1.9)  # 1.9 = 0.95 * 2^1
        assert (k, *_scalar_spectrum(p, k)[:3]) == (1, 0.05, 0.125, 0.65)
        rows = {True: 0, False: 0}
        for q in (p, RamanParams(1e-9, 2e-9, 1.0, 1.3)):
            a, b, d2, levels = _scalar_spectrum(q, k)
            for d1 in (1.3, 0.7, 1.9, 1.3, -0.4, 0.65, 1.3):
                x = math.ldexp(d1, -k)
                fallbacks.clear()
                monkeypatch.setattr(np.linalg, "eigvalsh", counted)
                energies, n = levels(x)
                monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
                assert (energies, n) == _scalar_spectrum(q, k)[3](x)
                assert n == [(e + x) * (e - (d2 - x)) - b * b for e in energies]
                fresh = np.ldexp(build_hamiltonian(q.with_delta1(d1)), -k)
                if fallbacks:
                    np.testing.assert_array_equal(fallbacks, [fresh])
                    assert energies == eigvalsh(fresh).tolist()
                rows[bool(fallbacks)] += 1
        assert rows[True] and rows[False], rows


class TestAvoidedCrossingScan:
    def test_two_avoided_crossings(self):
        # symmetric strong drive: dressed curves repel at delta1 ~ 0 and ~ delta2
        p = RamanParams(0.5, 0.5, 1.0, 1.0)
        grid = np.linspace(-0.5, 2.0, 501)
        energies = np.array([dressed_spectrum(p.with_delta1(float(d))).energies for d in grid])
        gap21 = energies[:, 1] - energies[:, 0]
        gap32_col = energies[:, 2] - energies[:, 1]
        assert np.min(gap32_col) > 0.1  # avoided near delta1 = delta2
        assert np.min(gap21) > 0.1  # avoided near delta1 = 0
        # gap minima sit near the two bare crossings
        assert abs(grid[np.argmin(gap32_col)] - 1.0) < 0.2
        assert abs(grid[np.argmin(gap21)] - 0.0) < 0.2

    def test_continuity(self):
        p = RamanParams(0.3, 0.4, 1.0, 1.0)
        grid = np.linspace(0.5, 1.5, 1001)
        energies = np.array([dressed_spectrum(p.with_delta1(float(d))).energies for d in grid])
        jumps = np.abs(np.diff(energies, axis=0))
        # smooth curves: no sorting-induced jumps beyond a loose Lipschitz bound
        assert np.max(jumps) < 5.0 * (grid[1] - grid[0])


def assert_no_farther_than_eigvalsh(e, framed, eigvalsh):
    """Levels e of the framed matrix are no farther from its 50-digit
    mpmath.eigsy levels than eigvalsh's, to one ulp of the larger of the
    frame scale (2^-53 in frame units) and the largest level."""
    ref = levels(framed.tolist()).e
    with mpmath.workdps(50):
        err = max(abs(float(x - r)) for x, r in zip(e, ref))
        lapack_err = max(abs(float(x - r)) for x, r in zip(eigvalsh(framed), ref))
    assert err <= lapack_err + math.ulp(max(0.5, *map(abs, e))), (framed, err, lapack_err)


class TestSeededLevels:
    """The trigonometric seed and its Newton polish against 50 digits."""

    def test_against_50_digit_reference(self, monkeypatch):
        # couplings log-uniform on 1e-12..100 delta2, delta1 in turn within
        # omega1 omega2 of the crossing, across [0.5, 1.5] and across -3..3
        # delta2. _point_spectrum's levels are never farther from 50 digits
        # than eigvalsh's by more than one ulp, and both the seeded and the
        # eigvalsh rows occur.
        eigvalsh, fallbacks = np.linalg.eigvalsh, []

        def counted(m):
            fallbacks.append(m)
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rng = np.random.default_rng(38)
        seeded, draws = 0, 300
        for i in range(draws):
            o1, o2 = 10.0 ** rng.uniform(-12.0, 2.0, 2)
            d1 = (1.0 + rng.uniform(-1.0, 1.0) * o1 * o2, rng.uniform(0.5, 1.5),
                  rng.uniform(-3.0, 3.0))[i % 3]
            p = RamanParams(float(o1), float(o2), float(d1), 1.0)
            fallbacks.clear()
            k, _, _, e = _point_spectrum(p)
            seeded += not fallbacks
            assert_no_farther_than_eigvalsh(e, np.ldexp(build_hamiltonian(p), -k), eigvalsh)
        assert 0 < seeded < draws, seeded

    def test_gaps_against_50_digit_reference(self):
        # near the crossing, couplings log-uniform on 10^-4.5..1 delta2: both
        # level gaps are within 1e-13 relative of 50 digits, or no farther
        # than eigvalsh's. The second Newton step is what holds this where a
        # gap is small: after one, the seed's error of about eps / gap leaves
        # gaps off by up to 5e-11 here
        rng = np.random.default_rng(3838)
        for _ in range(200):
            o1, o2 = 10.0 ** rng.uniform(-4.5, 0.0, 2)
            d1 = 1.0 + rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-8.0, -0.3)
            p = RamanParams(float(o1), float(o2), float(d1), 1.0)
            k, _, _, e = _point_spectrum(p)
            framed = np.ldexp(build_hamiltonian(p), -k)
            gaps = levels(framed.tolist()).gaps
            with mpmath.workdps(50):
                err = max(abs(float((g - r) / r)) for g, r in zip(np.diff(e), gaps))
                lapack_err = max(abs(float((g - r) / r))
                                 for g, r in zip(np.diff(np.linalg.eigvalsh(framed)), gaps))
            assert err <= max(1e-13, lapack_err), (p, err, lapack_err)


def loop_character(weights, ambig_tol=1e-9):
    """Per-point, per-level reference rule for the dominant bare state, from
    (point, bare, level) squared overlaps."""
    n_points, _, n_levels = weights.shape
    labels = np.empty((n_points, n_levels), dtype=int)
    ambiguous = np.zeros((n_points, n_levels), dtype=bool)
    for i, w in enumerate(weights):
        for k in range(n_levels):
            order = np.argsort(w[:, k])
            labels[i, k] = int(order[-1])
            ambiguous[i, k] = bool(w[order[-1], k] - w[order[-2], k] <= ambig_tol)
    return labels, ambiguous


class TestOverlapWeights:
    @pytest.mark.parametrize("lo", [1e-6, 1e-12])
    def test_against_50_digit_reference(self, lo):
        # couplings log-uniform on [lo, 0.6] delta2, delta1 alternately within
        # max(omega)^2 of delta2 and across [0.5, 1.5] delta2. The weights are
        # never less exact than eigh's states ** 2 by more than one ulp of 1
        # (measured: half an ulp; the direct n0 and n2 alone lose up to 18
        # ulp), and within 1e-14 (measured: 4.8e-15 at worst over 1800
        # draws); eigh's are off by up to 1.7e-6 at lo = 1e-6 and by 1.0 at
        # lo = 1e-12.
        rng = np.random.default_rng(32)
        for i in range(300):
            o1, o2 = 10.0 ** rng.uniform(math.log10(lo), math.log10(0.6), 2)
            near = 1.0 + rng.uniform(-1.0, 1.0) * max(o1, o2) ** 2
            d1 = near if i % 2 else rng.uniform(0.5, 1.5)
            p = RamanParams(float(o1), float(o2), float(d1), 1.0)
            ref = np.array(spectrum(*astuple(p)).weights, dtype=float)
            err = np.abs(_overlap_weights(p, np.array([p.delta1]))[0] - ref).max()
            eigh_err = np.abs(dressed_spectrum(p).states ** 2 - ref).max()
            assert err <= eigh_err + 2.0**-52, (p, err, eigh_err)
            assert err <= 1e-14, (p, err)

    def test_generic_rows_read_no_eigenvectors(self, monkeypatch):
        def refuse(matrices):
            raise AssertionError("eigh called on a generic row")

        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        grid = np.linspace(0.5, 1.5, 801)
        ref = dressed_spectrum(p, grid).states ** 2
        monkeypatch.setattr(hamiltonian, "_signed_eigh", refuse)
        np.testing.assert_allclose(_overlap_weights(p, grid), ref, rtol=0.0, atol=1e-14)

    def test_degenerate_rows_take_eigh(self):
        # lasers off at delta1 = 0 and delta1 = delta2: two equal energies,
        # a non-finite Newton step, so eigh's unit vectors; exact in between
        p = RamanParams(0.0, 0.0, 1.0, 1.0)
        grid = np.array([0.0, 0.5, 1.0, 2.0])
        np.testing.assert_array_equal(_overlap_weights(p, grid), dressed_spectrum(p, grid).states ** 2)

    @pytest.mark.parametrize("tol", [0.0, 0.5, 1.0, 2.0])
    def test_picker_matches_argsort_on_ties(self, monkeypatch, tol):
        # integer weights 0..2 (and some -0.0) tie in most columns; _dominant
        # reads the module's _AMBIG_TOL at call time
        rng = np.random.default_rng(41)
        weights = rng.integers(0, 3, size=(4000, 3, 3)).astype(float)
        weights[(weights == 0.0) & (rng.random(weights.shape) < 0.5)] = -0.0
        monkeypatch.setattr(hamiltonian, "_AMBIG_TOL", tol)
        labels, ambiguous = _dominant(weights)
        ref_labels, ref_ambiguous = loop_character(weights, tol)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(ambiguous, ref_ambiguous)

    def test_labels_scale_free(self):
        scans = []
        for scale in (1e-160, 1.0, 1e160):
            p = RamanParams(0.2 * scale, 0.5 * scale, scale, scale)
            scans.append(track_character(p, np.linspace(0.5, 1.5, 801) * scale))
        for scan in (scans[0], scans[2]):
            np.testing.assert_array_equal(scan.labels, scans[1].labels)
            np.testing.assert_array_equal(scan.ambiguous, scans[1].ambiguous)
        assert len(np.unique(scans[1].labels[:, 1])) > 1


def loop_swap_point(scan, level):
    """The first grid step whose two labels are {0, 2}, found step by step."""
    lab = scan.labels[:, level]
    for i in range(len(lab) - 1):
        if {lab[i], lab[i + 1]} == {0, 2}:
            return float(0.5 * (scan.delta1_grid[i] + scan.delta1_grid[i + 1]))
    return None


def swap_or_none(scan, level):
    try:
        return character_swap_point(scan, level)
    except ValueError as err:
        assert str(err) == "no |1>/|3> character swap found on the scan"
        return None


class TestTrackCharacter:
    @pytest.mark.parametrize(
        "p, grid",
        [
            (RamanParams(0.2, 0.5, 1.0, 1.0), np.linspace(0.5, 1.5, 801)),
            (RamanParams(0.6, 0.05, 1.0, 1.0), np.linspace(2.0, -1.0, 301)),
            (RamanParams(0.0, 0.0, 1.0, 1.0), np.linspace(0.0, 2.0, 21)),
            (RamanParams(0.3, 0.0, 1.0, 1.0), np.linspace(0.0, 2.0, 41)),
        ],
    )
    def test_matches_per_point_rule(self, p, grid):
        scan = track_character(p, grid)
        states = np.array([dressed_spectrum(p.with_delta1(float(d))).states for d in grid])
        labels, ambiguous = loop_character(states**2)
        np.testing.assert_array_equal(scan.labels, labels)
        np.testing.assert_array_equal(scan.ambiguous, ambiguous)

    def test_exact_ties_follow_argsort(self):
        # columns with exactly equal top weights, and near-ties within tolerance
        third = 1.0 / 3.0
        columns = [
            [0.5, 0.0, 0.5],
            [0.5, 0.5, 0.0],
            [0.0, 0.5, 0.5],
            [third, third, third],
            [1.0, 0.0, 0.0],
            [0.5 + 1e-10, 0.0, 0.5 - 1e-10],
            [0.5 + 1e-8, 0.5 - 1e-8, 0.0],
        ]
        weights = np.array(columns).T[None]
        labels, ambiguous = _dominant(weights)
        ref_labels, ref_ambiguous = loop_character(weights)
        np.testing.assert_array_equal(labels, ref_labels)
        np.testing.assert_array_equal(ambiguous, ref_ambiguous)
        assert ambiguous.any() and not ambiguous.all()

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_grid(self, bad):
        with pytest.raises(ValueError, match="finite"):
            track_character(RamanParams(0.2, 0.5, 1.0, 1.0), [0.9, 1.0, bad])

    def test_asymptotic_characters(self):
        p = RamanParams(0.1, 0.1, 1.0, 1.0)
        grid = np.linspace(0.5, 1.5, 101)
        scan = track_character(p, grid)
        # middle level: |1>-dominated far below the crossing, |3>-dominated above
        assert scan.labels[0, 1] == 0
        assert scan.labels[-1, 1] == 2

    def test_swap_point_matches_closed_form(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        grid = np.linspace(0.9, 1.2, 601)
        swap = character_swap_point(track_character(p, grid), level=1)
        assert swap == pytest.approx(dynamical_exact_effective(p), abs=2.0 * (grid[1] - grid[0]))

    def test_equal_weights_at_effective_crossing(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        spec = dressed_spectrum(p.with_delta1(dynamical_exact_effective(p)))
        w = spec.states**2
        # the two crossing branches carry equal |1> and |3> weight up to
        # elimination error
        assert w[0, 1] == pytest.approx(w[2, 1], abs=0.06)
        assert w[0, 2] == pytest.approx(w[2, 2], abs=0.06)

    def test_monotone_grid_required(self):
        p = RamanParams(0.2, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            track_character(p, np.array([1.0, 0.9, 1.1]))
        with pytest.raises(ValueError, match="at least 2 points"):
            track_character(p, [1.0])

    @pytest.mark.parametrize("level", [-1, 3, 5, True, 1.0, False])
    def test_swap_point_rejects_bad_level(self, level):
        # -1 would silently read level 2; 5, True and 1.0 would be numpy's
        # IndexError, and False would index as a mask: a level is an integer
        scan = track_character(RamanParams(0.2, 0.5, 1.0, 1.0), np.linspace(0.9, 1.2, 3))
        with pytest.raises(ValueError, match=f"level must be 0, 1 or 2, got {level}"):
            character_swap_point(scan, level=level)

    def test_swap_point_matches_step_loop(self):
        rng = np.random.default_rng(31)
        for _ in range(3000):
            n = int(rng.integers(1, 9))
            labels = rng.integers(0, 3, size=(n, 3))
            grid = np.cumsum(rng.uniform(0.1, 1.0, n)) * rng.choice([-1.0, 1.0])
            scan = CharacterScan(grid, labels, np.zeros((n, 3), dtype=bool))
            for level in (0, 1, 2):
                assert swap_or_none(scan, level) == loop_swap_point(scan, level)

    @pytest.mark.parametrize(
        "column, expected",
        [
            ([0, 1, 1, 2], None),  # |1> to |3> through |2> is not a swap
            ([2, 2, 2], None),
            ([1], None),  # a 1-row scan has no step
            ([2, 0, 0, 1], 0.5),  # at the first step
            ([1, 1, 0, 2], 2.5),  # at the last step
            ([0, 2, 0, 2], 0.5),  # the first of several
        ],
    )
    def test_swap_point_edge_cases(self, column, expected):
        n = len(column)
        labels = np.tile(np.array(column)[:, None], (1, 3))
        scan = CharacterScan(np.arange(n, dtype=float), labels, np.zeros((n, 3), dtype=bool))
        assert swap_or_none(scan, 1) == loop_swap_point(scan, 1) == expected

    def test_swap_point_on_scans_matches_step_loop(self):
        rng = np.random.default_rng(37)
        for _ in range(300):
            p = RamanParams(*rng.uniform(0.0, 0.6, 2), 1.0, 1.0)
            half = float(rng.uniform(0.01, 0.6))
            grid = np.linspace(1.0 - half, 1.0 + half, int(rng.integers(2, 200)))
            scan = track_character(p, grid[::-1] if rng.random() < 0.3 else grid)
            for level in (0, 1, 2):
                assert swap_or_none(scan, level) == loop_swap_point(scan, level)

    def test_no_swap_raises(self):
        p = RamanParams(0.1, 0.1, 1.0, 1.0)
        scan = track_character(p, np.linspace(0.5, 0.6, 11))
        with pytest.raises(ValueError):
            character_swap_point(scan, level=1)
