"""Tests for the resonance loci and the dynamical shift."""

import ast
import dataclasses
import inspect
import math
import re
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lambda_crossing
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
    feasibility_check,
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
from lambda_crossing import _minimize, dynamics, hamiltonian, probe, resolvent, resonance
from lambda_crossing._minimize import (
    minimize_scalar,
    parabolic_vertex,
    slope_root,
)
from lambda_crossing.resonance import gap32_slope, transfer_supremum_slope

from _reference import spectrum

RNG = np.random.default_rng(1234)
EPS = 2.0**-52
# An absolute locus bound, in units of delta2, where the reference is not
# exact to the last bits (a series, a value search, a rescaled run).
LOCUS_TOL = 1e-13


def slope_at(slope, params, d1):
    """A resonance slope kernel at delta1 = d1, on the scalar spectrum (the
    levels and adjugate entries) in the frame of delta2, as the locus searches
    read it."""
    k = hamiltonian._frame(params, params.delta2)
    return slope(*hamiltonian._scalar_spectrum(params, k)[3](math.ldexp(d1, -k)))


# One drive at delta2 != 1, scaled from (0.2, 0.5): there the loci, gap32 and
# transfer_supremum share one spectrum as they do at delta2 = 1.
SCALED_D2 = math.exp(0.7)
SCALED = (0.2 * SCALED_D2, 0.5 * SCALED_D2, SCALED_D2)


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
        # a step of 1e-9 delta2 moves gap32 by about 1e-18 delta2, below one
        # ulp, so the value certificate steps 10 CERTIFICATE_TOL delta2; the
        # locus is held to the 50-digit one and its slope must change sign
        # across +-1e-9 delta2 (about -+9.8e-10 at (0.2, 0.5))
        for o1, o2, d2 in [(0.2, 0.5, 1.0), (0.4, 0.4, 1.0), SCALED]:
            p = RamanParams(o1, o2, d2, d2)
            star = structural_exact(p)
            g0 = gap32(p.with_delta1(star))
            eps = 10.0 * CERTIFICATE_TOL * d2
            assert gap32(p.with_delta1(star + eps)) >= g0
            assert gap32(p.with_delta1(star - eps)) >= g0
            assert abs(star - mp_locus(p, "structural", star)) <= 1e-10 * d2
            eps = 1e-9 * d2
            assert slope_at(gap32_slope, p, star - eps) < 0.0 < slope_at(gap32_slope, p, star + eps)

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
    @pytest.mark.parametrize(
        "kind, drive, reason",
        [
            pytest.param(kind, drive, reason, id=f"{name}-{kind}")
            for name, drive, reason in [
                ("no-coupling", (0.0, 0.3, 1.0, 1.0), "resonance requires omega1 * omega2 > 0"),
                ("low-edge", (2.0, 0.1, 1.0, 1.0),
                 "locus 0.5 is at the edge of the search bracket [0.5, 1.5] delta2"),
                ("high-edge", (0.1, 2.0, 1.0, 1.0),
                 "locus 1.5 is at the edge of the search bracket [0.5, 1.5] delta2"),
                # 1.5 delta2 overflows; the bracket is quoted in units of delta2
                ("huge-edge", (1.775e308, 6.25e306, 1.0, 1.25e308),
                 "locus 6.25e+307 is at the edge of the search bracket [0.5, 1.5] delta2"),
            ]
            # the resolvent searches delta1 unscaled, and its 1.5 delta2 overflows there
            for kind in FINDERS if not (name == "huge-edge" and "resolvent" in kind)
        ],
    )
    def test_bracket_failure_names_kind(self, kind, drive, reason):
        with pytest.raises(BracketError) as err:
            FINDERS[kind](RamanParams(*drive))
        assert str(err.value).startswith(f"{kind} {reason}")

    @pytest.mark.parametrize(
        "finder, omega, kind",
        [
            (resonance_report, 1e200, "structural"),
            (dynamical_exact_full, 1e15, "dynamical"),
            (dynamical_exact_full, 1e12, "dynamical"),
            (resolvent_structural_resonance, 1e12, "structural (resolvent)"),
            (resolvent_structural_resonance, 1e200, "structural (resolvent)"),
        ],
        ids=["omega-1e200", "dynamical-1e15", "dynamical-1e12", "resolvent-1e12",
             "resolvent-1e200"],
    )
    def test_extreme_scale_is_bracket_error(self, finder, omega, kind):
        # from 4.5e11 delta2 one rounding of a coupling reaches the edge
        # margin: the searches would return noise (dynamical 0.99994 at 1e12,
        # 1.0625 at 1e15, against exactly delta2) or fail in the iteration
        with pytest.raises(BracketError) as err:
            finder(RamanParams(omega, omega, 1.0, 1.0))
        assert str(err.value) == (
            f"{kind} resonance requires max(omega1, omega2) < 4.5e+11 delta2, "
            f"got omega1 = {omega:g}, omega2 = {omega:g}, delta2 = 1"
        )

    @pytest.mark.parametrize("finder", [structural_exact, dynamical_exact_full],
                             ids=lambda f: f.__name__)
    def test_vanishing_couplings_give_delta2(self, finder):
        # at Omega / delta2 = 1e-300 the levels cross at delta2 itself
        p = RamanParams(1.0, 1.0, 1e300, 1e300)
        assert abs(finder(p) - p.delta2) <= LOCUS_TOL * p.delta2

    @pytest.mark.parametrize("kind", FINDERS)
    def test_underflowing_coupling_product_gives_delta2(self, kind):
        # omega1 * omega2 = 1e-340 underflows to 0, yet both couplings are positive
        p = RamanParams(1e-170, 1e-170, 1.0, 1.0)
        assert abs(FINDERS[kind](p) - 1.0) <= LOCUS_TOL

    @pytest.mark.parametrize("slope", [gap32_slope, transfer_supremum_slope],
                             ids=lambda f: f.__name__)
    @pytest.mark.parametrize("omega", [resonance._COUPLING_LIMIT, 1e-300],
                             ids=["clamp", "1e-300"])
    def test_slopes_finite_at_extreme_couplings(self, slope, omega):
        # no NaN reaches slope_root: at the coupling limit the cofactors,
        # about a^2 = 5e22, stay far inside the float range, at 1e-300 b^2
        # underflows to 0
        p = RamanParams(omega, omega, 1.0, 1.0)
        values = [slope_at(slope, p, float(d1)) for d1 in np.linspace(0.5, 1.5, 201)]
        assert all(math.isfinite(v) for v in values)

    @pytest.mark.parametrize(
        "delta2, omegas",
        [
            *[pytest.param(d2, (0.2, 0.5), id=f"{d2:g}")
              for d2 in (1e-159, 1e-110, 1e80, 1e150, 1e160, 1e300, 2.0**-1000, 2.0**1000)],
            # 2 delta2 and 1.5 delta2 overflow here: alpha, beta and the bracket must not
            pytest.param(1.7e308, (0.2, 0.5), id="1.7e308"),
            # Omega1 Omega2 underflows to 0 here: each coupling, not the product, is tested
            pytest.param(1e-159, (1e-3, 1e-3), id="1e-159-omega-1e-3"),
        ],
    )
    def test_report_is_scale_free(self, delta2, omegas):
        # in units of delta2 the report is that of delta2 = 1: the slopes are
        # read in the power-of-two frame of delta2, the closed forms in (alpha, beta)
        w1, w2 = omegas
        want = resonance_report(RamanParams(w1, w2, 1.0, 1.0))
        got = resonance_report(RamanParams(w1 * delta2, w2 * delta2, delta2, delta2))
        for field in dataclasses.fields(want):
            scaled, one = getattr(got, field.name) / delta2, getattr(want, field.name)
            bound = {"structural_exact": LOCUS_TOL, "dynamical_exact_full": LOCUS_TOL,
                     "shift_exact": 2.0 * LOCUS_TOL}.get(field.name, 64.0 * math.ulp(one))
            assert abs(scaled - one) <= bound, field.name

    @pytest.mark.parametrize("n", [-1000, -61, 61, 1000])
    @pytest.mark.parametrize("omegas", [(0.2, 0.5), (1e-3, 2e-3)], ids=str)
    def test_loci_are_power_of_two_exact(self, omegas, n):
        # delta2 = 2^n scales the drive into the very frame matrices of
        # delta2 = 1, so both loci are 2^n times those, bit for bit
        w1, w2 = omegas
        one = RamanParams(w1, w2, 1.0, 1.0)
        p = RamanParams(*(math.ldexp(v, n) for v in (w1, w2, 1.0, 1.0)))
        for finder in (structural_exact, dynamical_exact_full):
            assert finder(p) == math.ldexp(finder(one), n)

    def test_loci_where_the_bracket_overflows(self):
        # 1.5 delta2 is past the float range; in the frame it is not, and the
        # loci are within 4 ulp of 1.7e308 times those of delta2 = 1
        p = RamanParams(1.7e307, 3.4e307, 1.7e308, 1.7e308)
        for finder in (structural_exact, dynamical_exact_full):
            want = 1.7e308 * finder(RamanParams(0.1, 0.2, 1.0, 1.0))
            assert abs(finder(p) - want) <= 4.0 * math.ulp(want)

    def test_lower_end_slope_read_inside_the_margin(self):
        # omega1 is negligible, so the dynamical slope at delta1 = delta2 / 2
        # is 0 to rounding and its float sign is noise; the locus is still
        # the crossing of the bare level 0 with the upper level of the
        # |2>, |3> pair, delta2 (1 + sqrt(1 + (omega2 / delta2)^2)) / 2
        p = RamanParams(1.365305488257074e-167, 5.631920176720776e-74,
                        3.84319782554474e-74, 3.84319782554474e-74)
        r = p.omega2 / p.delta2
        want = 0.5 * p.delta2 * (1.0 + math.sqrt(1.0 + r * r))
        assert abs(dynamical_exact_full(p) - want) <= 4.0 * math.ulp(want)

    def test_loci_at_a_subnormal_delta2(self):
        # the seed window of delta2 = 1e-310 is floored at ulp(delta2), not
        # rounded to 0, so the search stays near the crossing, where the
        # dynamical slope's sign at the bracket's lower end is noise: both
        # loci are those of the same drive scaled by 2^1030, scaled back
        p = RamanParams(5e-324, 5e-324, 1.0, 1e-310)
        w, d2 = math.ldexp(5e-324, 1030), math.ldexp(1e-310, 1030)
        assert d2 == 1.1505236063118787
        scaled = RamanParams(w, w, d2, d2)
        for finder in (structural_exact, dynamical_exact_full):
            assert finder(p) == math.ldexp(finder(scaled), -1030) == 1e-310

    def test_locus_past_the_float_range_is_named(self):
        # the structural locus, 1.0075 delta2, exceeds the largest double
        p = RamanParams(1.7e307, 3.4e307, 1.79e308, 1.79e308)
        message = ("structural locus overflows at omega1 = 1.7e+307, omega2 = 3.4e+307, "
                   "delta1 = 1.79e+308, delta2 = 1.79e+308")
        with pytest.raises(ValueError) as err:
            structural_exact(p)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "closed_form, params",
        [
            (dynamical_approx, RamanParams(1e200, 1e200, 1.0, 1.0)),
            (dynamical_exact_effective, RamanParams(1e200, 1e200, 1.0, 1.0)),
            (shift_approx, RamanParams(1e150, 1e150, 1e6, 1e6)),
            (lambda p: feasibility_check(p, 1.0, 1.0), RamanParams(1e150, 1e150, 1e6, 1e6)),
        ],
        ids=["dynamical_approx", "dynamical_exact_effective", "shift_approx", "feasibility"],
    )
    def test_closed_form_overflow_names_drive(self, closed_form, params):
        # raised, not returned as inf or NaN, which feasibility_check divides by
        message = (f"closed form overflows at omega1 = {params.omega1:g}, "
                   f"omega2 = {params.omega2:g}, delta2 = {params.delta2:g}")
        with pytest.raises(ValueError) as err:
            closed_form(params)
        assert str(err.value) == message

    def test_no_pow_in_resonance(self):
        # every seed and closed form is a product in _couplings' (alpha, beta);
        # ** on Omega or delta2 overflows where the physics is scale-free
        tree = ast.parse(Path(resonance.__file__).read_text(encoding="utf-8"))
        pows = [
            node.lineno for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
        ]
        assert pows == []

    def test_loci_read_eigenvalues_only(self):
        # every eigensolve of the package is in hamiltonian: the loci, gap32
        # and the transfer read its one scalar spectrum, and resonance names
        # no eigenvector path
        solvers = {"eigh", "eigvalsh", "eig", "eigvals"}
        users = set()
        for path in Path(lambda_crossing.__file__).parent.glob("*.py"):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if {getattr(node, key, None) for key in ("id", "attr", "name")} & solvers:
                    users.add(path.name)
        assert users == {"hamiltonian.py"}
        tree = ast.parse(Path(resonance.__file__).read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert not names & {"eigh", "dressed_spectrum", "diagonalize"}

    def test_high_precision_spectra_come_from_one_module(self):
        # every mpmath.eigsy of the tests and tools is tests/_reference.py's,
        # which imports nothing from the library it judges
        root = Path(__file__).resolve().parents[1]
        users = set()
        for path in [*root.glob("tests/**/*.py"), *root.glob("tools/**/*.py")]:
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if any("eigsy" in {getattr(node, key, None) for key in ("id", "attr", "name")}
                   for node in ast.walk(tree)):
                users.add(path.relative_to(root).as_posix())
        assert users == {"tests/_reference.py"}
        tree = ast.parse((root / "tests" / "_reference.py").read_text(encoding="utf-8"))
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert imported == {"mpmath"}

    def test_transfer_reads_eigenvalues_only(self):
        # the 1 -> 3 transfer comes from one eigvalsh: in dynamics only evolve,
        # which returns the state, names dressed_spectrum or a complex literal,
        # and from _minimize it imports the discrete crest search alone, so
        # neither a parabolic guess nor Brent
        tree = ast.parse(Path(dynamics.__file__).read_text(encoding="utf-8"))
        owners = {
            stmt.name if isinstance(stmt, ast.FunctionDef) else None
            for stmt in tree.body for node in ast.walk(stmt)
            if "dressed_spectrum" in (getattr(node, "id", None), getattr(node, "attr", None))
            or isinstance(getattr(node, "value", None), complex)
        }
        assert owners == {"evolve"}
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        assert "parabolic_vertex" not in imported
        from_minimize = {alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.ImportFrom) and node.module == "_minimize"
                         for alias in node.names}
        assert from_minimize == {"modular_minimum"}
        assert "_minimize" not in imported

    def test_finders_take_no_tol(self):
        # every locus stops at slope_root's floor (the resolvent's at its own
        # constant); a tol left in a call raises, never becomes delta2
        finders = [structural_exact, dynamical_exact_full, dynamical_shift, resonance_report,
                   shift_scan, resolvent_structural_resonance]
        for finder in finders:
            assert "tol" not in inspect.signature(finder).parameters, finder.__name__
        delta2 = inspect.signature(shift_scan).parameters["delta2"]
        assert delta2.kind is inspect.Parameter.KEYWORD_ONLY
        with pytest.raises(TypeError):
            shift_scan(0.5, [1.0], 1e-13)


def test_no_exported_call_takes_a_numerical_knob():
    # every tolerance and iteration cap is a module constant: a public call
    # that takes one again fails here
    knobs = {"tol", "xtol", "max_iter"}
    swept = 0
    for name in dir(lambda_crossing):
        obj = getattr(lambda_crossing, name)
        if name.startswith("_") or not callable(obj):
            continue
        try:
            parameters = inspect.signature(obj).parameters
        except ValueError:  # the error classes: Exception's C signature
            continue
        assert not knobs & set(parameters), name
        swept += 1
    assert swept >= 50


def test_search_layer_takes_no_knob(monkeypatch):
    # below the public API too: the locus driver, both searches and the
    # character picker read every tolerance and cap from a module constant
    signatures = {
        resonance._locus: ["params", "what", "solve"],
        resonance._slope_locus: ["params", "slope", "what", "seed"],
        slope_root: ["g", "a", "b"],
        minimize_scalar: ["f", "a", "b", "xtol"],
        hamiltonian._dominant: ["weights"],
    }
    for func, names in signatures.items():
        parameters = inspect.signature(func).parameters
        assert list(parameters) == names, func.__name__
        assert all(q.default is inspect.Parameter.empty for q in parameters.values())
    # every cap at 1: each engine's ConvergenceError names its locus kind
    p = RamanParams(0.2, 0.5, 1.0, 1.0)
    monkeypatch.setattr(_minimize, "_ROOT_MAX_ITER", 1)
    monkeypatch.setattr(_minimize, "_BRENT_MAX_ITER", 1)
    engines = [
        (structural_exact, "structural locus: slope root not found to 4 ulp within 1 "),
        (dynamical_exact_full, "dynamical locus: slope root not found to 4 ulp within 1 "),
        (resolvent_structural_resonance,
         "structural (resolvent) locus: minimum not found to xtol = 1e-10 within 1 "),
    ]
    for finder, message in engines:
        with pytest.raises(ConvergenceError, match="^" + re.escape(message)):
            finder(p)
    monkeypatch.setattr(resolvent, "_MAX_ITER", 1)
    message = "structural (resolvent) locus: fixed-point iteration did not converge within 1 steps"
    with pytest.raises(ConvergenceError, match="^" + re.escape(message)):
        resolvent_structural_resonance(p)


def test_alkali_spec_holds_species_data_only():
    # mu_B / h is a physical constant (experiment.BOHR_MAGNETON_HZ_PER_G),
    # not a field a species could override
    names = [field.name for field in dataclasses.fields(lambda_crossing.AlkaliSpec)]
    assert names == ["hfs_splitting", "nuclear_spin", "g_j", "g_i", "gamma_excited"]


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
        # as test_argmin_certificate: transfer_supremum spreads 2.2e-15 within
        # 1e-9 delta2 of the locus, so its values are compared 5 CERTIFICATE_TOL
        # delta2 apart; 5e-10 delta2 away the slope reads about +-2.2e-11
        for o1, o2, d2 in [(0.2, 0.5, 1.0), SCALED]:
            p = RamanParams(o1, o2, d2, d2)
            star = dynamical_exact_full(p)
            a0 = transfer_supremum(p.with_delta1(star))
            eps = 5.0 * CERTIFICATE_TOL * d2
            assert a0 >= transfer_supremum(p.with_delta1(star + eps))
            assert a0 >= transfer_supremum(p.with_delta1(star - eps))
            assert abs(star - mp_locus(p, "dynamical", star)) <= 1e-10 * d2
            eps = 5e-10 * d2
            slopes = [slope_at(transfer_supremum_slope, p, star + s) for s in (-eps, eps)]
            assert slopes[0] < 0.0 < slopes[1]

    @pytest.mark.parametrize("omega1, omega2, delta2", [(2.5e-11, 2.4e-7, 4.76),
                                                        (2e-11, 1e-7, 0.08)])
    def test_full_at_ultra_weak_coupling(self, omega1, omega2, delta2):
        # the slope at the bracket's low end reads -0.0 or the wrong sign
        # here (the c_k are about 1e-38), which a full-bracket search took
        # for a locus at the edge; the supremum peaks at delta2 + (b2 - a2)/D
        p = RamanParams(omega1, omega2, delta2, delta2)
        series = delta2 + (omega2**2 - omega1**2) / (4.0 * delta2)
        assert abs(dynamical_exact_full(p) - series) <= LOCUS_TOL * delta2

    def test_full_symmetric_is_delta2(self):
        # symmetric couplings put the full-model transfer maximum at delta2;
        # the float slope's root is within 8 eps max(Omega, delta2) of it (5.1
        # at most over 3000 draws up to the coupling limit, delta2 in
        # [e^-0.7, e^0.7]), the rounding of the spectrum
        for om in (0.1, 0.3, 3.0, 1e3):
            p = RamanParams(om, om, 1.0, 1.0)
            assert abs(dynamical_exact_full(p) - 1.0) <= 8.0 * EPS * max(om, 1.0)

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
        rows = shift_scan(0.2, [0.25, 0.5, 1.0])
        for row in rows:
            assert row.shift_approx == pytest.approx(
                (row.ratio * 0.2) ** 2 * 0.2**2 / 4.0, rel=1e-14
            )
        assert rows[1].shift_approx / rows[0].shift_approx == pytest.approx(4.0)

    def test_grid_order_preserved(self):
        grid = [0.3, 0.7, 0.2, 1.1]
        rows = shift_scan(0.1, grid)
        assert [row.ratio for row in rows] == grid

    def test_deviation_grows_in_breakdown_regime(self):
        rows = shift_scan(0.5, [0.4, 1.0])
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
        # shift_scan takes no tol, and delta2 only by keyword: a third
        # positional argument raises instead of being read as delta2
        with pytest.raises(TypeError):
            shift_scan(0.5, [0.1, 1.0], tol)

    def test_underflowing_coupling_product_is_a_row(self):
        # omega1 * omega2 underflows to 0 at every ratio: the shift is 0, not an error
        rows = shift_scan(1e-170, [1e-10, 1.0])
        assert [(r.ratio, r.shift_exact, r.shift_approx) for r in rows] == [
            (1e-10, 0.0, 0.0), (1.0, 0.0, 0.0)]

    def test_failing_ratio_raises(self):
        # omega1 = 1e-10 * 1e-320 underflows to 0: no coupling, no locus, no row
        with pytest.raises(BracketError, match="structural resonance requires"):
            shift_scan(1e-320, [1.0, 1e-10])

    def test_rejects_bad_ratio(self):
        with pytest.raises(ValueError):
            shift_scan(0.2, [0.0])
        with pytest.raises(ValueError):
            shift_scan(0.2, [1.6])


def mp_locus(params, kind, guess):
    """50-digit reference locus of kind: the root, near guess, of the
    numerical delta1-derivative (mpmath.diff) of the reference spectrum's
    gap e3 - e2 ("structural") or transfer supremum ("dynamical"), each
    spectrum at mpmath.diff's working digits. It shares no formula with the
    library's slopes."""
    def value(d1):
        s = spectrum(params.omega1, params.omega2, d1, params.delta2, mpmath.mp.dps)
        return s.gaps[1] if kind == "structural" else s.supremum

    with mpmath.workdps(50):
        step = 1e-6 * params.omega1 * params.omega2
        root = mpmath.findroot(
            lambda d1: mpmath.diff(value, d1),
            (mpmath.mpf(guess) - step, mpmath.mpf(guess) + step),
            solver="secant",
            tol=mpmath.mpf(10) ** -40,
        )
        return float(root)


REFERENCE_GRID = [
    (float(o1), float(o2))
    for o1 in np.geomspace(0.002, 0.55, 3)
    for o2 in np.geomspace(0.003, 0.5, 3)
]


class TestExactLociReference:
    @pytest.mark.parametrize("omegas", REFERENCE_GRID, ids=lambda o: f"{o[0]:.3g}-{o[1]:.3g}")
    def test_both_loci_match_50_digits(self, omegas):
        p = RamanParams(*omegas, 1.0, 1.0)
        for kind in ("structural", "dynamical"):
            locus = FINDERS[kind](p)
            reference = mp_locus(p, kind, locus)
            assert abs(locus - reference) <= 2.0 * math.ulp(reference)

    def test_scaled_delta2(self):
        p = RamanParams(0.3, 0.9, 2.0, 2.0)
        for kind in ("structural", "dynamical"):
            locus = FINDERS[kind](p)
            reference = mp_locus(p, kind, locus)
            assert abs(locus - reference) <= 2.0 * math.ulp(reference)


class TestWeakCouplingShift:
    @pytest.mark.parametrize("omegas", [(0.002, 0.003), (0.001, 0.01), (0.01, 0.002)],
                             ids=lambda o: f"{o[0]:g}-{o[1]:g}")
    def test_default_tol_resolves_the_shift(self, omegas):
        # the shift is about omega1^2 omega2^2 / (8 delta2^3), 5e-12 to
        # 5e-11 here, so the loci must be resolved far below it
        p = RamanParams(*omegas, 1.0, 1.0)
        reference = mp_locus(p, "structural", structural_exact(p)) - mp_locus(
            p, "dynamical", dynamical_exact_full(p)
        )
        assert dynamical_shift(p)[0] == pytest.approx(reference, rel=1e-2)
        assert resonance_report(p).shift_exact == pytest.approx(reference, rel=1e-2)


class TestSixthOrderSeries:
    def test_series_match_50_digits(self):
        # the loci and the shift through sixth order in the couplings; the
        # remainder is eighth order, within 10 (a2 + b2)^4 / D^7 (a scale far
        # above float rounding for couplings of at least 0.02 delta2)
        rng = np.random.default_rng(2024)
        for _ in range(12):
            D = float(np.exp(rng.uniform(-0.7, 0.7)))
            omega1, omega2 = (np.exp(rng.uniform(math.log(0.02), math.log(0.12), 2)) * D).tolist()
            p = RamanParams(omega1, omega2, D, D)
            a2, b2 = omega1**2 / 4, omega2**2 / 4
            structural = (
                D + (b2 - a2) / D + b2 * (3 * a2 - b2) / D**3
                + b2 * (-3 * a2**2 - 11 * a2 * b2 + 2 * b2**2) / D**5
            )
            dynamical = (
                dynamical_approx(p) + a2 * (a2 - b2) / D**3
                + (b2 * (3 * a2**2 - a2 * b2 + 2 * b2**2) - 4 * (a2 * b2) ** 1.5) / D**5
            )
            shift = (
                omega1**2 * omega2**2 / (8 * D**3) + abs(omega1 * omega2) ** 3 / (16 * D**5)
                - omega1**2 * omega2**2 * (3 * omega1**2 + 5 * omega2**2) / (32 * D**5)
            )
            s_ref = mp_locus(p, "structural", structural_exact(p))
            d_ref = mp_locus(p, "dynamical", dynamical_exact_full(p))
            bound = 10 * (a2 + b2) ** 4 / D**7
            assert abs(structural - s_ref) <= bound
            assert abs(dynamical - d_ref) <= bound
            assert abs(shift - (s_ref - d_ref)) <= bound


def quartic_structural_locus(params):
    """50-digit structural locus from its polynomial: the real root nearest
    (b2 - a2)/D of the quartic in x = delta1 - delta2, with a2 = omega1^2/4,
    b2 = omega2^2/4 and D = delta2. Returns (delta1, v0^2(E3) - v0^2(E2)), the
    residual of the structural condition in a 50-digit mpmath.eigsy spectrum.

    The squared factor of the resultant that eliminates E and E' from
    det(E - H) = det(E' - H) = 0 and (v0^2(E) - v0^2(E'))/(E - E') = 0; the
    eigenvector of E is proportional to (a/E, 1, b/(E - c)), c = -x. sympy
    regenerates it in about 3 s:

        E, F, x, a2, b2, D = sympy.symbols("E F x a2 b2 D")
        P = lambda e: sympy.expand(e * (e + D + x) * (e + x) - a2 * (e + x) - b2 * e)
        N = lambda e: a2 * (e + x)**2 + e**2 * (e + x)**2 + b2 * e**2
        cond = sympy.cancel(sympy.expand((E + x)**2 * N(F) - (F + x)**2 * N(E)) / (E - F))
        sympy.factor(sympy.resultant(sympy.resultant(cond, P(F), F), P(E), E))
    """
    with mpmath.workdps(50):
        a2, b2 = mpmath.mpf(params.omega1) ** 2 / 4, mpmath.mpf(params.omega2) ** 2 / 4
        D = mpmath.mpf(params.delta2)
        coeffs = [
            D * (D**2 + 4 * b2),
            D**4 + 3 * D**2 * a2 + 4 * a2 * b2 - 16 * b2**2,
            3 * D * (D**2 * a2 - 2 * D**2 * b2 + a2**2 - 8 * b2**2),
            -(D**4) * b2 + 3 * D**2 * a2**2 - 9 * D**2 * a2 * b2 + a2**3 - 12 * a2 * b2**2
            + 16 * b2**3,
            D * (-(D**2) * a2 * b2 + D**2 * b2**2 + a2**3 - 3 * a2**2 * b2 + 4 * b2**3),
        ]
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=200)
        real = [mpmath.re(r) for r in roots if abs(mpmath.im(r)) < mpmath.mpf(10) ** -30]
        d1 = D + min(real, key=lambda r: abs(r - (b2 - a2) / D))
    return d1, spectrum(params.omega1, params.omega2, d1, params.delta2).slope("structural")


class TestStructuralQuartic:
    def test_loci_match_quartic_root(self):
        # log-uniform couplings, one draw in four with omega2/omega1 in
        # [1e-3, 1e-2], where three roots of the quartic nearly meet
        rng = np.random.default_rng(4242)
        checked = 0
        for i in range(60):
            d2 = float(np.exp(rng.uniform(-0.7, 0.7)))
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-2), math.log(0.6), 2)) * d2
            if i % 4 == 0:
                omega2 = omega1 * 10 ** rng.uniform(-3.0, -2.0)
            p = RamanParams(float(omega1), float(omega2), d2, d2)
            d1, residual = quartic_structural_locus(p)
            assert abs(residual) < 1e-40
            try:
                exact = structural_exact(p)
                searched = resolvent_structural_resonance(p)
            except BracketError:
                continue
            checked += 1
            assert abs(exact - d1) <= LOCUS_TOL * d2
            # a value-only search resolves a flat minimum to about sqrt(eps)
            assert abs(searched - d1) <= math.sqrt(np.finfo(float).eps) * d2
        assert checked >= 50


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
        assert abs(structural - minimize_scalar(gap, 0.5, 1.5, xtol=LOCUS_TOL)[0]) <= 1e-8
        neg_supremum = lambda d1: -supremum(d1)  # noqa: E731
        assert abs(dynamical - minimize_scalar(neg_supremum, 0.5, 1.5, xtol=LOCUS_TOL)[0]) <= 1e-8
        # certificates at +-10 CERTIFICATE_TOL delta2: that step moves gap32
        # and transfer_supremum by far more than their rounding noise
        step = 10.0 * CERTIFICATE_TOL
        assert gap(structural - step) > gap(structural) < gap(structural + step)
        assert supremum(dynamical - step) < supremum(dynamical) > supremum(dynamical + step)


class TestLocusConvergence:
    @pytest.mark.parametrize("finder, kind", [(structural_exact, "structural"),
                                              (dynamical_exact_full, "dynamical")])
    def test_out_of_iterations_names_kind(self, monkeypatch, finder, kind):
        monkeypatch.setattr(_minimize, "_ROOT_MAX_ITER", 1)
        with pytest.raises(ConvergenceError,
                           match=f"^{kind} locus: slope root not found to 4 ulp within 1 "):
            finder(RamanParams(0.2, 0.5, 1.0, 1.0))


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


SLOPE_LOCI = {
    "structural": (structural_exact, "_structural_seed", "gap32_slope"),
    "dynamical": (dynamical_exact_full, "_dynamical_seed", "transfer_supremum_slope"),
}


def outcome(finder, params):
    """finder's locus, or the text of the BracketError it raises."""
    try:
        return finder(params)
    except BracketError as err:
        return str(err)


def full_bracket_locus(kind, params):
    """The unseeded search: slope_root on all of [0.5, 1.5] delta2 of the
    same slope, through _locus's edge check (a NaN seed picks the full bracket)."""
    slope = getattr(resonance, SLOPE_LOCI[kind][2])
    nan_seed = (math.nan, math.nan)
    return outcome(lambda p: resonance._slope_locus(p, slope, kind, nan_seed), params)


def seeded_draws(n, seed, hi=0.6):
    """n draws, couplings log-uniform on [1e-3, hi] delta2 and delta2 in
    [e^-0.7, e^0.7]; one in four has Omega2/Omega1 in [1e-3, 1e-2], where the
    structural quartic has a near-triple root."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        d2 = float(np.exp(rng.uniform(-0.7, 0.7)))
        omega1, omega2 = (np.exp(rng.uniform(math.log(1e-3), math.log(hi), 2)) * d2).tolist()
        if i % 4 == 0:
            omega2 = omega1 * 10 ** rng.uniform(-3.0, -2.0)
        yield RamanParams(omega1, omega2, d2, d2)


def assert_same_outcome(got, want):
    # two sign changes of the same float slope, each to 4 ulp
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
    else:
        assert abs(got - want) <= 2.0 * 4.0 * math.ulp(want)


class TestSeededSearch:
    """The closed forms pick the bracket; the slope root decides the value."""

    @pytest.mark.parametrize("kind", SLOPE_LOCI)
    def test_matches_full_bracket_search(self, kind):
        # couplings up to 2 delta2 put some loci at the bracket edge, where
        # both searches must raise the same BracketError
        finder = SLOPE_LOCI[kind][0]
        edges = 0
        for p in seeded_draws(400, 77, hi=2.0):
            want = full_bracket_locus(kind, p)
            assert_same_outcome(outcome(finder, p), want)
            edges += isinstance(want, str)
        assert edges > 0

    @pytest.mark.parametrize("kind", SLOPE_LOCI)
    @pytest.mark.parametrize("miss", [-0.05, 0.05, math.nan], ids=["low", "high", "nan"])
    def test_missed_seed_keeps_locus_and_messages(self, monkeypatch, kind, miss):
        finder, seed_name, _ = SLOPE_LOCI[kind]
        draws = list(seeded_draws(40, 78)) + [
            RamanParams(2.0, 0.1, 1.0, 1.0), RamanParams(0.1, 2.0, 1.0, 1.0),
        ]
        want = [full_bracket_locus(kind, p) for p in draws]
        for p, locus in zip(draws, want):
            centre = p.delta2 if isinstance(locus, str) else locus
            seed = (centre + miss * p.delta2, LOCUS_TOL * p.delta2)
            monkeypatch.setattr(resonance, seed_name, lambda params, seed=seed: seed)
            assert_same_outcome(outcome(finder, p), locus)
        assert want[-2].startswith(f"{kind} locus 0.5 is at the edge")
        assert want[-1].startswith(f"{kind} locus 1.5 is at the edge")

    def test_mean_slope_evaluations(self):
        # the full-bracket search takes a mean of 6.8 (structural) and 9.1
        # (dynamical) evaluations over such draws
        rng = np.random.default_rng(79)
        counts = {kind: [] for kind in SLOPE_LOCI}
        for _ in range(200):
            omega1, omega2 = np.exp(rng.uniform(math.log(1e-3), math.log(0.6), 2)).tolist()
            p = RamanParams(omega1, omega2, 1.0, 1.0)
            for kind, (finder, _, slope_name) in SLOPE_LOCI.items():
                slope = getattr(resonance, slope_name)
                with mock.patch.object(resonance, slope_name, wraps=slope) as calls:
                    finder(p)
                counts[kind].append(calls.call_count)
        means = {kind: float(np.mean(c)) for kind, c in counts.items()}
        assert max(means.values()) <= 5.0, means


class TestSeededResolventSearch:
    """The structural series starts the resolvent's value-only search."""

    def test_level_iteration_budget(self):
        # the full-bracket search takes a mean of 15.9 level iterations on
        # these drives; a second minimize_scalar call is the fallback
        levels, searches = [], []
        for p in seeded_draws(240, 80):
            with mock.patch.object(resolvent, "iterate_levels",
                                   wraps=resolvent.iterate_levels) as level_calls, \
                 mock.patch.object(resolvent, "minimize_scalar",
                                   wraps=resolvent.minimize_scalar) as search_calls:
                resolvent_structural_resonance(p)
            levels.append(level_calls.call_count)
            searches.append(search_calls.call_count)
        assert np.mean(levels) <= 8.0, np.mean(levels)
        assert set(searches) == {1}

    @pytest.mark.parametrize("omegas", [(0.2, 0.5), (0.05, 0.08)], ids=["strong", "weak"])
    @pytest.mark.parametrize("miss", [-0.05, 0.05], ids=["low", "high"])
    def test_missed_seed_falls_back_to_full_bracket(self, monkeypatch, omegas, miss):
        p = RamanParams(*omegas, 1.0, 1.0)
        x0, w = resonance._structural_seed(p)
        monkeypatch.setattr(resolvent, "_structural_seed", lambda params: (x0 + miss, w))
        with mock.patch.object(resolvent, "minimize_scalar",
                               wraps=resolvent.minimize_scalar) as search_calls:
            locus = resolvent_structural_resonance(p)
        assert search_calls.call_count == 2
        assert abs(locus - structural_exact(p)) <= 1e-8
