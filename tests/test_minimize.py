"""Tests for the bracketed slope root behind the exact resonance loci, the
value-only minimum behind the resolvent locus, and the modular minimum behind
the transfer envelope."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lambda_crossing import ConvergenceError, _minimize
from lambda_crossing._minimize import _ROOT_RTOL, minimize_scalar, modular_minimum, slope_root


class TestSlopeRoot:
    @pytest.mark.parametrize(
        "g, root",
        [
            (lambda x: x - 0.3, 0.3),
            (lambda x: x**3 - 0.2, 0.2 ** (1.0 / 3.0)),
            (lambda x: math.tan(x - 0.7), 0.7),
            (lambda x: math.copysign(1.0, x - 0.45), 0.45),
        ],
        ids=["linear", "cubic", "tan", "step"],
    )
    def test_finds_root_to_xtol(self, g, root):
        for xtol in (1e-6, 1e-12, 1e-15):
            x, _ = slope_root(g, 0.0, 1.0, xtol, "test")
            assert abs(x - root) <= max(xtol, 4.0 * 2.0**-52 * root)

    def test_returns_value_at_root(self):
        x, gx = slope_root(lambda x: x * x - 0.5, 0.0, 1.0, 1e-14, "test")
        assert gx == x * x - 0.5

    @pytest.mark.parametrize(
        "g, end",
        [(lambda x: x + 1.0, 0.0), (lambda x: x - 2.0, 1.0), (lambda x: x, 0.0),
         (lambda x: x - 1.0, 1.0)],
        ids=["rising", "falling", "zero-at-a", "zero-at-b"],
    )
    def test_no_sign_change_returns_descent_end(self, g, end):
        x, gx = slope_root(g, 0.0, 1.0, 1e-12, "test")
        assert x == end
        assert gx == g(end)

    def test_out_of_iterations_raises_naming_kind(self):
        with pytest.raises(ConvergenceError, match="^structural locus: slope root not found"):
            slope_root(lambda x: x**3 - 0.2, 0.0, 1.0, 1e-15, "structural", max_iter=2)

    def test_rejects_empty_bracket(self):
        with pytest.raises(ValueError, match="a < b"):
            slope_root(lambda x: x, 1.0, 1.0, 1e-12, "test")


MINIMA = {
    "v": (lambda x: abs(x - 0.45), 0.45),
    "skew": (lambda x: max(2.0 * (0.7 - x), x - 0.7), 0.7),
    "cosh": (lambda x: math.cosh(x - 0.6), 0.6),
}


class TestMinimizeScalar:
    @pytest.mark.parametrize("name", ["v", "skew"])
    def test_finds_minimum_to_xtol(self, name):
        # kinked minima, which a value-only search resolves to the last ulp
        f, xmin = MINIMA[name]
        for xtol in (1e-6, 1e-12, 1e-300):
            x, fx = minimize_scalar(f, 0.0, 1.0, xtol=xtol)
            assert abs(x - xmin) <= 2.0 * max(xtol, _ROOT_RTOL)
            assert fx == f(x)

    @pytest.mark.parametrize("name", MINIMA)
    def test_tolerance_floor_bounds_evaluations(self, name):
        # xtol = 1e-300 stops at the floor of 4 ulp of the bracket's larger
        # end, in the few evaluations a reachable tolerance takes, not all
        # max_iter + 1
        f, _ = MINIMA[name]
        calls = []
        x, _ = minimize_scalar(lambda x: calls.append(x) or f(x), 0.0, 1.0, xtol=1e-300)
        assert len(calls) <= 80
        assert x == minimize_scalar(f, 0.0, 1.0, xtol=_ROOT_RTOL)[0]

    def test_out_of_iterations_raises(self):
        with pytest.raises(ConvergenceError, match="^minimum not found to xtol = 1e-15 within 2"):
            minimize_scalar(MINIMA["v"][0], 0.0, 1.0, xtol=1e-15, max_iter=2)

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)], ids=["empty", "reversed"])
    def test_rejects_bad_bracket(self, a, b):
        with pytest.raises(ValueError, match="a < b"):
            minimize_scalar(MINIMA["v"][0], a, b)


class TestModularMinimum:
    @settings(max_examples=300, deadline=None)
    @given(
        m=st.integers(1, 2**60),
        n=st.integers(1, 10**4),
        a=st.integers(-(2**61), 2**61),
        b=st.integers(-(2**61), 2**61),
    )
    def test_matches_brute_force(self, m, n, a, b):
        values = [(a * k + b) % m for k in range(n)]
        v, k = modular_minimum(a, b, m, n)
        assert v == min(values)
        assert 0 <= k < n
        assert (a * k + b) % m == v
        assert k == values.index(v)

    @settings(max_examples=300, deadline=None)
    @given(m=st.integers(1, 64), n=st.integers(1, 300), a=st.integers(0, 63),
           b=st.integers(0, 63))
    def test_small_moduli(self, m, n, a, b):
        # small moduli reach the wrap-free, exact-divisor and one-lap cases
        values = [(a * k + b) % m for k in range(n)]
        assert modular_minimum(a, b, m, n) == (min(values), values.index(min(values)))

    def test_steps_grow_with_log_count(self, monkeypatch):
        # n = 2^40 terms: each step at least halves the count, so the search
        # makes at most about log2(n) steps (this one makes 18)
        steps, search = [], modular_minimum
        m, a, b = 2**60, 712_577_831_241_062_519, 2**59 + 12_345
        n = 2**40

        def counted(*args):
            steps.append(args)
            return search(*args)

        monkeypatch.setattr(_minimize, "modular_minimum", counted)
        v, k = _minimize.modular_minimum(a, b, m, n)
        assert len(steps) <= 42
        assert 0 <= k < n and (a * k + b) % m == v
        # no better term among the first and last 10^4
        assert v <= min((a * j + b) % m for j in [*range(10**4), *range(n - 10**4, n)])

    @pytest.mark.parametrize("m, n", [(0, 5), (5, 0), (-3, 2)])
    def test_rejects_empty_range(self, m, n):
        with pytest.raises(ValueError, match="modulus and count must be positive"):
            modular_minimum(1, 0, m, n)
