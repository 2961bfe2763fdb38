"""Tests for the bracketed slope root behind the exact resonance loci."""

import math

import pytest

from lambda_crossing import ConvergenceError
from lambda_crossing._minimize import slope_root


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
