"""Expression parsing, evaluation, and field materialization."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import unit_grid
from hiplab.errors import ExpressionError
from hiplab.phantoms import (
    evaluate,
    materialize_scalar,
    materialize_sym,
    materialize_vector,
    parse,
)


class TestParseAndEvaluate:
    def test_precedence(self):
        assert evaluate(parse("1 + 2*3"), {}) == 7

    def test_power_is_right_associative(self):
        assert evaluate(parse("2^3^2"), {}) == 512

    def test_unary_minus_and_parentheses(self):
        assert evaluate(parse("-(2 - 5)^2"), {}) == -9

    def test_variables_from_environment(self):
        env = {"x": np.complex128(2.0), "y": np.complex128(3.0)}
        assert evaluate(parse("x*y"), env) == 6

    def test_imaginary_unit(self):
        assert evaluate(parse("exp(i*0)"), {}) == 1
        val = evaluate(parse("i^2"), {})
        assert val == pytest.approx(-1)

    def test_functions(self):
        assert evaluate(parse("sin(0)"), {}) == 0
        assert evaluate(parse("tanh(0)"), {}) == 0
        assert evaluate(parse("abs(0 - 3)"), {}) == pytest.approx(3)
        assert evaluate(parse("sqrt(4)"), {}) == pytest.approx(2)

    def test_sqrt_of_negative_real_takes_principal_branch(self):
        val = evaluate(parse("sqrt(0 - 4)"), {})
        assert complex(val) == pytest.approx(2j)

    def test_unterminated_call_reports_offset(self):
        with pytest.raises(ExpressionError) as info:
            parse("sin(")
        assert "offset 4" in str(info.value)

    def test_unknown_function_rejected(self):
        with pytest.raises(ExpressionError):
            parse("sinh(x)")

    def test_unbound_variable_rejected(self):
        with pytest.raises(ExpressionError):
            evaluate(parse("x + q"), {"x": np.complex128(1.0)})

    def test_constants_pi_and_e(self):
        x = np.linspace(-1.0, 2.0, 7).astype(np.complex128)
        for src, expected in (
            ("sin(pi*x)", np.sin(np.pi * x)),
            ("e^x", np.exp(x)),
        ):
            got = evaluate(parse(src), {"x": x})
            assert np.allclose(got, expected, rtol=1e-14, atol=1e-15), src


class TestMaterializers:
    def test_constant_scalar(self):
        grid = unit_grid(5)
        fld = materialize_scalar("1", grid)
        assert fld.values.shape == grid.shape
        assert np.all(fld.values == 1.0)

    def test_scalar_matches_numpy(self):
        grid = unit_grid(9)
        x, y = grid.meshgrid()
        fld = materialize_scalar("sin(x) * cos(2*y) + 0.5", grid)
        assert np.allclose(fld.values, np.sin(x) * np.cos(2 * y) + 0.5)

    def test_division_by_zero_names_the_point(self):
        grid = unit_grid(5)
        with pytest.raises(ExpressionError) as info:
            materialize_scalar("1/(x - 1)", grid)
        msg = str(info.value)
        assert "not finite" in msg and "1.0" in msg

    def test_vector_needs_dim_components(self):
        grid = unit_grid(5)
        vec = materialize_vector(["x", "-y"], grid)
        assert vec.values.shape == grid.shape + (2,)
        with pytest.raises(ExpressionError):
            materialize_vector(["x", "y", "0"], grid)

    def test_sym_needs_triangle_count(self):
        grid = unit_grid(5)
        ten = materialize_sym(["1 + x", "1 + y", "0"], grid)
        assert ten.values.shape == grid.shape + (3,)
        with pytest.raises(ExpressionError):
            materialize_sym(["1", "1"], grid)

    def test_sym_component_order_is_diagonal_first(self):
        grid = unit_grid(5)
        ten = materialize_sym(["2", "3", "x"], grid)
        x, _ = grid.meshgrid()
        assert np.all(ten.values[..., 0] == 2.0)
        assert np.all(ten.values[..., 1] == 3.0)
        assert np.allclose(ten.values[..., 2], x)

    def test_three_dimensional_environment(self):
        grid = unit_grid(5, dim=3)
        x, y, z = grid.meshgrid()
        fld = materialize_scalar("x + 2*y + 4*z", grid)
        assert np.allclose(fld.values, x + 2 * y + 4 * z)

    def test_z_unavailable_in_two_dimensions(self):
        grid = unit_grid(5)
        with pytest.raises(ExpressionError):
            materialize_scalar("z", grid)
