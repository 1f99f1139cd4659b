"""Expression parsing, evaluation, and field materialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import unit_grid
from hiplab.errors import ExpressionError
from hiplab.phantoms import (
    BinOp,
    Call,
    Neg,
    Num,
    Var,
    evaluate,
    materialize_scalar,
    materialize_sym,
    materialize_vector,
    parse,
    same_tree,
    to_string,
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

    def test_round_trip_is_a_fixpoint(self):
        for src in (
            "1 + 2*x - sin(y)^2",
            "-(x*y) / (1 + x^2)",
            "exp(i*x) * cos(y - 0.5)",
            "2^3^x",
        ):
            tree = parse(src)
            printed = to_string(tree)
            assert same_tree(parse(printed), tree)
            assert to_string(parse(printed)) == printed

    def test_constants_pi_and_e(self):
        x = np.linspace(-1.0, 2.0, 7).astype(np.complex128)
        for src, expected in (
            ("sin(pi*x)", np.sin(np.pi * x)),
            ("e^x", np.exp(x)),
        ):
            got = evaluate(parse(src), {"x": x})
            assert np.allclose(got, expected, rtol=1e-14, atol=1e-15), src
            again = evaluate(parse(to_string(parse(src))), {"x": x})
            assert np.array_equal(again, got), src


# trees the parser can produce: numbers are non-negative reals or ``i``
# (a sign is a ``Neg`` node), variables are x, y, z
_LEAVES = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(
        lambda v: Num(complex(v))
    ),
    st.just(Num(1j)),
    st.sampled_from("xyz").map(Var),
)
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        kids.map(Neg),
        st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
        st.builds(Call, st.sampled_from(["sin", "cos", "exp", "tanh", "sqrt", "abs"]), kids),
    ),
    max_leaves=12,
)


class TestRoundTripProperty:
    @given(tree=_TREES)
    @settings(max_examples=300, deadline=None)
    def test_printed_tree_parses_back_to_itself(self, tree):
        assert same_tree(parse(to_string(tree)), tree)


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
