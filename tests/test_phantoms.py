"""Expression parsing, evaluation, and field materialization."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import odd_spacing_grids, same_bits, unit_grid
from hiplab import phantoms
from hiplab.errors import ExpressionError
from hiplab.grids import Grid, as_stored
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


def expressions(variables: str):
    """Sources over the whole grammar: numbers, constants, the given
    variables, the binary operators, unary minus and the six functions,
    with and without parentheses."""
    numbers = st.one_of(
        st.sampled_from(["0", "2", ".25", "3.", "1.5e-1", "2E+1"]),
        st.floats(0.0, 50.0).map(repr),
    )
    leaves = st.one_of(numbers, st.sampled_from(["i", "pi", "e", *variables]))
    operators = st.sampled_from(["+", "-", "*", "/", "^"])
    functions = st.sampled_from(sorted(phantoms._FUNCTIONS))

    def extend(inner):
        return st.one_of(
            st.builds("-{}".format, inner),
            st.builds("{}({})".format, functions, inner),
            st.builds("({}) {} ({})".format, inner, operators, inner),
            st.builds("{}{}{}".format, inner, operators, inner),
        )

    return st.recursive(leaves, extend, max_leaves=10)


def mesh_env(grid) -> dict[str, np.ndarray]:
    """Full complex coordinate meshes, one per variable."""
    return {name: m.astype(np.complex128) for name, m in zip("xyz", grid.meshgrid())}


def sampled(tree, env, shape):
    """The stored samples of ``tree`` on a grid of ``shape``."""
    with np.errstate(all="ignore"):
        vals = evaluate(tree, env)
    vals = np.broadcast_to(np.asarray(vals, dtype=np.complex128), shape)
    return np.ascontiguousarray(as_stored(vals))


class TestAxesEvaluation:
    """The variables are the grid's axes, broadcast: every element's
    arithmetic is the full mesh's."""

    @given(sample=odd_spacing_grids(), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_bits_on_axes_equal_bits_on_the_mesh(self, sample, data):
        grid, _ = sample
        tree = parse(data.draw(expressions("xyz"[: grid.dim])))
        got = sampled(tree, phantoms._grid_env(grid), grid.shape)
        ref = sampled(tree, mesh_env(grid), grid.shape)
        assert same_bits(got, ref)

    def test_axes_are_shaped_to_broadcast(self):
        grid = Grid(bounds=((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), shape=(5, 6, 7))
        env = phantoms._grid_env(grid)
        assert [env[v].shape for v in "xyz"] == [(5, 1, 1), (1, 6, 1), (1, 1, 7)]
        for name, mesh in mesh_env(grid).items():
            assert same_bits(np.ascontiguousarray(np.broadcast_to(env[name], grid.shape)), mesh)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_non_finite_vertex_is_named_as_on_the_mesh(self, dim):
        """``1/(x-0.5)`` on a grid through 0.5: the same error text,
        naming the first vertex in C order of the full-mesh values."""
        grid = Grid(bounds=((0.0, 1.0),) + ((-1.0, 1.0),) * (dim - 1), shape=(5,) * dim)
        src = "1/(x-0.5)"
        with pytest.raises(ExpressionError) as info:
            materialize_scalar(src, grid)
        with np.errstate(all="ignore"):
            mesh_vals = evaluate(parse(src), mesh_env(grid))
        idx = tuple(np.argwhere(~np.isfinite(mesh_vals))[0])
        assert idx == (2,) + (0,) * (dim - 1)
        point = (0.5,) + (-1.0,) * (dim - 1)
        assert str(info.value) == (
            f"[expression] expression {src!r} is not finite at {point} (at offset 0)"
        )

    @pytest.mark.parametrize("src", ["1/0", "2*x + 1/(1-1)"])
    def test_a_constant_division_by_zero_names_the_first_vertex(self, src):
        """A constant over a constant zero raises the ``ExpressionError``
        of ``1/(x-0.5)``, at the first vertex, where Python's complex
        division would raise ``ZeroDivisionError``."""
        grid = Grid(bounds=((0.0, 1.0), (-1.0, 1.0)), shape=(5, 5))
        with pytest.raises(ExpressionError) as info:
            materialize_scalar(src, grid)
        assert str(info.value) == (
            f"[expression] expression {src!r} is not finite at (0.0, -1.0) (at offset 0)"
        )

    def test_a_repeated_source_returns_the_same_tree(self):
        src = "0.6+0.2*sin(2*x+1)*cos(y)"
        assert parse(src) is parse(src)
        # an equal string built anew
        assert parse(src) is parse("".join(list(src)))

    def test_a_bad_source_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(ExpressionError) as info:
                parse("sin(")
            assert "offset 4" in str(info.value)
