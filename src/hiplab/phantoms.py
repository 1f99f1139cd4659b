"""Closed-form phantom expressions.

A small expression language describes coefficients, weights, and boundary
traces in configuration files and on the command line:

* literals: decimal numbers, the imaginary unit ``i`` and the constants
  ``pi`` and ``e``
* variables: ``x``, ``y`` and, in dimension 3, ``z``
* operators: ``+ - * / ^`` and unary minus
* functions: ``sin cos exp tanh sqrt abs``

``^`` is right-associative and binds tighter than unary minus, which binds
tighter than ``* /``, which bind tighter than ``+ -``.  All arithmetic is
complex; ``sqrt`` and non-integer powers take principal branches.  A
sampled expression whose imaginary part is identically zero is stored
as ``float64`` (see :mod:`hiplab.grids`).  Parse errors report the byte
offset of the offending character.

Each source is parsed once (:func:`parse`).  On a grid the variables are
its 1-D axes, shaped to broadcast against each other, so a term in one
variable costs one evaluation per point of its axis.  Broadcasting
leaves each element's arithmetic as it is: the result equals the
evaluation on full coordinate meshes bit for bit, which a test pins.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError
from .grids import Grid, ScalarField, SymTensorField, VectorField, as_stored, sym_size

__all__ = [
    "parse",
    "evaluate",
    "check_component_count",
    "materialize_scalar",
    "materialize_vector",
    "materialize_sym",
]

_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "tanh": np.tanh,
    "sqrt": np.sqrt,
    "abs": np.abs,
}

_VARIABLES = ("x", "y", "z")

_CONSTANTS = {"i": 1j, "pi": complex(np.pi), "e": complex(np.e)}


@dataclass(frozen=True)
class Num:
    value: complex
    offset: int = 0


@dataclass(frozen=True)
class Var:
    name: str
    offset: int = 0


@dataclass(frozen=True)
class Neg:
    arg: object
    offset: int = 0


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    offset: int = 0


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    offset: int = 0


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?"
    r"|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<sym>[-+*/^()]))"
)
_NUM_RE = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        stretch = src[pos:]
        if stretch.strip() == "":
            break
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            bad = len(src) - len(src[pos:].lstrip())
            raise ExpressionError(f"unexpected character {src[bad]!r}", bad)
        if m.group("num") is not None:
            mm = _NUM_RE.match(src, m.start("num"))
            tokens.append(("num", mm.group(0), m.start("num")))
            pos = mm.end()
            continue
        if m.group("name") is not None:
            tokens.append(("name", m.group("name"), m.start("name")))
        else:
            tokens.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, src: str):
        self.src = src
        self.tokens = _tokenize(src)
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("end", "", len(self.src))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_sym(self, sym: str):
        kind, text, off = self.next()
        if kind != "sym" or text != sym:
            raise ExpressionError(f"expected {sym!r}, found {text or 'end'!r}", off)

    # sum := product (('+'|'-') product)*
    def sum(self):
        node = self.product()
        while True:
            kind, text, off = self.peek()
            if kind == "sym" and text in "+-":
                self.next()
                node = BinOp(text, node, self.product(), off)
            else:
                return node

    # product := unary (('*'|'/') unary)*
    def product(self):
        node = self.unary()
        while True:
            kind, text, off = self.peek()
            if kind == "sym" and text in "*/":
                self.next()
                node = BinOp(text, node, self.unary(), off)
            else:
                return node

    # unary := '-' unary | power
    def unary(self):
        kind, text, off = self.peek()
        if kind == "sym" and text == "-":
            self.next()
            return Neg(self.unary(), off)
        return self.power()

    # power := atom ('^' unary)?   (right-associative, exponent may negate)
    def power(self):
        node = self.atom()
        kind, text, off = self.peek()
        if kind == "sym" and text == "^":
            self.next()
            return BinOp("^", node, self.unary(), off)
        return node

    def atom(self):
        kind, text, off = self.next()
        if kind == "num":
            return Num(complex(float(text)), off)
        if kind == "name":
            if text in _CONSTANTS:
                return Num(_CONSTANTS[text], off)
            if text in _FUNCTIONS:
                self.expect_sym("(")
                arg = self.sum()
                self.expect_sym(")")
                return Call(text, arg, off)
            if text in _VARIABLES:
                return Var(text, off)
            raise ExpressionError(f"unknown name {text!r}", off)
        if kind == "sym" and text == "(":
            node = self.sum()
            self.expect_sym(")")
            return node
        raise ExpressionError(f"unexpected {text or 'end of input'!r}", off)


def parse(src: str):
    """Parse an expression string into a tree.

    Trees are immutable, so each source is parsed once: a repeated
    source returns the same tree, and a bad one raises on every call.
    """
    if not isinstance(src, str) or src.strip() == "":
        raise ExpressionError("empty expression", 0)
    return _parse(src)


@functools.lru_cache(maxsize=512)
def _parse(src: str):
    parser = _Parser(src)
    node = parser.sum()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExpressionError(f"trailing input {text!r}", off)
    return node


def evaluate(node, env: dict[str, np.ndarray]) -> np.ndarray:
    """Evaluate a tree over complex arrays bound to variable names."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        if node.name not in env:
            raise ExpressionError(
                f"variable {node.name!r} is not available here", node.offset
            )
        return env[node.name]
    if isinstance(node, Neg):
        return -evaluate(node.arg, env)
    if isinstance(node, Call):
        val = evaluate(node.arg, env)
        out = _FUNCTIONS[node.func](np.asarray(val, dtype=np.complex128))
        return np.asarray(out, dtype=np.complex128)
    if isinstance(node, BinOp):
        left = evaluate(node.left, env)
        right = evaluate(node.right, env)
        with np.errstate(all="ignore"):
            if node.op == "+":
                return left + right
            if node.op == "-":
                return left - right
            if node.op == "*":
                return left * right
            if node.op == "/":
                try:
                    return left / right
                except ZeroDivisionError:
                    # a constant over a constant zero: numpy's non-finite
                    # quotient, which the caller reports like any other
                    return np.complex128(left) / np.complex128(right)
            if node.op == "^":
                return np.power(
                    np.asarray(left, dtype=np.complex128),
                    np.asarray(right, dtype=np.complex128),
                )
    raise ExpressionError(f"not an expression node: {node!r}")


def _grid_env(grid: Grid) -> dict[str, np.ndarray]:
    """The grid's axes as complex coordinates, each shaped to broadcast
    against the others: a term in one variable costs one evaluation per
    point of its axis."""
    axes = np.meshgrid(*grid.axes(), indexing="ij", sparse=True)
    return {name: ax.astype(np.complex128) for name, ax in zip(_VARIABLES, axes)}


def _eval_on_grid(src: str, grid: Grid) -> np.ndarray:
    vals = np.asarray(evaluate(parse(src), _grid_env(grid)), dtype=np.complex128)
    finite = np.isfinite(vals)
    if not finite.all():
        bad = np.broadcast_to(~finite, grid.shape)
        idx = tuple(int(k) for k in np.argwhere(bad)[0])
        point = tuple(
            lo + k * s for (lo, _), k, s in zip(grid.bounds, idx, grid.spacing)
        )
        raise ExpressionError(
            f"expression {src!r} is not finite at {point}", 0
        )
    return np.array(np.broadcast_to(as_stored(vals), grid.shape))


def materialize_scalar(src: str, grid: Grid) -> ScalarField:
    """Sample a scalar expression at every grid vertex."""
    return ScalarField(grid, _eval_on_grid(src, grid))


def check_component_count(sources, dim: int, symmetric: bool = False) -> None:
    """Raise unless ``sources`` holds one expression per stored component
    of a vector field, or with ``symmetric`` of a symmetric-matrix field,
    in ``dim`` dimensions."""
    want = sym_size(dim) if symmetric else dim
    if len(sources) != want:
        kind = "symmetric matrix" if symmetric else "vector"
        raise ExpressionError(
            f"{kind} needs {want} component expressions in {dim}d, "
            f"got {len(sources)}"
        )


def materialize_vector(sources, grid: Grid) -> VectorField:
    """Sample one expression per vector component."""
    sources = list(sources)
    check_component_count(sources, grid.dim)
    vals = np.stack([_eval_on_grid(s, grid) for s in sources], axis=-1)
    return VectorField(grid, vals)


def materialize_sym(sources, grid: Grid) -> SymTensorField:
    """Sample one expression per stored symmetric-matrix component.

    Component order follows the triangle storage convention of
    :mod:`hiplab.grids`.
    """
    sources = list(sources)
    check_component_count(sources, grid.dim, symmetric=True)
    vals = np.stack([_eval_on_grid(s, grid) for s in sources], axis=-1)
    return SymTensorField(grid, vals)
