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
offset of the offending character.  Printing a parsed expression and
re-parsing it reproduces the same tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .errors import ExpressionError
from .grids import Grid, ScalarField, SymTensorField, VectorField, as_stored, sym_size

__all__ = [
    "parse",
    "to_string",
    "evaluate",
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
    """Parse an expression string into a tree."""
    if not isinstance(src, str) or src.strip() == "":
        raise ExpressionError("empty expression", 0)
    parser = _Parser(src)
    node = parser.sum()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ExpressionError(f"trailing input {text!r}", off)
    return node


# printing: precedence levels used to insert minimal parentheses
_LEVEL = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4, "atom": 5}


def _fmt_number(value: complex) -> str:
    if value == 1j:
        return "i"
    real = value.real
    if real == int(real) and abs(real) < 1e15:
        return str(int(real))
    return repr(real)


def _render(node, min_level: int) -> str:
    if isinstance(node, Num):
        text, level = _fmt_number(node.value), _LEVEL["atom"]
    elif isinstance(node, Var):
        text, level = node.name, _LEVEL["atom"]
    elif isinstance(node, Call):
        text = f"{node.func}({_render(node.arg, 0)})"
        level = _LEVEL["atom"]
    elif isinstance(node, Neg):
        text = "-" + _render(node.arg, _LEVEL["neg"])
        level = _LEVEL["neg"]
    elif isinstance(node, BinOp):
        level = _LEVEL[node.op]
        if node.op == "^":
            # base must be atomic, exponent may carry a sign
            text = _render(node.left, 5) + "^" + _render(node.right, 3)
        else:
            left = _render(node.left, level)
            right = _render(node.right, level + 1)
            text = f"{left} {node.op} {right}"
    else:
        raise ExpressionError(f"not an expression node: {node!r}")
    if level < min_level:
        return "(" + text + ")"
    return text


def to_string(node) -> str:
    """Render a tree back to source; ``parse(to_string(t))`` equals ``t``
    up to token offsets."""
    return _render(node, 0)


def _strip_offsets(node):
    if isinstance(node, Num):
        return ("num", node.value)
    if isinstance(node, Var):
        return ("var", node.name)
    if isinstance(node, Neg):
        return ("neg", _strip_offsets(node.arg))
    if isinstance(node, BinOp):
        return ("bin", node.op, _strip_offsets(node.left), _strip_offsets(node.right))
    if isinstance(node, Call):
        return ("call", node.func, _strip_offsets(node.arg))
    raise ExpressionError(f"not an expression node: {node!r}")


def same_tree(a, b) -> bool:
    """Structural equality ignoring source offsets."""
    return _strip_offsets(a) == _strip_offsets(b)


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
                return left / right
            if node.op == "^":
                return np.power(
                    np.asarray(left, dtype=np.complex128),
                    np.asarray(right, dtype=np.complex128),
                )
    raise ExpressionError(f"not an expression node: {node!r}")


def _grid_env(grid: Grid) -> dict[str, np.ndarray]:
    coords = grid.meshgrid()
    env = {}
    for name, arr in zip(_VARIABLES, coords):
        env[name] = arr.astype(np.complex128)
    return env


def _eval_on_grid(src: str, grid: Grid) -> np.ndarray:
    node = parse(src)
    vals = evaluate(node, _grid_env(grid))
    vals = np.broadcast_to(np.asarray(vals, dtype=np.complex128), grid.shape)
    bad = ~np.isfinite(vals)
    if bad.any():
        idx = tuple(int(k) for k in np.argwhere(bad)[0])
        point = tuple(
            lo + k * s for (lo, _), k, s in zip(grid.bounds, idx, grid.spacing)
        )
        raise ExpressionError(
            f"expression {src!r} is not finite at {point}", 0
        )
    return np.array(as_stored(vals))


def materialize_scalar(src: str, grid: Grid) -> ScalarField:
    """Sample a scalar expression at every grid vertex."""
    return ScalarField(grid, _eval_on_grid(src, grid))


def materialize_vector(sources, grid: Grid) -> VectorField:
    """Sample one expression per vector component."""
    sources = list(sources)
    if len(sources) != grid.dim:
        raise ExpressionError(
            f"vector needs {grid.dim} component expressions, got {len(sources)}"
        )
    vals = np.stack([_eval_on_grid(s, grid) for s in sources], axis=-1)
    return VectorField(grid, vals)


def materialize_sym(sources, grid: Grid) -> SymTensorField:
    """Sample one expression per stored symmetric-matrix component.

    Component order follows the triangle storage convention of
    :mod:`hiplab.grids`.
    """
    sources = list(sources)
    want = sym_size(grid.dim)
    if len(sources) != want:
        raise ExpressionError(
            f"symmetric matrix needs {want} component expressions, "
            f"got {len(sources)}"
        )
    vals = np.stack([_eval_on_grid(s, grid) for s in sources], axis=-1)
    return SymTensorField(grid, vals)
