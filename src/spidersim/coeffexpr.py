"""Tiny arithmetic expression language for coefficient configuration.

Grammar (EBNF):

    expr   := term (("+"|"-") term)*
    term   := factor (("*"|"/") factor)*
    factor := unary ("^" factor)?          # right-associative power
    unary  := "-" unary | atom
    atom   := number | ident | ident "(" expr ("," expr)* ")" | "(" expr ")"

Variables are t, x, l.  Functions: sin, cos, exp, tanh, sqrt, abs, min, max,
clamp.  Expressions evaluate vectorized over numpy arrays; division by zero,
sqrt of a negative and non-finite results raise EvalError with a diagnostic.
"""

from __future__ import annotations

import math
import operator
import re
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .network import (
    CoefficientBounds,
    CoefficientSet,
    SamplingPlan,
    validate_coefficients,
)

__all__ = [
    "Expr", "Num", "Var", "Neg", "BinOp", "Call",
    "parse", "pretty", "evaluate", "variables",
    "build_coefficient_set",
    "require_keys", "num", "num_list", "choice", "expression", "edge_exprs",
    "CoeffExprError", "ParseError", "EvalError", "ConfigError",
]

_FUNCTIONS = {
    "sin": 1, "cos": 1, "exp": 1, "tanh": 1, "sqrt": 1, "abs": 1,
    "min": 2, "max": 2, "clamp": 3,
}
_VARIABLES = ("t", "x", "l")


class CoeffExprError(ValueError):
    pass


class ParseError(CoeffExprError):
    def __init__(self, message: str, offset: int, expected: tuple[str, ...] = ()):
        self.offset = offset
        self.expected = expected
        hint = f", expected one of {sorted(expected)}" if expected else ""
        super().__init__(f"syntax error at offset {offset}: {message}{hint}")


class EvalError(CoeffExprError):
    pass


class ConfigError(CoeffExprError):
    pass


# -- AST ------------------------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Num(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of + - * / ^
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class _RayNum(Expr):
    """A number that differs between the rays of a fused tree (_unify): the
    value at a row is values[ray of the row]."""
    values: tuple[float, ...]


def _children(node: Expr) -> tuple[Expr, ...]:
    if isinstance(node, Neg):
        return (node.operand,)
    return (node.left, node.right) if isinstance(node, BinOp) else getattr(node, "args", ())


def _name(node: Expr) -> str:
    return "neg" if isinstance(node, Neg) else getattr(node, "op", getattr(node, "name", ""))


# -- tokenizer --------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN COMMA EOF
    text: str
    offset: int


_NUMBER = re.compile(r"(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")
_PUNCT = {"(": "LPAREN", ")": "RPAREN", ",": "COMMA", **dict.fromkeys("+-*/^", "OP")}


def _tokenize(source: str) -> Iterator[_Token]:
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        number = _NUMBER.match(source, i)
        if number:
            yield _Token("NUMBER", number.group(), i)
            i = number.end()
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            yield _Token("IDENT", source[i:j], i)
            i = j
            continue
        if ch in _PUNCT:
            yield _Token(_PUNCT[ch], ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield _Token("EOF", "", n)


# -- parser -----------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.tokens = list(_tokenize(source))
        self.pos = 0

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(f"found {self.cur.text or 'end of input'!r}",
                             self.cur.offset, (what,))
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.cur.kind == "OP" and self.cur.text in "+-":
            op = self.advance().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.cur.kind == "OP" and self.cur.text in "*/":
            op = self.advance().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        node = self.parse_unary()
        if self.cur.kind == "OP" and self.cur.text == "^":
            self.advance()
            node = BinOp("^", node, self.parse_factor())
        return node

    def parse_unary(self) -> Expr:
        if self.cur.kind == "OP" and self.cur.text == "-":
            self.advance()
            return Neg(self.parse_unary())
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        tok = self.cur
        if tok.kind == "LPAREN":
            self.advance()
            node = self.parse_expr()
            self.expect("RPAREN", ")")
            return node
        if tok.kind == "NUMBER":
            self.advance()
            return Num(float(tok.text))
        if tok.kind == "IDENT":
            self.advance()
            if self.cur.kind == "LPAREN":
                if tok.text not in _FUNCTIONS:
                    raise ParseError(f"unknown function {tok.text!r}", tok.offset,
                                     tuple(sorted(_FUNCTIONS)))
                self.advance()
                args = [self.parse_expr()]
                while self.cur.kind == "COMMA":
                    self.advance()
                    args.append(self.parse_expr())
                self.expect("RPAREN", ")")
                want = _FUNCTIONS[tok.text]
                if len(args) != want:
                    raise ParseError(
                        f"{tok.text} takes {want} argument(s), got {len(args)}",
                        tok.offset)
                return Call(tok.text, tuple(args))
            if tok.text in _VARIABLES:
                return Var(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.offset,
                             _VARIABLES + tuple(sorted(_FUNCTIONS)))
        raise ParseError(f"found {tok.text or 'end of input'!r}", tok.offset,
                         ("operand",))


def parse(source: str) -> Expr:
    """Parse source text into an AST; raises ParseError with a byte offset."""
    if isinstance(source, bytes):
        source = source.decode("utf-8")
    p = _Parser(source)
    node = p.parse_expr()
    if p.cur.kind != "EOF":
        raise ParseError(f"trailing input {p.cur.text!r}", p.cur.offset, ("end of input",))
    return node


# -- printer ----------------------------------------------------------------

_LEVEL_ADD, _LEVEL_MUL, _LEVEL_UNARY, _LEVEL_POW, _LEVEL_ATOM = 1, 2, 3, 4, 5


def _level(node: Expr) -> int:
    return {"+": _LEVEL_ADD, "-": _LEVEL_ADD, "*": _LEVEL_MUL, "/": _LEVEL_MUL,
            "neg": _LEVEL_UNARY, "^": _LEVEL_POW}.get(_name(node), _LEVEL_ATOM)


def _wrap(node: Expr, needs_parens: bool) -> str:
    s = pretty(node)
    return f"({s})" if needs_parens else s


def pretty(node: Expr) -> str:
    """Render an AST back to source; parse(pretty(ast)) is structurally equal."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return node.name
    if isinstance(node, Call):
        return f"{node.name}({', '.join(pretty(a) for a in node.args)})"
    if isinstance(node, Neg):
        # operand of unary minus must parse as another unary or an atom
        ok = isinstance(node.operand, Neg) or _level(node.operand) == _LEVEL_ATOM
        return "-" + _wrap(node.operand, not ok)
    if isinstance(node, BinOp):
        if node.op in "+-":
            left = _wrap(node.left, _level(node.left) < _LEVEL_ADD)
            right = _wrap(node.right, _level(node.right) < _LEVEL_MUL)
            return f"{left} {node.op} {right}"
        if node.op in "*/":
            left = _wrap(node.left, _level(node.left) < _LEVEL_MUL)
            right = _wrap(node.right, _level(node.right) < _LEVEL_UNARY)
            return f"{left}{node.op}{right}"
        # power: left slot is a unary, right slot is a factor
        left_ok = isinstance(node.left, Neg) or _level(node.left) == _LEVEL_ATOM
        right_ok = _level(node.right) >= _LEVEL_UNARY
        return f"{_wrap(node.left, not left_ok)}^{_wrap(node.right, not right_ok)}"
    raise TypeError(node)


# -- evaluation --------------------------------------------------------------


def _names(node: Expr) -> set[str]:
    """The variables, operators and functions node uses."""
    return {_name(node)}.union(*map(_names, _children(node)))


def variables(node: Expr) -> set[str]:
    return _names(node) & set(_VARIABLES)


_VARS = {"t": lambda t, x, l, r: t, "x": lambda t, x, l, r: x, "l": lambda t, x, l, r: l}
# node -> (numpy function, the name in its non-finite-result error, or None: unchecked)
_OPS = {"+": (operator.add, "addition"), "-": (operator.sub, "subtraction"),
        "*": (operator.mul, "multiplication"), "/": (operator.truediv, "division"),
        "^": (np.power, "power"), "neg": (operator.neg, None), "sqrt": (np.sqrt, None),
        **{f: (getattr(np, f), f) for f in ("sin", "cos", "exp", "tanh")},
        "abs": (np.abs, None), "min": (np.minimum, None), "max": (np.maximum, None),
        "clamp": (lambda a, lo, hi: np.minimum(np.maximum(a, lo), hi), None)}
_SILENCED = {"^": {"invalid": "ignore", "over": "ignore"},  # numpy warnings a node silences
             **{f: {"over": "ignore"} for f in ("sin", "cos", "exp", "tanh")}}
_HIDES = {"/", "^", "exp", "tanh", "min", "max", "clamp"}  # finite on a non-finite operand
_NOISY = {"/", "^", "exp", "sqrt"}  # numpy warns where a strict node raises or is silent
_NO_ERRSTATE = nullcontext()


class _Anomaly(ValueError):
    """A fast-path value that the strict closure must check node by node."""


def _finite(val):
    # a sum is non-finite whenever an entry is (and, rarely, by overflow: a false alarm)
    if not math.isfinite(val.sum()):
        raise _Anomaly
    return val


def _build(node: Expr, strict: bool):
    """node compiled into nested closures of (t, x, l, r), r the rows' 0-based
    ray index (read only by a _RayNum).  Strict closures check every node,
    in post-order: a zero divisor, a negative sqrt argument, a non-finite
    result.  Fast ones check only the operands a node in _HIDES could turn
    finite (raising _Anomaly); evaluate checks the root."""
    if isinstance(node, Num):
        v = np.float64(node.value)
        return lambda t, x, l, r: v
    if isinstance(node, _RayNum):
        v = np.array(node.values)
        return lambda t, x, l, r: v[r]
    if isinstance(node, Var):
        return _VARS[node.name]
    name, args = _name(node), _children(node)
    fn, what = _OPS[name]
    fs = [_build(a, strict) for a in args]
    if strict:
        op, quiet = fn, _SILENCED.get(name, {})

        def fn(*a):
            if name == "/" and np.any(a[1] == 0):
                raise EvalError("division by zero")
            if name == "sqrt" and np.any(a[0] < 0):
                raise EvalError("sqrt of negative value")
            with np.errstate(**quiet):
                out = op(*a)
            if what is not None and not np.all(np.isfinite(out)):
                raise EvalError(f"non-finite result in {what}")
            return out
    elif name in _HIDES:
        fs = [f if isinstance(a, (Num, _RayNum, Var))
              else (lambda t, x, l, r, f=f: _finite(f(t, x, l, r))) for a, f in zip(args, fs)]
    if len(fs) == 1:
        f, = fs
        return lambda t, x, l, r: fn(f(t, x, l, r))
    if len(fs) == 2:
        f, g = fs
        return lambda t, x, l, r: fn(f(t, x, l, r), g(t, x, l, r))
    return lambda t, x, l, r: fn(*[f(t, x, l, r) for f in fs])


def evaluate(node: Expr, t=0.0, x=0.0, l=0.0, ray=None):
    """Evaluate with bindings for t, x, l (scalars or broadcastable arrays).
    Runs the node's fast closure, compiled on first use and kept on the node
    (with numpy warnings off when it has a _NOISY node); a non-finite value
    or a broadcast error there re-runs the strict closure, which raises the
    error of the first failing node.  ray, the 0-based ray index of each
    row, is for a tree that fuses a family's rays (_fuse): with it given,
    a value the fast closure cannot vouch for raises _Anomaly instead, and
    the caller evaluates the rows ray by ray."""
    t = np.asarray(t, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    l = np.asarray(l, dtype=np.float64)
    fast = node.__dict__.get("_fast")
    if fast is None:
        fast = _build(node, strict=False), bool(_names(node) & _NOISY)
        object.__setattr__(node, "_fast", fast)
    try:
        with np.errstate(all="ignore") if fast[1] else _NO_ERRSTATE:
            out = _finite(fast[0](t, x, l, ray))
    except ValueError:
        if ray is not None:
            raise _Anomaly from None
        out = _build(node, strict=True)(t, x, l, None)
    shape = t.shape if t.shape == x.shape == l.shape else np.broadcast_shapes(t.shape, x.shape, l.shape)
    if not shape:
        return float(out)
    if out.shape == shape and out is not t and out is not x and out is not l:
        return out  # a fresh array: an input is returned only as a copy
    return np.full(shape, out, np.float64)


def _compile(node: Expr, names: tuple[str, ...] = _VARIABLES):
    """Callable of the variables ``names``, in that order; the others are 0.0.
    Calls ``evaluate`` through the module global, where wrappers see it, and
    keeps the tree as ``fn.node`` (CoefficientSet fuses a family's trees)."""
    pick = operator.itemgetter(*(names.index(v) if v in names else len(names) for v in _VARIABLES))

    def fn(*args):
        return evaluate(node, *pick(args + (0.0,)))
    fn.node = node
    return fn


# -- typed config readers ------------------------------------------------------
# Each reads one field of a JSON config block and names it "<where>.<key>" in
# the ConfigError (or, for expression syntax, the ParseError) it raises.


def require_keys(block, allowed, where: str) -> dict:
    """block as a dict with no keys outside allowed; an absent block (None)
    reads as empty."""
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys {[f'{where}.{k}' for k in sorted(unknown)]}")
    return block


def num(block: dict, key: str, where: str, default=None, lo=None, hi=None, integer=False):
    """block[key] as a finite float (an int with integer=True) in [lo, hi];
    default when absent, required when default is None."""
    if key not in block:
        if default is None:
            raise ConfigError(f"missing {where}.{key}")
        return default
    v = block[key]
    name = f"{where}.{key}"
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigError(f"{name} must be a number")
    if isinstance(v, float) and not np.isfinite(v):
        raise ConfigError(f"{name} must be finite")
    if integer and int(v) != v:
        raise ConfigError(f"{name} must be an integer")
    if lo is not None and v < lo:
        raise ConfigError(f"{name} must be >= {lo}")
    if hi is not None and v > hi:
        raise ConfigError(f"{name} must be <= {hi}")
    return int(v) if integer else float(v)


def num_list(block: dict, key: str, where: str, lo=None) -> list[float]:
    """block[key] as a non-empty list of floats, each >= lo."""
    raw = block.get(key)
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{where}.{key} must be a non-empty list of numbers")
    items = {f"{key}[{i}]": v for i, v in enumerate(raw)}
    return [num(items, k, where, lo=lo) for k in items]


def choice(block: dict, key: str, where: str, options: tuple, default):
    """block[key] (default when absent), which must be one of options."""
    v = block.get(key, default)
    if v not in options:
        raise ConfigError(f"{where}.{key} must be one of {list(options)}, got {v!r}")
    return v


def expression(src, where: str, names: tuple[str, ...] = _VARIABLES) -> Expr:
    """The AST of src, an expression that may use only the variables names."""
    if not isinstance(src, str):
        raise ConfigError(f"{where} must be an expression string")
    try:
        node = parse(src)
    except ParseError as exc:
        exc.args = (f"in {where}: {exc}",)
        raise
    extra = variables(node) - set(names)
    if extra:
        raise ConfigError(f"{where} may use only {' and '.join(names)}, found {sorted(extra)}")
    return node


def edge_exprs(block: dict, key: str, where: str, I: int,
               names: tuple[str, ...] = _VARIABLES, required: bool = True):
    """One expression per ray (a single string stands for all I), or None
    when absent and not required."""
    raw = block.get(key)
    if raw is None:
        if required:
            raise ConfigError(f"missing {where}.{key}")
        return None
    if isinstance(raw, str):
        raw = [raw] * I
    if not isinstance(raw, (list, tuple)) or len(raw) != I:
        raise ConfigError(f"{where}.{key} needs {I} expressions")
    return tuple(expression(s, f"{where}.{key}[{i}]", names) for i, s in enumerate(raw))


# -- coefficient assembly -----------------------------------------------------


def _evaluator(node: Expr):
    """An expression without variables, evaluated once, as the number: a
    constant coefficient.  Any other expression compiled."""
    return _compile(node) if variables(node) else evaluate(node)


def _unify(nodes) -> Expr | None:
    """One tree for trees that differ at most in their parts without a
    variable.  Each such part is evaluated on its own ray as a number, as
    the per-ray pass computes it, and becomes a Num, or a _RayNum where the
    rays' numbers differ.  None when the trees differ otherwise, when such
    a part raises, or when a _RayNum would be an operand of ^: numpy takes
    other paths for an array there than for a number (np.power(x, 2.0)
    squares)."""
    if not any(map(variables, nodes)):
        try:
            with np.errstate(all="ignore"):
                values = tuple(evaluate(n) for n in nodes)
        except EvalError:
            return None
        return Num(values[0]) if len(set(map(float.hex, values))) == 1 else _RayNum(values)
    head = nodes[0]
    if any(type(n) is not type(head) or _name(n) != _name(head) for n in nodes):
        return None
    if isinstance(head, Var):
        return head
    kids = [_unify(group) for group in zip(*map(_children, nodes))]
    if any(k is None for k in kids) or (_name(head) == "^" and any(isinstance(k, _RayNum) for k in kids)):
        return None
    if isinstance(head, Neg):
        return Neg(*kids)
    return BinOp(head.op, *kids) if isinstance(head, BinOp) else Call(head.name, tuple(kids))


def _fuse(exprs: tuple[Expr, ...]):
    """The I trees exprs of a coefficient as one row-wise evaluator
    fn(edge, t, x, l) of 1-d rows on the rays edge (1-based): one pass of
    ``evaluate`` (through the module global) over every row, bit for bit
    the per-ray values.  fn returns None where that pass sees a non-finite
    value; the caller then evaluates the rows ray by ray, which raises the
    error of the first failing ray.  None when the trees do not unify or
    have no variable (a table)."""
    node = _unify(exprs)
    if node is None or not variables(node):
        return None

    def fn(edge, t, x, l):
        try:
            return evaluate(node, t, x, l, edge - 1)
        except _Anomaly:
            return None
    return fn


def _alpha(exprs: tuple[Expr, ...], mode: str):
    """The ray weights of I expressions over (t, l): I numbers, evaluated
    once, when no expression has a variable; else an evaluator of 1-d t and
    l that returns (n, I) and calls ``evaluate`` through the module global.
    Mode "renormalize" divides by the sum and needs every raw value positive;
    "exact" takes the values as they are."""
    def weights(raw):
        if mode == "renormalize":
            if np.any(raw <= 0):
                raise EvalError("renormalized alpha requires positive raw values")
            raw /= raw.sum(axis=-1, keepdims=True)
        return raw

    if not any(map(variables, exprs)):
        return tuple(weights(np.array([evaluate(e) for e in exprs])).tolist())

    def alpha(t, l):
        # x is read by no weight expression; zeros of the rows' shape spare
        # every call a broadcast
        raw, x = np.empty((t.size, len(exprs))), np.zeros(t.shape)
        for i, e in enumerate(exprs):
            raw[:, i] = evaluate(e, t, x, l)
        return weights(raw)

    return alpha


_BOUND_DEFAULTS = {"a_lower": 1e-3, "sigma_lower": 1e-3, "b_bound": 10.0,
                   "sigma_bound": 10.0, "alpha_lip": 10.0}


def build_coefficient_set(config: dict) -> CoefficientSet:
    """Assemble a CoefficientSet from the "network" block of a config.

    Keys: I, b (expressions over t, x, l, one per ray or one for all),
    sigma (same), alpha ({exprs, mode} or a plain list meaning mode "exact";
    expressions over t, l), bounds, and grid (the sampling grid of the
    admissibility report, which is attached).  The set fuses a b or sigma
    whose trees unify across the rays (_fuse) from the compiled evaluators.
    """
    config = require_keys(config, {"I", "b", "sigma", "alpha", "bounds", "grid"}, "network")
    I = num(config, "I", "network", lo=2, integer=True)
    b_exprs = edge_exprs(config, "b", "network", I)
    s_exprs = edge_exprs(config, "sigma", "network", I)

    alpha_cfg = config.get("alpha")
    if isinstance(alpha_cfg, (list, tuple)):
        alpha_cfg = {"exprs": alpha_cfg}
    alpha_cfg = require_keys(alpha_cfg, {"exprs", "mode"}, "network.alpha")
    alpha = _alpha(edge_exprs(alpha_cfg, "exprs", "network.alpha", I, ("t", "l")),
                   choice(alpha_cfg, "mode", "network.alpha", ("exact", "renormalize"), "exact"))

    bounds_cfg = require_keys(config.get("bounds"), _BOUND_DEFAULTS, "network.bounds")
    bounds = CoefficientBounds(**{k: num(bounds_cfg, k, "network.bounds", default=v, lo=0.0)
                                  for k, v in _BOUND_DEFAULTS.items()})

    grid_cfg = require_keys(config.get("grid"), {"T", "x_max", "l_max", "n"}, "network.grid")
    plan = SamplingPlan.default(
        T=num(grid_cfg, "T", "network.grid", default=1.0, lo=1e-12),
        x_max=num(grid_cfg, "x_max", "network.grid", default=4.0, lo=1e-12),
        l_max=num(grid_cfg, "l_max", "network.grid", default=4.0, lo=1e-12),
        n=num(grid_cfg, "n", "network.grid", default=9, lo=2, integer=True),
    )

    cset = CoefficientSet(
        I=I,
        b=tuple(_evaluator(e) for e in b_exprs),
        sigma=tuple(_evaluator(e) for e in s_exprs),
        alpha=alpha,
        bounds=bounds,
    )
    report = validate_coefficients(cset, plan)
    clause_a = report.clause("A")
    if not clause_a.passed:
        t, l = clause_a.where[:2]
        total = float(cset.alpha_matrix(t, l).sum())
        if abs(total - 1.0) > 1e-12:
            raise ConfigError(f"alpha weights sum to {total!r} at (t, l) = ({t!r}, {l!r}) "
                              f"on the sampling grid; they must sum to 1")
        raise ConfigError(
            f"alpha violates the lower bound {bounds.a_lower} on the sampling grid "
            f"(worst {clause_a.worst:.6g} at {clause_a.where})")
    return replace(cset, validation=report)
