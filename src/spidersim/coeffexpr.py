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

from dataclasses import dataclass
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
    "AlphaSpec", "build_coefficient_set",
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


# -- tokenizer --------------------------------------------------------------


@dataclass(frozen=True)
class _Token:
    kind: str  # NUMBER IDENT OP LPAREN RPAREN COMMA EOF
    text: str
    offset: int


_DIGITS = set("0123456789")


def _tokenize(source: str) -> Iterator[_Token]:
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and source[i + 1] in _DIGITS):
            j = i
            while j < n and source[j] in _DIGITS:
                j += 1
            if j < n and source[j] == ".":
                j += 1
                while j < n and source[j] in _DIGITS:
                    j += 1
            if j < n and source[j] in "eE":
                k = j + 1
                if k < n and source[k] in "+-":
                    k += 1
                if k < n and source[k] in _DIGITS:
                    j = k
                    while j < n and source[j] in _DIGITS:
                        j += 1
            yield _Token("NUMBER", source[i:j], i)
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            yield _Token("IDENT", source[i:j], i)
            i = j
            continue
        if ch in "+-*/^":
            yield _Token("OP", ch, i)
            i += 1
            continue
        if ch == "(":
            yield _Token("LPAREN", ch, i)
            i += 1
            continue
        if ch == ")":
            yield _Token("RPAREN", ch, i)
            i += 1
            continue
        if ch == ",":
            yield _Token("COMMA", ch, i)
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
    if isinstance(node, (Num, Var, Call)):
        return _LEVEL_ATOM
    if isinstance(node, Neg):
        return _LEVEL_UNARY
    if isinstance(node, BinOp):
        return {"+": _LEVEL_ADD, "-": _LEVEL_ADD,
                "*": _LEVEL_MUL, "/": _LEVEL_MUL, "^": _LEVEL_POW}[node.op]
    raise TypeError(node)


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


def variables(node: Expr) -> set[str]:
    if isinstance(node, Var):
        return {node.name}
    if isinstance(node, Neg):
        return variables(node.operand)
    if isinstance(node, BinOp):
        return variables(node.left) | variables(node.right)
    if isinstance(node, Call):
        out: set[str] = set()
        for a in node.args:
            out |= variables(a)
        return out
    return set()


def _check_finite(val, what: str):
    if not np.all(np.isfinite(val)):
        raise EvalError(f"non-finite result in {what}")
    return val


def _eval(node: Expr, env: dict[str, np.ndarray]):
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_eval(node.operand, env)
    if isinstance(node, BinOp):
        a = _eval(node.left, env)
        b = _eval(node.right, env)
        if node.op == "+":
            return _check_finite(a + b, "addition")
        if node.op == "-":
            return _check_finite(a - b, "subtraction")
        if node.op == "*":
            return _check_finite(a * b, "multiplication")
        if node.op == "/":
            if np.any(b == 0):
                raise EvalError("division by zero")
            return _check_finite(a / b, "division")
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.power(a, b)
        return _check_finite(out, "power")
    if isinstance(node, Call):
        args = [_eval(a, env) for a in node.args]
        if node.name == "sqrt":
            if np.any(args[0] < 0):
                raise EvalError("sqrt of negative value")
            return np.sqrt(args[0])
        if node.name == "abs":
            return np.abs(args[0])
        if node.name == "min":
            return np.minimum(args[0], args[1])
        if node.name == "max":
            return np.maximum(args[0], args[1])
        if node.name == "clamp":
            return np.minimum(np.maximum(args[0], args[1]), args[2])
        with np.errstate(over="ignore"):
            out = getattr(np, node.name)(args[0])
        return _check_finite(out, node.name)
    raise TypeError(node)


def evaluate(node: Expr, t=0.0, x=0.0, l=0.0):
    """Evaluate with bindings for t, x, l (scalars or broadcastable arrays)."""
    env = {
        "t": np.asarray(t, dtype=np.float64),
        "x": np.asarray(x, dtype=np.float64),
        "l": np.asarray(l, dtype=np.float64),
    }
    out = _eval(node, env)
    shape = np.broadcast_shapes(env["t"].shape, env["x"].shape, env["l"].shape)
    return np.broadcast_to(np.asarray(out, dtype=np.float64), shape).copy() if shape else float(out)


def _compile(node: Expr, names: tuple[str, ...] = _VARIABLES):
    """Callable of the variables ``names``, in that order; the others are 0.0.
    Calls ``evaluate`` through the module global, where wrappers see it."""
    def fn(*args):
        return evaluate(node, **dict(zip(names, args)))
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


@dataclass(frozen=True)
class AlphaSpec:
    """Edge-selection weights: I expressions over (t, l).

    mode "exact" requires the expressions to sum to one; "renormalize"
    divides by the sum and requires every raw value to be positive.
    """

    exprs: tuple[Expr, ...]
    mode: str = "exact"

    def __post_init__(self):
        if self.mode not in ("exact", "renormalize"):
            raise ConfigError(f"unknown alpha mode {self.mode!r}")
        for e in self.exprs:
            extra = variables(e) - {"t", "l"}
            if extra:
                raise ConfigError(
                    f"alpha expressions may use only t and l, found {sorted(extra)}")

    def evaluator(self):
        exprs = self.exprs
        mode = self.mode
        I = len(exprs)

        def alpha(t, l):
            t = np.asarray(t, dtype=np.float64)
            l = np.asarray(l, dtype=np.float64)
            cols = [np.broadcast_to(evaluate(e, t, 0.0, l),
                                    np.broadcast_shapes(t.shape, l.shape)) for e in exprs]
            raw = np.stack([np.ravel(col) for col in cols], axis=-1)
            if mode == "renormalize":
                if np.any(raw <= 0):
                    raise EvalError("renormalized alpha requires positive raw values")
                raw = raw / raw.sum(axis=-1, keepdims=True)
            if t.ndim == 0 and l.ndim == 0:
                return raw.reshape(I)
            return raw

        return alpha


def _evaluator(node: Expr):
    """An expression without variables, evaluated once, as the number: a
    constant coefficient.  Any other expression compiled."""
    return _compile(node) if variables(node) else evaluate(node)


_BOUND_DEFAULTS = {"a_lower": 1e-3, "sigma_lower": 1e-3, "b_bound": 10.0,
                   "sigma_bound": 10.0, "alpha_lip": 10.0}


def build_coefficient_set(config: dict) -> CoefficientSet:
    """Assemble a CoefficientSet from the "network" block of a config.

    Keys: I, b (expressions over t, x, l, one per ray or one for all),
    sigma (same), alpha ({exprs, mode} or a plain list meaning mode "exact";
    expressions over t, l), bounds, and grid (the sampling grid of the
    admissibility report, which is attached).
    """
    config = require_keys(config, {"I", "b", "sigma", "alpha", "bounds", "grid"}, "network")
    I = num(config, "I", "network", lo=2, integer=True)
    b_exprs = edge_exprs(config, "b", "network", I)
    s_exprs = edge_exprs(config, "sigma", "network", I)

    alpha_cfg = config.get("alpha")
    if isinstance(alpha_cfg, (list, tuple)):
        alpha_cfg = {"exprs": alpha_cfg}
    alpha_cfg = require_keys(alpha_cfg, {"exprs", "mode"}, "network.alpha")
    spec = AlphaSpec(
        exprs=edge_exprs(alpha_cfg, "exprs", "network.alpha", I, ("t", "l")),
        mode=choice(alpha_cfg, "mode", "network.alpha", ("exact", "renormalize"), "exact"),
    )

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
        alpha=spec.evaluator(),
        bounds=bounds,
    )
    report = validate_coefficients(cset, plan)
    clause_a = report.clause("A")
    if not clause_a.passed:
        raise ConfigError(
            f"alpha violates the lower bound {bounds.a_lower} on the default grid "
            f"(worst {clause_a.worst:.6g} at {clause_a.where})")
    return CoefficientSet(
        I=cset.I, b=cset.b, sigma=cset.sigma, alpha=cset.alpha,
        bounds=cset.bounds, validation=report,
    )
