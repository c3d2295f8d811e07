import random
import warnings
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spidersim.coeffexpr import (
    _children,
    _compile,
    _fuse,
    _names,
    BinOp,
    Call,
    ConfigError,
    EvalError,
    Neg,
    Num,
    ParseError,
    Var,
    build_coefficient_set,
    evaluate,
    parse,
    pretty,
    variables,
)
from spidersim.network import CoefficientBounds, CoefficientSet, per_ray, ray_partition

_FUNCTIONS = [("sin", 1), ("cos", 1), ("exp", 1), ("tanh", 1), ("sqrt", 1),
              ("abs", 1), ("min", 2), ("max", 2), ("clamp", 3)]


def test_parse_example_ast():
    ast = parse("0.5 + 0.1*tanh(l)")
    assert ast == BinOp("+", Num(0.5), BinOp("*", Num(0.1), Call("tanh", (Var("l"),))))


def test_parse_error_offset_and_expectation():
    with pytest.raises(ParseError) as err:
        parse("1 +")
    assert err.value.offset == 3
    assert "operand" in err.value.expected


def test_power_is_right_associative():
    assert evaluate(parse("2^3^2")) == 512.0
    assert evaluate(parse("(2^3)^2")) == 64.0


def test_evaluate_examples():
    assert evaluate(parse("t + x*l"), 1, 2, 3) == 7.0
    assert evaluate(parse("clamp(l, 0, 1)"), l=5) == 1.0
    assert evaluate(parse("exp(-l)"), l=0) == 1.0


def test_evaluate_is_vectorized():
    out = evaluate(parse("t + x*l"), np.array([1.0, 2.0]), 2.0, np.array([3.0, 0.5]))
    assert np.array_equal(out, np.array([7.0, 3.0]))


def test_compile_binds_missing_variables_to_zero():
    node = parse("1 + t + 10*x + 100*l")
    assert _compile(node)(1.0, 2.0, 3.0) == 322.0
    assert _compile(node, ("x", "l"))(2.0, 3.0) == 321.0
    assert _compile(node, ("t", "l"))(1.0, 3.0) == 302.0
    assert _compile(node, ("t", "x"))(1.0, 2.0) == 22.0


def test_evaluation_errors_have_diagnostics():
    with pytest.raises(EvalError, match="division by zero"):
        evaluate(parse("1/(t-1)"), t=1.0)
    with pytest.raises(EvalError, match="sqrt of negative"):
        evaluate(parse("sqrt(t-2)"), t=1.0)
    with pytest.raises(EvalError, match="non-finite"):
        evaluate(parse("exp(x)^9"), x=500.0)


def test_unknown_identifier_and_arity():
    with pytest.raises(ParseError, match="unknown function"):
        parse("foo(2)")
    with pytest.raises(ParseError, match="unknown identifier"):
        parse("2 * y")
    with pytest.raises(ParseError, match="argument"):
        parse("min(1)")
    with pytest.raises(ParseError, match="trailing"):
        parse("1 2")


def _random_ast(r: random.Random, depth: int):
    if depth <= 0 or r.random() < 0.3:
        if r.random() < 0.5:
            return Num(round(r.uniform(0, 9), 3))
        return Var(r.choice("txl"))
    roll = r.random()
    if roll < 0.55:
        return BinOp(r.choice("+-*/^"), _random_ast(r, depth - 1), _random_ast(r, depth - 1))
    if roll < 0.75:
        return Neg(_random_ast(r, depth - 1))
    name, arity = r.choice(_FUNCTIONS)
    return Call(name, tuple(_random_ast(r, depth - 1) for _ in range(arity)))


def test_round_trip_fuzz_small():
    r = random.Random(2024)
    for _ in range(2000):
        ast = _random_ast(r, 4)
        assert parse(pretty(ast)) == ast


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=40))
def test_parser_totality_never_crashes(source):
    try:
        parse(source)
    except ParseError:
        pass  # positioned rejection is the contract


def test_variables():
    assert variables(parse("t + x*l")) == {"t", "x", "l"}
    assert variables(parse("1 + 2")) == set()


def _base_config():
    return {
        "I": 3,
        "b": ["0"] * 3,
        "sigma": ["1"] * 3,
        "alpha": {"exprs": ["1+l", "1", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 1.0,
                   "sigma_bound": 1.0, "alpha_lip": 1.0},
    }


def test_build_coefficient_set_renormalized_alpha():
    c = build_coefficient_set(_base_config())
    assert c.validation is not None and c.validation.passed
    np.testing.assert_allclose(c.alpha_matrix(0.0, 0.0), [1 / 3] * 3, atol=1e-15)
    np.testing.assert_allclose(c.alpha_matrix(0.0, 1.0), [0.5, 0.25, 0.25], atol=1e-15)


def test_build_exact_alpha_two_edges():
    cfg = {"I": 2, "b": ["0", "0"], "sigma": ["1", "1"],
           "alpha": ["0.5", "0.5"],
           "bounds": {"a_lower": 0.4, "sigma_lower": 0.5, "b_bound": 1.0,
                      "sigma_bound": 1.0, "alpha_lip": 0.1}}
    c = build_coefficient_set(cfg)
    assert c.validation.passed


def test_alpha_summing_to_one_everywhere():
    c = build_coefficient_set(_base_config())
    rng = np.random.default_rng(5)
    t = rng.uniform(0, 1, 257)
    l = rng.uniform(0, 5, 257)
    sums = c.alpha_matrix(t, l).sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) <= 1e-12


def test_build_rejects_alpha_floor_violation():
    cfg = _base_config()
    cfg["bounds"]["a_lower"] = 0.3  # (1,1)/(3+l) drops below 0.3 on the grid
    with pytest.raises(ConfigError, match="lower bound"):
        build_coefficient_set(cfg)


def test_build_rejects_x_in_alpha():
    cfg = _base_config()
    cfg["alpha"] = {"exprs": ["1+x", "1", "1"], "mode": "renormalize"}
    with pytest.raises(ConfigError, match="only t and l"):
        build_coefficient_set(cfg)


def test_build_propagates_parse_errors():
    cfg = _base_config()
    cfg["b"] = ["1 +", "0", "0"]
    with pytest.raises(ParseError):
        build_coefficient_set(cfg)


def test_build_rejects_unknown_keys():
    cfg = _base_config()
    cfg["extra"] = 1
    with pytest.raises(ConfigError, match="unknown"):
        build_coefficient_set(cfg)


def test_renormalize_requires_positive_raw_values():
    for exprs in (["l - 1", "1"], ["-1", "2"]):  # evaluated on the grid, and folded once
        cfg = {"I": 2, "b": "0", "sigma": "1", "alpha": {"exprs": exprs, "mode": "renormalize"}}
        with pytest.raises(EvalError, match="positive"):
            build_coefficient_set(cfg)


def test_literal_weights_are_a_table_and_variable_weights_an_evaluator():
    c = build_coefficient_set({"I": 2, "b": "0", "sigma": "1",
                               "alpha": {"exprs": ["3", "1"], "mode": "renormalize"}})
    assert c.alpha == (0.75, 0.25) and c.alpha_table.tolist() == [0.75, 0.25]
    c = build_coefficient_set(_base_config())
    assert c.alpha_table is None
    assert c.alpha(np.zeros(4), np.ones(4)).shape == (4, 3)


@pytest.mark.parametrize("weights, match", [
    (["0.5", "0.6"], r"sum to 1\.1 "),
    (["0.5 + 0.1*l", "0.5"], r"sum to 1\.4 at \(t, l\) = \(0\.0, 4\.0\)"),
    (["0.95", "0.05"], "lower bound 0.1"),
], ids=["literal-sum", "sum-in-l", "floor"])
def test_clause_a_failure_names_what_failed(weights, match):
    cfg = {"I": 2, "b": "0", "sigma": "1", "alpha": weights, "bounds": {"a_lower": 0.1}}
    with pytest.raises(ConfigError, match=match):
        build_coefficient_set(cfg)


# -- the compiled evaluator against the reference tree walk ---------------------


def _reference_check_finite(val, what):
    if not np.all(np.isfinite(val)):
        raise EvalError(f"non-finite result in {what}")
    return val


def _reference_eval(node, env):
    """The checked tree walk that evaluate ran before it compiled expressions."""
    if isinstance(node, Num):
        return np.float64(node.value)
    if isinstance(node, Var):
        return env[node.name]
    if isinstance(node, Neg):
        return -_reference_eval(node.operand, env)
    if isinstance(node, BinOp):
        a = _reference_eval(node.left, env)
        b = _reference_eval(node.right, env)
        if node.op == "+":
            return _reference_check_finite(a + b, "addition")
        if node.op == "-":
            return _reference_check_finite(a - b, "subtraction")
        if node.op == "*":
            return _reference_check_finite(a * b, "multiplication")
        if node.op == "/":
            if np.any(b == 0):
                raise EvalError("division by zero")
            return _reference_check_finite(a / b, "division")
        with np.errstate(invalid="ignore", over="ignore"):
            out = np.power(a, b)
        return _reference_check_finite(out, "power")
    args = [_reference_eval(a, env) for a in node.args]
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
    return _reference_check_finite(out, node.name)


def _reference_evaluate(node, t=0.0, x=0.0, l=0.0):
    env = {"t": np.asarray(t, dtype=np.float64), "x": np.asarray(x, dtype=np.float64),
           "l": np.asarray(l, dtype=np.float64)}
    out = _reference_eval(node, env)
    shape = np.broadcast_shapes(env["t"].shape, env["x"].shape, env["l"].shape)
    return np.broadcast_to(np.asarray(out, dtype=np.float64), shape).copy() if shape else float(out)


def _outcome(fn, node, args):
    """(type, bits, shape) of fn's value, or (exception type, message)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = fn(node, *args)
    except EvalError as exc:
        return type(exc), str(exc)
    return type(out), np.asarray(out).tobytes(), np.shape(out)


_SPECIAL = [0.0, -0.0, 0.5, 1.0, -1.0, 2.0, -3.25, 1e-300, 700.0, -800.0, 1e300,
            np.inf, -np.inf, np.nan]
_leaves = st.one_of(
    st.builds(Num, st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, 800.0, 1e300, np.inf])),
    st.builds(Var, st.sampled_from("txl")))
_trees = st.recursive(_leaves, lambda kids: st.one_of(
    st.builds(Neg, kids),
    st.builds(BinOp, st.sampled_from("+-*/^"), kids, kids),
    *[st.builds(Call, st.just(name), st.tuples(*[kids] * arity)) for name, arity in _FUNCTIONS],
), max_leaves=10)
# scalars, 1-d arrays and shapes that broadcast to (2, 3) against each other
_inputs = st.sampled_from([(), (1,), (3,), (2, 1)]).flatmap(lambda shape: st.one_of(
    st.sampled_from(_SPECIAL), st.floats(-5, 5),
    st.lists(st.sampled_from(_SPECIAL) | st.floats(-5, 5),
             min_size=int(np.prod(shape)), max_size=int(np.prod(shape))).map(
        lambda v: np.array(v, dtype=np.float64).reshape(shape))))


@settings(max_examples=1500, deadline=None)
@given(_trees, _inputs, _inputs, _inputs)
def test_evaluate_matches_the_reference_walk(node, t, x, l):
    """Equal value bits, shape and type, or the same EvalError message."""
    assert _outcome(evaluate, node, (t, x, l)) == _outcome(_reference_evaluate, node, (t, x, l))


@pytest.mark.parametrize("source, message", [
    ("1/exp(800*x)", "non-finite result in exp"),  # finite at the root, hidden by the division
    ("exp(800*x) + 1/(x - x)", "non-finite result in exp"),  # the first failing node in post-order
    ("1/(x - x) + exp(800*x)", "division by zero"),
    ("2 - 1/(x + 1)^2000", "non-finite result in power"),
    ("tanh(x*1e308*10)", "non-finite result in multiplication"),
    ("max(sqrt(x - 2), 0)", "sqrt of negative value"),
    ("clamp(x, 0, exp(x*2000))", "non-finite result in exp"),
])
def test_hidden_and_ordered_failures(source, message):
    node = parse(source)
    # an overflow in * warns once on each pass (README), here on both calls
    overflows = pytest.warns(RuntimeWarning, match="overflow") if "1e308" in source else nullcontext()
    with overflows, pytest.raises(EvalError) as err:
        evaluate(node, x=1.0)
    assert str(err.value) == message
    with overflows, pytest.raises(EvalError, match=message):  # again, on the closure kept on the node
        evaluate(node, x=np.array([0.5, 1.0]))


@pytest.mark.parametrize("source", ["exp(800*x)", "(0 - x)^0.5", "2^(1100*x)", "1/(x - 1)",
                                    "sqrt(x - 2)", "0*exp(800*x)", "tanh(exp(800*x))"])
def test_no_warning_where_the_reference_walk_is_silent(source):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EvalError):
            evaluate(parse(source), x=np.array([1.0, 1.0]))


def test_an_input_is_returned_as_a_copy():
    x = np.array([1.0, 2.0, 3.0])
    out = evaluate(parse("x"), x=x)
    assert out is not x and not np.shares_memory(out, x) and out.tolist() == [1.0, 2.0, 3.0]
    out = evaluate(parse("((x))"), 0.0, x, np.zeros(3))
    assert not np.shares_memory(out, x)
    assert evaluate(parse("t"), np.zeros((2, 1)), x).shape == (2, 3)
    assert type(evaluate(parse("x"), x=2.0)) is float


# -- a family's rays fused into one tree ------------------------------------------


def _renumber(node, numbers):
    """node with its numbers, in preorder, taken from the iterator numbers."""
    if isinstance(node, Num):
        return Num(next(numbers))
    if isinstance(node, Neg):
        return Neg(_renumber(node.operand, numbers))
    if isinstance(node, BinOp):
        return BinOp(node.op, _renumber(node.left, numbers), _renumber(node.right, numbers))
    if isinstance(node, Call):
        return Call(node.name, tuple(_renumber(a, numbers) for a in node.args))
    return node


def _count_numbers(node):
    return isinstance(node, Num) + sum(map(_count_numbers, _children(node)))


def _constant_parts(node):
    """The largest subtrees of node without a variable, in preorder."""
    if not variables(node):
        return [node]
    return [p for k in _children(node) for p in _constant_parts(k)]


def _evaluates(node):
    try:
        with np.errstate(all="ignore"):
            evaluate(node)
    except EvalError:
        return False
    return True


def _row_set(trees):
    """The rays' compiled trees as b of a CoefficientSet, which fuses them."""
    I = len(trees)
    return CoefficientSet(I=I, b=tuple(map(_compile, trees)), sigma=(1.0,) * I,
                          alpha=(1.0 / I,) * I,
                          bounds=CoefficientBounds(a_lower=0.1, sigma_lower=0.5, b_bound=1.0,
                                                   sigma_bound=1.0, alpha_lip=1.0))


def _per_ray_reference(trees, edge, t, x, l):
    return per_ray(ray_partition(len(trees), edge), lambda e, *a: evaluate(trees[e - 1], *a), t, x, l)


_NUMBERS = st.sampled_from([0.0, 0.5, 1.0, 2.0, 2.5, 3.0, 800.0, 1e300, np.inf])


@st.composite
def _families(draw):
    """A random tree copied onto 2 or 3 rays, each copy after the first with
    numbers of its own, and 1-8 rows, each on a random ray."""
    tree = draw(_trees)
    I, n, count = draw(st.integers(2, 3)), draw(st.integers(1, 8)), _count_numbers(tree)
    trees = [tree] + [_renumber(tree, iter(draw(st.lists(_NUMBERS, min_size=count, max_size=count))))
                      for _ in range(I - 1)]
    edge = np.array(draw(st.lists(st.integers(1, I), min_size=n, max_size=n)))
    t, x, l = (np.array(draw(st.lists(st.sampled_from(_SPECIAL) | st.floats(-5, 5),
                                      min_size=n, max_size=n)), dtype=np.float64) for _ in "txl")
    return tuple(trees), edge, t, x, l


@settings(max_examples=1500, deadline=None)
@given(_families())
def test_fused_rows_match_per_ray_evaluation(family):
    """The row-wise drift of a fused family equals per_ray over the rays'
    own trees bit for bit, or raises the same EvalError.  Trees without a
    variable do not fuse (a table); trees with one and without ^ fuse
    unless a part without a variable raises on some ray."""
    trees, edge, t, x, l = family
    c = _row_set(trees)
    if not variables(trees[0]):
        assert c.b_rows is None
    elif "^" not in _names(trees[0]) and all(map(_evaluates, sum(map(_constant_parts, trees), []))):
        assert c.b_rows is not None
    assert (_outcome(lambda *_: c.drift(edge, t, x, l), None, ())
            == _outcome(lambda *_: _per_ray_reference(trees, edge, t, x, l), None, ()))


@pytest.mark.parametrize("sources, fuses", [
    (["0.1*tanh(x)", "0.2*tanh(x)", "0.3*tanh(x)"], True),
    (["1 + 0.1*sin(t)", "1 + 0.1*sin(t)"], True),  # equal trees
    (["2^x", "2.5^x"], False),  # a per-ray base: a number per ray, an array fused
    (["x^2", "x^2.5"], False),  # a per-ray exponent: np.power(x, 2.0) squares
    (["x^(2*1)", "x^(2.5*1)"], False),
    (["x^2", "x^2"], True),
    (["x^(2*1)", "x^(4/2)"], True),  # both parts evaluate to 2.0
    (["(0.1*x)^2", "(0.2*x)^2"], True),  # an array base on both paths
    (["x^(0.1*t)", "x^(0.2*t)"], True),
    (["exp(0.1)*x", "exp(0.2)*x"], True),  # exp(0.1) evaluated per ray, as a number
    (["0.5*x", "-0.5*x"], True),  # Neg(0.5) evaluates to -0.5
    (["0.1*10*tanh(x)", "1e308*10*tanh(x)"], False),  # 1e308*10 raises on ray 2
    (["tanh(x)", "sin(x)"], False),
    (["x + 1", "1 + x"], False),
    (["x", "t"], False),
    (["1", "2"], False),  # numbers: a table
])
def test_which_families_fuse(sources, fuses):
    assert (_fuse(tuple(map(parse, sources))) is not None) == fuses


@pytest.mark.parametrize("sources, message", [
    (["1/(x - 3)", "1/(x - 2)"], "division by zero"),
    (["exp(1*x)", "exp(800*x)"], "non-finite result in exp"),
    (["10*tanh(x)*0.1", "10*tanh(x)*1e308"], "non-finite result in multiplication"),
])
def test_a_failure_on_ray_two_only_still_raises(sources, message):
    """A value that is finite on ray 1 and not on ray 2 raises ray 2's
    error when ray 2 has rows, and stays out of the way when it has none."""
    trees = tuple(map(parse, sources))
    c = _row_set(trees)
    assert c.b_rows is not None
    x, zeros = np.array([1.0, 2.0, 2.0]), np.zeros(3)
    overflows = pytest.warns(RuntimeWarning) if "1e308" in sources[1] else nullcontext()
    with overflows, pytest.raises(EvalError) as err:
        c.drift(np.array([1, 2, 1]), zeros, x, zeros)
    assert str(err.value) == message
    assert np.array_equal(c.drift(np.array([1, 1, 1]), zeros, x, zeros),
                          evaluate(trees[0], zeros, x, zeros))
