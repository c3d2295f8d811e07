import numpy as np
import pytest

from spidersim.network import (
    CoefficientBounds,
    CoefficientSet,
    NetworkError,
    SamplingPlan,
    TestFunction,
    TfTerm,
    constant_coefficients,
    generator,
    per_ray,
    ray_partition,
    validate_coefficients,
    vertex_operator,
)


def test_validate_constant_coefficients_pass():
    c = constant_coefficients(
        2, sigma=1.0, b=0.0, alpha=[0.5, 0.5],
        bounds=CoefficientBounds(a_lower=0.4, sigma_lower=0.5, b_bound=0.1,
                                 sigma_bound=1.0, alpha_lip=0.1))
    report = validate_coefficients(c)
    assert report.passed
    assert all(cl.passed for cl in report.clauses)
    assert {cl.name for cl in report.clauses} == {"A", "E", "R-i", "R-ii", "R-iii"}


def test_validate_degenerate_alpha_fails_clause_a():
    c = constant_coefficients(2, alpha=[1.0, 0.0],
                              bounds=CoefficientBounds(0.1, 0.5, 1.0, 1.0, 1.0))
    report = validate_coefficients(c)
    assert not report.clause("A").passed
    assert not report.passed


def test_validate_vanishing_sigma_fails_clause_e():
    base = constant_coefficients(2)
    c = CoefficientSet(
        I=2,
        b=base.b,
        sigma=(lambda t, x, l: np.asarray(x, dtype=float), base.sigma[1]),
        alpha=base.alpha,
        bounds=CoefficientBounds(a_lower=0.4, sigma_lower=0.1, b_bound=1.0,
                                 sigma_bound=5.0, alpha_lip=1.0),
    )
    report = validate_coefficients(c)
    assert not report.clause("E").passed


def test_validate_rejects_wrong_alpha_length():
    base = constant_coefficients(2)
    c = CoefficientSet(I=2, b=base.b, sigma=base.sigma,
                       alpha=lambda t, l: np.full((np.size(t), 3), 1 / 3),
                       bounds=base.bounds)
    with pytest.raises(NetworkError):
        validate_coefficients(c)


def test_alpha_evaluator_has_one_return_shape():
    """An evaluator gets 1-d t and l and returns (n, I), also for scalar
    inputs; a row of I weights for n points is an error, as is a table of
    the wrong length."""
    base = constant_coefficients(2)
    seen = []

    def row(t, l):
        seen.append((t.shape, l.shape))
        return np.array([0.5, 0.5])

    c = CoefficientSet(I=2, b=base.b, sigma=base.sigma, alpha=row, bounds=base.bounds)
    with pytest.raises(NetworkError, match=r"\(2,\), expected \(3, 2\)"):
        c.alpha_matrix(np.zeros(3), np.zeros(3))
    with pytest.raises(NetworkError, match=r"expected \(1, 2\)"):
        c.alpha_matrix(0.0, 0.0)
    assert seen == [((3,), (3,)), ((1,), (1,))]
    with pytest.raises(NetworkError, match="alpha table"):
        CoefficientSet(I=2, b=base.b, sigma=base.sigma, alpha=(0.2, 0.3, 0.5), bounds=base.bounds)


def test_constant_coefficients_reject_negative_weights():
    with pytest.raises(NetworkError, match="nonnegative"):
        constant_coefficients(2, alpha=[1.2, -0.2])


def test_validate_rejects_single_edge():
    with pytest.raises(NetworkError):
        constant_coefficients(1)


def test_validation_samples_alpha_once():
    """Clause A's (t, l) rows, reshaped to (t, l, ray), are the R-iii field:
    one validate_coefficients call evaluates alpha once, on every row."""
    base = constant_coefficients(2)
    calls = []

    def alpha(t, l):
        calls.append(t.size)
        w = 0.5 + 0.1 * np.tanh(l - t)
        return np.stack([w, 1.0 - w], axis=-1)

    c = CoefficientSet(I=2, b=base.b, sigma=base.sigma, alpha=alpha, bounds=base.bounds)
    report = validate_coefficients(c, SamplingPlan.default(n=5))
    assert calls == [25]
    assert report.clause("R-iii").worst > 0


def test_more_samples_never_rescue_a_failure():
    # Lipschitz-in-l violation visible only on the fine grid
    base = constant_coefficients(2)
    c = CoefficientSet(
        I=2, b=base.b,
        sigma=(lambda t, x, l: 1.0 + 0.9 * np.sin(8.0 * np.asarray(l)), base.sigma[1]),
        alpha=base.alpha,
        bounds=CoefficientBounds(a_lower=0.4, sigma_lower=0.05, b_bound=1.0,
                                 sigma_bound=2.0, alpha_lip=1.0),
    )
    coarse = validate_coefficients(c, SamplingPlan.default(n=3))
    fine = validate_coefficients(c, SamplingPlan.default(n=41))
    assert fine.clause("R-ii").worst >= coarse.clause("R-ii").worst
    if not coarse.passed:
        assert not fine.passed


def _battery_function():
    return TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5), x_poly=(0.0, 1.0, 0.25),
               l_poly=(1.0, 0.5), time_poly=(1.0, 2.0)),
        TfTerm(edge_coeffs=(0.3, 0.3), x_poly=(1.0, 0.0, 0.5),
               l_poly=(0.0, 1.0), sin_omega=1.7, sin_phase=0.2),
    ))


CONTINUITY_TOL = 1e-12  # largest jump across the rays at the vertex a test function may have


def _check_continuity(f: TestFunction, t, l) -> bool:
    vals = [f.value(e, t, np.zeros_like(np.asarray(l, dtype=float)), l)
            for e in range(1, f.I + 1)]
    ref = vals[0]
    return all(np.max(np.abs(v - ref)) <= CONTINUITY_TOL for v in vals[1:])


def _check_derivatives(f: TestFunction, rng: np.random.Generator, n: int = 100,
                       step: float = 1e-4, tol: float = 1e-6) -> float:
    """Largest gap between f's declared derivatives and central differences;
    a gap above tol is an error."""
    t = rng.uniform(0.1, 0.9, n)
    x = rng.uniform(0.1, 2.0, n)
    l = rng.uniform(0.1, 2.0, n)
    e = rng.integers(1, f.I + 1, n)
    gaps = (
        (f.dt(e, t, x, l), f.value(e, t + step, x, l) - f.value(e, t - step, x, l)),
        (f.dx(e, t, x, l), f.value(e, t, x + step, l) - f.value(e, t, x - step, l)),
        (f.dl(e, t, x, l), f.value(e, t, x, l + step) - f.value(e, t, x, l - step)),
    )
    worst = max(float(np.max(np.abs(der - diff / (2 * step)))) for der, diff in gaps)
    fd2 = (f.value(e, t, x + step, l) - 2 * f.value(e, t, x, l)
           + f.value(e, t, x - step, l)) / step**2
    worst = max(worst, float(np.max(np.abs(f.dxx(e, t, x, l) - fd2))))
    if worst > tol:
        raise NetworkError(f"analytic derivatives disagree with finite differences by {worst}")
    return worst


def test_test_function_vertex_continuity():
    f = _battery_function()
    t = np.linspace(0, 1, 7)
    l = np.linspace(0, 2, 7)
    assert _check_continuity(f, t, l)
    # edge-dependent vertex values are rejected at construction
    with pytest.raises(NetworkError):
        TfTerm(edge_coeffs=(1.0, 2.0), x_poly=(1.0, 1.0))


def test_test_function_derivatives_match_finite_differences():
    f = _battery_function()
    worst = _check_derivatives(f, np.random.default_rng(11), n=100, step=1e-4, tol=1e-6)
    assert worst <= 1e-6


def test_vertex_views_are_edge_independent():
    f = _battery_function()
    t = np.array([0.3, 0.9])
    l = np.array([0.0, 1.4])
    v1 = f.value(1, t, np.zeros(2), l)
    v2 = f.value(2, t, np.zeros(2), l)
    assert np.allclose(v1, v2, atol=1e-14)
    assert np.allclose(f.dl(1, t, np.zeros(2), l), f.dl(2, t, np.zeros(2), l), atol=1e-14)
    # slopes genuinely differ across edges at the vertex
    assert not np.allclose(f.dx_vertex(1, t, l), f.dx_vertex(2, t, l))


def test_per_ray_gathers_each_rays_rows():
    edge = np.array([2, 1, 2, 2, 1])
    x = np.arange(5.0)
    parts = ray_partition(3, edge)
    assert [r.tolist() for r in parts] == [[1, 4], [0, 2, 3], []]
    assert per_ray(parts, lambda e, x: 10.0 * e + x, x).tolist() == [20, 11, 22, 23, 14]


@pytest.mark.parametrize("edge", [[1, 3, 2], [0, 1, 2]], ids=["label-above-I", "label-zero"])
def test_per_ray_rejects_a_partition_that_misses_rows(edge):
    edge = np.array(edge)
    with pytest.raises(NetworkError, match="covers 2 of 3 rows"):
        per_ray(ray_partition(2, edge), lambda e, x: x, np.zeros(3))


# -- oracle: the one-pass evaluation against the formulas written out naively


def _naive_poly(coeffs, z):
    out = np.zeros_like(np.asarray(z, dtype=np.float64))
    for c in reversed(coeffs):
        out = out * z + c
    return out


def _naive_der(coeffs, order):
    for _ in range(order):
        coeffs = tuple(k * c for k, c in enumerate(coeffs))[1:] or (0.0,)
    return coeffs


def _naive_partial(f, edge, t, x, l, dt=0, dx=0, dl=0):
    """Sum over the terms of w * P(x) * Q(l) * tau(t), one full product per term."""
    out = 0.0
    for term in f.terms:
        if term.time_poly is not None:
            tau = _naive_poly(_naive_der(term.time_poly, dt), t)
        else:
            phase = term.sin_omega * np.asarray(t, dtype=np.float64) + term.sin_phase
            tau = term.sin_omega * np.cos(phase) if dt else np.sin(phase)
        w = np.asarray(term.edge_coeffs, dtype=np.float64)[np.asarray(edge) - 1]
        out = out + (w * _naive_poly(_naive_der(term.x_poly, dx), x)
                     * _naive_poly(_naive_der(term.l_poly, dl), l) * tau)
    return out


def _random_test_function(rng, I):
    terms = []
    for k in range(4):
        x_poly = tuple(rng.normal(size=rng.integers(1, 5)))
        if k % 2:  # edge-dependent weights need P(0) = 0
            weights = tuple(rng.normal(size=I))
            x_poly = (0.0,) + (x_poly[1:] or (1.0,))
        else:
            weights = (float(rng.normal()),) * I
        l_poly = tuple(rng.normal(size=rng.integers(1, 5)))
        if k % 3:
            time = {"time_poly": tuple(rng.normal(size=rng.integers(1, 5)))}
        else:
            time = {"sin_omega": float(rng.normal()), "sin_phase": float(rng.normal())}
        terms.append(TfTerm(edge_coeffs=weights, x_poly=x_poly, l_poly=l_poly, **time))
    return TestFunction(I=I, terms=tuple(terms))


def _l_dependent_coefficients(I):
    base = constant_coefficients(I)

    def alpha(t, l):
        raw = 1.0 + np.outer(l, np.arange(I, dtype=float))
        return raw / raw.sum(axis=1, keepdims=True)

    return CoefficientSet(I=I, b=base.b, sigma=base.sigma, alpha=alpha, bounds=base.bounds)


@pytest.mark.parametrize("n", [49, 20_000])
@pytest.mark.parametrize("I", [2, 3])
def test_one_pass_operators_equal_the_naive_formulas_bit_for_bit(I, n):
    rng = np.random.default_rng(100 * I + n)
    c = _l_dependent_coefficients(I)
    for _ in range(3):
        f = _random_test_function(rng, I)
        t, x, l = rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 3.0, n), rng.uniform(0.0, 3.0, n)
        b, sigma = rng.normal(size=n), rng.uniform(0.5, 2.0, n)
        for edge in (rng.integers(1, I + 1, n), I):
            for tt in (t, 0.37):
                partials = {name: _naive_partial(f, edge, tt, x, l, **orders) for name, orders in
                            (("value", {}), ("dt", {"dt": 1}), ("dx", {"dx": 1}),
                             ("dxx", {"dx": 2}), ("dl", {"dl": 1}))}
                for name, want in partials.items():
                    assert np.array_equal(getattr(f, name)(edge, tt, x, l), want), name
                want = ((partials["dt"] + 0.5 * sigma**2 * partials["dxx"])
                        + b * partials["dx"])
                assert np.array_equal(generator(f, edge, tt, x, l, b, sigma), want)
        for tt in (t, 0.37):
            ttb = np.broadcast_to(tt, l.shape)
            zeros = np.zeros(n)
            want = _naive_partial(f, 1, ttb, zeros, l, dl=1).astype(float)
            amat = c.alpha_matrix(ttb, l)
            for e in range(1, I + 1):
                want += amat[:, e - 1] * _naive_partial(f, e, ttb, zeros, l, dx=1)
            assert np.array_equal(vertex_operator(c, f, tt, l), want)
        scalar = vertex_operator(c, f, 0.37, 1.2)
        assert isinstance(scalar, float)
        assert scalar == vertex_operator(c, f, np.array([0.37]), np.array([1.2]))[0]
