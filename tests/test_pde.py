import sys
from dataclasses import replace

import numpy as np
import pytest

from spidersim.coeffexpr import build_coefficient_set
from spidersim.network import CoefficientSet, TestFunction, TfTerm, constant_coefficients
from spidersim.pde import (
    PdeError,
    PdeGrid,
    PdeProblem,
    PdeSolution,
    flat_profile_poly,
    manufactured_backward,
    residual,
    solve,
    source_rows,
)


def _const_c(I=2, alpha=None):
    return constant_coefficients(I, sigma=1.0, b=0.0, alpha=alpha)


def _zero_g(I):
    return tuple(lambda x, l: 0.0 * np.asarray(x) * np.asarray(l) for _ in range(I))


def _alpha_l_coefficients():
    return build_coefficient_set({
        "I": 2, "b": ["0", "0"], "sigma": ["1", "1"],
        "alpha": {"exprs": ["1 + l", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.15, "sigma_lower": 0.5, "b_bound": 1.0,
                   "sigma_bound": 1.0, "alpha_lip": 1.0},
    })


def test_constant_solution_machine_precision():
    prob = PdeProblem(coefficients=_const_c(), T=1.0, R=2.0, K=2.0,
                      g_edge=tuple(lambda x, l: 5.0 + 0.0 * np.asarray(x) for _ in range(2)))
    sol = solve(prob, PdeGrid(8, 10, 6))
    assert np.abs(sol.values - 5.0).max() < 1e-12
    res = residual(sol)
    assert res["interior_max"] < 1e-12
    assert res["vertex_max"] < 1e-12


def test_unit_running_cost_gives_time_to_horizon():
    prob = PdeProblem(coefficients=_const_c(), T=1.0, R=2.0, K=2.0,
                      g_edge=_zero_g(2),
                      h_edge=tuple(lambda t, x, l: 1.0 + 0.0 * np.asarray(x) for _ in range(2)))
    grid = PdeGrid(10, 12, 6)
    sol = solve(prob, grid)
    tg, _, _ = grid.axes(prob)
    assert np.abs(sol.values - (1.0 - tg)[None, :, None, None]).max() < 1e-12


def test_vertex_value_shared_across_edges():
    prob = PdeProblem(coefficients=_const_c(3, alpha=[0.5, 0.3, 0.2]), T=0.5, R=1.5, K=1.0,
                      g_edge=tuple(lambda x, l: np.asarray(x) * 0.0 + np.asarray(l) * 0.1
                                   for _ in range(3)),
                      h0=lambda t, l: 1.0 + 0.0 * np.asarray(t))
    sol = solve(prob, PdeGrid(8, 8, 6))
    vals = sol.values
    assert np.abs(vals[:, :, 0, :] - vals[:1, :, 0, :]).max() == 0.0


def test_at_rejects_ray_labels_outside_the_star():
    prob = PdeProblem(coefficients=_const_c(3, alpha=[0.5, 0.3, 0.2]), T=0.5, R=1.5, K=1.0,
                      g_edge=tuple(lambda x, l, e=e: e * np.asarray(x) for e in range(3)))
    sol = solve(prob, PdeGrid(8, 8, 6))
    assert len({sol.at(0.1, 0.5, e, 0.2) for e in (1, 2, 3)}) == 3
    for edge in (0, -1, 4):
        with pytest.raises(PdeError, match="ray"):
            sol.at(0.1, 0.5, edge, 0.2)


@pytest.mark.parametrize("point, coordinate", [
    ((0.5, 5.0, 1, 0.5), "x"), ((-3.0, 0.5, 1, 0.5), "t"), ((0.5, 0.5, 1, 9.0), "l"),
    ((1.0 + 1e-9, 0.5, 1, 0.5), "t"), ((0.5, -1e-12, 1, 0.5), "x")],
    ids=["x-past-R", "t-before-0", "l-past-K", "t-past-T", "x-below-0"])
def test_at_rejects_points_outside_the_grid(point, coordinate):
    """at() interpolates on [0, T] x [0, R] x [0, K] and clamps nothing."""
    prob = PdeProblem(coefficients=_const_c(), T=1.0, R=2.0, K=2.0,
                      g_edge=tuple(lambda x, l: np.asarray(x) + np.asarray(l) for _ in range(2)))
    sol = solve(prob, PdeGrid(8, 8, 4))
    assert sol.at(1.0, 2.0, 1, 2.0) == pytest.approx(4.0)  # the far corner is in the grid
    with pytest.raises(PdeError, match=f"{coordinate} = "):
        sol.at(*point)


@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_scalar_and_partial_callables_match_full_arrays(direction):
    # callables may return Python scalars or ignore an argument; the solver
    # must treat them as the full arrays they stand for
    def shape(*args):
        return np.broadcast_shapes(*map(np.shape, args))

    lean = dict(
        g_edge=(lambda x, l: 1.0, lambda x, l: 1.0 + 0.5 * np.asarray(x)),
        h_edge=(lambda t, x, l: 1.0, lambda t, x, l: np.sin(np.asarray(x))),
        c_edge=(lambda t, x, l: 0.2, lambda t, x, l: 0.1 * np.asarray(l)),
        h0=lambda t, l: 0.5)
    full = dict(
        g_edge=(lambda x, l: np.full(shape(x, l), 1.0),
                lambda x, l: np.broadcast_to(1.0 + 0.5 * np.asarray(x), shape(x, l))),
        h_edge=(lambda t, x, l: np.full(shape(t, x, l), 1.0),
                lambda t, x, l: np.broadcast_to(np.sin(np.asarray(x)), shape(t, x, l))),
        c_edge=(lambda t, x, l: np.full(shape(t, x, l), 0.2),
                lambda t, x, l: np.broadcast_to(0.1 * np.asarray(l), shape(t, x, l))),
        h0=lambda t, l: np.full(shape(t, l), 0.5))
    grid = PdeGrid(6, 8, 5)
    sols = [solve(PdeProblem(coefficients=_const_c(), T=0.5, R=1.5, K=1.0, direction=direction,
                             **kw), grid) for kw in (lean, full)]
    assert np.array_equal(sols[0].values, sols[1].values)
    assert residual(sols[0]) == residual(sols[1])


def _truth(R):
    return TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.5), x_poly=flat_profile_poly(R, 1),
               l_poly=(1.0, 0.3), time_poly=(1.0, -0.4)),
        TfTerm(edge_coeffs=(0.4, 0.4), x_poly=flat_profile_poly(R, 2),
               l_poly=(0.5, 0.0, 0.1), sin_omega=1.3, sin_phase=0.4),
        TfTerm(edge_coeffs=(1.0, 1.0), x_poly=(1.0,), l_poly=(0.2, 0.5),
               time_poly=(0.5, 0.2)),
    ))


def test_manufactured_solution_first_order_convergence():
    R = K = 2.0
    c = _alpha_l_coefficients()
    truth = _truth(R)
    prob = manufactured_backward(c, truth, 1.0, R, K)
    assert prob.compatibility_gap() < 1e-4
    errs = []
    for grid in (PdeGrid(12, 12, 8), PdeGrid(24, 24, 16), PdeGrid(48, 48, 32),
                 PdeGrid(96, 96, 64)):
        sol = solve(prob, grid)
        tg, xg, lg = grid.axes(prob)
        TT, XX, LL = np.meshgrid(tg, xg, lg, indexing="ij")
        err = max(np.abs(sol.values[e - 1] - truth.value(e, TT, XX, LL)).max()
                  for e in (1, 2))
        errs.append(err)
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] / errs[2] > 1.5  # at least first order
    assert errs[2] / errs[3] > 1.8  # first order settles on the finer grid


def test_truncation_residual_orders_on_exact_solution():
    R = K = 2.0
    c = _alpha_l_coefficients()
    truth = _truth(R)
    prob = manufactured_backward(c, truth, 1.0, R, K)
    ints, verts = [], []
    for grid in (PdeGrid(16, 16, 8), PdeGrid(32, 32, 16)):
        tg, xg, lg = grid.axes(prob)
        TT, XX, LL = np.meshgrid(tg, xg, lg, indexing="ij")
        exact = np.stack([truth.value(e, TT, XX, LL) for e in (1, 2)])
        r = residual(PdeSolution(values=exact, grid=grid, problem=prob))
        ints.append(r["interior_max"])
        verts.append(r["vertex_max"])
    assert ints[0] / ints[1] > 1.6
    assert verts[0] / verts[1] > 1.6


def test_solver_residual_vanishes_and_perturbation_is_local():
    c = _const_c()
    prob = PdeProblem(coefficients=c, T=0.5, R=1.0, K=1.0, g_edge=_zero_g(2),
                      h_edge=tuple(lambda t, x, l: np.sin(3 * np.asarray(x)) + 0.0 * l
                                   for _ in range(2)))
    grid = PdeGrid(8, 10, 6)
    sol = solve(prob, grid)
    base = residual(sol)
    assert base["interior_max"] < 1e-10
    sol.values[0, 4, 5, 3] += 1.0
    bumped = residual(sol)
    assert bumped["interior_max"] > 1e3 * max(base["interior_max"], 1e-16)
    # the large residuals touch only the perturbed stencil's slice
    assert bumped["vertex_max"] < 1e-10


def test_forward_mode_max_principle():
    # zero sources, nonnegative zeroth-order term: extremes live on the data
    rng = np.random.default_rng(8)
    c = _const_c()
    vals = rng.uniform(0.5, 2.0, 4)

    def g(x, l, a=vals[0], b=vals[1]):
        return a + b * np.cos(np.asarray(x)) * np.exp(-np.asarray(l))

    prob = PdeProblem(coefficients=c, T=0.5, R=1.5, K=1.0,
                      g_edge=(g, g),
                      c_edge=tuple(lambda t, x, l: 0.3 + 0.0 * np.asarray(x)
                                   for _ in range(2)),
                      direction="forward")
    sol = solve(prob, PdeGrid(10, 10, 8))
    data_max = max(float(np.max(sol.values[:, 0])),
                   float(np.max(sol.values[:, :, :, -1])))
    data_min_ = min(float(np.min(sol.values[:, 0])),
                    float(np.min(sol.values[:, :, :, -1])))
    assert np.max(sol.values) <= data_max + 1e-9
    assert np.min(sol.values) >= min(data_min_, 0.0) - 1e-9


def test_forward_mode_manufactured():
    R = K = 1.5
    c = _const_c()
    truth = _truth(R)
    I = 2

    def h_for(e):
        # forward source: du/dt = (1/2) d2u/dx2 + h
        def h(t, x, l, _e=e):
            return truth.dt(_e, t, x, l) - 0.5 * truth.dxx(_e, t, x, l)
        return h

    def h0(t, l):
        t = np.asarray(t, dtype=float)
        l = np.asarray(l, dtype=float)
        amat = c.alpha_matrix(np.ravel(t), np.ravel(l))
        out = truth.dl_vertex(np.ravel(t), np.ravel(l)).copy()
        for e in range(1, I + 1):
            out += amat[:, e - 1] * truth.dx_vertex(e, np.ravel(t), np.ravel(l))
        return -out.reshape(np.broadcast_shapes(t.shape, l.shape))

    prob = PdeProblem(
        coefficients=c, T=0.5, R=R, K=K,
        g_edge=tuple((lambda x, l, _e=e: truth.value(_e, 0.0, x, l)) for e in (1, 2)),
        h_edge=tuple(h_for(e) for e in (1, 2)),
        h0=h0,
        psi_edge=tuple((lambda t, x, _e=e: truth.value(_e, t, x, K)) for e in (1, 2)),
        direction="forward",
    )
    # forward sources enter with the same sign as backward ones here; the
    # manufactured forward problem flips the time derivative
    errs = []
    for grid in (PdeGrid(16, 16, 12), PdeGrid(32, 32, 24)):
        sol = solve(prob, grid)
        tg, xg, lg = grid.axes(prob)
        TT, XX, LL = np.meshgrid(tg, xg, lg, indexing="ij")
        errs.append(max(np.abs(sol.values[e - 1] - truth.value(e, TT, XX, LL)).max()
                        for e in (1, 2)))
    assert errs[0] > errs[1]


def test_compatibility_warning_on_kinked_corner():
    c = _const_c()
    prob = PdeProblem(coefficients=c, T=1.0, R=2.0, K=2.0, g_edge=_zero_g(2),
                      h0=lambda t, l: 40.0 + 0.0 * np.asarray(t))
    assert prob.compatibility_gap() == pytest.approx(40.0)
    sol = solve(prob, PdeGrid(8, 8, 6))
    assert sol.warnings


def test_grid_validation():
    with pytest.raises(PdeError):
        PdeGrid(1, 4, 4)
    with pytest.raises(PdeError):
        PdeGrid(5, 4, 4).coarsened()


def test_discontinuous_vertex_data_rejected():
    c = _const_c()
    prob = PdeProblem(coefficients=c, T=0.5, R=1.0, K=1.0,
                      g_edge=(lambda x, l: 1.0 + 0.0 * np.asarray(x),
                              lambda x, l: 2.0 + 0.0 * np.asarray(x)))
    with pytest.raises(PdeError, match="discontinuous"):
        solve(prob, PdeGrid(4, 4, 4))


def _varying_coefficients():
    """Two rays whose drift and diffusion vary with t, x and l."""
    return build_coefficient_set({
        "I": 2, "b": ["0.3*tanh(x) - 0.1*l", "0.1*sin(t)"],
        "sigma": ["1 + 0.2*sin(t)", "0.8 + 0.1*tanh(l)"],
        "alpha": {"exprs": ["1 + l", "1"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 2.0,
                   "sigma_bound": 1.5, "alpha_lip": 1.0},
    })


def _callers(depth=2):
    """The code objects on the stack above the caller of the caller."""
    frame, codes = sys._getframe(depth), set()
    while frame is not None:
        codes.add(frame.f_code)
        frame = frame.f_back
    return codes


def test_solve_and_residual_evaluate_manufactured_sources_in_one_pass(monkeypatch):
    """No per-ray source and no drift or diffusion call from inside a source."""
    c = _varying_coefficients()
    prob = manufactured_backward(c, _truth(2.0), 1.0, 2.0, 2.0)
    source = prob.h_edge[0].__code__
    seen = []

    def spy(name, orig):
        def wrapper(*a, **kw):
            seen.append((name, _callers()))
            return orig(*a, **kw)
        return wrapper

    monkeypatch.setattr(PdeProblem, "source", spy("source", PdeProblem.source))
    for name in ("drift", "diffusion"):
        monkeypatch.setattr(CoefficientSet, name, spy(name, getattr(CoefficientSet, name)))
    residual(solve(prob, PdeGrid(8, 8, 4)))
    assert {n for n, _ in seen} == {"drift", "diffusion"}  # the grid's own b and sigma
    assert not [n for n, codes in seen if source in codes]


def test_grid_sources_go_ray_by_ray_unless_built_for_the_problems_coefficients(monkeypatch):
    """Another CoefficientSet object on the problem, or h_edge that mixes a
    manufactured entry with a plain callable, takes the per-ray source and
    gives the values of plain callables."""
    c = _varying_coefficients()
    prob = manufactured_backward(c, _truth(2.0), 1.0, 2.0, 2.0)
    plain = tuple(lambda t, x, l, _h=h: _h(t, x, l) for h in prob.h_edge)
    calls = []
    orig = PdeProblem.source
    monkeypatch.setattr(PdeProblem, "source", lambda *a: calls.append(a) or orig(*a))
    grid = PdeGrid(8, 8, 4)
    for coefficients, h_edge in ((_alpha_l_coefficients(), prob.h_edge),
                                 (c, (prob.h_edge[0], plain[1]))):
        del calls[:]
        sol = solve(replace(prob, coefficients=coefficients, h_edge=h_edge), grid)
        r = residual(sol)
        assert len(calls) == 2 * 2 * grid.M  # each ray, on every level, in solve and residual
        want = solve(replace(prob, coefficients=coefficients, h_edge=plain), grid)
        assert np.array_equal(sol.values, want.values)
        assert r == residual(want)


@pytest.mark.parametrize("n", [1, 7, 2000])
def test_source_rows_at_one_time_equal_the_rows_at_that_time(n):
    """The sources' time factors (polynomial and sine) computed once, on
    t[:1], broadcast to the bits of the factors computed on every row."""
    c = _alpha_l_coefficients()
    rows = source_rows(manufactured_backward(c, _truth(2.0), 1.0, 2.0, 2.0).h_edge, c)
    rng = np.random.default_rng(n)
    edge = rng.integers(1, 3, n)
    x, l, b = rng.uniform(0.0, 2.0, (3, n))
    sigma = rng.uniform(0.5, 1.5, n)
    t = np.full(n, rng.uniform(0.0, 1.0))
    once = rows(edge, t[:1], x, l, b, sigma)
    assert once.shape == (n,)
    assert np.array_equal(once, rows(edge, t, x, l, b, sigma))


def _neumann_row(sol: PdeSolution) -> np.ndarray:
    """The solver's row at the far node J on every solved level and slice,
    with the mirror ghost u_{J+1} = u_{J-1} (so d/dx = 0 there):
    (u_known - u)/dt + sigma^2 (u_{J-1} - u)/dx^2 - c u + h."""
    prob, grid = sol.problem, sol.grid
    c, U, J = prob.coefficients, sol.values, grid.J
    tg, xg, lg = grid.axes(prob)
    dt, dx = tg[1] - tg[0], xg[1] - xg[0]
    l = lg[:grid.P + (prob.psi_edge is None)]  # the Dirichlet slice l = K is data
    backward = prob.direction == "backward"
    rows = []
    for m in range(grid.M) if backward else range(1, grid.M + 1):
        t, known = tg[m], U[:, m + 1 if backward else m - 1, J, :l.size]
        for e in range(1, c.I + 1):
            u, inner = U[e - 1, m, J, :l.size], U[e - 1, m, J - 1, :l.size]
            rows.append((known[e - 1] - u) / dt
                        + c.diffusion(e, t, xg[J], l)**2 * (inner - u) / dx**2
                        - prob.zeroth(e, t, xg[J], l) * u + prob.source(e, t, xg[J], l))
    return np.concatenate(rows)


def _three_ray_coefficients():
    return build_coefficient_set({
        "I": 3, "b": ["0.2*tanh(x) - 0.1*l", "0.1*sin(t)", "-0.1*x"],
        "sigma": ["1 + 0.2*sin(t)", "0.8 + 0.1*tanh(l)", "0.9 + 0.05*x"],
        "alpha": {"exprs": ["1 + l", "1", "1 + t"], "mode": "renormalize"},
        "bounds": {"a_lower": 0.1, "sigma_lower": 0.5, "b_bound": 2.0,
                   "sigma_bound": 1.5, "alpha_lip": 1.0},
    })


@pytest.mark.parametrize("case", ["backward", "forward", "three-ray"])
def test_solved_field_satisfies_the_neumann_row_at_the_far_node(case):
    """residual checks nodes 1..J-1 and the vertex; the far-boundary row
    the solver also enforces holds on a solved field to rounding."""
    wavy = lambda e: (lambda x, l: 1.0 + 0.3 * np.asarray(l) + 0.2 * e * np.sin(np.asarray(x)))
    if case == "backward":
        prob = manufactured_backward(_varying_coefficients(), _truth(2.0), 1.0, 2.0, 2.0)
    elif case == "forward":
        prob = PdeProblem(
            coefficients=_varying_coefficients(), T=0.5, R=1.5, K=1.0, direction="forward",
            g_edge=(wavy(1), wavy(2)),
            h_edge=(lambda t, x, l: np.cos(np.asarray(x)) * (1 + t), lambda t, x, l: 0.5 * l),
            c_edge=(lambda t, x, l: 0.2 + 0.1 * np.asarray(l), lambda t, x, l: 0.1 * t))
    else:
        prob = PdeProblem(
            coefficients=_three_ray_coefficients(), T=0.5, R=1.5, K=1.0,
            g_edge=(wavy(1), wavy(2), wavy(3)),
            h_edge=tuple(lambda t, x, l, _e=e: _e * np.sin(np.asarray(x) + t) for e in (1, 2, 3)),
            h0=lambda t, l: 1.0 + 0.5 * np.asarray(l))
    sol = solve(prob, PdeGrid(16, 16, 8))
    row = _neumann_row(sol)
    assert row.size == 16 * prob.coefficients.I * (9 - (prob.psi_edge is not None))
    assert np.abs(row).max() < 1e-12
