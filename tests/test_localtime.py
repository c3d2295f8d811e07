import math

import numpy as np
import pytest

from spidersim.localtime import (
    EstimationError,
    downcrossing_estimate,
    excursion_decompose,
    excursion_functional,
    grid_index,
    occupation_batch,
    occupation_estimate,
    oracle_path,
    skorokhod_oracle,
)
from spidersim.network import TestFunction, TfTerm, constant_coefficients
from spidersim.simulator import SimConfig, SpiderPath, SpiderState, run_paths
from spidersim.verify import identity_function


def _synthetic_path(xs, h=1.0):
    xs = np.asarray(xs, dtype=float)
    return SpiderPath(
        t0=0.0, h=h, x=xs, edge=np.ones(xs.size, dtype=np.int64),
        l=np.zeros(xs.size), contact=xs == 0.0, gauss=np.zeros(xs.size - 1),
        delta_shell=1e-9, sigma_bound=1e-6,
    )


def test_oracle_zero_increments():
    path, l = skorokhod_oracle(np.zeros(5), h=0.01, T=0.05)
    assert np.all(path.x == 0.0)
    assert np.all(l == 0.0)


def test_oracle_single_negative_increment():
    # increment -0.3: the reflected walk stays at the vertex, the regulator
    # books the full dip
    path, l = skorokhod_oracle(np.array([-1.0]), h=0.09, T=0.09)
    assert path.x[1] == 0.0
    assert l[1] == pytest.approx(0.3)


def test_oracle_mean_local_time():
    n = 2500
    ls = np.array([oracle_path(71, k, 2.5e-4, 1.0)[1][-1] for k in range(n)])
    se = ls.std(ddof=1) / math.sqrt(n)
    assert abs(ls.mean() - math.sqrt(2 / math.pi)) < 3 * se


def test_decompose_monotone_path_single_excursion():
    dec = excursion_decompose(_synthetic_path([0, 0.4, 0.9, 1.0, 0.6, 0.0, 0.2]), 0.9)
    assert dec.theta.tolist() == [2]
    assert dec.tau.tolist() == [5]
    assert dec.count(6) == 1
    assert dec.count(4) == 0


def test_decompose_never_returns():
    dec = excursion_decompose(_synthetic_path([1.0, 1.5, 2.0, 1.2]), 0.5)
    assert dec.count(3) == 0  # reached the level at t=0 but never the vertex


def test_decompose_interleaving():
    xs = [0, 1, 0, 1, 0.5, 1, 0, 0.2, 1, 0]
    dec = excursion_decompose(_synthetic_path(xs), 0.9)
    seq = np.empty(dec.theta.size + dec.tau.size, dtype=int)
    seq[0::2] = dec.theta
    seq[1::2] = dec.tau
    assert np.all(np.diff(seq) > 0)
    assert dec.count(len(xs) - 1) == 3


def test_decompose_rejects_eps_below_activity():
    path, _ = oracle_path(1, 0, 1e-2, 1.0)
    with pytest.raises(EstimationError, match="activity"):
        excursion_decompose(path, 0.05)  # activity radius is 0.3 at h=1e-2


def test_downcrossing_zero_when_no_crossings():
    est = downcrossing_estimate(_synthetic_path([1.0, 1.5, 2.0, 1.2]), 0.5, 3.0)
    assert est.value == 0.0


def test_downcrossing_nondecreasing_in_time():
    path, _ = oracle_path(5, 3, 1e-3, 1.0)
    vals = [downcrossing_estimate(path, 0.12, t).value for t in (0.25, 0.5, 0.75, 1.0)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_functional_constant_vanishes():
    path, _ = oracle_path(5, 1, 1e-3, 1.0)
    f = TestFunction(I=1, terms=(TfTerm(edge_coeffs=(1.0,), x_poly=(4.0,)),))
    assert excursion_functional(path, f, 0.1, 1.0) == 0.0


def test_functional_identity_matches_downcrossing_count():
    path, _ = oracle_path(5, 2, 1e-3, 1.0)
    eps = 0.15
    f = identity_function(1)
    dec = excursion_decompose(path, eps)
    n = dec.count(grid_index(path, 0.8))
    val = excursion_functional(path, f, eps, 0.8)
    full_terms = min(n, dec.theta.size - 1)
    assert val == pytest.approx(eps * full_terms, abs=1e-12)
    if dec.theta.size > n:
        assert val == pytest.approx(eps * n, abs=1e-12)


def test_functional_tracks_vertex_integral():
    # ensemble mean of the excursion sum approaches the on-path dl integral
    # (start strictly above the level, as in the decomposition's setting)
    c = constant_coefficients(2, alpha=[0.6, 0.4])
    f = TestFunction(I=2, terms=(
        TfTerm(edge_coeffs=(1.0, -0.8), x_poly=(0.0, 1.0), l_poly=(1.0, 0.2)),
        TfTerm(edge_coeffs=(0.5, 0.5), x_poly=(1.0,), l_poly=(0.0, 1.0)),
    ))
    cfg = SimConfig(h=2e-4, T=0.5, n_paths=250, seed=14)
    res = run_paths(c, SpiderState(0.0, 0.4, 1, 0.0), cfg, 0, cfg.n_paths, store=True)
    diffs = {}
    for eps in (0.3, 0.1):
        gaps = []
        for p in res.paths:
            t_k = p.times()[:-1]
            dl = np.diff(p.l)
            hit = dl > 0
            amat = c.alpha_matrix(t_k[hit], p.l[:-1][hit])
            integrand = f.dl_vertex(t_k[hit], p.l[:-1][hit])
            for e in (1, 2):
                integrand = integrand + amat[:, e - 1] * f.dx_vertex(e, t_k[hit], p.l[:-1][hit])
            ref = float(np.sum(integrand * dl[hit]))
            gaps.append(excursion_functional(p, f, eps, 0.5) - ref)
        diffs[eps] = float(np.mean(gaps))
    assert abs(diffs[0.1]) < abs(diffs[0.3])
    assert abs(diffs[0.1]) < 0.1


def test_occupation_zero_away_from_vertex():
    c = constant_coefficients(2)
    est = occupation_estimate(_synthetic_path([1.0, 1.2, 1.4, 1.1]), c, 0.5, 3.0)
    assert est.value == 0.0


def test_occupation_subset_additivity():
    c = constant_coefficients(2, alpha=[0.7, 0.3])
    cfg = SimConfig(h=5e-4, T=0.5, n_paths=6, seed=4)
    res = run_paths(c, SpiderState(0.0, 0.0, 1, 0.0), cfg, 0, cfg.n_paths, store=True)
    for p in res.paths:
        full = occupation_estimate(p, c, 0.1, 0.5).value
        split = sum(occupation_estimate(p, c, 0.1, 0.5, edges=[e]).value for e in (1, 2))
        assert full == pytest.approx(split, abs=1e-14)


def test_occupation_nondecreasing_in_time():
    path, _ = oracle_path(6, 0, 1e-3, 1.0)
    c = constant_coefficients(2)
    vals = [occupation_estimate(path, c, 0.1, t).value for t in (0.25, 0.5, 1.0)]
    assert vals[0] <= vals[1] <= vals[2]


def test_occupation_batch_matches_stored_paths():
    c = constant_coefficients(2, alpha=[0.7, 0.3])
    cfg = SimConfig(h=5e-4, T=0.5, n_paths=10, seed=8)
    init = SpiderState(0.0, 0.0, 1, 0.0)
    res = run_paths(c, init, cfg, 0, cfg.n_paths, store=True)
    stream = occupation_batch(c, init, cfg, eps=0.1, edges=[1])
    stored = np.array([occupation_estimate(p, c, 0.1, 0.5, edges=[1]).value
                       for p in res.paths])
    np.testing.assert_allclose(stream, stored, atol=1e-12)


def test_occupation_batch_empty_ensemble():
    out = occupation_batch(constant_coefficients(2), SpiderState(0.0, 0.0, 1, 0.0),
                           SimConfig(h=0.01, T=0.1, n_paths=0), 0.1)
    assert out.dtype == np.float64 and out.shape == (0,)


def test_estimator_consistency_ladder():
    # downcrossing, occupation and the oracle agree pairwise in L1, tighter
    # as eps shrinks
    c = constant_coefficients(2)
    n = 120
    rows = {0.1: [], 0.02: []}
    for k in range(n):
        path, l = oracle_path(2024, k, 1e-5, 0.25)
        for eps in rows:
            dc = downcrossing_estimate(path, eps, 0.25).value
            oc = occupation_estimate(path, c, eps, 0.25).value
            rows[eps].append((abs(dc - l[-1]), abs(oc - l[-1])))
    coarse = np.mean(rows[0.1], axis=0)
    fine = np.mean(rows[0.02], axis=0)
    assert fine[0] < coarse[0]
    assert fine[1] < coarse[1]


def test_grid_index_rejects_off_grid_times():
    path, _ = oracle_path(1, 0, 1e-2, 1.0)
    with pytest.raises(EstimationError):
        grid_index(path, 0.505)
    with pytest.raises(EstimationError):
        grid_index(path, 1.5)
