"""Golden outputs of the Euler kernel, pinned as literal values.

The values were recorded from the kernel before fixed-horizon and absorption
mode were merged into one loop; any refactor of the step must reproduce
them.  Floats are compared at 1e-12 relative (not as byte digests, so other
CPUs and numpy builds pass too), integer and bool arrays exactly.
"""

import numpy as np

from spidersim.network import CoefficientBounds, CoefficientSet
from spidersim.simulator import SimConfig, SpiderState, first_hit, run_batch, simulate_batch, simulate_path

RTOL = 1e-12
N = 8


def _coefficients() -> CoefficientSet:
    """Three rays; drift, diffusion and weights depend on t, x and l."""
    def alpha(t, l):
        raw = np.stack([1.0 + np.tanh(l), np.ones_like(l), 1.0 + 0.5 * np.sin(t) + 0 * l], axis=-1)
        return raw / raw.sum(axis=-1, keepdims=True)

    return CoefficientSet(
        I=3,
        b=(lambda t, x, l: 0.5 * np.tanh(x) - 0.2 * l + 0 * t,
           lambda t, x, l: -0.3 + 0 * (t + x + l),
           lambda t, x, l: 0.1 * np.sin(t) + 0 * (x + l)),
        sigma=(lambda t, x, l: 1.0 + 0.2 * np.sin(t) + 0 * (x + l),
               lambda t, x, l: 1.2 + 0 * (t + x + l),
               lambda t, x, l: 0.8 + 0.1 * np.tanh(l) + 0 * (t + x)),
        alpha=alpha,
        bounds=CoefficientBounds(a_lower=0.1, sigma_lower=0.5, b_bound=2.0,
                                 sigma_bound=1.5, alpha_lip=1.0),
    )


def _cfg(policy, seed, T, n=N):
    if policy == "shell":
        return SimConfig(h=1e-4, T=T, delta_shell=0.05, policy="shell", n_paths=n, seed=seed)
    return SimConfig(h=1e-3, T=T, policy="reflection", n_paths=n, seed=seed)


def _batch_cases(c):
    for policy, T in (("reflection", 0.05), ("shell", 0.01)):
        for x0 in (0.0, 0.1):
            cfg = _cfg(policy, seed=101, T=T)
            yield f"{policy}-x0={x0}", simulate_batch(c, SpiderState(0.0, x0, 2, 0.0), cfg)


def _first_hit_cases(c):
    for policy, T, level in (("reflection", 0.02, 0.15), ("shell", 0.01, 0.08)):
        cfg = _cfg(policy, seed=202, T=T)
        yield f"first_hit-{policy}", first_hit(c, SpiderState(0.0, 0.0, 1, 0.1), cfg, level)


def _absorbing_cases(c):
    # paths that start at the junction, inside the level, at it and past it
    for policy, T, level in (("reflection", 0.02, 0.15), ("shell", 0.01, 0.08)):
        cfg = _cfg(policy, seed=303, T=T)
        x0 = np.array([0.0, 0.02, level, level + 0.1, 0.5 * level, 0.0, 0.99 * level, 0.0])
        res = run_batch(c, cfg, K=cfg.n_steps(), t0=0.0, x0=x0, edge0=3, l0=0.05,
                        stop_level=level)
        yield f"absorbing-{policy}", res


def _stored_path(c):
    cfg = SimConfig(h=1e-3, T=0.04, seed=11)
    return simulate_path(c, SpiderState(0.0, 0.0, 1, 0.0), cfg, path_index=3)


def _check(actual, expected):
    actual = np.asarray(actual)
    expected = np.asarray(expected, dtype=actual.dtype)
    if actual.dtype.kind == "f":
        np.testing.assert_allclose(actual, expected, rtol=RTOL, atol=0)
    else:
        np.testing.assert_array_equal(actual, expected)


def test_simulate_batch_terminal_states():
    got = dict(_batch_cases(_coefficients()))
    assert got.keys() == BATCH.keys()
    for name, (x, edge, l) in BATCH.items():
        res = got[name]
        for a, e in ((res.x, x), (res.edge, edge), (res.l, l)):
            _check(a, e)


def test_first_hit_and_absorption():
    c = _coefficients()
    got = dict(_first_hit_cases(c)) | dict(_absorbing_cases(c))
    assert got.keys() == FIRST_HIT.keys()
    for name, (theta, edge, l, censored) in FIRST_HIT.items():
        res = got[name]
        for a, e in ((res.theta, theta), (res.edge, edge), (res.l, l), (res.censored, censored)):
            _check(a, e)


def test_stored_path():
    p = _stored_path(_coefficients())
    for key, e in PATH.items():
        _check(getattr(p, key), e)


nan = float("nan")

BATCH = {
    "reflection-x0=0.0": ([0.42172201957230904, 0.04484467723411599, 0.039876080743514605, 0.15447109439269507, 0.13319055312949366, 0.20035876075655218, 0.07854132657804938, 0.25062052082893244],
        [1, 1, 3, 2, 3, 1, 3, 1],
        [0.08246077336318386, 0.3131583987799933, 0.5011048808848783, 0.2815397419835357, 0.16762173629690796, 0.03958168169515201, 0.26811260520344926, 0.34264630363922044]),
    "reflection-x0=0.1": ([0.4941438604130675, 0.053441866655667, 0.03516297186254026, 0.13495091605565324, 0.12464058221772574, 0.2690741558980929, 0.0629401440960255, 0.26034422821996306],
        [2, 1, 3, 2, 3, 2, 3, 1],
        [0.0, 0.25175560110871054, 0.3953097951735063, 0.157476526073703, 0.07229361175024589, 0.0, 0.16071904521088864, 0.2904916719167272]),
    "shell-x0=0.0": ([0.15969145571742457, 0.08799044874067177, 0.025415182059761926, 0.07556711086898733, 0.08397288293596021, 0.0956985871288941, 0.045734649052774815, 0.10854989937702689],
        [1, 2, 2, 2, 1, 3, 1, 3],
        [0.02125758213132182, 0.24291143013154984, 0.20747985306759453, 0.09584150097326491, 0.0561443096724086, 0.051746794170578606, 0.1745662407076851, 0.0840017785890217]),
    "shell-x0=0.1": ([0.27329525823070433, 0.08799044874067177, 0.024248291262521218, 0.08189201128665292, 0.13998079653572063, 0.18423914653712992, 0.0440446835676653, 0.10809173567854363],
        [2, 2, 2, 2, 2, 2, 1, 3],
        [0.0, 0.13656669614948827, 0.10256911168192287, 0.0, 0.0, 0.0, 0.09368000029183818, 0.020545927902665025]),
}

FIRST_HIT = {
    "first_hit-reflection": ([nan, nan, nan, 0.006, 0.012000000000000004, nan, nan, nan],
        [0, 0, 0, 2, 1, 0, 0, 0],
        [nan, nan, nan, 0.1, 0.1, nan, nan, nan],
        [True, True, True, False, False, True, True, True]),
    "first_hit-shell": ([nan, nan, nan, 0.008000000000000007, 0.0051, 0.008000000000000007, 0.0049, 0.009799999999999996],
        [0, 0, 0, 2, 1, 3, 2, 1],
        [nan, nan, nan, 0.1690331739248828, 0.1, 0.12708711727529592, 0.1965331558171393, 0.35929355500931026],
        [True, True, True, False, False, False, False, False]),
    "absorbing-reflection": ([nan, nan, 0.0, 0.0, 0.014000000000000005, 0.005, 0.003, 0.010000000000000002],
        [0, 0, 3, 3, 3, 2, 3, 1],
        [nan, nan, 0.05, 0.05, 0.05, 0.13430258165982842, 0.05, 0.06767611078784966],
        [True, True, False, False, False, False, False, False]),
    "absorbing-shell": ([0.005600000000000002, nan, 0.0, 0.0, 0.0019000000000000006, nan, 0.00030000000000000003, 0.002799999999999999],
        [2, 0, 3, 3, 3, 0, 3, 1],
        [0.19741440162817198, nan, 0.05, 0.05, 0.05, nan, 0.05, 0.05558039121755724],
        [False, True, False, False, False, True, False, False]),
}

PATH = {
    "x": [0.0, 0.025125891080879616, 0.08671152504173842, 0.031243571961805397, 0.05396964389306854, 0.05926953048366954, 0.06642261493231577, 0.144575201080481, 0.17163966957908378, 0.1619749337771675, 0.2141904872591423, 0.23837829243497904, 0.2784932906368151, 0.27285665012540533, 0.19184227118519975, 0.16451901145613015, 0.20168253007528986, 0.2214462116493342, 0.2370277044363826, 0.2429234307065116, 0.21220238213168421, 0.18732787840616116, 0.11595013961791271, 0.10847426507280873, 0.11444934924786629, 0.14863188826504517, 0.13911543514011968, 0.1373217848755834, 0.12234153353553945, 0.07689572303652571, 0.08841193995988515, 0.05654330184362622, 0.060079242039992826, 0.08043128543412742, 0.016183815204828922, 0.016662035490690164, 0.001522480108150542, 0.038483804692814455, 0.06721264458155919, 0.061247726983584494, 0.055191887141485874],
    "edge": [2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2],
    "l": [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.07696760938562891, 0.07696760938562891, 0.07696760938562891, 0.07696760938562891],
    "contact": [False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, False, True, False, False, False],
    "gauss": [0.6700310612911672, 1.630829647998178, -1.4538032131824128, 0.6067902739138634, 0.1475699688744502, 0.1964060204275193, 2.0674071713231505, 0.721117061795941, -0.24678245683149044, 1.3839063465618884, 0.6453103271175342, 1.0650287162450949, -0.14063282557983794, -2.1270106448081427, -0.7121254212180382, 0.9872504000055905, 0.5287244335194363, 0.41851408208840324, 0.16327172310456012, -0.801665019225615, -0.6475950345078848, -1.8730628792113464, -0.18910089805127744, 0.16536298752050535, 0.9086946899992437, -0.24287486519117496, -0.03936114053039663, -0.3868585904856498, -1.189696566593552, 0.3113846567036925, -0.8319066589748803, 0.1010858999059335, 0.5442291288508316, -1.685163804419943, 0.020507905205573895, -0.3910566206086373, -1.0463524782864573, 0.7649770990065186, -0.1492836863897511, -0.15167969790146296],
}
