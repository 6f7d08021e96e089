"""Fitting, goodness of fit and model comparison."""

import itertools
import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from countfam import (
    ConvergenceError,
    CountData,
    DomainError,
    EvaluationError,
    GfpdParams,
    NegBinomParams,
    RngStream,
    compare,
    fit,
    fit_grid,
    fit_newton,
    fit_simplex,
    gof_chisq,
    loglik,
    make_special_case,
    negbinom_pmf_table,
    sample_fpd,
    sample_wpd,
)
from countfam import gfpd, inference
from countfam.inference import (
    _NEG_INF,
    MODELS,
    ModelSpec,
    _initial_point,
    _nelder_mead_max,
    _pooled_cells,
    _run_logliks,
    _safe_loglik,
)
from test_sampling import renewal_fpd

_fpd_grid = MODELS["fpd"].grid
_aa1_grid = MODELS["gfpd_aa1"].grid

# grid points and log-likelihoods of criterion 12's first five replicates
# as the renewal sampler drew them, recorded with the mixture nodes
# tabulated one node at a time
_FPD_FITS = [
    (0.84, 3.5210342221425233, -11284.884029765914),
    (0.85, 3.616206260812572, -11306.436645351167),
    (0.85, 3.6071283935190728, -11290.996480835129),
    (0.85, 3.545096300346826, -11268.513561918287),
    (0.85, 3.640035662458008, -11339.046100886499),
]


def loop_fit_grid(model, data, grid=None):
    """fit_grid's scan one point at a time, one table per point: the oracle
    for the run-batched scan.  Returns (theta, loglik, points)."""
    spec = MODELS[model]
    if grid is None:
        points = spec.grid(data)
    elif isinstance(grid, dict):
        axes = [np.atleast_1d(np.asarray(grid[n], dtype=float)) for n in spec.param_names]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = zip(*(m.ravel() for m in mesh))
    else:
        points = grid
    best_theta = None
    best_ll = -math.inf
    n_eval = 0
    for theta in points:
        theta = tuple(float(t) for t in theta)
        n_eval += 1
        ll = _safe_loglik(spec, theta, data)
        if ll > best_ll:
            best_ll = ll
            best_theta = theta
    if best_theta is None or best_ll <= _NEG_INF:
        raise EvaluationError(f"all {n_eval} grid points failed for {model}")
    return best_theta, best_ll, n_eval


def assert_fit_matches_loop(model, data, grid=None):
    theta, ll, n_eval = loop_fit_grid(model, data, grid)
    res = fit_grid(model, data, grid)
    assert tuple(res.params.values()) == theta
    assert res.evaluations == n_eval
    assert res.loglik == loglik(model, res.params, data) == ll
    return res


class TestCountData:
    def test_from_values(self):
        d = CountData.from_values([0, 1, 1, 3])
        assert d.histogram == {0: 1, 1: 2, 3: 1}
        assert d.n_total == 4
        assert d.mean() == pytest.approx(1.25)

    def test_from_values_matches_counting(self):
        values = np.random.default_rng(6).poisson(4.0, size=5000)
        d = CountData.from_values(values)
        counts = {}
        for v in values.tolist():
            counts[v] = counts.get(v, 0) + 1
        assert d.histogram == counts
        assert d.n_total == 5000
        assert d.values.tolist() == sorted(counts)
        assert d.freqs.tolist() == [counts[v] for v in sorted(counts)]
        assert CountData.from_values([3.0, 0.0, 3.0]).histogram == {0: 1, 3: 2}

    @pytest.mark.parametrize("values", [[1.5, 2, 2.9], [1, math.nan], [2, math.inf], [-1, 2]])
    def test_from_values_refuses_non_counts(self, values):
        with pytest.raises(DomainError, match="non-negative integers"):
            CountData.from_values(values)

    def test_validation(self):
        with pytest.raises(DomainError):
            CountData({-1: 2}, 2)
        with pytest.raises(DomainError):
            CountData({0: 0}, 0)
        with pytest.raises(DomainError):
            CountData({0: 2}, 3)


class TestLoglik:
    def test_poisson_point(self):
        d = CountData({0: 1}, 1)
        assert loglik("poisson", (2.0,), d) == pytest.approx(-2.0, rel=1e-12)

    def test_poisson_mle_at_mean(self):
        rng = np.random.default_rng(4)
        d = CountData.from_values(rng.poisson(3.0, size=2000))
        m = d.mean()
        best = loglik("fpd", (1.0, m), d)
        assert best >= loglik("fpd", (1.0, m * 1.05), d)
        assert best >= loglik("fpd", (1.0, m * 0.95), d)

    def test_zero_probability_is_minus_inf(self):
        # generalized Poisson with negative dispersion has finite support
        d = CountData({40: 1}, 1)
        assert loglik("genpoisson", (2.0, -0.4), d) == -math.inf

    def test_sum_over_histogram(self):
        d = CountData({0: 3, 2: 5, 7: 1}, 9)
        table = negbinom_pmf_table(NegBinomParams(2.0, 0.4), 7)
        want = math.fsum(f * math.log(table[v]) for v, f in d.histogram.items())
        assert loglik("negbinom", (2.0, 0.4), d) == pytest.approx(want, rel=1e-14)

    # the logs of a cell that is 0, negative or NaN, and a finite log below
    # exp's range: at an observed count each fails the point, and at a
    # count that is not observed none does
    @pytest.mark.parametrize("row", [
        pytest.param(-math.inf, id="0.0"),
        pytest.param(math.nan, id="-1e-300"),
        pytest.param(math.nan, id="nan"),
        pytest.param(-800.0, id="-800.0"),
    ])
    def test_bad_observed_cell_is_minus_inf(self, monkeypatch, row):
        rows = np.full(4, math.log(0.25))
        rows[2] = row
        spec = ModelSpec("stub", ("t",), pmf=None, log_rows=lambda theta, xs: rows[xs])
        monkeypatch.setitem(MODELS, "stub", spec)
        assert loglik("stub", (1.0,), CountData({0: 1, 2: 1}, 2)) == -math.inf
        assert loglik("stub", (1.0,), CountData({0: 1, 3: 1}, 2)) == pytest.approx(2 * math.log(0.25))

    def test_model_ii_true_beats_perturbed(self):
        p = make_special_case("model_ii", lam=2.0, beta=2.0, gamma=1.0)
        wins = 0
        n_sim = 100
        for i in range(n_sim):
            d = CountData.from_values(sample_wpd(p, 1000, RngStream(500 + i)).values)
            at_true = loglik("model_ii", (2.0, 2.0, 1.0), d)
            perturbed = max(
                loglik("model_ii", (2.4, 2.0, 1.0), d),
                loglik("model_ii", (1.6, 2.0, 1.0), d),
            )
            wins += at_true >= perturbed
        assert wins >= 95


class TestFitGrid:
    def test_degenerate_grid(self):
        rng = np.random.default_rng(42)
        d = CountData.from_values(rng.poisson(1.5, size=400))
        res = fit_grid("fpd", d, grid=[(1.0, 1.5)])
        assert res.params == {"alpha": 1.0, "mu": 1.5}
        assert res.converged
        assert res.evaluations == 1

    def test_recovery_smoke(self):
        batch = sample_fpd(0.85, 3.6, 3000, RngStream(1))
        d = CountData.from_values(batch.values)
        res = fit_grid("fpd", d)
        assert abs(res.params["alpha"] - 0.85) <= 0.06
        assert abs(res.params["mu"] - 3.6) <= 0.07 * 3.6

    def test_poisson_data_hits_boundary(self):
        rng = np.random.default_rng(7)
        d = CountData.from_values(rng.poisson(4.0, size=5000))
        res = fit_grid("fpd", d)
        assert res.params["alpha"] >= 0.97

    def test_poisson_data_fit_below_series(self):
        # near alpha = 1 the node sets once missed most of M_alpha's mass,
        # and this fit took alpha = 0.99 at a log likelihood 520 nats above
        # what the series gives there; the fit's own point must not beat the
        # series, and the Poisson law (alpha = 1) is on the grid
        rng = np.random.default_rng(3)
        d = CountData.from_values(rng.poisson(0.3, size=5000))
        res = fit_grid("fpd", d)
        alpha, mu = res.params["alpha"], res.params["mu"]
        assert 0.0 < alpha < 1.0
        rows = gfpd._pmf_rows(GfpdParams.fpd(alpha, mu), d.values)
        series = float(np.dot(d.freqs, np.log(rows)))
        assert res.loglik <= series + 1e-9 * abs(series)
        assert res.loglik >= loglik("fpd", (1.0, d.mean()), d)

    def test_dict_grid(self):
        rng = np.random.default_rng(43)
        d = CountData.from_values(rng.poisson(2.0, size=400))
        res = fit_grid("fpd", d, grid={"alpha": [0.3], "mu": np.linspace(1.0, 4.0, 21)})
        assert res.params["alpha"] == 0.3
        assert res.evaluations == 21

    def test_reproducible(self):
        d = CountData.from_values(sample_fpd(0.7, 2.0, 800, RngStream(2)).values)
        r1 = fit_grid("fpd", d)
        r2 = fit_grid("fpd", d)
        assert r1 == r2

    @pytest.mark.parametrize("i", range(len(_FPD_FITS)))
    def test_criterion_12_replicates(self, i):
        alpha, mu, ll = _FPD_FITS[i]
        d = CountData.from_values(renewal_fpd(0.85, 3.6, 5000, RngStream(1000 + i)).values)
        res = fit_grid("fpd", d)
        assert res.params == {"alpha": alpha, "mu": mu}
        assert res.loglik == pytest.approx(ll, abs=1e-6)


class TestFitGridMatchesLoop:
    """Run-batched scoring picks the point the per-point scan picks."""

    @pytest.mark.parametrize("i", range(len(_FPD_FITS)))
    def test_criterion_12_samples(self, i):
        d = CountData.from_values(sample_fpd(0.85, 3.6, 5000, RngStream(1000 + i)).values)
        res = assert_fit_matches_loop("fpd", d)
        assert res.evaluations == 101 * 41

    def test_aa1_default_grid(self):
        d = CountData.from_values(sample_fpd(0.7, 2.0, 1000, RngStream(3)).values)
        assert_fit_matches_loop("gfpd_aa1", d)

    def test_dict_grid(self):
        d = CountData.from_values(sample_fpd(0.6, 3.0, 800, RngStream(4)).values)
        grid = {"alpha": [0.0, 0.3, 0.6, 0.9, 1.0], "mu": np.linspace(1.0, 5.0, 17)}
        res = assert_fit_matches_loop("fpd", d, grid)
        assert res.evaluations == 5 * 17

    def test_iterable_grid_with_invalid_mu(self):
        d = CountData.from_values(sample_fpd(0.8, 2.0, 800, RngStream(5)).values)
        grid = [(0.5, -1.0), (0.5, 2.0), (0.5, 0.0), (0.5, 2.4), (0.8, 2.0), (0.8, math.nan),
                (0.8, -2.0), (0.0, 0.0), (0.0, 1.5), (1.0, -0.5), (1.0, 2.0), (0.8, 2.1)]
        for model in ("fpd", "gfpd_aa1"):
            res = assert_fit_matches_loop(model, d, grid)
            assert res.evaluations == len(grid)

    def test_exact_tie_keeps_first(self):
        # every alpha >= 1 is the Poisson law and every alpha <= 0 the
        # geometric one, so these runs tie exactly, point for point
        d = CountData.from_values(np.random.default_rng(8).poisson(2.0, size=500))
        mus = np.linspace(1.5, 2.5, 11)
        for alphas in ([1.5, 1.0], [1.0, 1.5], [-0.5, 0.0]):
            res = assert_fit_matches_loop("fpd", d, {"alpha": alphas, "mu": mus})
            assert res.params["alpha"] == alphas[0]
        # a repeated point in one run
        res = assert_fit_matches_loop("fpd", d, [(0.5, 2.0), (0.5, 2.0), (0.5, 1.0)])
        assert res.params == {"alpha": 0.5, "mu": 2.0}

    def test_all_points_fail(self):
        d = CountData.from_values([0, 1, 2, 2, 5])
        for model, grid in (("fpd", [(0.5, -1.0), (0.5, 0.0), (0.0, -2.0)]),
                            ("gfpd_aa1", [(0.0, 1.0), (-0.5, 2.0), (0.5, 0.0)])):
            with pytest.raises(EvaluationError, match="all 3 grid points failed"):
                fit_grid(model, d, grid)


# test_iterable_grid_with_invalid_mu's grid: mu <= 0 or NaN, and alpha = 0,
# which only fpd admits
_INVALID_MU_GRID = [(0.5, -1.0), (0.5, 2.0), (0.5, 0.0), (0.5, 2.4), (0.8, 2.0), (0.8, math.nan),
                    (0.8, -2.0), (0.0, 0.0), (0.0, 1.5), (1.0, -0.5), (1.0, 2.0), (0.8, 2.1)]


def loop_fpd_grid(data):
    """The default fpd grid as a generator of (alpha, mu) tuples."""
    mean = data.mean()
    for alpha in np.concatenate([[0.0], np.arange(0.01, 1.0, 0.01), [1.0]]):
        alpha = round(float(alpha), 10)
        for mu in mean * math.gamma(1.0 + alpha) * np.linspace(0.8, 1.2, 41):
            yield (alpha, float(mu))


def loop_aa1_grid(data):
    """The default gfpd_aa1 grid as a generator of (alpha, mu) tuples."""
    mean = data.mean()
    for alpha in np.concatenate([np.arange(0.01, 1.0, 0.01), [1.0]]):
        alpha = round(float(alpha), 10)
        scale = math.gamma(2.0 * alpha) / math.gamma(alpha)
        for mu in mean * scale * np.linspace(0.8, 1.2, 41):
            yield (alpha, float(mu))


def scan_logliks(model, data, points):
    """The grid scan's log likelihood at each point: one ``_run_logliks`` call
    per run of points that share alpha, as ``fit_grid`` makes them."""
    spec = MODELS[model]
    out = []
    for alpha, run in itertools.groupby(points, key=lambda theta: theta[0]):
        mus = np.array([theta[1] for theta in run], dtype=float)
        out.extend(_run_logliks(spec, [float(alpha)], mus, data))
    return np.array(out)


def _gapped_data():
    return CountData({0: 40, 1: 55, 2: 31, 4: 12, 7: 5, 12: 2, 25: 1}, 146)


def _mean50_data():
    # mean 50: the mu band at small alpha spans several chunks of a node set
    return CountData.from_values(
        sample_fpd(0.6, 50.0 * math.gamma(1.6), 300, RngStream(17)).values)


class TestGridScan:
    """The scan sums the quadrature's log rows at the observed counts; each
    point scores what loglik scores there."""

    @pytest.mark.parametrize("model", ["fpd", "gfpd_aa1"])
    @pytest.mark.parametrize("make_data", [_gapped_data, _mean50_data])
    def test_matches_safe_loglik_on_default_grid(self, model, make_data):
        d = make_data()
        spec = MODELS[model]
        points = [tuple(theta) for theta in spec.grid(d).tolist()]
        scan = scan_logliks(model, d, points)
        loop = np.array([_safe_loglik(spec, theta, d) for theta in points])
        assert np.all(loop > _NEG_INF)
        np.testing.assert_allclose(scan, loop, rtol=1e-12, atol=0.0)

    def test_data_reach_gaps_and_chunks(self):
        assert len(_gapped_data().values) < _gapped_data().max_value + 1
        d = _mean50_data()
        assert 45.0 < d.mean() < 55.0
        # at alpha = 0.01 the fpd band splits into chunks of its node set
        mus = np.array([m for a, m in _fpd_grid(d) if a == 0.01])
        ys, _ = gfpd._mixture_nodes(0.01, gfpd._cutoff(0.01, mus.min(), d.max_value))
        assert (mus.max() - mus.min()) * ys[-1] > 2.0 * gfpd._SPREAD_MAX

    def test_underflow_fails_as_under_loglik(self):
        # a count of 300 among small ones: a point whose table underflows to
        # 0 there fails, although the scan's log is finite; where the table
        # holds a normal number the two agree, and where it holds a
        # subnormal the scan keeps the digits that loglik loses
        d = CountData({0: 50, 1: 40, 2: 10, 300: 1}, 101)
        spec = MODELS["fpd"]
        points = [tuple(theta) for theta in spec.grid(d).tolist()]
        scan = scan_logliks("fpd", d, points)
        loop = np.array([_safe_loglik(spec, theta, d) for theta in points])
        failed = loop == _NEG_INF
        assert 0 < failed.sum() < len(points)
        assert np.array_equal(scan == _NEG_INF, failed)
        log_tiny = math.log(np.finfo(float).tiny)
        normal = np.concatenate([
            spec.log_rows((alpha, mus), d.values)[:, -1] >= log_tiny
            for (alpha, _), mus in zip(points[::41], spec.grid(d)[:, 1].reshape(-1, 41))
        ])
        assert (~failed & ~normal).any()
        np.testing.assert_allclose(scan[normal], loop[normal], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("model, n_failed", [("fpd", 6), ("gfpd_aa1", 7)])
    def test_invalid_mu_scores_neg_inf(self, model, n_failed):
        d = CountData.from_values(sample_fpd(0.8, 2.0, 800, RngStream(5)).values)
        spec = MODELS[model]
        scan = scan_logliks(model, d, _INVALID_MU_GRID)
        loop = np.array([_safe_loglik(spec, theta, d) for theta in _INVALID_MU_GRID])
        invalid = np.array([not mu > 0.0 for _, mu in _INVALID_MU_GRID])
        assert np.all(scan[invalid] == _NEG_INF)
        np.testing.assert_allclose(scan, loop, rtol=1e-12, atol=0.0)
        res = fit_grid(model, d, _INVALID_MU_GRID)
        assert res.points_failed == n_failed == np.count_nonzero(loop == _NEG_INF)

    def test_points_failed_only_for_grid_fits(self):
        d = CountData.from_values(sample_fpd(0.7, 2.0, 800, RngStream(6)).values)
        res = fit_grid("fpd", d)
        assert res.points_failed == 0
        assert "points_failed" not in res.to_dict()
        assert fit_newton("negbinom", d).points_failed is None
        assert fit_simplex("genpoisson", d).points_failed is None

    def test_default_grids_keep_their_points(self):
        d = CountData.from_values(sample_fpd(0.7, 2.0, 800, RngStream(7)).values)
        for grid, loop in ((_fpd_grid, loop_fpd_grid), (_aa1_grid, loop_aa1_grid)):
            points = grid(d)
            assert points.shape == (len(points), 2)
            assert [(a, m) for a, m in points.tolist()] == list(loop(d))


class TestFitSimplex:
    def test_poisson_mle(self):
        rng = np.random.default_rng(12)
        d = CountData.from_values(rng.poisson(3.0, size=4000))
        for init in ((0.5,), (10.0,)):
            res = fit_simplex("poisson", d, init=init)
            assert res.params["lam"] == pytest.approx(d.mean(), abs=1e-4)
            assert res.converged

    def test_bounds_respected(self):
        d = CountData.from_values(np.random.default_rng(3).poisson(2.0, size=500))
        res = fit_simplex("negbinom", d)
        assert res.params["r"] > 0
        assert 0.0 < res.params["p"] < 1.0

    def test_init_outside_domain(self):
        d = CountData.from_values([1, 2, 3])
        with pytest.raises(DomainError):
            fit_simplex("poisson", d, init=(-1.0,))

    def test_com_poisson_recovers_underdispersion(self):
        p = make_special_case("com_poisson", lam=5.0, nu=2.0)
        hits = 0
        for i in range(20):
            d = CountData.from_values(sample_wpd(p, 5000, RngStream(900 + i)).values)
            res = fit_simplex("com_poisson", d)
            hits += res.params["nu"] > 1.0
        assert hits >= 19

    def test_model_i_refit_at_least_truth(self):
        p = make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1)
        for i in range(5):
            d = CountData.from_values(sample_wpd(p, 5000, RngStream(700 + i)).values)
            res = fit_simplex("model_i", d)
            assert res.loglik >= loglik("model_i", (1.0, 0.5, 0.1), d) - 2.0


# a small box per law that is not fractional, in the registry's parameter
# order, where every adaptive table meets its tail rule
PMF_BOX = {
    "negbinom": ((0.5, 20.0), (0.05, 0.95)),
    "genpoisson": ((0.5, 10.0), (0.0, 0.9)),
    "poisson": ((0.1, 30.0),),
    "com_poisson": ((0.1, 10.0), (0.5, 3.0)),
    "hyper_poisson": ((0.1, 10.0), (0.2, 5.0)),
    "alt_mittag_leffler": ((0.1, 3.0), (0.5, 1.5), (0.5, 2.0)),
    "fractional_com_poisson": ((0.1, 3.0), (0.5, 1.5), (0.5, 2.0), (0.8, 2.0)),
    "alt_generalized_ml": ((0.1, 3.0), (0.5, 1.5), (0.5, 2.0), (0.5, 2.0)),
    "model_i": ((0.1, 5.0), (0.1, 3.0), (0.5, 2.0)),
    "model_i_2param": ((0.1, 5.0), (0.2, 3.0)),
    "model_ii": ((0.1, 5.0), (0.2, 3.0), (0.2, 3.0)),
    "model_ii_2param": ((0.2, 3.0), (0.2, 3.0)),
}


def _check_adaptive_is_fixed_support(model, theta):
    pmf = inference.LAWS[model].pmf
    table = pmf(theta, None)
    assert np.array_equal(table, pmf(theta, len(table) - 1)), (model, theta)
    # it ends at the first run of 10 values below 1e-14 after the bulk
    below = table < 1e-14
    assert below[-10:].all() and not below[-11], (model, theta)


class TestAdaptivePmf:
    def test_laws_in_the_box(self):
        assert set(PMF_BOX) == set(inference.LAWS) - {"fpd", "gfpd", "gfpd_aa1"}

    @pytest.mark.parametrize("model", sorted(PMF_BOX))
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_adaptive_is_fixed_support(self, model, data):
        theta = tuple(data.draw(st.floats(lo, hi)) for lo, hi in PMF_BOX[model])
        _check_adaptive_is_fixed_support(model, theta)

    @pytest.mark.parametrize("theta", [(1.0, 0.5, 0.1), (5.0, 0.5, 0.5)])
    def test_model_i_adaptive_is_its_recursion(self, theta):
        # a scalar step P(x) m(x) and the vectorised recursion differ here by
        # up to 1.05e-15 relative
        _check_adaptive_is_fixed_support("model_i", theta)

    def test_mass_reached(self):
        table = MODELS["negbinom"].pmf((2.0, 0.3), None)
        assert abs(math.fsum(table) - 1.0) <= 1e-8
        assert table[-1] < 1e-14 <= table[-11]

    def test_refused_at_the_cap(self):
        # NB(1, 1e-6) is geometric with mean 1e6: its first 100,000 counts
        # hold mass 1 - (1 - 1e-6)^1e5 ~ 0.095
        with pytest.raises(ConvergenceError, match="x_max"):
            MODELS["negbinom"].pmf((1.0, 1e-6), None)
        assert len(MODELS["negbinom"].pmf((1.0, 1e-6), 10)) == 11


class TestGof:
    def test_perfect_fit(self):
        # geometric(1/2) frequencies chosen so observed == expected cell by cell
        hist = {x: 2 ** (9 - x) for x in range(9)}
        hist[9] = 2  # matches the open tail cell mass exactly
        d = CountData(hist, 1024)
        chi2, df, p = gof_chisq("negbinom", (1.0, 0.5), d)
        assert chi2 == pytest.approx(0.0, abs=1e-9)
        assert p == pytest.approx(1.0)

    def test_pooling_preserves_totals(self):
        obs = np.array([1.0, 3.0, 20.0, 30.0, 2.0, 1.0, 0.0])
        exp = np.array([2.0, 4.0, 21.0, 28.0, 1.5, 0.4, 0.1])
        pobs, pexp = _pooled_cells(obs, exp, 5.0)
        assert pobs.sum() == pytest.approx(obs.sum(), abs=1e-12)
        assert pexp.sum() == pytest.approx(exp.sum(), abs=1e-12)
        assert (pexp >= 5.0).all()

    def test_df_rule(self):
        rng = np.random.default_rng(8)
        d = CountData.from_values(rng.poisson(4.0, size=2000))
        chi2, df, p = gof_chisq("poisson", (4.0,), d)
        obs = d.observed_vector()
        from countfam.inference import MODELS

        table = np.exp(MODELS["poisson"].log_rows((4.0,), np.arange(d.max_value + 1)))
        expd = np.asarray(table) * d.n_total
        expd[-1] = d.n_total * max(1.0 - float(np.sum(table[:-1])), 0.0)
        pobs, pexp = _pooled_cells(obs, expd, 5.0)
        assert df == len(pexp) - 1 - 1

    def test_no_pool_keeps_cells(self):
        rng = np.random.default_rng(9)
        d = CountData.from_values(rng.poisson(4.0, size=2000))
        c1, df1, _ = gof_chisq("poisson", (4.0,), d, pool=True)
        c2, df2, _ = gof_chisq("poisson", (4.0,), d, pool=False)
        assert df2 >= df1

    def test_calibration_light(self):
        # raw-data MLE plugged into binned chi-square runs mildly
        # anti-conservative (between chi2(k-2) and chi2(k-1)), so the
        # per-replication miss rate sits near 2 percent
        rng = np.random.default_rng(123)
        ok = 0
        for _ in range(20):
            d = CountData.from_values(rng.poisson(5.0, size=10_000))
            res = fit_simplex("poisson", d)
            ok += res.p_value > 0.01
        assert ok >= 17

    def test_misspecified_rejected(self):
        rng = np.random.default_rng(5)
        d = CountData.from_values(rng.poisson(5.0, size=10_000))
        mean = d.mean()
        res = fit_grid(
            "fpd", d,
            grid={"alpha": [0.3], "mu": mean * math.gamma(1.3) * np.linspace(0.8, 1.2, 41)},
        )
        assert res.p_value < 0.01

    def test_too_few_cells(self):
        d = CountData({0: 50, 1: 50}, 100)
        with pytest.raises(EvaluationError):
            gof_chisq("model_ii", (1.0, 1.0, 1.0), d)


class TestCompare:
    def test_needs_two(self):
        d = CountData.from_values([1, 2, 3])
        with pytest.raises(DomainError):
            compare(["poisson"], d)

    def test_fpd_data_ranks_fpd_first(self):
        d = CountData.from_values(sample_fpd(0.85, 3.6, 4000, RngStream(77)).values)
        rows = compare(["negbinom", "fpd"], d)
        assert rows[0]["model"] == "fpd"
        assert rows[0]["p_value"] > rows[1]["p_value"]

    def test_order_invariant(self):
        d = CountData.from_values(sample_fpd(0.9, 2.0, 1500, RngStream(88)).values)
        r1 = compare(["poisson", "negbinom"], d)
        r2 = compare(["negbinom", "poisson"], d)
        assert [r["model"] for r in r1] == [r["model"] for r in r2]

    def test_unknown_model_row(self):
        rng = np.random.default_rng(44)
        d = CountData.from_values(rng.poisson(2.0, size=400))
        rows = compare(["poisson", "nosuchmodel"], d)
        errs = [r for r in rows if r.get("error")]
        assert len(errs) == 1
        assert rows[-1]["error"] is not None


# ---------------------------------------------------------------------------
# Newton fits on the analytic score
# ---------------------------------------------------------------------------

NEWTON_LAWS = sorted(m for m, s in MODELS.items() if s.score is not None)
# the laws the simplex fits, directly or as the Newton fallback
SIMPLEX_LAWS = sorted(m for m, s in MODELS.items() if s.grid is None)


def _stable(rng, alpha, n):
    """One-sided stable variates by the sine-product formula."""
    u1 = 1.0 - rng.random(n)
    u2 = 1.0 - rng.random(n)
    th = math.pi * u1
    inv = 1.0 / alpha
    return (np.sin(alpha * th) * np.sin((1.0 - alpha) * th) ** (inv - 1.0)
            / (np.sin(th) ** inv * np.abs(np.log(u2)) ** (inv - 1.0)))


def _fpd_counts(rng, alpha, mu, n):
    return rng.poisson(mu * _stable(rng, alpha, n) ** (-alpha))


def _inverse_cdf(rng, log_terms, n):
    cdf = np.cumsum(np.exp(log_terms - logsumexp(log_terms)))
    x = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    return np.minimum(x, len(cdf) - 1)


def compare_kinds(seed, n=2000):
    """The four data kinds of the benchmark's nine-model compares:
    FPD(0.85, 50), FPD(0.6, 3), COM-Poisson(5, 2) and model II (2, 2, 1)."""
    k = np.arange(401.0)
    com = k * math.log(5.0) - 2.0 * gammaln(k + 1.0)
    m2 = k * math.log(2.0) - gammaln(k + 1.0) + gammaln(k + 1.0) - gammaln(k + 2.0)
    rng = np.random.default_rng([seed, 3])
    return [
        CountData.from_values(_fpd_counts(rng, 0.85, 50.0, n)),
        CountData.from_values(_fpd_counts(rng, 0.6, 3.0, n)),
        CountData.from_values(_inverse_cdf(rng, com, n)),
        CountData.from_values(_inverse_cdf(rng, m2, n)),
    ]


def _simplex_test_datasets():
    """The data of TestFitSimplex."""
    yield CountData.from_values(np.random.default_rng(12).poisson(3.0, size=4000))
    yield CountData.from_values(np.random.default_rng(3).poisson(2.0, size=500))
    com = make_special_case("com_poisson", lam=5.0, nu=2.0)
    for i in range(20):
        yield CountData.from_values(sample_wpd(com, 5000, RngStream(900 + i)).values)
    m1 = make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1)
    for i in range(5):
        yield CountData.from_values(sample_wpd(m1, 5000, RngStream(700 + i)).values)


def assert_projected_optimum(model, res, data):
    """At a converged Newton fit a parameter on a face gains nothing by moving
    into the box (its gradient points out, or its Newton gain g^2/I is
    rounding), and the others are a maximum: a positive definite
    information and a vanishing Newton decrement."""
    spec = MODELS[model]
    theta = np.array(list(res.params.values()))
    _, g, info = spec.score(tuple(theta), data)
    lo, hi = np.array(spec.bounds, dtype=float).T
    on_lo, on_hi = theta == lo, theta == hi
    inward = (on_lo & (g > 0.0)) | (on_hi & (g < 0.0))
    assert np.all(g[inward] ** 2 / np.diag(info)[inward] < 1e-6)
    free = ~(on_lo | on_hi)
    reduced = info[np.ix_(free, free)]
    assert np.all(np.linalg.eigvalsh(reduced) > 0.0)
    assert g[free] @ np.linalg.solve(reduced, g[free]) < 1e-6
    assert [k for k, v in res.std_errors.items() if v is None] == \
        [k for k, f in zip(spec.param_names, free) if not f]


def assert_newton_at_least_simplex(model, data):
    try:
        want = fit_simplex(model, data)
    except (DomainError, EvaluationError) as exc:
        with pytest.raises(type(exc)):
            fit(model, data)
        return
    res = fit(model, data)
    assert res.loglik >= want.loglik - 1e-6, (model, res, want)
    if res.std_errors is None:
        # not certified: the simplex's row, unchanged
        assert res == want
    else:
        assert res.converged
        assert_projected_optimum(model, res, data)


# parameter ranges, inside each law's box, where eta stays cheap
_SCORE_BOXES = {
    "poisson": [(0.2, 30.0)],
    "negbinom": [(0.3, 30.0), (0.05, 0.95)],
    "com_poisson": [(0.2, 10.0), (0.5, 3.0)],
    "hyper_poisson": [(0.2, 20.0), (0.2, 10.0)],
    "model_i": [(0.2, 10.0), (0.2, 10.0), (0.5, 3.0)],
    "model_i_2param": [(0.2, 10.0), (0.5, 5.0)],
    "model_ii": [(0.2, 20.0), (0.2, 10.0), (0.2, 10.0)],
    "model_ii_2param": [(0.2, 10.0), (0.2, 10.0)],
}
_SCORE_DATA = CountData.from_values(np.random.default_rng(11).negative_binomial(2, 0.3, size=300))


class TestScore:
    def test_every_newton_law_has_a_box(self):
        assert sorted(_SCORE_BOXES) == NEWTON_LAWS
        assert "genpoisson" not in NEWTON_LAWS

    @pytest.mark.parametrize("model", NEWTON_LAWS)
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(u=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
    def test_matches_central_differences(self, model, u):
        spec, data = MODELS[model], _SCORE_DATA
        theta = np.array([lo * (hi / lo) ** ui for (lo, hi), ui in zip(_SCORE_BOXES[model], u)])
        ll, g, info = spec.score(tuple(theta), data)
        assert ll == pytest.approx(loglik(model, tuple(theta), data), rel=1e-12)
        fd_g, fd_info = np.empty_like(g), np.empty_like(info)
        for j in range(len(theta)):
            step = np.zeros_like(theta)
            step[j] = 1e-5 * theta[j]
            up, down = tuple(theta + step), tuple(theta - step)
            fd_g[j] = (loglik(model, up, data) - loglik(model, down, data)) / (2.0 * step[j])
            fd_info[:, j] = -(spec.score(up, data)[1] - spec.score(down, data)[1]) / (2.0 * step[j])
        np.testing.assert_allclose(g, fd_g, rtol=1e-6, atol=1e-6 * np.abs(g).max())
        np.testing.assert_allclose(info, info.T, rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(info, fd_info, rtol=1e-6, atol=1e-6 * np.abs(info).max())


class TestFitNewton:
    @pytest.mark.parametrize("seed", [556, 557, 558])
    def test_at_least_simplex_on_compare_data(self, seed):
        for data in compare_kinds(seed):
            for model in NEWTON_LAWS:
                assert_newton_at_least_simplex(model, data)

    def test_at_least_simplex_on_simplex_test_data(self):
        for data in _simplex_test_datasets():
            for model in NEWTON_LAWS:
                assert_newton_at_least_simplex(model, data)

    def test_model_ii_leaves_the_gamma_face(self):
        # the simplex stops at gamma ~ 1e-10 and calls that converged
        data = compare_kinds(556)[0]
        res = fit("model_ii", data)
        assert res.std_errors is not None and res.converged
        assert res.loglik >= fit_simplex("model_ii", data).loglik + 1000.0

    @pytest.mark.parametrize("seed", [556, 557])
    def test_negbinom_underdispersed_on_the_p_face(self, seed):
        data = compare_kinds(seed)[2]
        assert data.variance() < data.mean()
        res = fit("negbinom", data)
        assert res.converged
        assert res.params["p"] == 1.0 - 1e-9
        assert res.std_errors["p"] is None and res.std_errors["r"] > 0.0
        assert res.loglik >= fit_simplex("negbinom", data).loglik

    def test_ridge_falls_back_to_the_simplex(self):
        # model II with lam = 1 rises towards the frontier where eta overflows
        data = compare_kinds(556)[0]
        assert fit("model_ii_2param", data) == fit_simplex("model_ii_2param", data)

    def test_refusal_is_the_simplex_refusal(self):
        data = compare_kinds(556)[0]
        with pytest.raises(DomainError, match="not evaluable"):
            fit_simplex("model_i", data)
        with pytest.raises(DomainError, match="not evaluable"):
            fit("model_i", data)

    def test_method_dispatch(self):
        data = compare_kinds(556)[3]
        assert fit("genpoisson", data) == fit_simplex("genpoisson", data)
        assert fit("com_poisson", data) == fit_newton("com_poisson", data)

    def test_poisson_std_error(self):
        data = CountData.from_values(np.random.default_rng(12).poisson(3.0, size=4000))
        res = fit("poisson", data)
        assert res.params["lam"] == pytest.approx(data.mean(), rel=1e-12)
        want = math.sqrt(res.params["lam"] / data.n_total)
        assert res.std_errors["lam"] == pytest.approx(want, rel=1e-10)
        assert "std_errors" not in res.to_dict()

    @pytest.mark.parametrize("model, kind", [("negbinom", 1), ("com_poisson", 2),
                                             ("model_ii", 3), ("model_i", 3)])
    def test_std_errors_match_finite_difference_hessian(self, model, kind):
        data = compare_kinds(557)[kind]
        res = fit(model, data)
        assert res.std_errors is not None
        theta = np.array(list(res.params.values()))
        f = lambda t: loglik(model, tuple(t), data)
        d = len(theta)

        def hessian(h):
            out = np.empty((d, d))
            for i in range(d):
                for j in range(d):
                    ei, ej = np.eye(d)[i] * h[i], np.eye(d)[j] * h[j]
                    out[i, j] = (f(theta + ei + ej) - f(theta + ei - ej)
                                 - f(theta - ei + ej) + f(theta - ei - ej)) / (4.0 * h[i] * h[j])
            return out

        # Richardson: the h^2 error of the central differences cancels
        hess = (4.0 * hessian(1e-3 * theta) - hessian(2e-3 * theta)) / 3.0
        want = np.sqrt(np.diag(np.linalg.inv(-hess)))
        np.testing.assert_allclose(list(res.std_errors.values()), want, rtol=1e-4)

    def test_grid_and_simplex_fits_have_no_std_errors(self):
        d = CountData.from_values(np.random.default_rng(42).poisson(1.5, size=400))
        assert fit_grid("fpd", d, grid=[(1.0, 1.5)]).std_errors is None
        assert fit_simplex("poisson", d).std_errors is None


# the laws whose score sums their own log rows: all with a score but the
# Poisson slice, whose rows are its closed form (which needs no eta) and whose
# score is the eta engine's
ROW_SCORED_LAWS = [m for m in NEWTON_LAWS if m != "poisson"]


@lru_cache(maxsize=None)
def _fitted_points(seed):
    """(model, data, theta) at the fit of every law that is not fractional
    on each of compare_kinds(seed), where the law fits."""
    out = []
    for data in compare_kinds(seed):
        for model in SIMPLEX_LAWS:
            try:
                res = fit(model, data)
            except (DomainError, EvaluationError):
                continue
            out.append((model, data, tuple(res.params.values())))
    return out


class TestLogRows:
    @pytest.mark.parametrize("seed", [556, 557, 558])
    def test_loglik_is_the_score_loglik(self, seed):
        # loglik and the score sum the same log rows against the frequencies
        checked = set()
        for model, data, theta in _fitted_points(seed):
            if model in ROW_SCORED_LAWS:
                assert loglik(model, theta, data) == MODELS[model].score(theta, data)[0], model
                checked.add(model)
        assert checked == set(ROW_SCORED_LAWS)

    @pytest.mark.parametrize("seed", [556, 557, 558])
    def test_rows_are_the_pmf_tables(self, seed):
        # 2e-12: at model_ii_2param's fit on seed 557 (beta = 403, gamma =
        # 518) the two differ by 1.3e-12 at x = 1, where a 40-digit sum puts
        # the rows 5.9e-13 and the recursion's table 8.1e-13 from the pmf;
        # log Gamma near 500 is rounded to about 5e-13
        for model, data, theta in _fitted_points(seed):
            spec = MODELS[model]
            np.testing.assert_allclose(np.exp(spec.log_rows(theta, np.arange(41))),
                                       spec.pmf(theta, 40), rtol=2e-12, atol=0.0, err_msg=model)


def numpy_project(theta, bounds):
    """The projection into the box that the simplex used before its
    bookkeeping moved to plain floats: part of the oracle below."""
    out = []
    for v, (lo, hi) in zip(theta, bounds):
        eps = 1e-10 * (1.0 + abs(lo) if math.isfinite(lo) else 1.0)
        lo_eff = lo + eps if math.isfinite(lo) and lo != 0.0 else lo
        if lo == 0.0:
            lo_eff = 0.0
        v = max(v, lo_eff)
        if math.isfinite(hi):
            v = min(v, hi)
        out.append(v)
    return tuple(out)


def numpy_nelder_mead_max(f, x0, bounds, diam_tol=1e-6, max_evals=10_000):
    """The simplex with its vertex arithmetic in NumPy arrays: the oracle for
    the path, the evaluations and the result of the plain-float one."""
    nd = len(x0)
    evals = 0

    def fx(t):
        nonlocal evals
        evals += 1
        return f(t)

    simplex = [tuple(x0)]
    for i in range(nd):
        step = 0.05 * max(abs(x0[i]), 1.0)
        v = list(x0)
        v[i] += step
        simplex.append(numpy_project(v, bounds))
    values = [fx(v) for v in simplex]
    converged = False
    while evals < max_evals:
        order = sorted(range(nd + 1), key=lambda i: -values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best = np.array(simplex[0])
        diam = max(np.max(np.abs(np.array(v) - best)) for v in simplex[1:])
        if diam < diam_tol:
            converged = True
            break
        centroid = np.mean(np.array(simplex[:-1]), axis=0)
        worst = np.array(simplex[-1])
        xr = numpy_project(centroid + (centroid - worst), bounds)
        fr = fx(xr)
        if fr > values[0]:
            xe = numpy_project(centroid + 2.0 * (centroid - worst), bounds)
            fe = fx(xe)
            if fe > fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr > values[-1]:
                xc = numpy_project(centroid + 0.5 * (centroid - worst), bounds)
            else:
                xc = numpy_project(centroid - 0.5 * (centroid - worst), bounds)
            fc = fx(xc)
            if fc > min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, nd + 1):
                    simplex[i] = numpy_project(
                        best + 0.5 * (np.array(simplex[i]) - best), bounds
                    )
                    values[i] = fx(simplex[i])
    order = sorted(range(nd + 1), key=lambda i: -values[i])
    return simplex[order[0]], values[order[0]], evals, converged


def assert_simplex_matches_numpy(model, data):
    """The simplex of fit_simplex from its start visits the points the NumPy
    oracle visits and returns its (point, loglik, evaluations, converged).
    Both read one memo of the log likelihood, so each point costs one
    evaluation."""
    spec = MODELS[model]
    try:
        theta0, _ = _initial_point(spec, None, data)
    except DomainError:
        return
    memo = {}

    def f(theta):
        key = tuple(float(t) for t in theta)
        if key not in memo:
            memo[key] = _safe_loglik(spec, theta, data)
        return memo[key]

    want = numpy_nelder_mead_max(f, theta0, spec.bounds)
    assert _nelder_mead_max(f, theta0, spec.bounds) == want, (model, want)


class TestSimplexMatchesNumpy:
    """The plain-float simplex takes the NumPy simplex's path, bit for bit."""

    @pytest.mark.parametrize("seed", [556, 557, 558])
    def test_compare_data(self, seed):
        for data in compare_kinds(seed):
            for model in SIMPLEX_LAWS:
                assert_simplex_matches_numpy(model, data)

    def test_simplex_test_data(self):
        for data in _simplex_test_datasets():
            for model in SIMPLEX_LAWS:
                assert_simplex_matches_numpy(model, data)

    def test_fit_simplex_result(self, monkeypatch):
        data = compare_kinds(556)[3]
        want = [fit_simplex(m, data) for m in SIMPLEX_LAWS]
        monkeypatch.setattr(inference, "_nelder_mead_max", numpy_nelder_mead_max)
        assert [fit_simplex(m, data) for m in SIMPLEX_LAWS] == want
