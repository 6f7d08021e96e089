"""Generalized fractional Poisson family: reductions, moments, representations."""

import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from countfam import (
    CancellationError,
    CountData,
    DomainError,
    EvaluationError,
    GfpdParams,
    RngStream,
    aa1_pmf_quadrature,
    fpd_cdf,
    fpd_pmf,
    fpd_pmf_quadrature,
    fpd_skewness,
    fpd_skewness_limit,
    gfpd_aa1_pmf,
    gfpd_factorial_moments,
    gfpd_pmf,
    gfpd_pmf_mc,
    gfpd_pmf_table,
    gfpd_summary,
    overdispersion_delta_bound,
    prabhakar_ml,
    sample_fpd,
)
from countfam import gfpd
from countfam.gfpd import _mp_plan, _rows_mp
from countfam.inference import _fpd_grid


def small_grid():
    for alpha in (0.6, 0.9):
        for beta in (0.6, 0.9):
            for frac in (0.5, 1.0):
                yield GfpdParams(alpha, beta, frac * beta / alpha, 2.0)


def _forward_resum(p, xs, jend, dps, guard=20):
    """Pmf rows by plain mpmath summation from the zeroth term upward.

    Uses its own log-gamma values at 20 digits beyond the plan's, so it
    shares neither the gamma cache nor the fixed-point arithmetic.
    """
    out = []
    with mp.workdps(int(dps.max()) + guard):
        a, b, d, u = (mp.mpf(v) for v in (p.alpha, p.beta, p.delta, p.mu))
        lg = [mp.loggamma(a * k + b) for k in range(int((xs + jend).max()) + 1)]
    for x, je, digits in zip(xs.tolist(), jend.tolist(), dps.tolist()):
        with mp.workdps(digits + guard):
            t = mp.exp(
                lg[0] + mp.loggamma(d + x) - mp.loggamma(d) - mp.loggamma(x + 1)
                + x * mp.log(u) - lg[x]
            )
            acc = t
            for j in range(je):
                t = -t * ((d + x + j) * u / (j + 1)) * mp.exp(lg[x + j] - lg[x + j + 1])
                acc += t
            out.append(float(acc))
    return np.array(out)


class TestParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            GfpdParams(1.2, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            GfpdParams(0.5, 1.0, 2.5, 1.0)  # delta > beta/alpha
        with pytest.raises(DomainError):
            GfpdParams(0.5, 1.0, 1.0, -1.0)
        with pytest.raises(DomainError):
            GfpdParams(0.0, 1.0, 1.0, 1.0)  # alpha = 0 needs the explicit flag

    def test_geometric_flag(self):
        p = GfpdParams.fpd(0.0, 2.0)
        assert p.geometric_limit
        with pytest.raises(DomainError):
            GfpdParams(0.0, 0.5, 1.0, 1.0, geometric_limit=True)

    def test_delta_boundary_allowed(self):
        GfpdParams(0.5, 0.9, 1.8, 3.0)  # delta = beta/alpha exactly


class TestReductions:
    def test_poisson(self):
        for mu in (0.5, 2.0):
            for x in range(25):
                closed = math.exp(-mu + x * math.log(mu) - math.lgamma(x + 1))
                assert gfpd_pmf(GfpdParams(1.0, 1.0, 1.0, mu), x) == pytest.approx(
                    closed, abs=1e-12
                )

    def test_geometric(self):
        assert fpd_pmf(0.0, 1.0, 3) == pytest.approx(0.0625, abs=1e-15)
        mu = 5.0
        q = mu / (1.0 + mu)
        for x in range(20):
            assert fpd_pmf(0.0, mu, x) == pytest.approx((1 - q) * q**x, rel=1e-12)

    def test_fpd_half_erfc(self):
        assert fpd_pmf(0.5, 1.0, 0) == pytest.approx(math.e * math.erfc(1.0), rel=1e-11)


class TestSeriesEngine:
    def test_normalization_small_grid(self):
        for p in small_grid():
            table = gfpd_pmf_table(p)
            assert float(table.sum()) == pytest.approx(1.0, abs=1e-8), p

    def test_table_matches_scalar(self):
        p = GfpdParams(0.7, 0.8, 0.6, 1.5)
        table = gfpd_pmf_table(p, x_max=15)
        for x in (0, 3, 9, 15):
            assert gfpd_pmf(p, x) == pytest.approx(float(table[x]), rel=1e-12)

    def test_series_mode_refuses_hostile(self):
        with pytest.raises(CancellationError):
            gfpd_pmf(GfpdParams(0.3, 0.9, 1.5, 5.0), 40, method="series")

    def test_auto_survives_hostile(self):
        p = GfpdParams(0.3, 0.9, 1.5, 5.0)
        table = gfpd_pmf_table(p)
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-8)
        assert (table >= 0).all()

    def test_huge_mu_refused_toward_mc(self):
        with pytest.raises(EvaluationError):
            gfpd_pmf(GfpdParams.fpd(0.85, 3607.0), 3600)

    @pytest.mark.parametrize("beta", [0.3, 0.6, 0.9])
    def test_integer_resummation_matches_mpmath(self, beta):
        # the alpha = 0.3, mu = 5 off-plane points of the acceptance grid,
        # where every row cancels from terms up to e^692
        p = GfpdParams(0.3, beta, 0.5 * beta / 0.3, 5.0)
        mode = int(np.argmax(gfpd_pmf_table(p)))
        xs = np.array(sorted({0, mode, 100, 191}))
        jend, dps = _mp_plan(p, xs)
        got = _rows_mp(p, xs, jend)
        want = _forward_resum(p, xs, jend, dps)
        assert np.abs(got - want).max() <= 1e-25

    def test_gamma_cache_does_not_change_tables(self, monkeypatch):
        # the cold build fills the cache chunk by chunk at rising precision;
        # the warm build serves its first chunk from higher-precision entries
        p = GfpdParams(0.3, 0.3, 0.5, 5.0)
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE", {})
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})
        cold = gfpd_pmf_table(p)
        gfpd._TABLE_CACHE.clear()
        warm = gfpd_pmf_table(p)
        assert warm is not cold
        assert np.array_equal(cold, warm)

    def test_table_cache_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})
        monkeypatch.setattr(gfpd, "_TABLE_CACHE_MAX", 2)
        laws = [GfpdParams.fpd(0.5, 2.0), GfpdParams(0.6, 0.9, 1.0, 2.0), GfpdParams.fpd(0.7, 2.0)]
        first = gfpd_pmf_table(laws[0])
        for p in laws[1:]:
            gfpd_pmf_table(p)
        assert [k[0] for k in gfpd._TABLE_CACHE] == laws[1:]
        rebuilt = gfpd_pmf_table(laws[0])
        assert rebuilt is not first
        assert np.array_equal(rebuilt, first)
        assert [k[0] for k in gfpd._TABLE_CACHE] == [laws[2], laws[0]]

    def test_gamma_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE", {})
        for k in range(gfpd._MP_GAMMA_CACHE_MAX + 5):
            gfpd._mp_rgamma(0.5, 0.01 * (k + 1), [128] * 3)
        assert 0 < len(gfpd._MP_GAMMA_CACHE) <= gfpd._MP_GAMMA_CACHE_MAX
        # lower precisions reuse an entry instead of recomputing it
        vals = gfpd._mp_rgamma(0.5, 0.5, [256] * 3)
        first = vals[2]
        assert gfpd._mp_rgamma(0.5, 0.5, [128] * 3)[2] is first

    def test_gamma_cache_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE", {})
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE_MAX", 2)
        for beta in (0.1, 0.2, 0.3):
            gfpd._mp_rgamma(0.5, beta, [128] * 3)
        assert list(gfpd._MP_GAMMA_CACHE) == [(0.5, 0.2), (0.5, 0.3)]

    def test_table_cached_readonly(self):
        p = GfpdParams(0.9, 0.9, 1.0, 2.0)
        t1 = gfpd_pmf_table(p, x_max=10)
        t2 = gfpd_pmf_table(p, x_max=10)
        assert t1 is t2
        with pytest.raises(ValueError):
            t1[0] = 0.0


class TestQuadratureRoutes:
    def test_fpd_quadrature_vs_series(self):
        # the series (with its high-precision escalation) is the reference
        from countfam.gfpd import _pmf_rows

        cases = [(0.1, 0.5), (0.3, 0.5), (0.3, 3.0), (0.5, 3.0), (0.75, 3.0), (0.85, 3.6)]
        for alpha, mu in cases:
            p = GfpdParams.fpd(alpha, mu)
            n = len(gfpd_pmf_table(p))
            series = _pmf_rows(p, np.arange(n))
            quadv = fpd_pmf_quadrature(alpha, mu, np.arange(n))
            mask = series > 1e-10
            np.testing.assert_allclose(
                quadv[mask], series[mask], rtol=2e-6, atol=1e-13,
                err_msg=f"{alpha},{mu}",
            )

    def test_small_alpha_table_uses_quadrature(self):
        # series is infeasible at alpha = 0.1, mu = 3 even in high precision;
        # the table transparently switches to the mixture quadrature
        p = GfpdParams.fpd(0.1, 3.0)
        table = gfpd_pmf_table(p)
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-7)
        est, se = gfpd_pmf_mc(p, 0, 400_000, RngStream(21))
        assert abs(est - float(table[0])) < 3.0 * se

    def test_aa1_quadrature_vs_series(self):
        table = np.array([gfpd_aa1_pmf(0.8, 1.0, x) for x in range(12)])
        quadv = aa1_pmf_quadrature(0.8, 1.0, np.arange(12))
        np.testing.assert_allclose(quadv, table, rtol=1e-7)

    def test_omega_zero_table_route(self):
        # beta = alpha * delta triggers the positive-quadrature table; the
        # series path must agree
        p = GfpdParams(0.6, 0.6, 1.0, 2.0)
        table = gfpd_pmf_table(p)
        for x in (0, 2, 6):
            assert gfpd_pmf(p, x) == pytest.approx(float(table[x]), rel=1e-7)


class TestMixtureNodes:
    def test_cold_build_memory(self, monkeypatch):
        # at alpha = 0.99 some rows' series run to tens of thousands of
        # terms; the cutoff is the largest fit_grid("fpd") reaches on
        # criterion 12's first sample (its smallest grid mu)
        data = CountData.from_values(sample_fpd(0.85, 3.6, 5000, RngStream(1000)).values)
        mu = min(m for a, m in _fpd_grid(data) if a == 0.99)
        monkeypatch.setattr(gfpd, "_MIXTURE_CACHE", {})
        tracemalloc.start()
        try:
            ys, _ = gfpd._mixture_nodes(0.99, mu, data.max_value, 4, 80)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ys) == 320
        assert peak < 4e6

    def test_cache_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_MIXTURE_CACHE", {})
        monkeypatch.setattr(gfpd, "_MIXTURE_CACHE_MAX", 2)
        first = gfpd._mixture_nodes(0.3, 2.0, 10, 4, 80)
        gfpd._mixture_nodes(0.5, 2.0, 10, 4, 80)
        gfpd._mixture_nodes(0.7, 2.0, 10, 4, 80)
        assert [k[0] for k in gfpd._MIXTURE_CACHE] == [0.5, 0.7]
        rebuilt = gfpd._mixture_nodes(0.3, 2.0, 10, 4, 80)
        assert rebuilt is not first
        assert np.array_equal(rebuilt[0], first[0])
        assert np.array_equal(rebuilt[1], first[1])
        assert [k[0] for k in gfpd._MIXTURE_CACHE] == [0.7, 0.3]


class TestMonteCarlo:
    def test_degenerate_alpha_one(self):
        est, se = gfpd_pmf_mc(GfpdParams.fpd(1.0, 2.0), 0, 100, RngStream(1))
        assert est == math.exp(-2.0)
        assert se == 0.0

    def test_fpd_mc_matches_series(self):
        p = GfpdParams.fpd(0.9, 20.0)
        table = gfpd_pmf_table(p)
        x = int(table.argmax())
        est, se = gfpd_pmf_mc(p, x, 200_000, RngStream(7))
        assert abs(est - float(table[x])) < 3.0 * se

    def test_fpd_mc_half(self):
        est, se = gfpd_pmf_mc(GfpdParams.fpd(0.5, 1.0), 0, 200_000, RngStream(3))
        assert abs(est - math.e * math.erfc(1.0)) < 3.0 * se

    def test_general_parameters_quadrature(self):
        p = GfpdParams(0.6, 0.8, 0.9, 1.5)
        val, err = gfpd_pmf_mc(p, 2, 1, RngStream(1))
        assert val == pytest.approx(gfpd_pmf(p, 2), rel=1e-6)
        assert err < 1e-8

    def test_geometric_exact(self):
        val, err = gfpd_pmf_mc(GfpdParams.fpd(0.0, 1.0), 3, 10, RngStream(1))
        assert val == pytest.approx(0.0625)


class TestAa1:
    def test_poisson_reduction(self):
        assert gfpd_aa1_pmf(1.0, 2.0, 1) == pytest.approx(2.0 * math.exp(-2.0), rel=1e-12)

    def test_series_equals_prabhakar_form(self):
        alpha, mu, x = 0.8, 1.0, 0
        direct = math.gamma(alpha) * prabhakar_ml(alpha, alpha, 1.0, -mu).value
        assert gfpd_aa1_pmf(alpha, mu, x) == pytest.approx(direct, rel=1e-10)

    def test_series_vs_mc(self):
        from countfam import sample_stable

        val = gfpd_aa1_pmf(0.8, 1.0, 0)
        n = 200_000
        s = sample_stable(0.8, n, RngStream(5))
        v = np.exp(-0.8 * np.log(s) - 1.0 * s ** (-0.8))
        est = math.gamma(1.8) * float(v.mean())
        se = math.gamma(1.8) * float(v.std(ddof=1)) / math.sqrt(n)
        assert abs(est - val) < 2.0 * se

    def test_normalization(self):
        table = gfpd_pmf_table(GfpdParams.aa1(0.8, 1.0))
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-8)


class TestCdf:
    def test_pmf_summation(self):
        p = GfpdParams.fpd(0.5, 10.0)
        table = gfpd_pmf_table(p, x_max=5)
        assert fpd_cdf(0.5, 10.0, 5) == pytest.approx(float(table.sum()), rel=1e-12)

    def test_near_poisson_limit(self):
        # alpha close to 1 approaches the Poisson CDF
        val = fpd_cdf(0.995, 10.0, 10)
        assert val == pytest.approx(float(stats.poisson.cdf(10, 10.0)), abs=2e-2)
        assert fpd_cdf(1.0, 10.0, 10) == pytest.approx(float(stats.poisson.cdf(10, 10.0)), abs=1e-12)

    def test_monotone(self):
        vals = [fpd_cdf(0.7, 3.0, x) for x in range(15)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] <= 1.0


class TestFactorialMoments:
    def test_fpd_closed_form(self):
        alpha, mu = 0.6, 2.0
        a = gfpd_factorial_moments(GfpdParams.fpd(alpha, mu), 4)
        for k in range(5):
            expect = mu**k * math.factorial(k) / math.gamma(1.0 + alpha * k)
            assert a[k] == pytest.approx(expect, rel=1e-12)

    def test_poisson_reduction(self):
        a = gfpd_factorial_moments(GfpdParams(1.0, 1.0, 1.0, 3.0), 4)
        for k in range(5):
            assert a[k] == pytest.approx(3.0**k, rel=1e-12)

    def test_vs_pmf_sums(self):
        for p in (GfpdParams(0.9, 0.6, 0.5, 2.0), GfpdParams(0.6, 0.9, 1.0, 2.0)):
            a = gfpd_factorial_moments(p, 4)
            table = gfpd_pmf_table(p, tail_tol=1e-16)
            xs = np.arange(len(table), dtype=float)
            for k in range(1, 5):
                ff = np.ones_like(xs)
                for i in range(k):
                    ff = ff * (xs - i)
                direct = float(np.sum(ff * table))
                assert direct == pytest.approx(a[k], rel=1e-6), (p, k)

    def test_pgf_consistency(self):
        for p in (GfpdParams(0.6, 0.9, 1.0, 2.0), GfpdParams(0.3, 0.6, 1.0, 2.0)):
            table = gfpd_pmf_table(p, tail_tol=1e-16)
            xs = np.arange(len(table))
            for u in (0.2, 0.5, 0.9):
                lhs = float(np.sum(u**xs * table))
                rhs = math.gamma(p.beta) * prabhakar_ml(
                    p.alpha, p.beta, p.delta, p.mu * (u - 1.0)
                ).value
                assert lhs == pytest.approx(rhs, abs=1e-8), (p, u)


class TestSummary:
    def test_poisson(self):
        s = gfpd_summary(GfpdParams(1.0, 1.0, 1.0, 3.0))
        assert s.mean == pytest.approx(3.0, rel=1e-12)
        assert s.variance == pytest.approx(3.0, rel=1e-10)
        assert s.skewness == pytest.approx(1.0 / math.sqrt(3.0), rel=1e-10)

    def test_fpd_mean(self):
        s = gfpd_summary(GfpdParams.fpd(0.75, 3.0))
        assert s.mean == pytest.approx(3.0 / math.gamma(1.75), rel=1e-12)

    def test_variance_vs_pmf(self):
        p = GfpdParams.fpd(0.5, 2.0)
        s = gfpd_summary(p)
        table = gfpd_pmf_table(p, tail_tol=1e-16)
        xs = np.arange(len(table), dtype=float)
        m1 = float(np.sum(xs * table))
        m2 = float(np.sum(xs * xs * table))
        assert s.variance == pytest.approx(m2 - m1 * m1, abs=1e-6)


class TestSkewnessShape:
    def test_limit_vanishes_at_one(self):
        assert fpd_skewness_limit(1.0, "fpd") == pytest.approx(0.0, abs=1e-12)
        assert fpd_skewness_limit(1.0, "aa1") == pytest.approx(0.0, abs=1e-12)

    def test_limit_matches_large_mu(self):
        for alpha in (0.5, 0.8):
            lim = fpd_skewness_limit(alpha, "fpd")
            assert fpd_skewness(alpha, 1e6) == pytest.approx(lim, abs=1e-3)

    def test_aa1_limit_matches_large_mu(self):
        from countfam import gfpd_factorial_moments, skewness_from_factorial

        for alpha in (0.3, 0.5, 0.8):
            a = gfpd_factorial_moments(GfpdParams.aa1(alpha, 1e6), 3)
            direct = skewness_from_factorial(a[1], a[2], a[3])
            assert fpd_skewness_limit(alpha, "aa1") == pytest.approx(direct, abs=1e-3)

    def test_aa1_limit_decreasing(self):
        vals = [fpd_skewness_limit(a, "aa1") for a in np.linspace(0.15, 0.99, 12)]
        assert all(a >= b - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_sign_flip_against_samples(self):
        # strongly right-skewed at small alpha, left-skewed near alpha = 1
        assert fpd_skewness(0.1, 20.0) > 0
        assert fpd_skewness(0.95, 20.0) < 0
        for alpha, sign in ((0.1, 1.0), (0.95, -1.0)):
            batch = sample_fpd(alpha, 20.0, 200_000, RngStream(13))
            emp = float(stats.skew(batch.values))
            assert math.copysign(1.0, emp) == sign


class TestDeltaBound:
    def test_unit_case(self):
        assert overdispersion_delta_bound(1.0, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_exceeds_ratio(self):
        for alpha in (0.3, 0.5, 0.9):
            for beta in (0.3, 0.6, 0.9):
                assert overdispersion_delta_bound(alpha, beta) > beta / alpha

    def test_spot_value(self):
        b = overdispersion_delta_bound(0.3, 0.9)
        assert b > 3.0
