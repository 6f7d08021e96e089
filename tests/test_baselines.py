"""Negative binomial and generalized Poisson baselines."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy import stats

from countfam import (
    DomainError,
    GenPoissonParams,
    NegBinomParams,
    genpoisson_factorial_moments,
    genpoisson_pmf,
    genpoisson_pmf_table,
    negbinom_pmf,
    negbinom_pmf_table,
    negbinom_skewness,
    pmf_from_factorial,
    summary_from_factorial,
)
from countfam.baselines import negbinom_logpmf


class TestNegBinom:
    def test_at_zero(self):
        p = NegBinomParams(2.5, 0.4)
        assert negbinom_pmf(p, 0) == pytest.approx(0.4**2.5, rel=1e-13)

    def test_geometric_case(self):
        p = NegBinomParams(1.0, 0.3)
        for x in range(10):
            assert negbinom_pmf(p, x) == pytest.approx(0.3 * 0.7**x, rel=1e-13)

    def test_spot_value_and_normalization(self):
        p = NegBinomParams(2.0, 0.5)
        assert negbinom_pmf(p, 2) == pytest.approx(0.1875, rel=1e-13)
        total = math.fsum(negbinom_pmf(p, x) for x in range(200))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_matches_scipy(self):
        p = NegBinomParams(3.7, 0.42)
        for x in (0, 1, 5, 17):
            assert negbinom_pmf(p, x) == pytest.approx(
                float(stats.nbinom.pmf(x, p.r, p.p)), rel=1e-11
            )

    def test_moments_vs_pmf(self):
        p = NegBinomParams(2.0, 0.3)
        xs = np.arange(400)
        pmf = np.array([negbinom_pmf(p, int(x)) for x in xs])
        mean = float(np.sum(xs * pmf))
        var = float(np.sum(xs**2 * pmf)) - mean**2
        assert mean == pytest.approx(p.mean, abs=1e-8)
        assert var == pytest.approx(p.variance, abs=1e-8)
        assert p.variance == pytest.approx(mean / p.p, abs=1e-8)

    def test_skewness_positive(self):
        for r in (0.5, 2.0, 10.0):
            for pp in (0.1, 0.5, 0.9):
                assert negbinom_skewness(NegBinomParams(r, pp)) > 0

    def test_size_mean_parametrization(self):
        p = NegBinomParams.from_size_mean(1.69, 4019.61)
        assert p.mean == pytest.approx(4019.61, rel=1e-12)

    def test_validation(self):
        with pytest.raises(DomainError):
            NegBinomParams(-1.0, 0.5)
        with pytest.raises(DomainError):
            NegBinomParams(1.0, 1.0)


class TestNegBinomTable:
    @pytest.mark.parametrize("r, p", [(2.5, 0.4), (1.0, 0.3), (0.3, 0.9), (50.0, 0.6), (7.0, 0.05)])
    def test_matches_scalar(self, r, p):
        law = NegBinomParams(r, p)
        want = np.array([math.exp(negbinom_logpmf(law, x)) for x in range(61)])
        np.testing.assert_allclose(negbinom_pmf_table(law, 60), want, rtol=1e-12, atol=0.0)

    def test_huge_size_matches_mpmath(self):
        # r >> x: the scalar's two log-gamma values of size 4e10 cancel, the
        # cumulative ratios do not
        law = NegBinomParams(2e9, 1.0 - 1e-9)
        with mp.workdps(40):
            r, p = mp.mpf(law.r), mp.mpf(law.p)
            want = [float(mp.exp(mp.loggamma(r + x) - mp.loggamma(r) - mp.loggamma(x + 1)
                                 + r * mp.log(p) + x * mp.log(1 - p))) for x in range(31)]
        np.testing.assert_allclose(negbinom_pmf_table(law, 30), want, rtol=1e-12, atol=0.0)

    def test_zero_support(self):
        law = NegBinomParams(3.0, 0.2)
        assert negbinom_pmf_table(law, 0).tolist() == [pytest.approx(0.2**3, rel=1e-14)]


class TestGenPoissonTable:
    @pytest.mark.parametrize("l1, l2", [(2.0, 0.3), (3.0, 0.6), (0.6334, 0.543), (2.0, 0.0),
                                        (5.0, -0.2), (4.0, -0.5), (2.0, -0.4)])
    def test_matches_scalar(self, l1, l2):
        law = GenPoissonParams(l1, l2)
        table = genpoisson_pmf_table(law, 80)
        want = np.array([genpoisson_pmf(law, x) for x in range(81)])
        np.testing.assert_allclose(table, want, rtol=1e-12, atol=0.0)
        # the cells past the support cap stay exact zeros
        assert np.array_equal(table == 0.0, want == 0.0)


class TestGenPoissonSummary:
    @pytest.mark.parametrize("l1, l2", [(2.0, 0.3), (3.0, 0.6), (5.0, -0.2), (4.0, -0.5)])
    def test_matches_pmf_sums(self, l1, l2):
        # the factorial moments are sums of x(x-1)...(x-r+1) P(x) over the pmf
        law = GenPoissonParams(l1, l2)
        table = genpoisson_pmf_table(law, 3000)
        x = np.arange(len(table), dtype=float)
        a = [1.0, float(x @ table), float((x * (x - 1)) @ table),
             float((x * (x - 1) * (x - 2)) @ table)]
        want = summary_from_factorial(a)
        got = summary_from_factorial(genpoisson_factorial_moments(law, 3))
        for name in ("mean", "variance", "skewness", "fisher_index"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), rel=1e-8), name


class TestGenPoisson:
    def test_poisson_collapse(self):
        p = GenPoissonParams(2.0, 0.0)
        assert genpoisson_pmf(p, 0) == pytest.approx(math.exp(-2.0), rel=1e-13)
        a = genpoisson_factorial_moments(p, 3)
        for k in range(4):
            assert a[k] == pytest.approx(2.0**k, rel=1e-10)

    def test_normalization(self):
        for l1, l2 in ((1.0, 0.2), (0.6334, 0.5430), (2.0, -0.2)):
            p = GenPoissonParams(l1, l2)
            total = math.fsum(genpoisson_pmf(p, x) for x in range(3000))
            assert total == pytest.approx(1.0, abs=1e-8), (l1, l2)

    def test_fisher_index_table_fit_params(self):
        # the overdispersed fish-data fit regime
        p = GenPoissonParams(0.6334, 0.5430)
        xs = np.arange(4000)
        pmf = np.array([genpoisson_pmf(p, int(x)) for x in xs])
        mean = float(np.sum(xs * pmf))
        var = float(np.sum(xs**2 * pmf)) - mean**2
        assert var / mean > 1.0

    def test_factorial_moments_vs_pmf(self):
        for l2 in (-0.1, 0.0, 0.2):
            p = GenPoissonParams(1.0, l2)
            a = genpoisson_factorial_moments(p, 3)
            xs = np.arange(0, 500, dtype=float)
            pmf = np.array([genpoisson_pmf(p, int(x)) for x in xs])
            for k in range(1, 4):
                ff = np.ones_like(xs)
                for i in range(k):
                    ff = ff * (xs - i)
                assert float(np.sum(ff * pmf)) == pytest.approx(a[k], abs=1e-6), (l2, k)

    def test_inversion_round_trip(self):
        p = GenPoissonParams(1.0, 0.1)
        a = genpoisson_factorial_moments(p, 60)
        for x in range(4):
            assert pmf_from_factorial(a, x) == pytest.approx(
                genpoisson_pmf(p, x), abs=1e-6
            )

    def test_negative_branch_support(self):
        p = GenPoissonParams(2.0, -0.4)
        m = p.M
        assert 2.0 + m * -0.4 > 0.0
        assert 2.0 + (m + 1) * -0.4 <= 0.0
        assert genpoisson_pmf(p, m + 1) == 0.0
        assert genpoisson_pmf(p, m + 5) == 0.0

    def test_negative_branch_moment_domain(self):
        p = GenPoissonParams(2.0, -0.4)
        with pytest.raises(DomainError):
            genpoisson_factorial_moments(p, p.M + 1)

    def test_validation(self):
        with pytest.raises(DomainError):
            GenPoissonParams(0.0, 0.1)
        with pytest.raises(DomainError):
            GenPoissonParams(1.0, 1.0)
        with pytest.raises(DomainError):
            GenPoissonParams(0.5, -0.9)  # lambda2 below -lambda1/M
