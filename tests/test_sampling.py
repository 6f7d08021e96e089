"""Random variate generation: determinism, distributional checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from countfam import (
    CountData,
    ConvergenceError,
    DomainError,
    GfpdParams,
    RngStream,
    gfpd_pmf_table,
    gof_chisq,
    make_special_case,
    mc_moment,
    moments_from_factorial,
    gfpd_factorial_moments,
    sample_fpd,
    sample_stable,
    sample_wpd,
    wpd_pmf_table,
    wpd_summary,
)
from countfam.gfpd import fpd_pmf_quadrature
from countfam.inference import LAWS, _pooled_cells
from countfam.sampling import SampleBatch


def renewal_fpd(alpha, mu, n, rng):
    """Fractional-Poisson counts by the renewal clock T <- T + V^(1/alpha) S
    (V exponential with rate mu, S stable), counting the arrivals in [0, 1]:
    the sampler before the mixed Poisson draw.  It is the oracle for that
    draw's law, and tests whose assertions pin values fitted to sampled data
    draw their data from it, so those data stay what they were."""
    x = np.zeros(n, dtype=np.int64)
    t = np.zeros(n)
    active = np.ones(n, dtype=bool)
    inv = 1.0 / alpha
    events = 0
    while active.any():
        idx = np.nonzero(active)[0]
        k = len(idx)
        v = -np.log(rng.uniforms(k)) / mu
        s = sample_stable(alpha, k, rng)
        t[idx] = t[idx] + v**inv * s
        done = t[idx] > 1.0
        x[idx[~done]] += 1
        active[idx] = ~done
        events += 1
        if events > 10_000_000:
            raise ConvergenceError("renewal loop exceeded the event cap")
    return SampleBatch(x, n, rng.seed)


def chi2_p_value(values, table):
    """p-value of the chi-square test of counts against a pmf table whose
    last cell is open to the right, cells pooled to 5 expected counts."""
    n, k = len(values), len(table)
    observed = np.bincount(np.minimum(values, k - 1), minlength=k).astype(float)
    expected = n * np.asarray(table, dtype=float)
    expected[-1] = n * max(1.0 - float(np.sum(table[:-1])), 0.0)
    observed, expected = _pooled_cells(observed, expected, 5.0)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    return float(stats.chi2.sf(chi2, len(expected) - 1))


class TestRngStream:
    def test_beta(self):
        a, b = RngStream(71).beta(0.3, 0.7, 100_000), RngStream(71).beta(0.3, 0.7, 100_000)
        np.testing.assert_array_equal(a, b)
        se = a.std(ddof=1) / math.sqrt(len(a))
        assert abs(a.mean() - 0.3) < 4.0 * se

    def test_open_interval(self):
        rng = RngStream(0)
        u = rng.uniforms(100_000)
        assert (u > 0.0).all() and (u < 1.0).all()

    def test_determinism(self):
        a = RngStream(99).uniforms(1000)
        b = RngStream(99).uniforms(1000)
        np.testing.assert_array_equal(a, b)

    def test_spawn_differs(self):
        rng = RngStream(5)
        a = rng.spawn(0).uniforms(10)
        b = rng.spawn(1).uniforms(10)
        assert not np.allclose(a, b)

    def test_poisson(self):
        # at mu = 1e4 the renewal loop would draw about 1e4 events per variate
        lam = np.full(100_000, 1e4)
        a, b = RngStream(61).poisson(lam), RngStream(61).poisson(lam)
        np.testing.assert_array_equal(a, b)
        assert a.dtype == np.int64
        assert abs(a.mean() - 1e4) < 4.0 * math.sqrt(1e4 / len(a))
        batch = sample_fpd(0.7, 1e4, 100_000, RngStream(62))
        np.testing.assert_array_equal(batch.values, sample_fpd(0.7, 1e4, 100_000, RngStream(62)).values)
        vals = batch.values.astype(float)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - 1e4 / math.gamma(1.7)) < 4.0 * se


class TestStable:
    def test_alpha_one_degenerate(self):
        s = sample_stable(1.0, 17, RngStream(1))
        np.testing.assert_array_equal(s, np.ones(17))

    @pytest.mark.parametrize("alpha", [0.3, 0.7])
    def test_laplace_transform(self, alpha):
        s = sample_stable(alpha, 200_000, RngStream(42))
        for t in (0.5, 1.0, 2.0):
            v = np.exp(-t * s)
            se = v.std(ddof=1) / math.sqrt(len(v))
            assert abs(v.mean() - math.exp(-(t**alpha))) < 4.0 * se

    def test_positive(self):
        s = sample_stable(0.5, 10_000, RngStream(2))
        assert (s > 0).all()

    def test_domain(self):
        with pytest.raises(DomainError):
            sample_stable(1.5, 10, RngStream(0))


class TestFpdSampler:
    def test_determinism(self):
        b1 = sample_fpd(0.8, 2.0, 500, RngStream(7))
        b2 = sample_fpd(0.8, 2.0, 500, RngStream(7))
        np.testing.assert_array_equal(b1.values, b2.values)
        assert b1.seed == 7

    def test_alpha_one_is_poisson(self):
        batch = sample_fpd(1.0, 3.0, 100_000, RngStream(11))
        data = CountData.from_values(batch.values)
        chi2, df, p = gof_chisq("poisson", (3.0,), data)
        assert p > 0.01
        assert abs(data.mean() - 3.0) < 4.0 * math.sqrt(3.0 / 100_000)

    def test_mean_against_closed_form(self):
        batch = sample_fpd(0.75, 3.0, 50_000, RngStream(3))
        vals = batch.values.astype(float)
        target = 3.0 / math.gamma(1.75)
        se = vals.std(ddof=1) / math.sqrt(len(vals))
        assert abs(vals.mean() - target) < 4.0 * se

    def test_tv_against_series(self):
        batch = sample_fpd(0.85, 3.6, 50_000, RngStream(17))
        table = gfpd_pmf_table(GfpdParams.fpd(0.85, 3.6))
        emp = np.bincount(batch.values, minlength=len(table)).astype(float) / batch.n
        k = max(len(emp), len(table))
        emp = np.pad(emp, (0, k - len(emp)))
        th = np.pad(np.asarray(table), (0, k - len(table)))
        tv = 0.5 * float(np.abs(emp - th).sum()) + 0.5 * max(0.0, 1.0 - float(th.sum()))
        assert tv < 0.015

    @pytest.mark.parametrize("mu", [0.5, 3.6, 50.0])
    @pytest.mark.parametrize("alpha", [0.3, 0.6, 0.85])
    def test_chi2_against_table(self, alpha, mu):
        if (alpha, mu) == (0.6, 50.0):
            # the series table there goes to high precision and takes about
            # 35 s on a 2-core machine; the positive mixture quadrature agrees
            # with it to 3e-7 below alpha = 0.9
            table = fpd_pmf_quadrature(alpha, mu, np.arange(400))
        else:
            table = gfpd_pmf_table(GfpdParams.fpd(alpha, mu))
        batch = sample_fpd(alpha, mu, 100_000, RngStream(71))
        assert chi2_p_value(batch.values, table) > 1e-3

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(alpha=st.floats(0.2, 1.0), mu=st.floats(0.1, 30.0), seed=st.integers(0, 2**32 - 1))
    def test_two_sample_against_renewal(self, alpha, mu, seed):
        # chi-square test of homogeneity over the values both samples share
        # often enough, the rest pooled into the tails
        new = sample_fpd(alpha, mu, 20_000, RngStream(seed)).values
        old = renewal_fpd(alpha, mu, 20_000, RngStream(seed + 1)).values
        k = int(max(new.max(), old.max())) + 1
        counts = np.stack([np.bincount(new, minlength=k), np.bincount(old, minlength=k)])
        total = counts.sum(axis=0)
        keep = np.nonzero(total >= 20)[0]
        edges = np.concatenate([[0], keep[1:], [k]])
        pooled = np.add.reduceat(counts, edges[:-1], axis=1)
        assert stats.chi2_contingency(pooled)[1] > 1e-3


class TestWpdSampler:
    def test_poisson_tag(self):
        p = make_special_case("poisson", lam=2.0)
        batch = sample_wpd(p, 100_000, RngStream(23))
        vals = batch.values.astype(float)
        assert abs(vals.mean() - 2.0) < 3.0 * vals.std(ddof=1) / math.sqrt(len(vals))

    @pytest.mark.parametrize(
        "p,over",
        [
            (make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1), True),
            (make_special_case("model_i", lam=5.0, beta=0.1, nu=1.1), False),
        ],
        ids=["overdispersed-regime", "underdispersed-regime"],
    )
    def test_model_i_fisher_sign(self, p, over):
        batch = sample_wpd(p, 100_000, RngStream(31))
        vals = batch.values.astype(float)
        emp_fisher = vals.var(ddof=1) / vals.mean()
        exact = wpd_summary(p).fisher_index
        assert (emp_fisher > 1.0) == over
        assert (exact > 1.0) == over

    @pytest.mark.parametrize(
        "p",
        [
            make_special_case("com_poisson", lam=5.0, nu=2.0),
            make_special_case("hyper_poisson", lam=5.0, beta=2.0),
            make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1),
            make_special_case("model_ii", lam=2.0, beta=2.0, gamma=1.0),
            make_special_case("model_ii_2param", beta=2.0, gamma=1.0),
        ],
        ids=lambda p: str(p.tag.value),
    )
    def test_tv_against_exact(self, p):
        batch = sample_wpd(p, 100_000, RngStream(41))
        table = wpd_pmf_table(p)
        emp = np.bincount(batch.values, minlength=len(table)).astype(float) / batch.n
        k = max(len(emp), len(table))
        emp = np.pad(emp, (0, k - len(emp)))
        th = np.pad(np.asarray(table), (0, k - len(table)))
        assert 0.5 * float(np.abs(emp - th).sum()) < 0.01

    def test_determinism(self):
        p = make_special_case("hyper_poisson", lam=2.0, beta=0.7)
        b1 = sample_wpd(p, 200, RngStream(5))
        b2 = sample_wpd(p, 200, RngStream(5))
        np.testing.assert_array_equal(b1.values, b2.values)


class TestTableSampler:
    """Laws without a sampler of their own draw by inverse-CDF lookup over
    their adaptive pmf table."""

    @pytest.mark.parametrize("model, theta", [
        ("gfpd", (0.6, 0.9, 1.0, 2.0)),
        ("gfpd_aa1", (0.8, 1.0)),
        ("negbinom", (3.0, 0.4)),
        ("genpoisson", (2.0, 0.3)),
        ("genpoisson", (2.0, -0.1)),
    ])
    def test_chi2_against_table(self, model, theta):
        spec = LAWS[model]
        batch = spec.sample(theta, 100_000, RngStream(83))
        assert batch.n == 100_000 and batch.seed == 83
        assert chi2_p_value(batch.values, spec.pmf(theta, None)) > 1e-3


class TestMcMoment:
    def test_order_zero(self):
        assert mc_moment(0.7, 2.0, 0, 10, RngStream(1)) == (1.0, 0.0)

    def test_poisson_mean(self):
        est, se = mc_moment(1.0, 3.0, 1, 50_000, RngStream(9))
        assert abs(est - 3.0) < 4.0 * se

    def test_second_moment_vs_factorial(self):
        a = gfpd_factorial_moments(GfpdParams.fpd(0.5, 1.0), 2)
        target = moments_from_factorial(a, 2)
        est, se = mc_moment(0.5, 1.0, 2, 100_000, RngStream(29))
        assert abs(est - target) < 4.0 * se
