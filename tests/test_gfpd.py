"""Generalized fractional Poisson family: reductions, moments, representations."""

import itertools
import math
import tracemalloc

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy import stats

from countfam import (
    CancellationError,
    ConvergenceError,
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
    m_wright,
    overdispersion_delta_bound,
    prabhakar_ml,
    sample_fpd,
)
from countfam import gfpd, moments
from countfam.gfpd import _mp_plan, _rows_mp
from countfam.inference import MODELS
from test_sampling import renewal_fpd

_fpd_grid = MODELS["fpd"].grid


def small_grid():
    for alpha in (0.6, 0.9):
        for beta in (0.6, 0.9):
            for frac in (0.5, 1.0):
                yield GfpdParams(alpha, beta, frac * beta / alpha, 2.0)


def oracle_mixture_pmf(alpha, mu, xs, y_power, x_max=None, log_pref=0.0):
    """The mixture quadrature as it was before it returned log rows: each
    chunk exponentiates ``log_pref`` plus its own log rows, over the lattice
    prefix that reaches the smallest mu's cutoff.  The oracle for the bits
    of the quadrature's tables, which now take exp of the log prefactor plus
    ``gfpd._mixture_logpmf``."""
    if not (0.0 < alpha < 1.0):
        raise DomainError("mixture quadrature requires alpha in (0, 1)")
    xs = np.asarray(xs, dtype=int)
    if x_max is None:
        x_max = int(xs.max())
    mu = np.asarray(mu, dtype=float)
    if not np.all(mu > 0.0):
        raise DomainError("mixture quadrature requires mu > 0")
    flat = mu.ravel()
    mus = np.sort(flat)
    inverse = np.searchsorted(mus, flat)
    xf = xs.astype(float)
    log_x1 = np.log(np.maximum(xf, 1.0)) - 1.0
    c_x = xf * log_x1 - sc.gammaln(xf + 1.0)
    out = np.empty((len(mus), len(xs)))
    ys, wm = gfpd._mixture_nodes(alpha, gfpd._cutoff(alpha, mus[0], x_max))
    log_w = np.log(wm * ys**y_power if y_power else wm)
    ends = np.searchsorted(mus, mus + 2.0 * gfpd._SPREAD_MAX / ys[-1], "right").tolist()
    start = 0
    while start < len(mus):
        stop = ends[start]
        mu0 = 0.5 * (mus[start] + mus[stop - 1])
        lam = mu0 * ys
        log_b = np.log(lam) - log_x1[:, None]
        log_b *= xf[:, None]
        log_b -= lam - log_w
        shift = log_b.max(axis=1)
        log_b -= shift[:, None]
        np.maximum(log_b, -700.0, out=log_b)
        b = np.exp(log_b, out=log_b)
        a = np.exp(np.multiply.outer(mu0 - mus[start:stop], ys))
        log_rows = np.log(a @ b.T)
        log_rows += shift + c_x
        log_rows += np.multiply.outer(np.log(mus[start:stop] / mu0), xf)
        np.exp(log_pref + log_rows, out=out[start:stop])
        start = stop
    rows = out[inverse]
    return rows[0] if mu.ndim == 0 else rows


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


def _row_logmag_oracle(p, xs, jcap):
    """log |T_{x,j}| cell by cell over the dense (x, j) matrix."""
    a, b, d, u = p.alpha, p.beta, p.delta, p.mu
    xs = np.asarray(xs, dtype=float)
    js = np.arange(jcap, dtype=float)
    m = xs[:, None] + js[None, :]
    return (
        sc.gammaln(b)
        + sc.gammaln(d + m)
        - sc.gammaln(d)
        - sc.gammaln(xs + 1.0)[:, None]
        - sc.gammaln(js + 1.0)[None, :]
        + m * math.log(u)
        - sc.gammaln(a * m + b)
    )


def _rows_f64_oracle(p, xs, jcap):
    """Float64 series rows with one fsum over every term of each row."""
    js = np.arange(jcap)
    logmag = _row_logmag_oracle(p, xs, jcap)
    signs = np.where(js % 2 == 0, 1.0, -1.0)
    maxlog = logmag.max(axis=1)
    pk = logmag.argmax(axis=1)
    decayed = (logmag[:, -1] < maxlog - 46.0) & (pk < jcap - 1)
    shifted = np.exp(np.clip(logmag - maxlog[:, None], -746.0, 0.0)) * signs[None, :]
    sums = np.array([math.fsum(row) for row in shifted])
    pmf = np.exp(np.clip(maxlog, -746.0, 700.0)) * sums
    pmf[maxlog < -745.0] = 0.0
    return pmf, maxlog, decayed


# criterion 04's grid
CRITERION_04_GRID = [
    GfpdParams(alpha, beta, frac * beta / alpha, mu)
    for alpha in (0.3, 0.6, 0.9)
    for beta in (0.3, 0.6, 0.9)
    for frac in (0.5, 1.0)
    for mu in (0.5, 2.0, 5.0)
]
# its 27 off-plane points (frac = 0.5)
OFFPLANE_GRID = [p for p in CRITERION_04_GRID if abs(p.beta - p.alpha * p.delta) >= 1e-12]
# the grid without its three alpha = 0.3, mu = 5 off-plane points, whose
# high-precision series tables take seconds each
TABLE_GRID = [p for p in CRITERION_04_GRID
              if not (p.alpha == 0.3 and p.mu == 5.0 and p in OFFPLANE_GRID)]


def series_table(p, tail_tol=1e-14):
    """The adaptive table of the series route (`gfpd._pmf_rows`), which
    `gfpd_pmf` takes, and tables outside the beta-mixture box."""
    return moments.adaptive_pmf_table(lambda xs, x_end: gfpd._pmf_rows(p, xs), None, tail_tol)


def hp_series_rows(p, xs):
    """Every row by the high-precision series, with its term cut at the
    fixed-point resolution: the oracle of the beta-mixture tables.  The
    float64 rows of `gfpd._pmf_rows` are kept 1e8 above their noise floor
    only, which leaves them up to ~5e-8 off."""
    xs = np.asarray(xs)
    jend, _ = _mp_plan(p, xs)
    return _rows_mp(p, xs, jend)


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
            table = series_table(p)
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
        table = series_table(p)
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-8)
        assert (table >= 0).all()

    def test_huge_mu_refused_toward_mc(self):
        with pytest.raises(EvaluationError):
            gfpd_pmf(GfpdParams.fpd(0.85, 3607.0), 3600)

    # rows near or below e^-45 that the high-precision series lost while it
    # cut each row at that absolute size; the values are mpmath sums with 40
    # and 100 guard digits past the largest term, which agree to 1e-52
    @pytest.mark.parametrize("params, x, want", [
        ((0.9, 0.6, 1 / 3, 5.0), 44, 2.1839765811322358e-21),
        ((0.3, 0.6, 1.0, 0.5), 35, 2.7625300816574883e-21),
        ((0.9, 0.3, 1 / 6, 5.0), 44, 3.3044240751518757e-21),
        ((0.3, 0.3, 0.5, 2.0), 56, 2.8840204887306941e-14),
    ])
    def test_tail_rows_match_mpmath(self, params, x, want):
        p = GfpdParams(*params)
        assert gfpd_pmf(p, x) == pytest.approx(want, rel=1e-9, abs=0.0)
        assert hp_series_rows(p, [x])[0] == pytest.approx(want, rel=1e-9, abs=0.0)
        # the beta-mixture table
        assert gfpd_pmf_table(p)[x] == pytest.approx(want, rel=1e-9, abs=0.0)

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

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 1.0),
        beta=st.floats(0.05, 1.0),
        frac=st.floats(0.01, 1.0),
        mu=st.floats(0.05, 50.0),
        xs=st.one_of(
            st.builds(lambda lo, n: list(range(lo, lo + n)), st.integers(0, 300), st.integers(1, 64)),
            st.lists(st.integers(0, 400), min_size=1, max_size=20),
        ),
        jcap=st.sampled_from([1024, 8192]),
    )
    # hostile rows (largest term above e^6) next to rows that are summed
    @example(alpha=0.3, beta=0.3, frac=0.5, mu=5.0, xs=[191, 0, 40, 3], jcap=1024)
    def test_rows_match_dense_oracle(self, alpha, beta, frac, mu, xs, jcap):
        p = GfpdParams(alpha, beta, frac * beta / alpha, mu)
        xs = np.array(xs)
        assert np.array_equal(gfpd._row_logmag(p, xs, jcap), _row_logmag_oracle(p, xs, jcap))
        pmf, maxlog, decayed = gfpd._rows_f64(p, xs, jcap)
        want_pmf, want_maxlog, want_decayed = _rows_f64_oracle(p, xs, jcap)
        assert np.array_equal(maxlog, want_maxlog)
        assert np.array_equal(decayed, want_decayed)
        # rows above the float64 threshold are left unsummed for high precision
        want_pmf[want_maxlog > gfpd._F64_MAXLOG] = np.nan
        assert np.array_equal(pmf, want_pmf, equal_nan=True)

    def test_tables_match_dense_oracle(self, monkeypatch):
        grid = [p for p in TABLE_GRID if p in OFFPLANE_GRID]
        fast = [series_table(p) for p in grid]
        monkeypatch.setattr(gfpd, "_row_logmag", _row_logmag_oracle)
        monkeypatch.setattr(gfpd, "_rows_f64", _rows_f64_oracle)
        dense = [series_table(p) for p in grid]
        assert len(fast) == 24
        for p, got, want in zip(grid, fast, dense):
            assert np.array_equal(got, want), p

    def test_table_refuses_negative_x_max(self):
        with pytest.raises(DomainError, match="x_max"):
            gfpd_pmf_table(GfpdParams(0.6, 0.9, 1.0, 2.0), x_max=-1)

    def test_gamma_cache_does_not_change_tables(self, monkeypatch):
        # the cold build fills the cache chunk by chunk at rising precision;
        # the warm build serves its first chunk from higher-precision entries
        p = GfpdParams(0.3, 0.3, 0.5, 5.0)
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE", {})
        cold = series_table(p)
        assert (0.3, 0.3) in gfpd._MP_GAMMA_CACHE
        warm = series_table(p)
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

    def test_table_cache_hit_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})
        monkeypatch.setattr(gfpd, "_TABLE_CACHE_MAX", 2)
        laws = [GfpdParams.fpd(0.5, 2.0), GfpdParams(0.6, 0.9, 1.0, 2.0), GfpdParams.fpd(0.7, 2.0)]
        first = gfpd_pmf_table(laws[0])
        gfpd_pmf_table(laws[1])
        assert gfpd_pmf_table(laws[0]) is first
        gfpd_pmf_table(laws[2])
        assert [k[0] for k in gfpd._TABLE_CACHE] == [laws[0], laws[2]]
        assert gfpd_pmf_table(laws[0]) is first

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

    def test_gamma_cache_hit_survives_eviction(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE", {})
        monkeypatch.setattr(gfpd, "_MP_GAMMA_CACHE_MAX", 2)
        first = gfpd._mp_rgamma(0.5, 0.1, [128] * 3)
        gfpd._mp_rgamma(0.5, 0.2, [128] * 3)
        assert gfpd._mp_rgamma(0.5, 0.1, [128] * 3) is first
        gfpd._mp_rgamma(0.5, 0.3, [128] * 3)
        assert list(gfpd._MP_GAMMA_CACHE) == [(0.5, 0.1), (0.5, 0.3)]
        assert gfpd._mp_rgamma(0.5, 0.1, [128] * 3) is first

    def test_table_cached_readonly(self):
        p = GfpdParams(0.9, 0.9, 1.0, 2.0)
        t1 = gfpd_pmf_table(p, x_max=10)
        t2 = gfpd_pmf_table(p, x_max=10)
        assert t1 is t2
        with pytest.raises(ValueError):
            t1[0] = 0.0


def _run_adaptive_oracle(evaluate, x_max, tail_tol, tail_run):
    """The adaptive loop before tables were cut at their tail rule: it checks
    the rule only after whole chunks of 64, 128, ... 1024 rows and returns
    every row it evaluated.  ``evaluate(xs, x_end)`` is given each whole chunk."""
    if x_max is not None:
        return evaluate(np.arange(int(x_max) + 1), int(x_max))
    chunks = []
    start = 0
    run = 0
    size = 64
    while start < 100_000:
        xs = np.arange(start, start + size)
        vals = evaluate(xs, xs[-1])
        for v in vals:
            run = run + 1 if v < tail_tol else 0
        chunks.append(vals)
        if run >= tail_run:
            break
        start += size
        size = min(2 * size, 1024)
    return np.concatenate(chunks)


def _rule_end(vals, tail_tol, tail_run):
    """Index of the first value that completes a run of tail_run below
    tail_tol after a value at or above tail_tol."""
    run = 0
    risen = False
    for i, v in enumerate(vals):
        if not v < tail_tol:
            run, risen = 0, True
        elif risen:
            run += 1
            if run >= tail_run:
                return i
    raise AssertionError("the rule is never met")


def _doubling_end(x):
    """Last row of the oracle's 64, 128, ... 1024-row chunk that holds row x."""
    end, size = 63, 64
    while end < x:
        size = min(2 * size, 1024)
        end += size
    return end


class TestAdaptiveCut:
    @staticmethod
    def _check_offplane_table(p, tail_tol):
        # the beta-mixture table ends where the series' would and matches
        # it to rtol 1e-9 wherever the value exceeds 1e-20
        assert gfpd._in_beta_mixture_box(p) and not p.is_fpd
        got = gfpd_pmf_table(p, tail_tol=tail_tol)
        want = _run_adaptive_oracle(lambda xs, x_end: hp_series_rows(p, xs), None, tail_tol, 10)
        assert len(got) == _rule_end(want, tail_tol, 10) + 1
        want = want[: len(got)]
        big = want > 1e-20
        np.testing.assert_allclose(got[big], want[big], rtol=1e-9, atol=0.0)
        assert np.all(got[~big] < 2e-20)
        assert abs(math.fsum(got) - 1.0) <= 1e-10

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(gfpd._BETA_MIX_ALPHA_MIN, gfpd._BETA_MIX_ALPHA_MAX),
        beta=st.floats(0.01, 1.0),
        # beta - alpha delta from beta 1e-10 up, log-uniform, and delta >= 1e-3
        log_gap=st.floats(-10.0, 0.0),
        mu=st.floats(0.01, gfpd._BETA_MIX_MU_MAX),
        tail_tol=st.sampled_from([1e-14, 1e-16]),
    )
    @example(alpha=0.3, beta=1.0, log_gap=0.0, mu=5.0, tail_tol=1e-16)
    @example(alpha=0.99, beta=0.01, log_gap=-8.0, mu=5.0, tail_tol=1e-14)
    @example(alpha=0.3, beta=0.6, log_gap=-10.0, mu=0.01, tail_tol=1e-16)
    def test_offplane_table_is_oracle_prefix(self, alpha, beta, log_gap, mu, tail_tol):
        gap = min(beta * 10.0**log_gap, beta - alpha * 1e-3)
        p = GfpdParams(alpha, beta, (beta - gap) / alpha, mu)
        self._check_offplane_table(p, tail_tol)

    @pytest.mark.parametrize("p", OFFPLANE_GRID, ids=str)
    def test_grid_offplane_table_is_oracle_prefix(self, p):
        self._check_offplane_table(p, 1e-14)

    def test_grid_evaluates_nothing_past_a_finished_run(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})
        real = moments._run_adaptive
        seen = []

        def spy(evaluate, x_max, tail_tol, tail_run):
            chunks, ends = [], []

            def logged(xs, x_end):
                vals = evaluate(xs, x_end)
                chunks.append((np.asarray(xs), vals))
                ends.append((np.asarray(xs), x_end))
                return vals

            seen.append((evaluate, chunks, ends))
            return real(logged, x_max, tail_tol, tail_run)

        monkeypatch.setattr(moments, "_run_adaptive", spy)
        tables = [gfpd_pmf_table(p) for p in TABLE_GRID]
        assert len(seen) == len(TABLE_GRID) == 51
        for p, table, (evaluate, chunks, ends) in zip(TABLE_GRID, tables, seen):
            xs = np.concatenate([c[0] for c in chunks])
            vals = np.concatenate([c[1] for c in chunks])
            assert np.array_equal(xs, np.arange(len(xs))), p
            assert len(table) == _rule_end(vals, 1e-14, 10) + 1, p
            run = 0
            for cxs, cvals in chunks:
                if run:
                    assert cxs[-1] < len(table), (p, cxs)
                for v in cvals:
                    run = run + 1 if v < 1e-14 else 0
            for cxs, x_end in ends:
                assert x_end == _doubling_end(cxs[0]) and cxs[-1] <= x_end, (p, cxs)
            # plane rows too: rows taken in pieces keep their chunk's node set
            want = _run_adaptive_oracle(evaluate, None, 1e-14, 10)
            assert np.array_equal(table, want[: len(table)]), p

    def test_finishing_chunk_that_fails_keeps_doubling(self):
        below = {61, 62, 63, 64, 65, *range(67, 71), *range(100, 110)}
        calls = []

        def evaluate(xs, x_end):
            calls.append((xs[0], len(xs), x_end))
            return np.array([0.0 if x in below else 1.0 for x in xs])

        table = moments._run_adaptive(evaluate, None, 1e-14, 10)
        # 64 rows end in a run of 3; 7 rows break it and end in a run of 4;
        # 6 rows break that; the rest of the 128-row chunk 64..191 follows.
        # Every piece is evaluated with the node set of that chunk.
        assert calls == [(0, 64, 63), (64, 7, 191), (71, 6, 191), (77, 115, 191)]
        assert len(table) == 110

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        lead=st.integers(0, 40),
        gaps=st.lists(st.tuples(st.integers(1, 300), st.integers(1, 9)), max_size=12),
        tail_run=st.integers(1, 12),
    )
    def test_pieces_keep_the_doubling_chunks(self, lead, gaps, tail_run):
        # values below tail_tol: a leading low region, then runs shorter than
        # tail_run (when they fit) between stretches of the bulk
        below, x = set(range(lead)), lead
        for bulk, low in gaps:
            x += bulk
            below.update(range(x, x + min(low, tail_run - 1)))
            x += low
        below.update(range(x + 1, x + 1 + tail_run))
        values = lambda xs: np.array([0.0 if x in below else 1.0 for x in xs])
        calls = []

        def evaluate(xs, x_end):
            calls.append((xs, x_end))
            return values(xs)

        table = moments._run_adaptive(evaluate, None, 1e-14, tail_run)
        xs = np.concatenate([c[0] for c in calls])
        assert np.array_equal(xs, np.arange(len(xs)))
        assert len(table) == _rule_end(values(xs), 1e-14, tail_run) + 1
        for cxs, x_end in calls:
            assert x_end == _doubling_end(cxs[0]) and cxs[-1] <= x_end

    @pytest.mark.parametrize("law", [GfpdParams.fpd, GfpdParams.aa1])
    @pytest.mark.parametrize("mu, head", [(60.0, 10), (200.0, 64)])
    def test_poisson_slice_of_large_mu(self, law, mu, head):
        # P(0..head-1) are all below 1e-14: at mu = 200 the whole first chunk
        table = gfpd_pmf_table(law(1.0, mu))
        assert table[:head].max() < 1e-14
        assert abs(math.fsum(table) - 1.0) <= 1e-8
        assert len(table) == _rule_end(table, 1e-14, 10) + 1
        np.testing.assert_allclose(table, stats.poisson.pmf(np.arange(len(table)), mu), rtol=1e-10)

    def test_row_cap_refused(self):
        asked = []

        def flat(xs, x_end):
            asked.append(xs)
            return np.full(len(xs), 1e-3)

        with pytest.raises(ConvergenceError, match=r"100000 rows .* 10 consecutive .* 1e-14"):
            moments._run_adaptive(flat, None, 1e-14, 10)
        assert np.array_equal(np.concatenate(asked), np.arange(moments._ROW_CAP))

    def test_row_cap_skips_quadrature_fallback(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})
        monkeypatch.setattr(gfpd, "_pmf_rows", lambda p, xs, method="auto": np.full(len(xs), 1e-3))

        def fallback(*args, **kwargs):
            raise AssertionError("the quadrature fallback walked the row cap again")

        monkeypatch.setattr(gfpd, "_quadrature_pmf", fallback)
        with pytest.raises(ConvergenceError):
            gfpd_pmf_table(GfpdParams.fpd(0.5, 2.0))

    def test_quadrature_fallback_serves_refused_series(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})

        def refused(p, xs, method="auto"):
            raise EvaluationError("series refused")

        monkeypatch.setattr(gfpd, "_pmf_rows", refused)
        table = gfpd_pmf_table(GfpdParams.fpd(0.5, 2.0))
        want = fpd_pmf_quadrature(0.5, 2.0, np.arange(len(table)))
        np.testing.assert_allclose(table, want, rtol=1e-12, atol=0.0)
        assert len(table) == _rule_end(table, 1e-14, 10) + 1

    @pytest.mark.parametrize("alpha, mu", [(0.99, 0.5), (0.95, 0.05), (0.97, 1.0)])
    def test_adaptive_table_matches_series(self, alpha, mu):
        # near alpha = 1 these tables were refused while the node sets could
        # not resolve M_alpha; the lattice's cut panel [1, 4] does
        p = GfpdParams.aa1(alpha, mu)
        table = gfpd_pmf_table(p)
        assert abs(table.sum() - 1.0) < 1e-12
        series = gfpd._pmf_rows(p, np.arange(len(table)))
        keep = series > 1e-200
        assert keep.sum() > 15
        np.testing.assert_allclose(table[keep], series[keep], rtol=1e-12, atol=0.0)

    # past alpha = 0.9992 the panel [1, 4] is cut into no more than 128
    # pieces, which do not resolve the density's wall at alpha = 0.9999
    @pytest.mark.parametrize("alpha, mu", [(0.9999, 0.5)])
    def test_adaptive_mass_refused(self, alpha, mu):
        p = GfpdParams.aa1(alpha, mu)
        with pytest.raises(EvaluationError, match="more than 1e-08 from 1"):
            gfpd_pmf_table(p)
        # a fixed support may hold less than the whole mass and is not checked
        assert len(gfpd_pmf_table(p, x_max=40)) == 41


class TestBetaMixtureRoute:
    def test_grid_tables_take_no_high_precision_rows(self, monkeypatch):
        # criterion 04's and 06's tables
        monkeypatch.setattr(gfpd, "_TABLE_CACHE", {})
        calls = []
        real = gfpd._rows_mp
        monkeypatch.setattr(gfpd, "_rows_mp", lambda *args: calls.append(args) or real(*args))
        for tail_tol in (1e-14, 1e-16):
            for p in CRITERION_04_GRID:
                assert abs(math.fsum(gfpd_pmf_table(p, tail_tol=tail_tol)) - 1.0) < 1e-10
        assert len(CRITERION_04_GRID) == 54
        assert calls == []

    def test_no_nan_rows_at_sweep_points(self):
        # the CLI sweep's gfpd points, and the box's alpha ends at its beta,
        # delta and mu ends and at a mu below it, with beta - alpha delta
        # also just above the plane's 1e-12; a fixed support has no mass
        # check
        from test_cli import SWEEP_VALUES

        points = list(itertools.product(
            (*SWEEP_VALUES["alpha"], gfpd._BETA_MIX_ALPHA_MIN, gfpd._BETA_MIX_ALPHA_MAX),
            SWEEP_VALUES["beta"], SWEEP_VALUES["delta"],
            (*SWEEP_VALUES["mu"], gfpd._BETA_MIX_MU_MAX, 1e-300),
        ))
        for alpha in (gfpd._BETA_MIX_ALPHA_MIN, gfpd._BETA_MIX_ALPHA_MAX):
            for beta in (1e-3, 1.0):
                points.append((alpha, beta, (beta - 2e-12) / alpha, 1.0))
        served = 0
        for alpha, beta, delta, mu in points:
            if alpha >= 0.99 and mu == 1e3:
                continue  # the series near alpha = 1 at large mu takes seconds
            try:
                p = GfpdParams(alpha, beta, delta, mu)
                table = gfpd_pmf_table(p, x_max=30)
            except (DomainError, EvaluationError):
                continue
            assert not np.isnan(table).any(), p
            served += gfpd._in_beta_mixture_box(p) and not p.is_fpd
        assert served >= 10

    @pytest.mark.parametrize("alpha, beta, delta, mu", [
        (0.3, 1.0, 1e-3, 5.0), (0.99, 1e-3, (1e-3 - 2e-12) / 0.99, 1e-6), (0.6, 0.9, 0.5, 2.0),
    ])
    def test_rule_weights_sum_to_one(self, alpha, beta, delta, mu):
        log_w, log_wt = gfpd._beta_mixture_rule(alpha, beta, delta, mu)
        assert np.all(np.diff(log_w) > 0.0) and -1e-19 < log_w[-1] < 0.0
        assert mu * math.exp(log_w[0]) <= math.exp(-gfpd._BETA_DEPTH) * 1.0001
        assert math.fsum(np.exp(log_wt)) == pytest.approx(1.0, abs=1e-14)


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


class TestBatchedRows:
    """A 1-D mu gives the same rows as one call per mu.

    Batched rows are evaluated about a shared reference mu within each node
    set, so they agree with one-row calls to rounding: rtol 1e-12 wherever
    the pmf is a normal float well above underflow (values below 1e-290 are
    held to that absolute size instead).
    """

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.01, 0.99),
        mu0=st.floats(0.1, 300.0),
        band=st.lists(st.floats(0.8, 1.2), min_size=1, max_size=8),
        x_lo=st.integers(0, 100),
        width=st.integers(0, 300),
    )
    # the band crosses node sets (cutoff steps) at small mu0 and large x
    @example(alpha=0.5, mu0=1.0, band=[0.8, 0.9, 1.0, 1.1, 1.2], x_lo=0, width=300)
    # the band's rows reach lattice prefixes of two lengths
    @example(alpha=0.1, mu0=1.0, band=[0.8, 0.9, 1.0, 1.1, 1.2], x_lo=0, width=70)
    # at alpha = 0.1, mu near 200 one node set spans |mu - mu0| y ~ 2000
    @example(alpha=0.1, mu0=200.0, band=list(np.linspace(0.8, 1.2, 41)), x_lo=0, width=400)
    def test_matches_one_row_calls(self, alpha, mu0, band, x_lo, width):
        mus = mu0 * np.array(band)
        xs = np.arange(x_lo, x_lo + width + 1)
        for route in (fpd_pmf_quadrature, aa1_pmf_quadrature):
            rows = route(alpha, mus, xs)
            assert rows.shape == (len(mus), len(xs))
            for mu, row in zip(mus, rows):
                one = route(alpha, float(mu), xs)
                np.testing.assert_allclose(row, one, rtol=1e-12, atol=1e-290)

    def test_examples_reach_both_splits(self):
        # the explicit examples above: one band's rows reach lattice prefixes
        # of different lengths, so its one-row calls read shorter prefixes
        # than the batch, and another spans several chunks of its node set
        lengths = {len(gfpd._mixture_nodes(0.1, gfpd._cutoff(0.1, mu, 70))[0])
                   for mu in np.linspace(0.8, 1.2, 5)}
        assert len(lengths) > 1
        mus = 200.0 * np.linspace(0.8, 1.2, 41)
        ys, _ = gfpd._mixture_nodes(0.1, gfpd._cutoff(0.1, mus[0], 400))
        assert (mus[-1] - mus[0]) * ys.max() > 4 * gfpd._SPREAD_MAX

    def test_equal_mu_equal_rows(self):
        rows = fpd_pmf_quadrature(0.7, [2.0, 3.0, 2.0], np.arange(30))
        assert np.array_equal(rows[0], rows[2])

    @pytest.mark.parametrize("mu", [0.0, -1.0, math.nan])
    def test_refuses_mu_not_positive(self, mu):
        with pytest.raises(DomainError, match="mu > 0"):
            fpd_pmf_quadrature(0.7, [2.0, mu], np.arange(5))


# the plane points (beta = alpha delta) of criterion 04's grid, as the
# pmf_tables benchmark evaluates them: (alpha, beta, alpha delta / beta = 1, mu)
_PLANE_POINTS = [(a, b, 1.0 * b / a, u) for a in (0.3, 0.6, 0.9) for b in (0.3, 0.6, 0.9)
                 for u in (0.5, 2.0, 5.0)]


class TestTableRouteBits:
    """The quadrature's pmf rows and plane tables keep their bits: they are
    exp of the log kernel's rows, as the oracle exponentiated them."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.01, 0.99),
        mu0=st.floats(0.05, 300.0),
        band=st.lists(st.floats(0.8, 1.2), min_size=1, max_size=41),
        x_max=st.integers(0, 400),
    )
    # a grid run: 41 mus in the +-20 % band, over several node sets and chunks
    @example(alpha=0.1, mu0=200.0, band=list(np.linspace(0.8, 1.2, 41)), x_max=400)
    @example(alpha=0.85, mu0=3.6, band=list(np.linspace(0.8, 1.2, 41)), x_max=16)
    def test_quadrature_rows(self, alpha, mu0, band, x_max):
        mus = mu0 * np.array(band)
        xs = np.arange(x_max + 1)
        assert np.array_equal(fpd_pmf_quadrature(alpha, mus, xs),
                              oracle_mixture_pmf(alpha, mus, xs, 0))
        log_pref = math.lgamma(1.0 + alpha) - math.lgamma(2.0)
        assert np.array_equal(aa1_pmf_quadrature(alpha, mus, xs),
                              oracle_mixture_pmf(alpha, mus, xs, 1, log_pref=log_pref))
        mu = float(mus[-1])
        assert np.array_equal(fpd_pmf_quadrature(alpha, mu, xs),
                              oracle_mixture_pmf(alpha, mu, xs, 0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 0.9),
        beta=st.floats(0.05, 1.0),
        mu=st.floats(0.05, 30.0),
    )
    def test_plane_tables(self, alpha, beta, mu):
        self._check_plane(alpha, beta, beta / alpha, mu)

    @pytest.mark.parametrize("alpha, beta, delta, mu", _PLANE_POINTS)
    def test_benchmark_plane_points(self, alpha, beta, delta, mu):
        self._check_plane(alpha, beta, delta, mu)

    @staticmethod
    def _check_plane(alpha, beta, delta, mu):
        p = GfpdParams(alpha, beta, delta, mu)
        log_pref = math.lgamma(1.0 + alpha * delta) - math.lgamma(1.0 + delta)
        want = moments.adaptive_pmf_table(
            lambda xs, x_end: oracle_mixture_pmf(alpha, mu, xs, delta, x_end, log_pref),
            None, moments.TAIL_TOL,
        )
        # built outside the table cache
        assert np.array_equal(gfpd._build_pmf_table(p, None, "auto", moments.TAIL_TOL), want)


class TestMixtureNodes:
    def test_cold_build_memory(self, monkeypatch):
        # at alpha = 0.99 some rows' series run to tens of thousands of
        # terms; the cutoff is the largest fit_grid("fpd") reaches on the
        # renewal sampler's draw for criterion 12's first seed (its smallest
        # grid mu).  The lattice ends where the density underflows, short
        # of that cutoff, and holds no node of density 0
        data = CountData.from_values(renewal_fpd(0.85, 3.6, 5000, RngStream(1000)).values)
        mu = min(m for a, m in _fpd_grid(data) if a == 0.99)
        monkeypatch.setattr(gfpd, "_NODE_CACHE", {})
        tracemalloc.start()
        try:
            ys, wm = gfpd._mixture_nodes(0.99, gfpd._cutoff(0.99, mu, data.max_value))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert gfpd._NODE_CACHE[0.99][3]
        assert np.all(wm > 0.0)
        assert 160 < len(ys) < 320
        assert ys[-1] < gfpd._cutoff(0.99, mu, data.max_value)
        assert peak < 4e6

    def test_cold_quadrature_tabulates_once(self, monkeypatch):
        # the grid's mus at alpha = 0.99 on the renewal draw for criterion
        # 12's first seed: a cold quadrature call tabulates the one node set
        # of the smallest mu's cutoff with one m_wright call, within the
        # memory of that set, and each mu alone reads a prefix of it
        # without tabulating again
        data = CountData.from_values(renewal_fpd(0.85, 3.6, 5000, RngStream(1000)).values)
        mus = [m for a, m in _fpd_grid(data) if a == 0.99]
        calls = []

        def counted(alpha, ys):
            calls.append(len(ys))
            return m_wright(alpha, ys)

        monkeypatch.setattr(gfpd, "m_wright", counted)
        monkeypatch.setattr(gfpd, "_NODE_CACHE", {})
        tracemalloc.start()
        try:
            fpd_pmf_quadrature(0.99, mus, np.arange(data.max_value + 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(calls) == 1
        assert peak < 4e6
        ys, wm, _, _ = gfpd._NODE_CACHE[0.99]
        for mu in mus:
            one_ys, one_wm = gfpd._mixture_nodes(0.99, gfpd._cutoff(0.99, mu, data.max_value))
            assert np.array_equal(one_ys, ys[:len(one_ys)])
            assert np.array_equal(one_wm, wm[:len(one_wm)])
        assert len(calls) == 1

    def test_extension_tabulates_only_new_panels(self, monkeypatch):
        # a longer cutoff tabulates only the panels the cached set lacks, and
        # the set is the one a fresh cache builds at once, node by node as
        # the lattice's panels times m_wright alone
        calls = []

        def counted(alpha, ys):
            calls.append(len(ys))
            return m_wright(alpha, ys)

        monkeypatch.setattr(gfpd, "m_wright", counted)
        monkeypatch.setattr(gfpd, "_NODE_CACHE", {})
        short = gfpd._mixture_nodes(0.3, 4.0)
        grown = gfpd._mixture_nodes(0.3, 70.0)
        assert calls == [240, 240]
        assert np.array_equal(grown[0][:len(short[0])], short[0])
        monkeypatch.setattr(gfpd, "_NODE_CACHE", {})
        fresh = gfpd._mixture_nodes(0.3, 70.0)
        assert calls[2:] == [480]
        assert np.array_equal(fresh[0], grown[0])
        assert np.array_equal(fresh[1], grown[1])
        # panel 0 cube-graded on (0, 0.25], then Gauss-Legendre on
        # [0.25 4^(k-1), 0.25 4^k]
        gx, gw = gfpd._leggauss(80)
        u = 0.5 * gx + 0.5
        ys = [0.25 * u**3]
        ws = [0.25 * 3.0 * u**2 * 0.5 * gw]
        for k in range(1, 6):
            lo, hi = 0.25 * 4.0 ** (k - 1), 0.25 * 4.0**k
            ys.append(0.5 * (hi - lo) * gx + 0.5 * (hi + lo))
            ws.append(0.5 * (hi - lo) * gw)
        ys, ws = np.concatenate(ys), np.concatenate(ws)
        wm = ws * np.array([m_wright(0.3, float(y)) for y in ys])
        live = wm > 0.0
        assert not live.all()
        assert np.array_equal(fresh[0], ys[live])
        assert np.array_equal(fresh[1], wm[live])

    def test_wall_split(self):
        # the panel [1, 4] is whole up to alpha = 0.9 and cut into more
        # pieces as alpha -> 1; each piece is a Gauss-Legendre panel
        assert [gfpd._wall_split(a) for a in (0.5, 0.9, 0.93, 0.97, 0.99, 0.999, 0.99999)] == [
            1, 1, 2, 4, 10, 100, 128]
        for alpha in (0.5, 0.97):
            ys, _ = gfpd._mixture_nodes(alpha, 4.0)
            inside = ys[(ys > 1.0) & (ys < 4.0)]
            assert len(inside) <= 80 * gfpd._wall_split(alpha)

    def test_cache_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(gfpd, "_NODE_CACHE", {})
        monkeypatch.setattr(gfpd, "_NODE_CACHE_MAX", 2)
        first = gfpd._mixture_nodes(0.3, 50.0)
        gfpd._mixture_nodes(0.5, 50.0)
        gfpd._mixture_nodes(0.7, 50.0)
        assert list(gfpd._NODE_CACHE) == [0.5, 0.7]
        rebuilt = gfpd._mixture_nodes(0.3, 50.0)
        assert rebuilt[0].base is not first[0].base
        assert np.array_equal(rebuilt[0], first[0])
        assert np.array_equal(rebuilt[1], first[1])
        assert list(gfpd._NODE_CACHE) == [0.7, 0.3]
        # a hit moves its set to the recent end: the next eviction passes it
        kept = gfpd._NODE_CACHE[0.7]
        gfpd._mixture_nodes(0.7, 50.0)
        assert gfpd._NODE_CACHE[0.7] is kept
        assert list(gfpd._NODE_CACHE) == [0.3, 0.7]
        gfpd._mixture_nodes(0.5, 50.0)
        assert list(gfpd._NODE_CACHE) == [0.7, 0.5]
        assert gfpd._NODE_CACHE[0.7] is kept
        again = gfpd._mixture_nodes(0.3, 50.0)
        assert np.array_equal(again[0], first[0])
        assert np.array_equal(again[1], first[1])


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 0.95),
        dfrac=st.floats(0.02, 1.0),
        bfrac=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
        mu=st.floats(0.05, 2.0),
        x=st.integers(0, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    # on the plane beta = alpha delta (V = 1): (0.6, 0.6, 1) and (0.2, 0.6, 3);
    # off it: (0.6, 0.77, 0.9)
    @example(alpha=0.6, dfrac=0.6, bfrac=0.0, mu=2.0, x=2, seed=1)
    @example(alpha=0.2, dfrac=1.0, bfrac=0.0, mu=0.5, x=1, seed=2)
    @example(alpha=0.6, dfrac=0.54, bfrac=0.5, mu=1.5, x=2, seed=3)
    def test_general_mc_matches_series(self, alpha, dfrac, bfrac, mu, x, seed):
        # delta <= 3 keeps the weight's relative variance below about 20
        delta = dfrac * min(3.0, 1.0 / alpha)
        beta = alpha * delta + bfrac * (1.0 - alpha * delta)
        p = GfpdParams(alpha, beta, delta, mu)
        try:
            want = gfpd_pmf(p, x, method="series")
        except CancellationError:
            assume(False)  # off the float64 series, which is the reference here
        est, se = gfpd_pmf_mc(p, x, 50_000, RngStream(seed))
        assert abs(est - want) < 4.0 * se, (p, x, est, want, se)

    @pytest.mark.parametrize(
        "alpha, beta, delta",
        [(0.3, 0.6, 1.0), (0.2, 0.9, 4.0), (0.6, 0.6, 1.0), (0.5, 0.3, 0.2), (0.85, 1.0, 1.0)],
    )
    def test_mixing_draws_moments(self, alpha, beta, delta):
        log_y, log_w = gfpd._mixing_draws(GfpdParams(alpha, beta, delta, 1.0), 200_000, RngStream(11))
        for j in (1, 2):
            v = np.exp(log_w + j * log_y)
            want = math.exp(
                math.lgamma(beta) + math.lgamma(delta + j)
                - math.lgamma(delta) - math.lgamma(alpha * j + beta)
            )
            se = v.std(ddof=1) / math.sqrt(len(v))
            assert abs(v.mean() - want) < 4.0 * se, (j, v.mean(), want, se)

    def test_general_mc_deterministic(self):
        p = GfpdParams(0.6, 0.8, 0.9, 1.5)
        first = gfpd_pmf_mc(p, 2, 10_000, RngStream(5))
        assert gfpd_pmf_mc(p, 2, 10_000, RngStream(5)) == first
        assert gfpd_pmf_mc(p, 2, 10_000, RngStream(6)) != first

    def test_general_mc_refuses_n_below_one(self):
        with pytest.raises(DomainError, match="n must be >= 1"):
            gfpd_pmf_mc(GfpdParams(0.6, 0.8, 0.9, 1.5), 2, 0, RngStream(1))

    # at alpha = 0.01 some of 100,000 sine-product stable draws are NaN; the
    # last point is on the plane beta = alpha delta
    @pytest.mark.parametrize("p", [GfpdParams.fpd(0.01, 1.0), GfpdParams(0.01, 0.5, 10.0, 1.0),
                                   GfpdParams.aa1(0.01, 5.0)])
    def test_refuses_non_finite_mixing_values(self, p):
        with pytest.raises(EvaluationError, match="left float64 range"):
            gfpd_pmf_mc(p, 0, 100_000, RngStream(1))

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

    def test_mc_fallback_refuses_non_finite_mixing_values(self):
        # the float64 series refuses here; the Monte Carlo estimate of this
        # point is refused too (TestMonteCarlo.test_refuses_non_finite_mixing_values)
        with pytest.raises(CancellationError):
            gfpd_aa1_pmf(0.01, 5.0, 0, method="series")

    def test_normalization(self):
        table = gfpd_pmf_table(GfpdParams.aa1(0.8, 1.0))
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("mu, n", [(0.5, 12), (3.6, 40)])
    def test_pmf_table_is_the_fitting_table(self, mu, n):
        # `countfam pmf --model gfpd_aa1` and fit/gof tabulate one law with
        # one mixing weight, so their tables share every bit
        for alpha in np.arange(0.01, 1.0, 0.01):
            alpha = round(float(alpha), 10)
            want = np.exp(MODELS["gfpd_aa1"].log_rows((alpha, mu), np.arange(n + 1)))
            assert np.array_equal(gfpd_pmf_table(GfpdParams.aa1(alpha, mu), x_max=n), want), alpha


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
