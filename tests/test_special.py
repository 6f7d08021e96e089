"""Special-function tests against closed forms and brute-force oracles."""

import math
import warnings
from itertools import combinations

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy.integrate import quad

from countfam import (
    CancellationError,
    CountData,
    DomainError,
    EvaluationError,
    RngStream,
    bell_partial,
    chi2_sf,
    m_wright,
    prabhakar_ml,
    stirling2,
    trigamma,
    wright_phi,
)
from countfam import gfpd, special
from countfam.inference import MODELS
from countfam.special import (
    MAX_TERMS,
    OVERFLOW_LOG,
    _M_WRIGHT_CANCEL,
    _KANTER_DEPTH,
    _KANTER_NODES,
    _M_WRIGHT_ZERO_LOG,
    _leggauss,
    _m_wright_integral,
    _m_wright_integral_first,
    _m_wright_integral_rows,
    _m_wright_log_bound,
    _m_wright_series,
    _m_wright_series_rows,
)
from test_sampling import renewal_fpd

_fpd_grid = MODELS["fpd"].grid


def _fit_nodes(alpha):
    """Mixture nodes at alpha with the largest cutoff that fit_grid("fpd")
    reaches there on the renewal sampler's draw for criterion 12's first
    seed: its smallest grid mu."""
    data = CountData.from_values(renewal_fpd(0.85, 3.6, 5000, RngStream(1000)).values)
    mu = min(m for a, m in _fpd_grid(data) if a == alpha)
    ys, _ = gfpd._mixture_node_sets(alpha, [int(gfpd._cutoff_step(alpha, mu, data.max_value))])[0]
    return ys


def _reflection_log_terms(alpha, y):
    """log |y^(j-1) Gamma(alpha j) / (j-1)!| for j = 1..20000 (float scan)."""
    j = np.arange(1.0, 20_001.0)
    return (j - 1.0) * math.log(y) - sc.gammaln(j) + sc.gammaln(alpha * j)


def _m_wright_mp(alpha, y, floor=1e-100):
    """Reflection series (1/pi) sum_j (-y)^(j-1)/(j-1)! Gamma(alpha j)
    sin(pi alpha j), re-summed in mpmath.

    The precision covers the largest term plus the digits of ``floor``, so
    the sum keeps ~25 digits wherever it exceeds ``floor``.  The loop stops
    past the largest term, once the magnitude y^(j-1) Gamma(alpha j)/(j-1)!
    -- without the sine, so a term where sin(pi alpha j) = 0 cannot end it
    early -- is 25 digits below the sum or below floor * 1e-25; past the
    largest term the magnitudes fall faster than geometrically.
    """
    lm = _reflection_log_terms(alpha, y)
    j_peak = int(np.argmax(lm)) + 1
    dps = int(max(lm.max(), 0.0) / math.log(10.0) - math.log10(floor)) + 30
    with mp.workdps(dps):
        a, yy = mp.mpf(alpha), mp.mpf(y)
        small = mp.mpf(floor) * mp.mpf(10) ** -25
        total = mp.mpf(0)
        power = mp.mpf(1)  # y^(j-1) / (j-1)!
        j = 1
        while True:
            mag = power * mp.gamma(a * j)
            total += (-1) ** (j - 1) * mag * mp.sinpi(a * j)
            if j > j_peak and mag < mp.mpf(10) ** -25 * max(abs(total) / mp.pi, small):
                return float(total / mp.pi)
            power = power * yy / j
            j += 1


# the block sizes of the loop below
_M_WRIGHT_BLOCK = 4096
_M_WRIGHT_BLOCK_CELLS = 32_768


def _m_wright_series_rows_loop(alpha, ys, max_terms=MAX_TERMS):
    """Reflection series of ``_m_wright_series`` for an array of y > 0, as
    summed before the series engine served every series: the oracle that
    ``_m_wright_series_rows`` and ``m_wright`` keep their bits against.

    All rows advance together through blocks of j: each row carries its
    running maximum log-magnitude, previous term and its signed and absolute
    sums (in a frame shifted by its largest added term) from block to block
    and leaves at the first term that meets the stopping rule or overflows.
    The blocks and every per-row reduction are the same whatever the other
    rows, so a point gets the same bits alone as in any array.
    Returns arrays (value, cancel_ratio, max_logmag).
    """
    logy = np.log(ys)
    n = len(ys)
    max_lm = np.full(n, -math.inf)
    prev = np.full(n, -math.inf)
    shift = np.full(n, -math.inf)
    acc = np.zeros(n)
    abs_acc = np.zeros(n)
    log_pi = math.log(math.pi)

    def advance(rows, j, base, log_s, sign):
        """Add the block's terms to ``rows``; return which rows finished."""
        lm = (j - 1.0) * logy[rows, None] - base
        run_max = np.maximum.accumulate(lm, axis=1)
        np.maximum(run_max, max_lm[rows, None], out=run_max)
        falling = np.empty(lm.shape, dtype=bool)
        falling[:, 0] = lm[:, 0] < prev[rows]
        np.less(lm[:, 1:], lm[:, :-1], out=falling[:, 1:])
        over = run_max > OVERFLOW_LOG
        event = over | ((j > 8.0) & (lm < run_max - 46.0) & falling)
        done = event.any(axis=1)
        last = np.where(done, event.argmax(axis=1), len(j) - 1)
        at_last = (np.arange(len(rows)), last)
        overflow = over[at_last]
        max_lm[rows] = run_max[at_last]
        prev[rows] = lm[:, -1]
        del run_max, falling, over, event
        # in place from here: lm becomes the shifted terms; terms past a
        # row's stopping term are not added
        lm += log_s
        lm[np.arange(len(j)) > last[:, None]] = -math.inf
        new_shift = np.maximum(shift[rows], lm.max(axis=1))
        with np.errstate(invalid="ignore"):
            scale = np.where(shift[rows] > -math.inf, np.exp(shift[rows] - new_shift), 0.0)
        lm -= new_shift[:, None]
        t = np.exp(lm, out=lm)
        abs_acc[rows] = abs_acc[rows] * scale + t.sum(axis=1)
        t *= sign
        acc[rows] = acc[rows] * scale + t.sum(axis=1)
        shift[rows] = new_shift
        acc[rows[done & overflow]] = math.nan
        return done

    rows = np.arange(n)
    j0, width = 1, 16
    while rows.size and j0 < max_terms:
        # most rows stop within a few dozen terms: blocks start narrow and
        # widen while rows run on
        width = min(2 * width, _M_WRIGHT_BLOCK, max_terms - j0)
        j = np.arange(j0, j0 + width, dtype=float)
        base = sc.gammaln(j) - sc.gammaln(alpha * j)
        s = np.sin(math.pi * alpha * j)
        with np.errstate(divide="ignore"):
            log_s = np.log(np.abs(s)) - log_pi
        sign = np.sign(s) * np.where(j % 2.0 == 1.0, 1.0, -1.0)
        group = max(_M_WRIGHT_BLOCK_CELLS // width, 1)
        done = np.concatenate([
            advance(rows[g:g + group], j, base, log_s, sign)
            for g in range(0, rows.size, group)
        ])
        rows = rows[~done]
        j0 += width
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.where(acc != 0.0, np.sign(acc) * np.exp(shift + np.log(np.abs(acc))), 0.0)
        floor = 5e-324 / np.maximum(np.exp(np.minimum(shift, 0.0)), 5e-324)
        cancel = np.where(abs_acc == 0.0, 1.0, abs_acc / np.maximum(np.abs(acc), floor))
    cancel[np.isnan(acc)] = math.inf
    return value, cancel, max_lm


def _kanter_rows_bisect(alpha, ys):
    """The Kanter integral of ``_m_wright_integral_rows`` with its peak and
    cuts found by bisection in s, for all rows at once, as it placed them
    before it read them off a table: the oracle the table-inverted integral
    is held to.
    """
    c = 1.0 / (1.0 - alpha)
    logy = np.log(ys)[:, None]
    log_yc = c * logy
    log_a0 = alpha * c * math.log(alpha) + math.log(1.0 - alpha)

    def log_a(s):
        eps = np.exp(s)
        u = np.maximum(math.pi - eps, 1e-300)
        return (
            (alpha * c) * np.log(np.sin(alpha * u))
            + np.log(np.sin((1.0 - alpha) * u))
            - c * np.log(np.sin(np.minimum(u, eps)))
        )

    def log_f(la):
        return la - np.exp(np.minimum(la + log_yc, OVERFLOW_LOG))

    def bisect(lo, hi, rises):
        for _ in range(32):
            mid = 0.5 * (lo + hi)
            up = rises(mid)
            lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
        return 0.5 * (lo + hi)

    s_min = np.full(log_yc.shape, -700.0)
    s_max = np.full(log_yc.shape, math.log(math.pi))
    interior = log_a0 + log_yc < 0.0
    s_peak = np.where(interior, bisect(s_min, s_max, lambda s: log_a(s) + log_yc > 0.0), s_max)
    log_f0 = log_f(log_a0)
    cut = np.where(interior, -1.0 - log_yc, log_f0) - _KANTER_DEPTH
    s_right = bisect(s_min, s_peak, lambda s: log_f(log_a(s)) < cut)
    s_left = np.where(
        log_f0 >= cut, s_max, bisect(s_peak, s_max, lambda s: log_f(log_a(s)) >= cut)
    )
    x, w = _leggauss(_KANTER_NODES)
    total = 0.0
    for lo, hi in ((s_right, s_peak), (s_peak, s_left)):
        half = 0.5 * (hi - lo)
        s = half * x + (lo + half)
        total = total + (np.exp(log_f(log_a(s)) + log_yc + s) * (half * w)).sum(axis=1)
    return total / (math.pi * (1.0 - alpha) * ys)


def _kanter_ys(alpha, z0):
    """The y where log(a0 Y) = z0, with a0 = (1-a) a^(a/(1-a)) and
    Y = y^(1/(1-a)) as in the Kanter form."""
    log_a0 = alpha / (1.0 - alpha) * math.log(alpha) + math.log(1.0 - alpha)
    return np.exp((np.asarray(z0, dtype=float) - log_a0) * (1.0 - alpha))


def _bit_identity_set():
    """(alpha, ys) pairs over the whole range of alpha and log y, with the
    alphas where sin(pi alpha j) vanishes at every few j."""
    rng = np.random.default_rng(20261019)
    alphas = [0.25, 1.0 / 3.0, 0.5, *rng.uniform(0.01, 0.99, 37)]
    return [(float(a), np.exp(rng.uniform(math.log(1e-4), math.log(400.0), 80))) for a in alphas]


def _mp_series(term, n_terms, dps):
    """sum_r term(r) and sum_r |term(r)| over r < n_terms in mpmath at
    ``dps`` digits."""
    with mp.workdps(dps):
        terms = [term(r) for r in range(n_terms)]
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def _oracle_terms(lm, zero=False):
    """How many terms an oracle sums and at what precision, from float
    bounds ``lm`` on the log-magnitudes of its first 3001 terms, of which
    those marked ``zero`` vanish: up to 120 nats below the largest term
    that does not vanish, or None where that is beyond the 3001."""
    peak = int(np.argmax(np.where(zero, -math.inf, lm)))
    past = np.flatnonzero((lm < lm[peak] - 120.0) & (np.arange(len(lm)) > peak))
    if not len(past):
        return None
    return int(past[0]) + 1, int(max(lm[peak], 0.0) / math.log(10.0)) + 40


def _prabhakar_oracle(eta, nu, tau, w):
    r = np.arange(3001.0)
    lm = (sc.gammaln(tau + r) - math.lgamma(tau) - sc.gammaln(r + 1.0) + r * math.log(abs(w))
          - sc.gammaln(eta * r + nu))
    plan = _oracle_terms(lm)
    if plan is None:
        return None
    e_, n_, t_, w_ = (mp.mpf(v) for v in (eta, nu, tau, w))
    return _mp_series(
        lambda j: mp.rf(t_, j) * w_**j / mp.factorial(j) * mp.rgamma(e_ * j + n_), *plan
    )


def _wright_oracle(xi, omega, z):
    r = np.arange(3001.0)
    x = xi * r + omega
    # reflection bound where x <= 0, so the magnitudes bound the terms; the
    # terms at the poles of Gamma vanish
    lrg = np.where(x > 0, -sc.gammaln(np.abs(x) + (x == 0)),
                   sc.gammaln(1.0 - np.minimum(x, 0.0)))
    poles = (x <= 0) & (x == np.floor(x))
    plan = _oracle_terms(r * math.log(abs(z)) - sc.gammaln(r + 1.0) + lrg, poles)
    if plan is None:
        return None
    x_, o_, z_ = (mp.mpf(v) for v in (xi, omega, z))
    return _mp_series(lambda k: z_**k / mp.factorial(k) * mp.rgamma(x_ * k + o_), *plan)


class TestTrigamma:
    def test_vs_quadrature_definition(self):
        # sum_{r} (z+r)^-2 brute force plus integral tail
        for z in (0.3, 1.0, 4.7, 25.0):
            brute = math.fsum((z + r) ** -2.0 for r in range(200_000))
            brute += 1.0 / (z + 200_000)
            assert trigamma(z) == pytest.approx(brute, rel=1e-9)

    def test_vectorized(self):
        zs = np.array([0.5, 1.5, 9.0])
        out = trigamma(zs)
        assert out.shape == zs.shape
        assert out[0] > out[1] > out[2]

    def test_is_scipy_polygamma(self):
        # zeta(2, z) is what SciPy's polygamma(1, z) returns, bit for bit
        rng = np.random.default_rng(4)
        zs = np.concatenate([np.exp(rng.uniform(-20.0, 20.0, 4000)), np.arange(1.0, 400.0) + 0.37])
        assert np.array_equal(trigamma(zs), sc.polygamma(1, zs))


class TestPrabhakar:
    def test_exponential_identity(self):
        for w in np.linspace(-20, 20, 9):
            sv = prabhakar_ml(1.0, 1.0, 1.0, float(w))
            assert sv.value == pytest.approx(math.exp(w), rel=1e-12)

    def test_half_erfc_closed_form(self):
        sv = prabhakar_ml(0.5, 1.0, 1.0, -1.0)
        assert sv.value == pytest.approx(math.e * math.erfc(1.0), rel=1e-11)

    def test_single_term_at_zero(self):
        sv = prabhakar_ml(0.7, 1.3, 2.1, 0.0)
        assert sv.value == pytest.approx(1.0 / math.gamma(1.3), rel=1e-14)
        assert sv.terms_used == 1
        assert sv.est_truncation_error == 0.0

    def test_series_metadata(self):
        sv = prabhakar_ml(0.6, 1.0, 1.0, -2.0)
        assert sv.terms_used >= 6
        assert sv.est_truncation_error >= 0.0
        assert abs(sv.est_truncation_error) < 1e-12 * abs(sv.value) + 1e-250

    def test_series_mode_refuses_hostile(self):
        with pytest.raises((CancellationError, EvaluationError)):
            prabhakar_ml(0.3, 1.0, 5.0, -30.0, method="series")

    def test_auto_mode_survives_hostile(self):
        # float64-hostile but representable: auto re-sums in high precision
        # and the forced exact path agrees
        v_auto = prabhakar_ml(0.5, 1.0, 3.0, -12.0).value
        v_exact = prabhakar_ml(0.5, 1.0, 3.0, -12.0, method="exact").value
        assert v_auto == pytest.approx(v_exact, rel=1e-10)
        with pytest.raises((CancellationError, EvaluationError)):
            prabhakar_ml(0.5, 1.0, 3.0, -12.0, method="series")

    def test_far_beyond_budget_refused(self):
        with pytest.raises(EvaluationError):
            prabhakar_ml(0.3, 1.0, 5.0, -30.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            prabhakar_ml(-0.5, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            prabhakar_ml(0.5, 1.0, 1.0, math.nan)


class TestWrightPhi:
    def test_exponential(self):
        sv = wright_phi(0.0, 1.0, 1.0)
        assert sv.value == pytest.approx(math.e, rel=1e-13)

    def test_m_wright_half_closed_form(self):
        sv = wright_phi(-0.5, 0.5, -1.0)
        assert sv.value == pytest.approx(math.exp(-0.25) / math.sqrt(math.pi), rel=1e-11)

    def test_single_term(self):
        assert wright_phi(0.3, 2.0, 0.0).value == pytest.approx(1.0, rel=1e-14)

    def test_single_term_is_reciprocal_gamma(self):
        # z = 0 leaves 1/Gamma(omega): 0 at the poles, signed between them
        assert wright_phi(0.3, 0.0, 0.0).value == 0.0
        assert wright_phi(0.3, -2.0, 0.0).value == 0.0
        assert wright_phi(0.3, 0.5, 0.0).value == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)
        assert wright_phi(0.3, -0.5, 0.0).value < 0.0 < wright_phi(0.3, -1.5, 0.0).value

    def test_matches_m_wright(self):
        for alpha in (0.3, 0.5, 0.7):
            for y in np.linspace(0.0, 5.0, 11):
                lhs = wright_phi(-alpha, 1.0 - alpha, -float(y)).value
                assert lhs == pytest.approx(m_wright(alpha, float(y)), abs=1e-9)

    def test_leading_poles(self):
        # the terms before xi r + omega > 0 sit on poles of Gamma and vanish;
        # the sum starts after them, so their reflection bound (up to
        # Gamma(41) at omega = -40) does not end it early
        for xi, omega, z in ((1.0, -40.0, 3.0), (2.0, -7.0, -2.5)):
            with mp.workdps(50):
                ref = mp.fsum(mp.mpf(z) ** k / mp.factorial(k) * mp.rgamma(xi * k + omega)
                              for k in range(200))
            assert wright_phi(xi, omega, z).value == pytest.approx(float(ref), rel=1e-13)
        # every term on a pole: Gamma(omega)^-1 e^z = 0
        assert wright_phi(0.0, -1.0, 2.0).value == 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            wright_phi(-1.0, 1.0, 1.0)
        for omega in (math.inf, math.nan):
            for z in (0.0, 1.0):
                with pytest.raises(DomainError, match="finite omega"):
                    wright_phi(0.3, omega, z)


class TestMWright:
    def test_half_closed_form(self):
        for y in (0.5, 1.0, 2.0):
            assert m_wright(0.5, y) == pytest.approx(
                math.exp(-y * y / 4.0) / math.sqrt(math.pi), rel=1e-10
            )

    def test_at_zero(self):
        for alpha in (0.3, 0.5, 0.8):
            assert m_wright(alpha, 0.0) == pytest.approx(1.0 / math.gamma(1.0 - alpha), rel=1e-13)

    def test_large_argument_branch(self):
        # series is cancellation-dead out here; the stable-integral branch
        # must reproduce the closed form
        for y in (8.0, 12.0, 20.0):
            exact = math.exp(-y * y / 4.0) / math.sqrt(math.pi)
            assert m_wright(0.5, y) == pytest.approx(exact, rel=1e-8)

    def test_branches_agree_in_overlap(self):
        for alpha in (0.3, 0.6, 0.8):
            for y in (1.0, 2.0, 4.0):
                s, cancel, _ = _m_wright_series(alpha, y)
                if cancel < 1e6:
                    assert _m_wright_integral(alpha, y) == pytest.approx(s, rel=1e-9)

    def test_density_normalization(self):
        for alpha in (0.3, 0.5, 0.7):
            total, err = quad(lambda y: m_wright(alpha, y), 0.0, 60.0, limit=300)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_nonnegative(self):
        for alpha in (0.2, 0.5, 0.9):
            for y in np.linspace(0, 12, 25):
                assert m_wright(alpha, float(y)) >= 0.0

    def test_array_matches_scalar(self):
        # a node set crosses both branches; 0 and the shape are kept
        for alpha in (0.3, 0.9):
            ys = _fit_nodes(alpha)[::2]
            got = m_wright(alpha, ys)
            assert np.array_equal(got, [m_wright(alpha, float(y)) for y in ys])
            # the series too, also where its value is not used
            rows = np.stack(_m_wright_series_rows(alpha, ys), axis=1)
            want = [_m_wright_series(alpha, float(y)) for y in ys]
            assert np.array_equal(rows, want, equal_nan=True)
        grid = np.array([[0.0, 0.5], [3.0, 12.0]])
        got = m_wright(0.5, grid)
        assert got.shape == (2, 2)
        assert got[0, 0] == m_wright(0.5, 0.0)
        with pytest.raises(DomainError):
            m_wright(0.5, np.array([1.0, -1.0]))

    def test_node_set_half_closed_form(self):
        ys = _fit_nodes(0.5)
        exact = np.exp(-ys * ys / 4.0) / math.sqrt(math.pi)
        got = m_wright(0.5, ys)
        keep = exact > 1e-200
        assert keep.sum() > 200
        np.testing.assert_allclose(got[keep], exact[keep], rtol=1e-8, atol=0.0)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.05, 0.95),
        y=st.floats(0.0, 4.0, exclude_min=True),
    )
    def test_matches_mpmath_reflection_series(self, alpha, y):
        # the oracle's cost follows its largest term; where that exceeds
        # e^250 the density is below 1e-100 (the largest term and the
        # density's decay are both exp((1-a) (a^a y)^(1/(1-a)))), so it is
        # not asked
        if _reflection_log_terms(alpha, y).max() > 250.0:
            return
        ref = _m_wright_mp(alpha, y)
        if ref > 1e-100:
            assert m_wright(alpha, y) == pytest.approx(ref, rel=1e-8, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        # where sin(pi alpha j) vanishes at every few j, and the whole range
        alpha=st.one_of(st.sampled_from([0.25, 1.0 / 3.0, 0.5]), st.floats(0.01, 0.99)),
        log_ys=st.lists(st.floats(math.log(1e-4), math.log(400.0)), min_size=1, max_size=40),
    )
    def test_matches_series_then_integral(self, alpha, log_ys):
        # the rows sent to the integral before summing are ones the series
        # refuses after summing: m_wright is bit for bit the series on every
        # row, then the integral on the rows it refuses
        near = [_crossing(lambda ly: _series_refused(alpha, ly)),
                _crossing(lambda ly: bool(_m_wright_integral_first(alpha, np.exp([ly]))[0]))]
        spread = np.linspace(-0.02, 0.02, 9)
        ys = np.exp(np.concatenate([log_ys, *(c + spread for c in near if c is not None)]))
        value, cancel, _ = _m_wright_series_rows(alpha, ys)
        bad = ~np.isfinite(value) | (cancel > 1e6) | (value < 0.0)
        value[bad] = _m_wright_integral_rows(alpha, ys[bad])
        assert np.array_equal(m_wright(alpha, ys), np.maximum(value, 0.0))

    def test_density_bound(self):
        # M_a(y) <= 1 / (e (1 - a) y): the Kanter integrand is at most 1/e;
        # and once a0 Y >= 1, the tail bound of _m_wright_log_bound
        rng = np.random.default_rng(11)
        for alpha in rng.uniform(0.01, 0.99, 40):
            ys = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), 50))
            value = _m_wright_integral_rows(alpha, ys)
            bound = 1.0 / (math.e * (1.0 - alpha) * ys)
            assert np.all(value <= bound * (1.0 + 1e-12))
            tail = np.exp(_m_wright_log_bound(alpha, np.log(ys)))
            assert np.all(tail <= bound * (1.0 + 1e-12))
            assert np.all(value <= tail * (1.0 + 1e-12))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        alpha=st.floats(0.01, 0.99),
        z0=st.lists(st.floats(-4.0, 8.0), min_size=1, max_size=40),
    )
    def test_integral_matches_bisection(self, alpha, z0):
        # z0 = log(a0 Y) spans the Kanter domain: m_wright sends no row with
        # z0 below about 1.8 to the integral, values fall below 1e-290 near
        # z0 = 6.6, and the bound certifies 0 from about 6.7.  Beyond 1e-11,
        # both sides carry the rounding of log a, a difference of terms of
        # size c = 1/(1-a): the integrand's factor e^(-a Y) turns an error d
        # in log a into a relative error a Y d, with a Y ~ e^z0
        z0 = np.array(z0)
        ys = _kanter_ys(alpha, z0)
        ref = _kanter_rows_bisect(alpha, ys)
        got = _m_wright_integral_rows(alpha, ys)
        assert np.all(got[ref == 0.0] == 0.0)
        keep = ref > 1e-290
        tol = 1e-11 + 4.0 * np.exp(np.maximum(z0, 0.0)) / (1.0 - alpha) * 2.0**-52
        assert np.all(np.abs(got - ref)[keep] <= (tol * ref)[keep])

    def test_integral_returns_no_subnormals(self):
        # past the underflow the nodes' rounding decides which subnormal
        # survives: such values come back as 0
        for alpha in (0.2, 0.5, 0.77, 0.95):
            got = _m_wright_integral_rows(alpha, _kanter_ys(alpha, np.linspace(6.5, 6.8, 400)))
            assert (got == 0.0).any() and (got > 1e-300).any()
            assert not np.any((got > 0.0) & (got < np.finfo(float).tiny))

    def test_certified_zeros_are_oracle_zeros(self):
        # rows the bound puts below e^-800 are 0 without the series or the
        # integral: the series refuses them and the bisection oracle gives
        # them 0
        rng = np.random.default_rng(7)
        for alpha in rng.uniform(0.01, 0.99, 40):
            ys = _kanter_ys(alpha, rng.uniform(5.0, 12.0, 50))
            zero = _m_wright_log_bound(alpha, np.log(ys)) < _M_WRIGHT_ZERO_LOG
            assert zero.any() and not zero.all()
            value, cancel, _ = _m_wright_series_rows(alpha, ys[zero])
            assert np.all(~np.isfinite(value) | (cancel > _M_WRIGHT_CANCEL) | (value < 0.0))
            assert np.all(_kanter_rows_bisect(alpha, ys)[zero] == 0.0)
            assert np.all(m_wright(alpha, ys)[zero] == 0.0)

    def test_nan_refused_inf_is_zero(self):
        for y in (math.nan, np.array([1.0, math.nan])):
            with pytest.raises(DomainError):
                m_wright(0.5, y)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert m_wright(0.5, math.inf) == 0.0
            got = m_wright(0.3, np.array([2.0, math.inf, 0.0]))
        assert np.array_equal(got, [m_wright(0.3, 2.0), 0.0, m_wright(0.3, 0.0)])

    def test_integral_rows_stay_in_their_domain(self, monkeypatch):
        # the Kanter form's domain is a0 Y >= e^-4 (its docstring); m_wright
        # sends it no row below that, from y = 0 through the deep tail and
        # over the node sets of a grid fit
        lowest = []

        def spy(alpha, ys):
            log_a0 = alpha / (1.0 - alpha) * math.log(alpha) + math.log(1.0 - alpha)
            lowest.append(float(np.min(log_a0 + np.log(ys) / (1.0 - alpha), initial=math.inf)))
            return _m_wright_integral_rows(alpha, ys)

        monkeypatch.setattr(special, "_m_wright_integral_rows", spy)
        ys = np.concatenate([[0.0, 6.6e-25, 1e-20], np.logspace(-30, 4, 800)])
        for alpha in np.concatenate([np.linspace(0.002, 0.998, 150), [0.013, 0.1, 0.5]]):
            m_wright(float(alpha), ys)
        for alpha in (0.05, 0.5, 0.9, 0.99):
            m_wright(alpha, _fit_nodes(alpha))
        # most calls send rows at all
        assert sum(math.isfinite(z) for z in lowest) > 100
        assert min(lowest) >= -4.0

    @pytest.mark.parametrize("alpha, y", [(0.013, 6.6e-25), (0.1, 1e-20), (0.5, 1e-20)])
    def test_tiny_y_is_the_value_at_zero(self, alpha, y):
        # where the Kanter form, outside its domain, is wrong by up to 60 %
        assert m_wright(alpha, y) == pytest.approx(1.0 / math.gamma(1.0 - alpha), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_wright(1.0, 1.0)
        with pytest.raises(DomainError):
            m_wright(0.5, -1.0)



# The float64 series' error against mpmath is at most _SERIES_C eps times
# the sum of the terms' magnitudes (max(cancellation, 1) times the value).
# A term is the exp of a log-magnitude whose parts (r log|z|, log Gamma)
# run to several hundred and are each rounded, so a term carries up to a
# few hundred eps of error: on the box below the series engine reaches 206
# eps (Prabhakar) and 317 eps (Wright), and the per-term loop it replaced
# 313 and 317 wherever it returned a value.
_SERIES_C = 400.0


def _check_series_value(f, args, oracle):
    """f(*args) against the oracle's (sum, sum of magnitudes), within
    _SERIES_C eps max(cancellation, 1); where the oracle would need more
    than its budget of terms the value is not asked."""
    ref = oracle(*args)
    if ref is None:
        return
    total, magnitude = ref
    sv = f(*args)
    assert sv.terms_used >= 1
    assert 0.0 <= sv.est_truncation_error
    bound = _SERIES_C * 2.0**-52 * max(magnitude, abs(total))
    assert abs(sv.value - total) <= bound, (args, sv, ref)


class TestSeriesEngine:
    def test_m_wright_rows_keep_their_bits(self):
        overflow = cancelled = 0
        for alpha, ys in _bit_identity_set():
            want = _m_wright_series_rows_loop(alpha, ys)
            got = _m_wright_series_rows(alpha, ys)
            for g, w in zip(got, want):
                assert np.array_equal(g, w, equal_nan=True), alpha
            overflow += int(np.isnan(want[0]).sum())
            cancelled += int((np.isfinite(want[1]) & (want[1] > _M_WRIGHT_CANCEL)).sum())
        # the set holds rows that overflow and rows the cancellation cut refuses
        assert overflow > 0 and cancelled > 0

    def test_m_wright_keeps_its_bits(self):
        # m_wright is the loop's series where its value is used, then the
        # integral
        for alpha, ys in _bit_identity_set():
            value, cancel, _ = _m_wright_series_rows_loop(alpha, ys)
            bad = ~np.isfinite(value) | (cancel > _M_WRIGHT_CANCEL) | (value < 0.0)
            value[bad] = _m_wright_integral_rows(alpha, ys[bad])
            assert np.array_equal(m_wright(alpha, ys), np.maximum(value, 0.0)), alpha

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        eta=st.floats(0.1, 4.0),
        nu=st.floats(0.1, 4.0),
        tau=st.floats(0.1, 4.0),
        w=st.floats(-15.0, 15.0).filter(lambda v: v != 0.0),
    )
    def test_prabhakar_matches_mpmath(self, eta, nu, tau, w):
        _check_series_value(prabhakar_ml, (eta, nu, tau, w), _prabhakar_oracle)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        xi=st.floats(-0.95, 2.0),
        omega=st.floats(-2.0, 3.0),
        z=st.floats(-15.0, 15.0).filter(lambda v: v != 0.0),
    )
    def test_wright_matches_mpmath(self, xi, omega, z):
        _check_series_value(wright_phi, (xi, omega, z), _wright_oracle)

    def test_prabhakar_exact_positive_argument(self):
        # every term is positive, so the exact path re-sums instead of
        # refusing as if the value overflowed
        args = (0.5, 1.0, 1.0, 2.0)
        total, _ = _prabhakar_oracle(*args)
        assert prabhakar_ml(*args, method="exact").value == pytest.approx(total, rel=1e-14)
        assert prabhakar_ml(*args).value == pytest.approx(total, rel=1e-14)

    def test_wright_far_below_its_largest_term(self):
        # the largest term is 6.7e48 and the value 2.9e-42: a re-sum 40 digits
        # past the largest term keeps none of the value's digits
        args = (-0.6482703794099589, -1.5086752490177688, -9.856990511041374)
        x_, o_, z_ = (mp.mpf(v) for v in args)
        ref, _ = _mp_series(lambda k: z_**k / mp.factorial(k) * mp.rgamma(x_ * k + o_), 2000, 150)
        assert wright_phi(*args).value == pytest.approx(ref, rel=1e-10)

def _series_refused(alpha, log_y):
    value, cancel, _ = _m_wright_series(alpha, math.exp(log_y))
    return not math.isfinite(value) or cancel > 1e6 or value < 0.0


def _crossing(refused, lo=math.log(1e-4), hi=math.log(400.0)):
    """A log y in (lo, hi) where ``refused`` turns True, by bisection; None
    when it does not hold at hi or already holds at lo."""
    if refused(lo) or not refused(hi):
        return None
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    return hi


def _partitions(items):
    """All set partitions of a tuple (brute force)."""
    if len(items) == 1:
        yield [list(items)]
        return
    first, rest = items[0], items[1:]
    for part in _partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1:]
        yield [[first]] + part


class TestStirling2:
    def test_brute_force(self):
        for k in range(1, 8):
            for r in range(0, k + 1):
                count = sum(1 for p in _partitions(tuple(range(k))) if len(p) == r)
                assert stirling2(k, r) == count

    def test_known(self):
        assert stirling2(3, 2) == 3
        assert stirling2(4, 2) == 7
        for k in range(1, 10):
            assert stirling2(k, 1) == 1

    def test_recurrence(self):
        for k in range(2, 15):
            for r in range(1, k):
                assert stirling2(k, r) == r * stirling2(k - 1, r) + stirling2(k - 1, r - 1)

    def test_domain(self):
        with pytest.raises(DomainError):
            stirling2(2, 3)


class TestBellPartial:
    def test_base_cases(self):
        assert bell_partial(0, 0, []) == 1.0
        assert bell_partial(3, 1, [2.0, 5.0, 7.0]) == 7.0

    def test_brute_force_3_2(self):
        # B_{3,2}(a, b) counts partitions of a 3-set into 2 blocks weighted by
        # block sizes: 3 partitions of shape (1, 2) -> 3 a b
        a, b = 2.0, 5.0
        parts = [p for p in _partitions((0, 1, 2)) if len(p) == 2]
        xs = {1: a, 2: b}
        brute = sum(math.prod(xs[len(block)] for block in p) for p in parts)
        assert bell_partial(3, 2, [a, b]) == pytest.approx(brute)

    def test_brute_force_4_2(self):
        a, b, c = 1.3, 0.7, 2.2
        parts = [p for p in _partitions((0, 1, 2, 3)) if len(p) == 2]
        xs = {1: a, 2: b, 3: c}
        brute = sum(math.prod(xs[len(block)] for block in p) for p in parts)
        assert bell_partial(4, 2, [a, b, c]) == pytest.approx(brute)

    def test_insufficient_x(self):
        with pytest.raises(DomainError):
            bell_partial(3, 1, [1.0, 2.0])


class TestChi2Sf:
    def test_at_zero(self):
        for df in (1, 2, 7.5):
            assert chi2_sf(0.0, df) == 1.0

    def test_df2_closed_form(self):
        for x in (0.5, 2.0, 4.605):
            assert chi2_sf(x, 2.0) == pytest.approx(math.exp(-x / 2.0), abs=1e-12)

    def test_monotone_and_bounded(self):
        xs = np.linspace(0, 30, 40)
        for df in (1.0, 3.0, 10.0):
            vals = [chi2_sf(float(x), df) for x in xs]
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(DomainError):
            chi2_sf(1.0, 0.0)
        with pytest.raises(DomainError):
            chi2_sf(-1.0, 2.0)
