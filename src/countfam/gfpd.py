"""Generalized fractional Poisson family of count distributions.

The family is indexed by (alpha, beta, delta, mu) and driven by the
three-parameter Mittag-Leffler function at negative argument; the classical
fractional law is the beta = delta = 1 slice, with the standard Poisson at
alpha = 1 and a geometric law in the alpha -> 0 limit.

Probabilities come from three routes that cross-check each other:

* the defining series (log-space, compensated, cancellation-guarded), with a
  transparent high-precision re-summation for parameter corners where float64
  loses the race against alternation: each row is summed in Python-int fixed
  point from exact binomials and coefficients rounded from one cached
  high-precision gamma table per (alpha, beta);
* a positive-integrand mixture quadrature over the inverse-stable density
  (the classical fractional slice and the plane beta = alpha delta), immune
  to cancellation and cheap enough for grid fitting;
* Monte Carlo over one-sided stable variates: an unbiased average of the
  Poisson kernel over weighted draws of the mixing variable Y = V^alpha Z0,
  V beta-distributed and Z0 inverse-stable, with a true standard error for
  every parameter set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special as sc

from .errors import CancellationError, ConvergenceError, DomainError, EvaluationError
from .moments import (
    TAIL_TOL,
    FactorialMomentSequence,
    SummaryStats,
    adaptive_pmf_table,
    skewness_from_factorial,
)
from .special import MAX_DPS, _leggauss, m_wright

# Above this log-magnitude of the largest series term, a float64 row of the
# pmf table is recomputed in high precision (absolute noise ~ e^6 * 1e-15).
_F64_MAXLOG = 6.0


@dataclass(frozen=True)
class GfpdParams:
    """Parameters (alpha, beta, delta, mu) of the generalized fractional Poisson law.

    alpha, beta in (0, 1], delta in (0, beta/alpha], mu > 0.  The alpha -> 0
    geometric limit sits outside the open parameter box and is admitted only
    through the explicit ``geometric_limit`` flag (with beta = delta = 1).
    """

    alpha: float
    beta: float = 1.0
    delta: float = 1.0
    mu: float = 1.0
    geometric_limit: bool = False

    def __post_init__(self):
        a, b, d, u = self.alpha, self.beta, self.delta, self.mu
        if not all(math.isfinite(v) for v in (a, b, d, u)):
            raise DomainError("parameters must be finite")
        if not u > 0:
            raise DomainError(f"mu must be > 0, got {u}")
        if self.geometric_limit:
            if a != 0.0 or b != 1.0 or d != 1.0:
                raise DomainError(
                    "geometric_limit requires alpha = 0 and beta = delta = 1"
                )
            return
        if not (0.0 < a <= 1.0):
            raise DomainError(f"alpha must lie in (0, 1], got {a}")
        if not (0.0 < b <= 1.0):
            raise DomainError(f"beta must lie in (0, 1], got {b}")
        if not (0.0 < d <= b / a * (1.0 + 1e-12)):
            raise DomainError(f"delta must lie in (0, beta/alpha], got {d}")

    @classmethod
    def fpd(cls, alpha: float, mu: float) -> "GfpdParams":
        """Classical fractional law (beta = delta = 1); alpha = 0 gives the geometric limit."""
        if alpha == 0.0:
            return cls(0.0, 1.0, 1.0, mu, geometric_limit=True)
        return cls(alpha, 1.0, 1.0, mu)

    @classmethod
    def aa1(cls, alpha: float, mu: float) -> "GfpdParams":
        """The (alpha, alpha, 1, mu) slice."""
        return cls(alpha, alpha, 1.0, mu)

    @property
    def is_fpd(self) -> bool:
        return self.beta == 1.0 and self.delta == 1.0


# ---------------------------------------------------------------------------
# series engines
# ---------------------------------------------------------------------------

def _row_logmag(p: GfpdParams, xs, jcap: int) -> np.ndarray:
    """log |T_{x,j}| of the full pmf series term for j < jcap, shape (len(xs), jcap).

    The cell (x, j) is, added in this order,
      gammaln(b) + gammaln(d+m) - gammaln(d) - gammaln(x+1) - gammaln(j+1)
      + m log(mu) - gammaln(alpha m + b),   m = x + j.
    The parts in m alone are computed once per m and each row reads them as
    a window starting at its x; the order of the additions is kept, so
    every cell has the bits of the per-cell formula.  ``xs`` may be any
    non-empty set of non-negative integers.
    """
    a, b, d, u = p.alpha, p.beta, p.delta, p.mu
    xs = np.asarray(xs, dtype=int)
    m = np.arange(int(xs.max()) + jcap, dtype=float)

    def window(v):
        return sliding_window_view(v, jcap)[xs]

    out = window(sc.gammaln(b) + sc.gammaln(d + m) - sc.gammaln(d))
    out -= sc.gammaln(xs + 1.0)[:, None]
    out -= sc.gammaln(m[:jcap] + 1.0)
    out += window(m * math.log(u))
    out -= window(sc.gammaln(a * m + b))
    return out


def _rows_f64(p: GfpdParams, xs: np.ndarray, jcap: int):
    """Float64 series sums per x. Returns (pmf, maxlog, decayed).

    Rows whose largest term exceeds e^_F64_MAXLOG are not summed (their pmf
    is NaN): `_pmf_rows` sends them to high precision whatever their sum.
    """
    logmag = _row_logmag(p, xs, jcap)
    maxlog = logmag.max(axis=1)
    pk = logmag.argmax(axis=1)
    decayed = (logmag[:, -1] < maxlog - 46.0) & (pk < jcap - 1)
    logmag -= maxlog[:, None]
    # exp(-746) is 0 in float64 and fsum is correctly rounded, so leaving
    # out the terms at or below it changes no bit of a sum
    kept = (logmag > -746.0) & (maxlog <= _F64_MAXLOG)[:, None]
    signs = np.broadcast_to(np.where(np.arange(jcap) % 2 == 0, 1.0, -1.0), kept.shape)
    terms = (np.exp(logmag[kept]) * signs[kept]).tolist()
    ends = [0, *np.cumsum(kept.sum(axis=1)).tolist()]
    sums = np.array([math.fsum(terms[lo:hi]) for lo, hi in zip(ends[:-1], ends[1:])])
    pmf = np.exp(np.clip(maxlog, -746.0, 700.0)) * sums
    pmf[maxlog < -745.0] = 0.0
    pmf[maxlog > _F64_MAXLOG] = np.nan
    return pmf, maxlog, decayed


# A high-precision row is accumulated in Python-int fixed point with
# _FIX_BITS fraction bits (~30 digits, the margin `_mp_plan` keeps below the
# largest term) plus _GUARD_BITS against rounding along the way.
_FIX_BITS = 100
_GUARD_BITS = 32

# per-(alpha, beta) values 1/Gamma(alpha m + beta), m = 0, 1, ..., with the
# bits each was computed to.  A value is recomputed only when a row needs
# more bits than it holds, so rows at lower precision reuse it; each holds
# _GUARD_BITS beyond what its use rounds to, so the cache's history does not
# change results.  Holds at most _MP_GAMMA_CACHE_MAX pairs, least recently
# used first.
_MP_GAMMA_CACHE: dict = {}
_MP_GAMMA_CACHE_MAX = 32


def _mp_rgamma(alpha: float, beta: float, bits) -> list:
    """1/Gamma(alpha m + beta) for m < len(bits), each good to bits[m] bits."""
    ent = _MP_GAMMA_CACHE.pop((alpha, beta), None)
    if ent is None:
        if len(_MP_GAMMA_CACHE) >= _MP_GAMMA_CACHE_MAX:
            # evict the least recently used pair (dicts keep insertion order)
            del _MP_GAMMA_CACHE[next(iter(_MP_GAMMA_CACHE))]
        ent = ([], [])
    _MP_GAMMA_CACHE[(alpha, beta)] = ent
    vals, have = ent
    vals.extend([None] * (len(bits) - len(vals)))
    have.extend([0] * (len(bits) - len(have)))
    a, b = mp.mpf(alpha), mp.mpf(beta)
    for m, need in enumerate(bits):
        if have[m] < need:
            with mp.workprec(int(need)):
                vals[m] = mp.rgamma(a * m + b)
            have[m] = int(need)
    return vals


def _rows_mp(p: GfpdParams, xs, jend) -> np.ndarray:
    """High-precision per-x series sums; ``jend[i]`` terms after the zeroth.

    Row x is sum_j (-1)^j C(x+j, x) c_{x+j}, where the positive coefficients
    c_m = Gamma(beta) (delta)_m mu^m / (m! Gamma(alpha m + beta)) are shared
    by all rows.  The binomials are exact integers and each c_m is an
    integer mantissa with just enough bits that every term it enters is
    exact to 2^-(_FIX_BITS + _GUARD_BITS) absolute, so the alternating sum
    is done in integer arithmetic and no rounding error is amplified.
    """
    xs = np.asarray(xs, dtype=int)
    jend = np.asarray(jend, dtype=int)
    mtot = int((xs + jend).max())
    # log of the largest term each c_m enters (at least 1)
    logmag = _row_logmag(p, xs, int(jend.max()) + 1)
    top = np.zeros(mtot + 1)
    for i, x in enumerate(xs):
        seg = top[x : x + jend[i] + 1]
        np.maximum(seg, logmag[i, : jend[i] + 1], out=seg)
    frac = _FIX_BITS + _GUARD_BITS
    bits = np.ceil(top / math.log(2)).astype(int) + frac + _GUARD_BITS
    # whole 64-bit words, so mpmath's per-precision gamma coefficients and
    # this cache's entries are reused across rows and table chunks
    rg = _mp_rgamma(p.alpha, p.beta, -(-(bits + _GUARD_BITS) // 64) * 64)
    # pm = Gamma(beta) (delta)_m mu^m / m! by recurrence; c_m = pm * rg[m]
    # rounded to bits[m] and held as mant[m] * 2^-(shift[m] + frac)
    with mp.workprec(int(bits.max()) + _GUARD_BITS):
        dd, uu = mp.mpf(p.delta), mp.mpf(p.mu)
        pm = mp.gamma(mp.mpf(p.beta))
        mant, shift = [], []
        for m in range(mtot + 1):
            man, e = mp.fmul(pm, rg[m], prec=int(bits[m])).man_exp
            # mpmath strips trailing zero bits from the mantissa
            sh = -(e + frac)
            mant.append(man << max(-sh, 0))
            shift.append(max(sh, 0))
            pm = pm * (dd + m) * uu / (m + 1)
    out = np.empty(len(xs))
    for i, x in enumerate(xs):
        x = int(x)
        acc = 0
        binom = 1
        for j in range(int(jend[i]) + 1):
            m = x + j
            if j:
                binom = binom * m // j
            t = (binom * mant[m]) >> shift[m]
            acc = acc - t if j & 1 else acc + t
        out[i] = acc / (1 << frac)
    return out


def _mp_plan(p: GfpdParams, xs, probe_cap=60_000):
    """Size the high-precision pass: per-x term counts and digits needed."""
    jcap = 2048
    while True:
        logmag = _row_logmag(p, xs, jcap)
        maxlog = logmag.max(axis=1)
        pk = logmag.argmax(axis=1)
        done = (logmag[:, -1] < -45.0) & (pk < jcap - 1)
        if done.all() or jcap >= probe_cap:
            break
        jcap *= 2
    if not done.all():
        raise EvaluationError(
            "pmf series needs too many terms even in high precision; "
            "use the Monte Carlo representation"
        )
    jend = np.empty(len(xs), dtype=int)
    dps = np.empty(len(xs), dtype=int)
    for i in range(len(xs)):
        below = np.nonzero(logmag[i, pk[i]:] < -45.0)[0]
        jend[i] = int(pk[i]) + int(below[0])
        # digits that keep ~30 below the largest term; `_rows_mp` sizes
        # each term's bits itself, so this decides only feasibility
        dps[i] = int(max(maxlog[i], 0.0) / math.log(10)) + 30
    if dps.max() > MAX_DPS:
        raise EvaluationError(
            f"pmf series would need ~{dps.max()} digits to survive cancellation; "
            "use the Monte Carlo representation"
        )
    return jend, dps


def _pmf_rows(p: GfpdParams, xs: np.ndarray, method: str = "auto") -> np.ndarray:
    """pmf at the given x values via series, escalating precision per row."""
    xs = np.asarray(xs, dtype=int)
    pmf, maxlog, decayed = _rows_f64(p, xs, 1024)
    # rows over the precision threshold go to high precision regardless, so
    # only rows that merely need more terms get the longer float64 sweep
    retry = (~decayed) & (maxlog <= _F64_MAXLOG)
    if retry.any():
        pmf2, maxlog2, decayed2 = _rows_f64(p, xs[retry], 8192)
        pmf[retry], maxlog[retry] = pmf2, maxlog2
        dec = decayed.copy()
        dec[np.nonzero(retry)[0][decayed2]] = True
        decayed = dec
    # a float64 row is kept only when its cancellation noise floor
    # (~1e-14 times the largest term) sits at least 1e8 below the value,
    # otherwise moment-grade accuracy is lost in the deep tail
    noise = np.exp(np.clip(maxlog, -700.0, 700.0) - 32.2)
    hostile = (~decayed) | (maxlog > _F64_MAXLOG) | (pmf < noise * 1e8)
    if hostile.any():
        if method == "series":
            raise CancellationError(
                "pmf series is cancellation-dominated in float64 at x = "
                f"{xs[hostile].tolist()}; use method='auto' or the Monte Carlo path"
            )
        xh = xs[hostile]
        jend, _ = _mp_plan(p, xh)
        pmf[hostile] = _rows_mp(p, xh, jend)
    return np.clip(pmf, 0.0, 1.0)


# ---------------------------------------------------------------------------
# public pmf / cdf
# ---------------------------------------------------------------------------

def gfpd_pmf(p: GfpdParams, x: int, method: str = "auto") -> float:
    """P(X = x) for the generalized fractional Poisson law.

    ``method='series'`` refuses (raises) when float64 cancellation would
    corrupt the answer; the default transparently re-sums those rows in high
    precision.  At alpha = 1 (with beta = delta = 1) this is the Poisson law,
    and the geometric-limit flag gives the geometric law exactly.
    """
    if x < 0 or x != int(x):
        raise DomainError(f"x must be a non-negative integer, got {x!r}")
    x = int(x)
    if p.geometric_limit:
        q = p.mu / (1.0 + p.mu)
        return math.exp(math.log1p(-q) + x * math.log(q)) if q > 0 else (1.0 if x == 0 else 0.0)
    if p.alpha == 1.0:
        if p.is_fpd:
            return math.exp(-p.mu + x * math.log(p.mu) - math.lgamma(x + 1))
        # alpha = 1 collapses to a confluent-hypergeometric (Kummer) weighting
        lognum = (
            math.lgamma(p.beta)
            + math.lgamma(p.delta + x)
            - math.lgamma(p.delta)
            - math.lgamma(x + 1)
            + x * math.log(p.mu)
            - math.lgamma(x + p.beta)
        )
        m = float(sc.hyp1f1(p.delta + x, x + p.beta, -p.mu))
        return float(np.clip(math.exp(lognum) * m, 0.0, 1.0))
    return float(_pmf_rows(p, np.array([x]), method=method)[0])


# tables by (params, x_max, method, tail_tol), least recently used first
_TABLE_CACHE: dict = {}
_TABLE_CACHE_MAX = 1024


def gfpd_pmf_table(
    p: GfpdParams,
    x_max: int | None = None,
    method: str = "auto",
    tail_tol: float = TAIL_TOL,
) -> np.ndarray:
    """pmf on 0..x_max as a read-only array (tables are cached per parameter set).

    With ``x_max=None`` the support is extended adaptively and ends, or is
    refused, by `adaptive_pmf_table`'s rule at ``tail_tol``.
    """
    if x_max is not None and x_max < 0:
        raise DomainError(f"x_max must be >= 0, got {x_max}")
    key = (p, x_max, method, tail_tol)
    table = _TABLE_CACHE.pop(key, None)
    if table is None:
        table = _build_pmf_table(p, x_max, method, tail_tol)
        table.setflags(write=False)
        if len(_TABLE_CACHE) >= _TABLE_CACHE_MAX:
            # evict the least recently used table (dicts keep insertion order)
            del _TABLE_CACHE[next(iter(_TABLE_CACHE))]
    _TABLE_CACHE[key] = table
    return table


def _build_pmf_table(p, x_max, method, tail_tol) -> np.ndarray:
    # evaluate(xs, x_end) gives the rows xs of a chunk that spans up to x_end;
    # only the quadrature reads x_end, to pick its node set
    quadrature = lambda xs, x_end: _quadrature_pmf(p.alpha, p.beta, p.delta, p.mu, xs, x_end)
    if p.geometric_limit or p.alpha == 1.0:
        evaluate = lambda xs, x_end: np.array([gfpd_pmf(p, int(x)) for x in xs])
    elif method == "auto" and abs(p.beta - p.alpha * p.delta) < 1e-12:
        # the Wright density factor collapses onto the inverse-stable density
        # when beta = alpha delta, giving a cancellation-free positive
        # quadrature for the whole table
        evaluate = quadrature
    else:
        evaluate = lambda xs, x_end: _pmf_rows(p, xs, method=method)
    try:
        return adaptive_pmf_table(evaluate, x_max, tail_tol)
    except ConvergenceError:
        # the row cap: another route would walk the same support
        raise
    except EvaluationError:
        if not (method == "auto" and p.is_fpd and 0.0 < p.alpha < 1.0):
            raise
    # series route infeasible even in high precision (small alpha, larger
    # mu), or its table's mass is off: the positive mixture quadrature still
    # applies
    return adaptive_pmf_table(quadrature, x_max, tail_tol)


def fpd_pmf(alpha: float, mu: float, x: int, method: str = "auto") -> float:
    """Classical fractional-Poisson pmf; alpha = 0 is the geometric limit."""
    return gfpd_pmf(GfpdParams.fpd(alpha, mu), x, method=method)


def fpd_cdf(alpha: float, mu: float, x: int) -> float:
    """P(X <= x) for the classical fractional law, by pmf summation."""
    if x < 0:
        return 0.0
    p = GfpdParams.fpd(alpha, mu)
    table = gfpd_pmf_table(p, x_max=int(x))
    return float(min(table.sum(), 1.0))


# ---------------------------------------------------------------------------
# Monte Carlo / quadrature representations
# ---------------------------------------------------------------------------

def _mixing_draws(p: GfpdParams, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """n draws of the mixing variable Y of X = Poisson(mu Y), as (log Y, log weight).

    The weighted draws represent the law: E[w g(Y)] is E g(Y) under the law's
    mixing distribution for every g.  Write Z0 = S^(-alpha) with S stable,
    the inverse-stable variable of density M_alpha (Meerschaert, Nane &
    Vellaisamy 2011); E Z0^s = Gamma(1+s)/Gamma(1+alpha s).  The classical
    slice mixes over Z0 itself (weight 1).  Elsewhere Y = V^alpha Z with
    V ~ Beta(alpha delta, beta - alpha delta) (V = 1 on the plane
    beta = alpha delta) and Z of density z^delta M_alpha(z) / E Z0^delta,
    drawn as Z0 with `_mixing_weight`'s weight
    w = Z0^delta Gamma(1+alpha delta)/Gamma(1+delta).
    Then E[w Y^j] = Gamma(beta)Gamma(delta+j)/(Gamma(delta)Gamma(alpha j+beta)),
    the law's j-th factorial moment over mu^j.
    """
    from .sampling import sample_stable

    a, b, d = p.alpha, p.beta, p.delta
    with np.errstate(divide="ignore"):
        log_z0 = -a * np.log(sample_stable(a, n, rng))
    # NaN or S = 0: the sine-product formula left float64 range
    if not np.all(log_z0 < np.inf):
        raise EvaluationError(f"stable variates left float64 range at alpha = {a}")
    y_power, _, log_pref = _mixing_weight(a, b, d)
    if not y_power:
        return log_z0, np.zeros(n)
    log_w = y_power * log_z0 + log_pref
    if abs(b - a * d) < 1e-12:
        return log_z0, log_w
    with np.errstate(divide="ignore"):
        log_v = np.log(rng.beta(a * d, b - a * d, n))
    return log_z0 + a * log_v, log_w


def gfpd_pmf_mc(p: GfpdParams, x: int, n: int, rng) -> tuple[float, float]:
    """Unbiased Monte Carlo estimate of P(X = x) from n draws, with its standard error.

    Averages w exp(-mu Y) (mu Y)^x / x! in log space over the weighted
    mixing draws of `_mixing_draws`; the standard error is the sample
    standard deviation over sqrt(n).  At alpha = 1 and in the geometric
    limit the mixing variable is degenerate and the exact pmf is returned
    with standard error 0.  A batch whose stable variates leave float64
    range (seen at alpha = 0.01) raises `EvaluationError`.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    if p.geometric_limit or p.alpha == 1.0:
        return gfpd_pmf(p, x), 0.0
    if n < 1:
        raise DomainError("n must be >= 1")
    log_y, log_w = _mixing_draws(p, n, rng)
    log_lam = math.log(p.mu) + log_y
    # x log(lam) is 0 at x = 0 also where lam underflowed to 0
    log_kernel = (x * log_lam if x else 0.0) - np.exp(log_lam) - math.lgamma(x + 1)
    v = np.exp(log_w + log_kernel)
    est = float(v.mean())
    se = float(v.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return est, se


def gfpd_aa1_pmf(alpha: float, mu: float, x: int, method: str = "auto") -> float:
    """pmf of the (alpha, alpha, 1, mu) member, as `gfpd_pmf` gives it.

    Its Monte Carlo estimate is ``gfpd_pmf_mc(GfpdParams.aa1(alpha, mu), x,
    n, rng)``, which on this plane is
    Gamma(alpha+1) mu^x / x! E[S^(-alpha(x+1)) e^(-mu S^(-alpha))].
    """
    return gfpd_pmf(GfpdParams.aa1(alpha, mu), x, method=method)


def _mixing_weight(alpha: float, beta: float, delta: float) -> tuple:
    """(y power, prefactor, log prefactor) of the fractional law's mixing
    weight over M_alpha, the inverse-stable density of Z0 = S^(-alpha).

    The classical slice beta = delta = 1 mixes over Z0 itself: (0, 1, 0).
    Elsewhere the weight is the tilt z^delta M_alpha(z) / E Z0^delta, with
    E Z0^delta = Gamma(1+delta)/Gamma(1+alpha delta): the mixing density
    itself on the plane beta = alpha delta, and the law of Z in
    Y = V^alpha Z off it (see `_mixing_draws`).
    """
    if beta == 1.0 and delta == 1.0:
        return 0, 1.0, 0.0
    g, g1 = 1.0 + alpha * delta, 1.0 + delta
    return delta, math.gamma(g) / math.gamma(g1), math.lgamma(g) - math.lgamma(g1)


def _quadrature_pmf(alpha, beta, delta, mu, xs, x_max=None):
    """pmf rows of the fractional law at (alpha, beta, delta) by mixture
    quadrature over `_mixing_weight`'s density, one row per mu: the
    prefactor times exp of ``_mixture_logpmf``'s rows."""
    y_power, pref, _ = _mixing_weight(alpha, beta, delta)
    return pref * np.exp(_mixture_logpmf(alpha, mu, xs, y_power, x_max))


def fpd_pmf_quadrature(alpha: float, mu, xs) -> np.ndarray:
    """Classical fractional pmf on an array of x values by mixture quadrature.

    Positive integrand (Poisson kernel times the inverse-stable density), so
    there is no cancellation at any parameter point; an independent
    cross-check on the series, whose log kernel (``_mixture_logpmf``) also
    scores grid fits.  ``mu`` is a scalar (one pmf row) or a 1-D array (one
    row per value).
    """
    return _quadrature_pmf(alpha, 1.0, 1.0, mu, xs)


def aa1_pmf_quadrature(alpha: float, mu, xs) -> np.ndarray:
    """(alpha, alpha, 1) pmf by mixture quadrature, one row per ``mu`` as above.

    The mixing density is Gamma(alpha + 1) y times the inverse-stable
    density, which integrates to one.
    """
    return _quadrature_pmf(alpha, alpha, 1.0, mu, xs)


# Rows that share a node set are evaluated about a reference mu0 through
#   exp(x log(mu y) - mu y) = exp(x log(mu0 y) - mu0 y) exp(-(mu - mu0) y) (mu/mu0)^x,
# one (mu x nodes) @ (nodes x x) product per set.  The middle factor reaches
# exp(|mu - mu0| y) at the largest node, so a set's rows are split into chunks
# where that exponent stays below _SPREAD_MAX: no factor overflows, and a
# term that is exp(-700) below its column's largest moves a row by at most
# exp(2 _SPREAD_MAX - 700) relative, whether it is dropped or kept.
_SPREAD_MAX = 300.0


def _mixture_logpmf(alpha, mu, xs, y_power, x_max=None):
    """log sum_j w_j y_j^y_power Poisson(x; mu y_j) over the mixing nodes, at
    the counts ``xs``; one row per mu.

    Each column is computed on its own, so the counts need not be
    consecutive.  The node sets are those of the support 0..x_max, by
    default the largest of ``xs``.
    """
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
    # equal mu values read the very same row
    inverse = np.searchsorted(mus, flat)
    xf = xs.astype(float)
    # log Poisson(x; lam) = x (log lam - log x + 1) - lam + c_x, with
    # c_x = x log x - x - log x!: centred on the peak lam = x, the part that
    # depends on mu0 stays small and so does its rounding at large x
    log_x1 = np.log(np.maximum(xf, 1.0)) - 1.0
    c_x = xf * log_x1 - sc.gammaln(xf + 1.0)
    out = np.empty((len(mus), len(xs)))
    # the cutoff falls as mu grows, so each node set serves a run of mus
    steps = _cutoff_step(alpha, mus, x_max).tolist()
    distinct = list(dict.fromkeys(steps))
    node_sets = dict(zip(distinct, _mixture_node_sets(alpha, distinct)))
    lo = 0
    while lo < len(mus):
        hi = lo + steps.count(steps[lo])
        ys, wm = node_sets[steps[lo]]
        with np.errstate(divide="ignore"):  # m_wright underflows to 0 far out
            log_w = np.log(wm * ys**y_power if y_power else wm)
        # chunks of mus at most 2 _SPREAD_MAX / y_max wide
        ends = np.searchsorted(mus, mus[lo:hi] + 2.0 * _SPREAD_MAX / ys[-1], "right").tolist()
        start = lo
        while start < hi:
            stop = min(ends[start - lo], hi)
            mu0 = 0.5 * (mus[start] + mus[stop - 1])
            # (x, node) log of mu0's kernel times the weight, less c_x and
            # normalised per x
            lam = mu0 * ys
            log_b = np.log(lam) - log_x1[:, None]
            log_b *= xf[:, None]
            log_b -= lam - log_w
            shift = log_b.max(axis=1)
            log_b -= shift[:, None]
            # exp is many times slower where its result underflows; a term
            # held at exp(-700) instead is below 1e-40 of any row
            np.maximum(log_b, -700.0, out=log_b)
            b = np.exp(log_b, out=log_b)
            a = np.exp(np.multiply.outer(mu0 - mus[start:stop], ys))
            log_rows = np.log(a @ b.T, out=out[start:stop])
            log_rows += shift + c_x
            log_rows += np.multiply.outer(np.log(mus[start:stop] / mu0), xf)
            start = stop
        lo = hi
    rows = out[inverse]
    return rows[0] if mu.ndim == 0 else rows


def _cutoff_step(alpha, mu, x_max):
    """The mixing variable is cut at 1.3 ** step, with step rounded up from
    the largest of the density's tail point and 3 (x_max + 10) / mu; nearby
    (mu, x_max) requests round to one step and share its node set."""
    c = (1.0 - alpha) * alpha ** (alpha / (1.0 - alpha))
    y_hi = np.maximum(max((46.0 / c) ** (1.0 - alpha), 4.0), 3.0 * (x_max + 10) / mu)
    return np.ceil(np.log(y_hi) / math.log(1.3)).astype(int)


# node sets by (alpha, cutoff), least recently used first
_MIXTURE_CACHE: dict = {}
_MIXTURE_CACHE_MAX = 512

# a node set is _N_PANELS Gauss-Legendre panels of _N_NODES nodes
_N_PANELS = 4
_N_NODES = 80


def _mixture_node_sets(alpha, steps):
    """Gauss-Legendre panels on the mixing variable up to 1.3 ** step, with
    density values, for each of the distinct cutoff ``steps``.

    The sets missing from the cache are tabulated by one ``m_wright`` call
    over their distinct nodes; every row of it gets the same bits as alone,
    so a set is the same whatever other sets share its call.  The first
    panel, (0, 0.25], is the same in every set, so it is tabulated once.
    The sets then enter the cache, or move to its recent end, in the order
    of ``steps``.
    """
    keys = [(round(alpha, 12), round(1.3**step, 6)) for step in steps]
    sets = [_MIXTURE_CACHE.get(key) for key in keys]
    missing = [i for i, hit in enumerate(sets) if hit is None]
    if missing:
        nodes = [_panel_nodes(1.3 ** steps[i]) for i in missing]
        distinct, where = np.unique(np.concatenate([ys for ys, _ in nodes]), return_inverse=True)
        density = m_wright(alpha, distinct)[where]
        for i, (ys, ws), m in zip(missing, nodes, np.split(density, len(missing))):
            sets[i] = (ys, ws * m)
    for key, node_set in zip(keys, sets):
        _MIXTURE_CACHE.pop(key, None)
        if len(_MIXTURE_CACHE) >= _MIXTURE_CACHE_MAX:
            # evict the least recently used set (dicts keep insertion order)
            del _MIXTURE_CACHE[next(iter(_MIXTURE_CACHE))]
        _MIXTURE_CACHE[key] = node_set
    return sets


def _panel_nodes(y_hi):
    """Nodes and weights of the Gauss-Legendre panels on (0, y_hi)."""
    gx, gw = _leggauss(_N_NODES)
    edges = np.concatenate([[0.0], np.geomspace(0.25, y_hi, _N_PANELS)])
    ys, ws = [], []
    # cube-graded first panel: fractional powers y^delta in the mixing
    # weight have a cusp at 0 that plain Gauss-Legendre resolves poorly
    u = 0.5 * gx + 0.5
    ys.append(edges[1] * u**3)
    ws.append(edges[1] * 3.0 * u**2 * 0.5 * gw)
    for lo, hi in zip(edges[1:-1], edges[2:]):
        ys.append(0.5 * (hi - lo) * gx + 0.5 * (hi + lo))
        ws.append(0.5 * (hi - lo) * gw)
    return np.concatenate(ys), np.concatenate(ws)


# ---------------------------------------------------------------------------
# moments and shape
# ---------------------------------------------------------------------------

def gfpd_factorial_moments(p: GfpdParams, K: int) -> FactorialMomentSequence:
    """a_k = Gamma(beta) Gamma(delta+k) mu^k / (Gamma(alpha k + beta) Gamma(delta))."""
    if K < 0:
        raise DomainError("K must be >= 0")
    a = [1.0]
    for k in range(1, K + 1):
        logak = (
            math.lgamma(p.beta)
            + math.lgamma(p.delta + k)
            - math.lgamma(p.alpha * k + p.beta)
            - math.lgamma(p.delta)
            + k * math.log(p.mu)
        )
        if logak > 700.0:
            raise EvaluationError(f"factorial moment of order {k} overflows")
        a.append(math.exp(logak))
    return FactorialMomentSequence(tuple(a))


def gfpd_summary(p: GfpdParams) -> SummaryStats:
    """Mean, variance (closed forms), skewness and Fisher index."""
    a, b, d, u = p.alpha, p.beta, p.delta, p.mu
    gb = math.gamma(b)
    mean = gb * d * u / math.gamma(b + a)
    var = mean + gb * d * u * u * (
        (d + 1.0) / math.gamma(b + 2.0 * a) - gb * d / math.gamma(b + a) ** 2
    )
    fm = gfpd_factorial_moments(p, 3)
    skew = skewness_from_factorial(fm[1], fm[2], fm[3])
    return SummaryStats(mean, var, skew, var / mean)


def fpd_skewness(alpha: float, mu: float) -> float:
    """Skewness of the classical fractional law (closed form in gamma values)."""
    g1 = math.gamma(1.0 + alpha)
    g2 = math.gamma(1.0 + 2.0 * alpha)
    g3 = math.gamma(1.0 + 3.0 * alpha)
    num = (
        1.0 / (mu * mu * g1)
        + 6.0 / (mu * g2)
        + 6.0 / g3
        - 3.0 / (mu * g1 * g1)
        - 6.0 / (g1 * g2)
        + 2.0 / g1**3
    )
    den = (1.0 / (mu * g1) + 2.0 / g2 - 1.0 / (g1 * g1)) ** 1.5
    return num / den


def fpd_skewness_limit(alpha: float, case: str = "fpd") -> float:
    """Large-mu limit of the skewness; vanishes at alpha = 1 (Poisson-like).

    ``case='fpd'`` is the classical slice, ``case='aa1'`` the
    (alpha, alpha, 1) member.  Both are the limits of the cumulant ratio
    built from the leading factorial-moment coefficients A_k = a_k / mu^k:
    (A3 - 3 A1 A2 + 2 A1^3) / (A2 - A1^2)^(3/2), which is 0/0 at exactly
    alpha = 1 with limiting value 0.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    if alpha == 1.0:
        return 0.0
    if case == "fpd":
        a1 = 1.0 / math.gamma(1.0 + alpha)
        a2 = 2.0 / math.gamma(1.0 + 2.0 * alpha)
        a3 = 6.0 / math.gamma(1.0 + 3.0 * alpha)
    elif case == "aa1":
        g = math.gamma(alpha)
        a1 = g / math.gamma(2.0 * alpha)
        a2 = 2.0 * g / math.gamma(3.0 * alpha)
        a3 = 6.0 * g / math.gamma(4.0 * alpha)
    else:
        raise DomainError(f"unknown case {case!r}")
    return (a3 - 3.0 * a1 * a2 + 2.0 * a1**3) / (a2 - a1 * a1) ** 1.5


def overdispersion_delta_bound(alpha: float, beta: float) -> float:
    """Largest delta for which overdispersion is guaranteed by the moment bound.

    Always exceeds beta/alpha on (0, 1]^2, which is why the whole family is
    overdispersed.
    """
    if not (0.0 < alpha <= 1.0 and 0.0 < beta <= 1.0):
        raise DomainError("alpha, beta must lie in (0, 1]")

    def log_beta_fn(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    b1 = math.exp(log_beta_fn(alpha + beta, alpha))
    b0 = math.exp(log_beta_fn(beta, alpha))
    return b1 / (b0 - b1)
