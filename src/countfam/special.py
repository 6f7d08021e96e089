"""Special functions underpinning the count distributions.

The Mittag-Leffler-type series here alternate violently for negative
arguments, so every series is evaluated in log-magnitude/sign form with
compensated summation, an explicit stopping rule, and guards that refuse to
return a cancellation-destroyed answer.  Where the float64 series is hopeless
but the value is still representable, an arbitrary-precision fallback re-sums
the same series with enough guard digits.  The M-Wright density is the
exception: its reflection series is summed for a whole array of points in
NumPy, and points whose sum cancellation would spoil go to a positive
integral form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import special as sc

from .errors import CancellationError, ConvergenceError, DomainError, EvaluationError

# Stopping rule shared by all series: relative-term threshold sustained over
# several consecutive terms, with a geometric tail certificate from the
# observed term ratio.
REL_TOL = 1e-15
CONSECUTIVE = 5
MAX_TERMS = 100_000
# Refuse rather than return garbage once the magnitude pile-up exceeds this
# many times the surviving sum.
CANCEL_LIMIT = 1e12
# In auto mode, escalate to the high-precision fallback well before the
# refusal point so returned values keep ~12 correct digits.
AUTO_CANCEL_LIMIT = 1e4
# log of the largest double; individual terms beyond this cannot be summed
# in float64 at all.
OVERFLOW_LOG = 690.0
# Arbitrary-precision fallback budget (decimal digits).
MAX_DPS = 1200


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated series evaluation.

    ``est_truncation_error`` is an upper bound on the absolute magnitude of
    the discarded tail under the stopping rule.
    """

    value: float
    terms_used: int
    est_truncation_error: float

    def __float__(self):
        return self.value


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)) or x <= 0:
        raise DomainError(f"log_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def reciprocal_gamma(x: float) -> float:
    """1/Gamma(x), extended continuously to 0 at the poles x = 0, -1, -2, ..."""
    if not math.isfinite(x):
        raise DomainError(f"reciprocal_gamma requires finite x, got {x!r}")
    return float(sc.rgamma(x))


def digamma(x: float) -> float:
    """Digamma function psi(x) for x > 0."""
    if not math.isfinite(x) or x <= 0:
        raise DomainError(f"digamma requires finite x > 0, got {x!r}")
    return float(sc.digamma(x))


def trigamma(z):
    """psi'(z) = sum_{r>=0} (z+r)^-2 for z > 0, scalar or array."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("trigamma requires z > 0")
    out = sc.polygamma(1, z)
    return float(out) if out.ndim == 0 else out


def _log_rgamma_signed(x: float) -> tuple[float, float]:
    """(log|1/Gamma(x)|, sign), with sign 0 at the poles of Gamma."""
    if x > 0:
        return -math.lgamma(x), 1.0
    if x == math.floor(x):
        return -math.inf, 0.0
    # reflection: 1/Gamma(x) = Gamma(1-x) sin(pi x) / pi
    s = math.sin(math.pi * x)
    if s == 0.0:
        return -math.inf, 0.0
    return math.lgamma(1.0 - x) + math.log(abs(s)) - math.log(math.pi), math.copysign(1.0, s)


class _SignedLogSum:
    """Accumulates sum of sign_j * exp(logmag_j) in a max-shifted frame.

    Uses Neumaier compensation; tracks the magnitude pile-up so the caller
    can detect catastrophic cancellation.
    """

    def __init__(self):
        self.shift = -math.inf
        self.s = 0.0
        self.comp = 0.0
        self.abs_s = 0.0

    def add(self, logmag: float, sign: float):
        if sign == 0.0 or logmag == -math.inf:
            return
        if logmag > self.shift:
            scale = math.exp(self.shift - logmag) if self.shift > -math.inf else 0.0
            self.s *= scale
            self.comp *= scale
            self.abs_s *= scale
            self.shift = logmag
        t = sign * math.exp(logmag - self.shift)
        new = self.s + t
        if abs(self.s) >= abs(t):
            self.comp += (self.s - new) + t
        else:
            self.comp += (t - new) + self.s
        self.s = new
        self.abs_s += abs(t)

    @property
    def total_scaled(self) -> float:
        return self.s + self.comp

    def value(self) -> float:
        if self.shift == -math.inf:
            return 0.0
        t = self.total_scaled
        return math.copysign(math.exp(self.shift + math.log(abs(t))), t) if t != 0.0 else 0.0

    def cancel_ratio(self) -> float:
        t = abs(self.total_scaled)
        if self.abs_s == 0.0:
            return 1.0
        return self.abs_s / max(t, 5e-324 / max(math.exp(min(self.shift, 0.0)), 5e-324))


def _sum_series(terms, max_terms=MAX_TERMS, alternating=False, what="series"):
    """Drive a (logmag, sign) generator through the stopping rule.

    Returns (value, terms_used, tail_bound, cancel_ratio, max_logmag).
    Raises EvaluationError on term overflow, ConvergenceError on budget
    exhaustion.
    """
    acc = _SignedLogSum()
    prev_logmag = None
    ratios = []
    small_run = 0
    max_logmag = -math.inf
    n = 0
    tail_bound = math.inf
    for logmag, sign in terms:
        n += 1
        if logmag > OVERFLOW_LOG:
            raise EvaluationError(
                f"{what}: term magnitude exceeds the float64 overflow budget; "
                "use the Monte Carlo or integral representation"
            )
        max_logmag = max(max_logmag, logmag)
        acc.add(logmag, sign)
        if prev_logmag is not None and logmag > -math.inf and prev_logmag > -math.inf:
            ratios.append(math.exp(min(logmag - prev_logmag, 100.0)))
            if len(ratios) > CONSECUTIVE:
                ratios.pop(0)
        if logmag > -math.inf:
            prev_logmag = logmag
        scaled_tot = abs(acc.total_scaled)
        term_scaled = math.exp(logmag - acc.shift) if logmag > -math.inf else 0.0
        if scaled_tot > 0.0 and term_scaled < REL_TOL * scaled_tot:
            small_run += 1
        else:
            small_run = 0
        if small_run >= CONSECUTIVE and len(ratios) == CONSECUTIVE:
            r_hat = max(ratios)
            if r_hat < 1.0:
                tail_bound = math.exp(logmag) * r_hat / (1.0 - r_hat) if logmag > -745 else 0.0
                break
        if n >= max_terms:
            raise ConvergenceError(f"{what}: no convergence within {max_terms} terms")
    else:
        # the generator terminated: the sum is exact
        tail_bound = 0.0
    value = acc.value()
    cancel = acc.cancel_ratio() if alternating else 1.0
    return value, n, tail_bound, cancel, max_logmag


def _prabhakar_terms(eta, nu, tau, w):
    """Signed log terms of sum_j (tau)_j w^j / (j! Gamma(eta j + nu))."""
    logaw = math.log(abs(w)) if w != 0.0 else -math.inf
    sign_w = 1.0 if w >= 0 else -1.0
    logmag = -math.lgamma(nu)
    sign = 1.0
    j = 0
    while True:
        yield logmag, sign
        if w == 0.0:
            return
        logmag += (
            math.log(tau + j)
            - math.log1p(j)
            + logaw
            + math.lgamma(eta * j + nu)
            - math.lgamma(eta * (j + 1) + nu)
        )
        sign *= sign_w
        j += 1


def _prabhakar_mp(eta, nu, tau, w, max_logmag):
    """Re-sum the three-parameter Mittag-Leffler series in high precision.

    Only reached when float64 cancellation ruins the direct sum; the working
    precision is sized from the largest term magnitude seen in the float64
    scan.
    """
    dps = int(max(max_logmag, 0.0) / math.log(10)) + 40
    if dps > MAX_DPS:
        raise EvaluationError(
            "series cancellation beyond the high-precision budget "
            f"(would need ~{dps} digits); use the Monte Carlo path"
        )
    with mp.workdps(dps):
        e_, n_, t_, w_ = mp.mpf(eta), mp.mpf(nu), mp.mpf(tau), mp.mpf(w)
        term = mp.exp(-mp.loggamma(n_))
        total = term
        j = 0
        lg_prev = mp.loggamma(n_)
        while j < 2 * MAX_TERMS:
            lg_next = mp.loggamma(e_ * (j + 1) + n_)
            term = term * (t_ + j) * w_ / (j + 1) * mp.exp(lg_prev - lg_next)
            total += term
            lg_prev = lg_next
            j += 1
            if j > 8 and abs(term) < mp.mpf(10) ** (-dps) * abs(total) + mp.mpf(10) ** (-dps - 30):
                break
        else:
            raise ConvergenceError("high-precision series did not converge")
        return float(total), j + 1


def prabhakar_ml(eta: float, nu: float, tau: float, w: float, method: str = "auto") -> SeriesValue:
    """Three-parameter Mittag-Leffler function sum_j (tau)_j w^j / (j! Gamma(eta j + nu)).

    Parameters
    ----------
    eta, nu, tau : positive reals.
    w : finite real argument.
    method : "auto" falls back to a high-precision re-summation when the
        float64 series would be destroyed by cancellation; "series" refuses
        instead (raising CancellationError / EvaluationError); "exact" forces
        the high-precision path.
    """
    if not (eta > 0 and nu > 0 and tau > 0):
        raise DomainError("prabhakar_ml requires eta, nu, tau > 0")
    if not math.isfinite(w):
        raise DomainError("prabhakar_ml requires finite w")
    if method not in ("auto", "series", "exact"):
        raise ValueError(f"unknown method {method!r}")

    if method != "exact":
        try:
            value, n, tail, cancel, max_logmag = _sum_series(
                _prabhakar_terms(eta, nu, tau, w),
                alternating=w < 0,
                what="prabhakar_ml",
            )
            if cancel <= (CANCEL_LIMIT if method == "series" else AUTO_CANCEL_LIMIT):
                return SeriesValue(value, n, max(tail, 0.0))
            if method == "series":
                raise CancellationError(
                    f"prabhakar_ml: cancellation ratio {cancel:.2e} exceeds "
                    f"{CANCEL_LIMIT:.0e}; use the Monte Carlo path or method='auto'"
                )
        except EvaluationError:
            if method == "series":
                raise
            max_logmag = _scan_prabhakar_max_log(eta, nu, tau, w)
    else:
        max_logmag = _scan_prabhakar_max_log(eta, nu, tau, w)

    if w > 0:
        # no cancellation is possible for positive arguments: the failure was
        # genuine overflow of the value itself
        raise EvaluationError("prabhakar_ml: value exceeds the float64 range")
    value, n = _prabhakar_mp(eta, nu, tau, w, max_logmag)
    return SeriesValue(value, n, abs(value) * 1e-15)


def _scan_prabhakar_max_log(eta, nu, tau, w, block=4096, max_j=2_000_000):
    """Largest log term magnitude of the Prabhakar series (vectorized scan)."""
    logaw = math.log(abs(w)) if w != 0.0 else -math.inf
    best = -math.inf
    start = 0
    lg_tau = math.lgamma(tau)
    while start < max_j:
        j = np.arange(start, start + block, dtype=float)
        lm = (
            sc.gammaln(tau + j)
            - lg_tau
            - sc.gammaln(j + 1.0)
            + j * logaw
            - sc.gammaln(eta * j + nu)
        )
        best = max(best, float(lm.max()))
        if lm[-1] < best - 60.0:
            return best
        start += block
    raise ConvergenceError("prabhakar_ml: magnitude scan exhausted its budget")


def _wright_terms(xi, omega, z):
    logaz = math.log(abs(z)) if z != 0.0 else -math.inf
    sign_z = 1.0 if z >= 0 else -1.0
    r = 0
    lfact = 0.0
    zsign = 1.0
    while True:
        lrg, srg = _log_rgamma_signed(xi * r + omega)
        logmag = (r * logaz if z != 0.0 else (0.0 if r == 0 else -math.inf)) - lfact + lrg
        yield logmag, srg * zsign
        if z == 0.0 and r >= 1:
            return
        r += 1
        lfact += math.log(r)
        zsign *= sign_z


def _wright_mp(xi, omega, z, max_logmag):
    dps = int(max(max_logmag, 0.0) / math.log(10)) + 40
    if dps > MAX_DPS:
        raise EvaluationError(
            "wright_phi: cancellation beyond the high-precision budget "
            f"(would need ~{dps} digits)"
        )
    with mp.workdps(dps):
        x_, o_, z_ = mp.mpf(xi), mp.mpf(omega), mp.mpf(z)
        total = mp.mpf(0)
        zr = mp.mpf(1)
        fact = mp.mpf(1)
        peak = mp.mpf(0)
        small_run = 0
        for r in range(2 * MAX_TERMS):
            term = zr / fact * mp.rgamma(x_ * r + o_)
            total += term
            peak = max(peak, abs(term))
            # single terms vanish at the gamma poles, so stopping needs a run
            # of consecutive sub-threshold terms
            if abs(term) < mp.mpf(10) ** (-dps) * (abs(total) + peak * mp.mpf(10) ** 10):
                small_run += 1
                if small_run >= CONSECUTIVE and r > 8:
                    return float(total), r + 1
            else:
                small_run = 0
            zr *= z_
            fact *= r + 1
        raise ConvergenceError("wright_phi: high-precision series did not converge")


def wright_phi(xi: float, omega: float, z: float, method: str = "auto") -> SeriesValue:
    """Wright function sum_r z^r / (r! Gamma(xi r + omega)) for xi > -1.

    Terms where Gamma hits a pole vanish through the reciprocal gamma, so
    negative xi is handled without special-casing.  As with prabhakar_ml,
    ``method='series'`` refuses on catastrophic cancellation while the
    default re-sums in high precision.
    """
    if not math.isfinite(xi) or xi <= -1:
        raise DomainError("wright_phi requires xi > -1")
    if method not in ("auto", "series"):
        raise ValueError(f"unknown method {method!r}")
    max_logmag = None
    try:
        value, n, tail, cancel, max_logmag = _sum_series(
            _wright_terms(xi, omega, z), alternating=(z < 0 or xi < 0), what="wright_phi"
        )
        if cancel <= (CANCEL_LIMIT if method == "series" else AUTO_CANCEL_LIMIT):
            return SeriesValue(value, n, max(tail, 0.0))
        if method == "series":
            raise CancellationError(
                f"wright_phi: cancellation ratio {cancel:.2e} exceeds {CANCEL_LIMIT:.0e}"
            )
    except EvaluationError:
        if method == "series":
            raise
        if max_logmag is None:
            max_logmag = _scan_wright_max_log(xi, omega, z)
    value, n = _wright_mp(xi, omega, z, max_logmag)
    return SeriesValue(value, n, abs(value) * 1e-15)


def _scan_wright_max_log(xi, omega, z, block=4096, max_r=2_000_000):
    logaz = math.log(abs(z)) if z != 0.0 else -math.inf
    best = -math.inf
    start = 0
    while start < max_r:
        r = np.arange(start, start + block, dtype=float)
        arg = xi * r + omega
        with np.errstate(divide="ignore", invalid="ignore"):
            lrg = np.where(
                arg > 0,
                -sc.gammaln(arg),
                sc.gammaln(1.0 - arg) + np.log(np.abs(np.sin(np.pi * arg)) + 1e-320) - math.log(math.pi),
            )
        lm = r * logaz - sc.gammaln(r + 1.0) + lrg
        best = max(best, float(np.nanmax(lm)))
        if lm[-1] < best - 60.0:
            return best
        start += block
    raise ConvergenceError("wright_phi: magnitude scan exhausted its budget")


# Size of the vectorised reflection series' temporaries: blocks of j grow
# to at most _M_WRIGHT_BLOCK terms, and each (rows x j) array has at most
# _M_WRIGHT_BLOCK_CELLS cells, so node sets whose rows run to MAX_TERMS
# stay within a few MB.
_M_WRIGHT_BLOCK = 4096
_M_WRIGHT_BLOCK_CELLS = 32_768


def _m_wright_series_rows(alpha, ys, max_terms=MAX_TERMS):
    """Reflection series of ``_m_wright_series`` for an array of y > 0.

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


def _m_wright_series(alpha, y, max_terms=MAX_TERMS):
    """Reflection series (1/pi) sum_{j>=1} (-y)^(j-1)/(j-1)! Gamma(alpha j) sin(pi alpha j).

    Returns (value, cancel_ratio, max_logmag); may be garbage when the cancel
    ratio is large -- the caller decides.
    """
    if y == 0.0:
        return 1.0 / math.gamma(1.0 - alpha), 1.0, 0.0
    value, cancel, max_logmag = _m_wright_series_rows(alpha, np.array([float(y)]), max_terms)
    return float(value[0]), float(cancel[0]), float(max_logmag[0])


# Gauss-Legendre rules by node count, shared read-only by their callers
_leggauss = lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)
# Gauss-Legendre nodes on each side of the Kanter integrand's peak, and how
# far below the peak (in nats) the integrand is cut.
_KANTER_NODES = 32
_KANTER_DEPTH = 46.0


def _m_wright_integral_rows(alpha, ys):
    """Positive-integrand integral form of the same density, for an array of y > 0.

    Obtained from the Kanter representation of the one-sided stable law: with
    a(u) = sin((1-a)u) sin(a u)^(a/(1-a)) / sin(u)^(1/(1-a)), increasing on
    (0, pi) from a(0+) = (1-a) a^(a/(1-a)), and Y = y^(1/(1-a)), the density
    is (1/pi) int a(u) Y exp(-a(u) Y) du / ((1-a) y).  No cancellation at any
    y, so it serves as the large-argument branch.

    The integrand peaks where a(u) Y = 1 (at u = 0 once a(0+) Y >= 1).  Each
    side of the peak, down to where the integrand is e^-46 of its peak, gets
    one Gauss-Legendre rule in s = log(pi - u), which spreads out both the
    bell at small u and the wall that a(u) raises in front of u = pi.  The
    peak and the cuts are found by bisection in s, for all rows at once.
    """
    c = 1.0 / (1.0 - alpha)
    logy = np.log(ys)[:, None]
    log_yc = c * logy
    log_a0 = alpha * c * math.log(alpha) + math.log(1.0 - alpha)

    def log_a(s):
        eps = np.exp(s)
        u = np.maximum(math.pi - eps, 1e-300)
        # sin(u) = sin(pi - u): of u and pi - u, the smaller is the one that
        # float64 holds to full relative precision
        return (
            (alpha * c) * np.log(np.sin(alpha * u))
            + np.log(np.sin((1.0 - alpha) * u))
            - c * np.log(np.sin(np.minimum(u, eps)))
        )

    def log_f(la):
        # log of a Y exp(-a Y) / Y
        return la - np.exp(np.minimum(la + log_yc, OVERFLOW_LOG))

    def bisect(lo, hi, rises):
        """Where ``rises(s)`` turns False, for each row; it must hold at lo."""
        # 32 halvings of a bracket at most 700 wide: the cuts and the split
        # at the peak need no more than that
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
        # ds = du / (pi - u), and pi - u = e^s
        total = total + (np.exp(log_f(log_a(s)) + log_yc + s) * (half * w)).sum(axis=1)
    return total / (math.pi * (1.0 - alpha) * ys)


def _m_wright_integral(alpha, y):
    """``_m_wright_integral_rows`` at one y > 0."""
    return float(_m_wright_integral_rows(alpha, np.array([float(y)]))[0])


# The series' value is refused where its cancellation ratio exceeds
# _M_WRIGHT_CANCEL; rows whose ratio provably exceeds it ten times over are
# sent to the integral without summing (``_m_wright_integral_first``).
_M_WRIGHT_CANCEL = 1e6
_ROUTE_WINDOW = 9


def _m_wright_integral_first(alpha, ys):
    """Rows of y > 0 whose series ``m_wright`` would refuse after summing it.

    Why a row marked here is one the series refuses:

    - The log-magnitudes lm(j) = (j-1) log y + lgamma(a j) - lgamma(j) of the
      series' terms (without the sine) are strictly concave in j, since
      x^2 trigamma(x) increases and so a^2 trigamma(a j) < trigamma(j).
      They peak near j* = (a^a y)^(1/(1-a)).
    - The window holds the _ROUTE_WINDOW terms around j*, clipped to the
      ones the series can reach.  lm is computed exactly as the series
      computes it.  If the window starts at j = 1 or lm rises into it, no
      term before it is falling, so none can stop the series.  A window
      term then counts only if every window term before it lies within
      45 nats of the running maximum; the series needs 46 nats and a
      falling term to stop, so it reaches that term or overflows first.
      The one nat of slack covers float64's departures from concavity.
    - The series' absolute sum holds every term it reaches, so it is at
      least the largest counted term.  A counted lm above OVERFLOW_LOG
      makes the series overflow, which it reports as NaN.
    - The density is M_a(y) <= 1/(e (1-a) y), because the integrand
      a Y e^(-a Y) of ``_m_wright_integral_rows`` is at most 1/e.  The
      signed sum misses M_a(y) by at most its truncation tail (e^-46 of the
      largest term) and rounding (below 1e-9 of the absolute sum even at
      j ~ 1e5).  Where the largest counted term exceeds 10 _M_WRIGHT_CANCEL
      times the bound, the signed sum is therefore below 1/_M_WRIGHT_CANCEL
      of the absolute sum, and the series' ratio exceeds the cut.
    """
    logy = np.log(ys)
    log_peak = np.minimum((alpha * math.log(alpha) + logy) / (1.0 - alpha), math.log(MAX_TERMS))
    first = np.clip(np.rint(np.exp(log_peak)) - _ROUTE_WINDOW // 2, 1.0, MAX_TERMS - _ROUTE_WINDOW)
    j = first[:, None] + np.arange(_ROUTE_WINDOW)
    lm = (j - 1.0) * logy[:, None] - (sc.gammaln(j) - sc.gammaln(alpha * j))
    run = np.maximum.accumulate(lm, axis=1)
    counted = np.empty(lm.shape, dtype=bool)
    counted[:, 0] = (first == 1.0) | (lm[:, 0] < lm[:, 1])
    np.logical_and.accumulate(lm[:, :-1] >= run[:, :-1] - 45.0, axis=1, out=counted[:, 1:])
    counted[:, 1:] &= counted[:, :1]
    with np.errstate(divide="ignore"):
        log_term = lm + np.log(np.abs(np.sin(math.pi * alpha * j))) - math.log(math.pi)
    log_term[~counted] = -math.inf
    log_bound = -1.0 - math.log(1.0 - alpha) - logy
    over = (counted & (lm > OVERFLOW_LOG)).any(axis=1)
    return over | (log_term.max(axis=1) - log_bound > math.log(10.0 * _M_WRIGHT_CANCEL))


def m_wright(alpha: float, y):
    """Density of the inverse-alpha-power of a one-sided stable variable.

    ``y`` may be a scalar or an array; an array is tabulated in one pass of
    the reflection series over all its points.  The series value is used
    where it is numerically trustworthy; the positive stable-integral
    representation takes over at the points where cancellation would cost
    more than 6 of float64's ~16 digits (large y), which keeps the
    stretched-exponential tail exact.  Points whose cancellation a bound
    from the series' largest terms and the density's size shows to be
    past that cut go to the integral without summing the series
    (``_m_wright_integral_first``); every point gets the value it would get
    after summing, bit for bit.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("m_wright requires alpha in (0, 1)")
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise DomainError("m_wright requires y >= 0")
    flat = y.ravel()
    out = np.full(flat.shape, 1.0 / math.gamma(1.0 - alpha))
    pos = np.flatnonzero(flat > 0.0)
    ys = flat[pos]
    # NaN marks the rows the integral serves
    value = np.full(ys.shape, math.nan)
    summed = np.flatnonzero(~_m_wright_integral_first(alpha, ys))
    series, cancel, _ = _m_wright_series_rows(alpha, ys[summed])
    series[~np.isfinite(series) | (cancel > _M_WRIGHT_CANCEL) | (series < 0.0)] = math.nan
    value[summed] = series
    bad = np.isnan(value)
    value[bad] = _m_wright_integral_rows(alpha, ys[bad])
    out[pos] = np.maximum(value, 0.0)
    out = out.reshape(y.shape)
    return float(out) if out.ndim == 0 else out


def stirling2(k: int, r: int) -> int:
    """Stirling number of the second kind S(k, r), exact integer recurrence."""
    if k < 0 or r < 0:
        raise DomainError("stirling2 requires k, r >= 0")
    if r > k:
        raise DomainError(f"stirling2 requires r <= k, got k={k}, r={r}")
    return _stirling2(k, r)


@lru_cache(maxsize=None)
def _stirling2(k: int, r: int) -> int:
    if r > k:
        return 0
    if k == 0:
        return 1 if r == 0 else 0
    if r == 0:
        return 0
    return r * _stirling2(k - 1, r) + _stirling2(k - 1, r - 1)


def bell_partial(n: int, k: int, x) -> float:
    """Partial Bell polynomial B_{n,k}(x_1, ..., x_{n-k+1})."""
    if k < 0 or n < 0 or k > n:
        raise DomainError(f"bell_partial requires 0 <= k <= n, got n={n}, k={k}")
    xs = list(x)
    if n - k + 1 > len(xs) and n > 0 and k > 0:
        raise DomainError(
            f"bell_partial needs at least {n - k + 1} entries of x, got {len(xs)}"
        )
    table = np.zeros((n + 1, k + 1))
    table[0, 0] = 1.0
    # only entries with nn - kk <= n - k feed B_{n,k}; others would demand
    # more x entries than the contract supplies
    for nn in range(1, n + 1):
        for kk in range(max(1, nn - (n - k)), min(nn, k) + 1):
            s = 0.0
            for i in range(1, nn - kk + 2):
                s += math.comb(nn - 1, i - 1) * xs[i - 1] * table[nn - i, kk - 1]
            table[nn, kk] = s
    return float(table[n, k])


def chi2_sf(x: float, df: float) -> float:
    """Upper-tail probability of the chi-square distribution.

    Regularized upper incomplete gamma Q(df/2, x/2).
    """
    if not math.isfinite(df) or df <= 0:
        raise DomainError(f"chi2_sf requires df > 0, got {df!r}")
    if not math.isfinite(x) or x < 0:
        raise DomainError(f"chi2_sf requires x >= 0, got {x!r}")
    return float(sc.gammaincc(df / 2.0, x / 2.0))
