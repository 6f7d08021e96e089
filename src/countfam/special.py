"""Special functions underpinning the count distributions.

The Mittag-Leffler-type series here alternate violently for negative
arguments.  One float64 engine, ``_series_rows``, sums them all -- the
three-parameter Mittag-Leffler and Wright functions one argument at a time,
the M-Wright density for a whole array of points -- in log-magnitude/sign
form, in NumPy blocks of terms, with an explicit stopping rule and the
cancellation ratio its callers use to refuse a cancellation-destroyed
answer.  Where the float64 series is hopeless but the value is still
representable, an arbitrary-precision fallback re-sums the same series with
enough guard digits; for the M-Wright density, points whose sum
cancellation would spoil go to a positive integral form instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp
import numpy as np
from scipy import special as sc

from .errors import CancellationError, ConvergenceError, DomainError, EvaluationError

# Plain stopping rule of the package's short positive or scalar sums: a
# relative-term threshold sustained over several consecutive terms.
REL_TOL = 1e-15
CONSECUTIVE = 5
# Term budget of the float64 series engine.
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
_MP_KEEP = 20  # digits a high-precision re-sum keeps past its cancellation


@dataclass(frozen=True)
class SeriesValue:
    """Result of a truncated series evaluation.

    ``est_truncation_error`` estimates the discarded tail.  The float64
    engine takes it from its stopping term n: with m(r) the magnitudes its
    stopping rule tests and q = m(n) / m(n - 1) < 1, it is m(n) q / (1 - q),
    a geometric tail at the stopping ratio, which bounds the tail while the
    ratios keep falling.  A high-precision re-sum reports 1e-15 of the
    value, and a zero argument 0.
    """

    value: float
    terms_used: int
    est_truncation_error: float

    def __float__(self):
        return self.value


def trigamma(z):
    """psi'(z) = sum_{r>=0} (z+r)^-2 for z > 0, scalar or array: the Hurwitz
    zeta function zeta(2, z), which SciPy's polygamma(1, z) also returns."""
    z = np.asarray(z, dtype=float)
    if np.any(z <= 0):
        raise DomainError("trigamma requires z > 0")
    out = sc.zeta(2.0, z)
    return float(out) if out.ndim == 0 else out


# Size of the series engine's temporaries: blocks of r grow to at most
# _SERIES_BLOCK terms, and each (rows x r) array has at most
# _SERIES_BLOCK_CELLS cells, so node sets whose rows run to MAX_TERMS stay
# within a few MB.
_SERIES_BLOCK = 4096
_SERIES_BLOCK_CELLS = 32_768


def _series_rows(logz, coef, n_terms):
    """Sum sign(r) exp(r log|z| - base(r) + log_s(r)), r = 0 .. n_terms - 1,
    for an array of log|z|, one row each.

    ``coef(r)`` gives (base, log_s, sign) for a block of r (a float array),
    once per block for all rows, so the sign of z belongs in ``sign``.  The
    rows advance together through blocks of r, each carrying its running
    maximum log-magnitude, previous term and its signed and absolute sums
    (in a frame shifted by its largest added term).  A row stops at the
    first term past r = 7 whose lm(r) = r log|z| - base(r) is falling and
    lies 46 below its running maximum; lm leaves out ``log_s``, so a sine's
    zeros or a reciprocal gamma's poles stop no row.  A row whose running
    maximum passes OVERFLOW_LOG stops with value NaN and cancellation inf.
    No block or per-row reduction depends on the other rows, so a row gets
    the same bits alone as in any array.

    Returns arrays (value, cancel_ratio, max_logmag, stop), ``stop`` being
    the r of a row's stopping term (NaN where it reached n_terms).
    """
    n = len(logz)
    max_lm = np.full(n, -math.inf)
    prev = np.full(n, -math.inf)
    # a finite floor keeps the frame finite through blocks whose terms all
    # vanish
    shift = np.full(n, -1e308)
    acc = np.zeros(n)
    abs_acc = np.zeros(n)
    stop = np.full(n, math.nan)

    def advance(rows, r, base, log_s, sign):
        """Add the block's terms to ``rows``; return which rows finished."""
        lm = r * logz[rows, None] - base
        run_max = np.maximum.accumulate(lm, axis=1)
        np.maximum(run_max, max_lm[rows, None], out=run_max)
        falling = np.empty(lm.shape, dtype=bool)
        falling[:, 0] = lm[:, 0] < prev[rows]
        np.less(lm[:, 1:], lm[:, :-1], out=falling[:, 1:])
        over = run_max > OVERFLOW_LOG
        event = over | ((r > 7.0) & (lm < run_max - 46.0) & falling)
        done = event.any(axis=1)
        last = np.where(done, event.argmax(axis=1), len(r) - 1)
        at_last = (np.arange(len(rows)), last)
        overflow = over[at_last]
        max_lm[rows] = run_max[at_last]
        prev[rows] = lm[:, -1]
        stop[rows] = np.where(done, r[last], math.nan)
        del run_max, falling, over, event
        # in place from here: lm becomes the shifted terms; terms past a
        # row's stopping term are not added
        lm += log_s
        lm[np.arange(len(r)) > last[:, None]] = -math.inf
        new_shift = np.maximum(shift[rows], lm.max(axis=1))
        scale = np.exp(shift[rows] - new_shift)
        lm -= new_shift[:, None]
        t = np.exp(lm, out=lm)
        abs_acc[rows] = abs_acc[rows] * scale + t.sum(axis=1)
        t *= sign
        acc[rows] = acc[rows] * scale + t.sum(axis=1)
        shift[rows] = new_shift
        acc[rows[done & overflow]] = math.nan
        return done

    rows = np.arange(n)
    r0, width = 0, 16
    while rows.size and r0 < n_terms:
        # most rows stop within a few dozen terms: blocks start narrow and
        # widen while rows run on
        width = min(2 * width, _SERIES_BLOCK, n_terms - r0)
        r = np.arange(r0, r0 + width, dtype=float)
        base, log_s, sign = coef(r)
        group = max(_SERIES_BLOCK_CELLS // width, 1)
        done = np.concatenate([
            advance(rows[g:g + group], r, base, log_s, sign)
            for g in range(0, rows.size, group)
        ])
        rows = rows[~done]
        r0 += width
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        value = np.where(acc != 0.0, np.sign(acc) * np.exp(shift + np.log(np.abs(acc))), 0.0)
        floor = 5e-324 / np.maximum(np.exp(np.minimum(shift, 0.0)), 5e-324)
        cancel = np.where(abs_acc == 0.0, 1.0, abs_acc / np.maximum(np.abs(acc), floor))
    cancel[np.isnan(acc)] = math.inf
    return value, cancel, max_lm, stop


def _scan_max_log(coef, z, what, block=4096, max_r=2_000_000):
    """Largest log term magnitude of the series ``coef`` gives at z != 0,
    scanned in blocks of r without summing (sizes a high-precision re-sum)."""
    logz = math.log(abs(z))
    best = -math.inf
    for start in range(0, max_r, block):
        r = np.arange(start, start + block, dtype=float)
        base, log_s, _ = coef(r)
        lm = r * logz - base
        best = max(best, float((lm + log_s).max()))
        if lm[-1] < best - 60.0:
            return best
    raise ConvergenceError(f"{what}: magnitude scan exhausted its budget")


def _series_or_resum(what, method, coef, z, resum):
    """A one-row series at z != 0: the engine's float64 value, or a re-sum.

    ``resum(max_logmag)`` re-sums in high precision, sized from the largest
    log term: the engine's, or ``_scan_max_log``'s where the engine's terms
    overflow or it does not stop.  "auto" re-sums past AUTO_CANCEL_LIMIT;
    "series" raises instead, past CANCEL_LIMIT; "exact" re-sums at once.
    """
    if method == "exact":
        value, n = resum(_scan_max_log(coef, z, what))
        return SeriesValue(value, n, abs(value) * 1e-15)
    logz = math.log(abs(z))
    value, cancel, max_logmag, stop = (
        float(a[0]) for a in _series_rows(np.array([logz]), coef, MAX_TERMS)
    )
    if math.isnan(value) or math.isnan(stop):
        if method == "series" and math.isnan(value):
            raise EvaluationError(
                f"{what}: term magnitude exceeds the float64 overflow budget; "
                "use the Monte Carlo or integral representation"
            )
        if method == "series":
            raise ConvergenceError(f"{what}: no convergence within {MAX_TERMS} terms")
        max_logmag = _scan_max_log(coef, z, what)
    elif cancel <= (CANCEL_LIMIT if method == "series" else AUTO_CANCEL_LIMIT):
        # the stopping term and the one before it, as the engine computed them
        r = np.array([stop - 1.0, stop])
        lm_prev, lm_stop = r * logz - coef(r)[0]
        fall = lm_prev - lm_stop
        log_tail = lm_stop - fall - math.log1p(-math.exp(-fall))
        tail = math.exp(log_tail) if log_tail < 709.0 else math.inf
        return SeriesValue(value, int(stop) + 1, tail)
    elif method == "series":
        raise CancellationError(
            f"{what}: cancellation ratio {cancel:.2e} exceeds "
            f"{CANCEL_LIMIT:.0e}; use the Monte Carlo path or method='auto'"
        )
    value, n = resum(max_logmag)
    return SeriesValue(value, n, abs(value) * 1e-15)


def _prabhakar_coef(eta, nu, tau, w):
    """(base, log_s, sign) of the Prabhakar series' term r for ``_series_rows``."""
    lg_tau = math.lgamma(tau)

    def coef(r):
        base = sc.gammaln(r + 1.0) + sc.gammaln(eta * r + nu) - sc.gammaln(tau + r) + lg_tau
        sign = np.where(r % 2.0 == 0.0, 1.0, -1.0) if w < 0 else np.ones_like(r)
        return base, np.zeros_like(r), sign

    return coef


def _mp_resum(what, max_logmag, series):
    """Re-sum in high precision; ``series(dps)`` returns (total, largest
    term magnitude, terms used) summed at ``dps`` digits.  The first sum
    works 40 digits past ``max_logmag``; a total left with fewer than
    _MP_KEEP digits is summed again with the lost digits added, up to MAX_DPS.
    """
    dps = int(max(max_logmag, 0.0) / math.log(10)) + 40
    while dps <= MAX_DPS:
        with mp.workdps(dps):
            total, peak, n = series(dps)
            # a total that cancels to 0 lost every digit
            lost = float(mp.log10(peak / abs(total))) if total else dps
        if dps - lost >= _MP_KEEP:
            return float(total), n
        dps = int(lost) + 40
    raise EvaluationError(
        f"{what}: cancellation beyond the high-precision budget "
        f"(would need ~{dps} digits); use the Monte Carlo path"
    )


def _prabhakar_mp(eta, nu, tau, w, max_logmag):
    """Re-sum the three-parameter Mittag-Leffler series in high precision.

    Reached when float64 cancellation ruins the direct sum, or at once for
    method="exact".  For w > 0 every term is positive, so a largest term
    past the float64 budget means the value itself overflows.
    """
    if w > 0 and max_logmag > OVERFLOW_LOG:
        raise EvaluationError("prabhakar_ml: value exceeds the float64 range")

    def series(dps):
        e_, n_, t_, w_ = mp.mpf(eta), mp.mpf(nu), mp.mpf(tau), mp.mpf(w)
        term = mp.exp(-mp.loggamma(n_))
        total = term
        peak = abs(term)
        j = 0
        lg_prev = mp.loggamma(n_)
        while j < 2 * MAX_TERMS:
            lg_next = mp.loggamma(e_ * (j + 1) + n_)
            term = term * (t_ + j) * w_ / (j + 1) * mp.exp(lg_prev - lg_next)
            total += term
            peak = max(peak, abs(term))
            lg_prev = lg_next
            j += 1
            if j > 8 and abs(term) < mp.mpf(10) ** (-dps) * abs(total) + mp.mpf(10) ** (-dps - 30):
                return total, peak, j + 1
        raise ConvergenceError("high-precision series did not converge")

    return _mp_resum("prabhakar_ml", max_logmag, series)


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

    if w == 0.0:
        return SeriesValue(math.exp(-math.lgamma(nu)), 1, 0.0)
    return _series_or_resum(
        "prabhakar_ml", method, _prabhakar_coef(eta, nu, tau, w), w,
        lambda max_logmag: _prabhakar_mp(eta, nu, tau, w, max_logmag),
    )


def _wright_coef(xi, omega, z, r0):
    """(base, log_s, sign) of the Wright series' term r0 + r for ``_series_rows``.

    Where x = xi r + omega <= 0 the reciprocal gamma takes the reflection
    form 1/Gamma(x) = Gamma(1 - x) sin(pi x) / pi, whose sine is exactly 0
    at the poles.  Terms r0 on carry the factor z^r0 in ``base``.
    """
    log_pi = math.log(math.pi)
    log_z0 = r0 * math.log(abs(z))

    def coef(r):
        r = r + r0
        x = xi * r + omega
        pos = x > 0.0
        s = np.where(pos | (x == np.floor(x)), 0.0, np.sin(math.pi * x))
        with np.errstate(divide="ignore"):
            base = sc.gammaln(r + 1.0) + np.where(pos, sc.gammaln(x), -sc.gammaln(1.0 - x))
            log_s = np.where(pos, 0.0, np.log(np.abs(s)) - log_pi)
        sign = np.where(pos, 1.0, np.sign(s))
        if z < 0:
            sign *= np.where(r % 2.0 == 0.0, 1.0, -1.0)
        return base - log_z0, log_s, sign

    return coef


def _wright_mp(xi, omega, z, max_logmag):
    def series(dps):
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
                    return total, peak, r + 1
            else:
                small_run = 0
            zr *= z_
            fact *= r + 1
        raise ConvergenceError("wright_phi: high-precision series did not converge")

    return _mp_resum("wright_phi", max_logmag, series)


def wright_phi(xi: float, omega: float, z: float, method: str = "auto") -> SeriesValue:
    """Wright function sum_r z^r / (r! Gamma(xi r + omega)) for xi > -1.

    Terms where Gamma hits a pole vanish through the reciprocal gamma, so
    negative xi is handled without special-casing.  As with prabhakar_ml,
    ``method='series'`` refuses on catastrophic cancellation while the
    default re-sums in high precision.
    """
    if not math.isfinite(xi) or xi <= -1:
        raise DomainError("wright_phi requires xi > -1")
    if not math.isfinite(omega):
        raise DomainError(f"wright_phi requires finite omega, got {omega!r}")
    if method not in ("auto", "series"):
        raise ValueError(f"unknown method {method!r}")
    if z == 0.0:
        return SeriesValue(float(sc.rgamma(omega)), 1, 0.0)
    # leading terms at the poles of Gamma vanish, but their reflection
    # bound would set the scale of the stopping rule: start after them
    r0 = 0
    while r0 < MAX_TERMS and xi * r0 + omega <= 0.0 and (xi * r0 + omega) % 1.0 == 0.0:
        r0 += 1
    return _series_or_resum(
        "wright_phi", method, _wright_coef(xi, omega, z, r0), z,
        lambda max_logmag: _wright_mp(xi, omega, z, max_logmag),
    )


def _m_wright_series_rows(alpha, ys, max_terms=MAX_TERMS):
    """Reflection series of ``_m_wright_series`` for an array of y > 0.

    The terms j = 1 .. max_terms - 1, as ``_series_rows`` terms r = j - 1
    at z = -y.  Returns arrays (value, cancel_ratio, max_logmag).
    """
    log_pi = math.log(math.pi)

    def coef(r):
        j = r + 1.0
        s = np.sin(math.pi * alpha * j)
        with np.errstate(divide="ignore"):
            log_s = np.log(np.abs(s)) - log_pi
        sign = np.sign(s) * np.where(r % 2.0 == 0.0, 1.0, -1.0)
        return sc.gammaln(j) - sc.gammaln(alpha * j), log_s, sign

    return _series_rows(np.log(ys), coef, max_terms - 1)[:3]


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
# Where the Kanter integral inverts log a(s): below s = -40, pi - e^s rounds
# to pi and log a is linear in s, so 64 points cover [-700, -40) and 960 the
# rest, up to s = log pi (u = 0).
_KANTER_TABLE = np.concatenate([
    np.linspace(-700.0, -40.0, 64, endpoint=False), np.linspace(-40.0, math.log(math.pi), 960)
])


def _m_wright_integral_rows(alpha, ys):
    """Positive-integrand integral form of the same density, for an array of y > 0.

    Obtained from the Kanter representation of the one-sided stable law: with
    a(u) = sin((1-a)u) sin(a u)^(a/(1-a)) / sin(u)^(1/(1-a)), increasing on
    (0, pi) from a(0+) = a0 = (1-a) a^(a/(1-a)), and Y = y^(1/(1-a)), the
    density is (1/pi) int a(u) Y exp(-a(u) Y) du / ((1-a) y).  No
    cancellation at any y, so it serves as the large-argument branch.

    Its domain is a0 Y >= e^-4, where it agrees with a bisection-placed
    rule to about 1e-11.  Below that the peak moves towards u = pi and the
    integrand's flat left side spreads over most of (0, pi), which the
    rule resolves less well: about 1e-10 off at a0 Y = e^-20, and wrong by
    up to 60 % below e^-47, where the left cut comes in
    ((0.013, 6.6e-25) gives 0.453 against M(0) = 1/Gamma(1 - a) = 0.992).
    ``m_wright`` sends it only rows whose series it refuses, and those lie
    well inside the domain (a0 Y above e^1.8 over the tested range).

    The integrand peaks where a(u) Y = 1 (at u = 0 once a0 Y >= 1).  Each
    side of the peak, down to where the integrand is e^-46 of its peak, gets
    one Gauss-Legendre rule in s = log(pi - u), which spreads out both the
    bell at small u and the wall that a(u) raises in front of u = pi.

    No bisection places the peak and the cuts.  In z = log(a Y) the peak is
    at z = max(log(a0 Y), 0), and the cuts are the two roots of
    z - e^z = k, k being the peak's z - e^z less 46: fixed-point steps find
    the upper one, and the lower one is k itself in float64.  Each is then a
    root of log a(s) = z - log Y.  log a falls in s, from linear in s at
    u -> pi to flat like u^2 at u = 0, where h(s) = sqrt(log a(s) - log a0)
    is nearly linear instead.  So h is tabulated once per call on
    _KANTER_TABLE and inverted by linear interpolation.  That places the
    roots within about 2e-4 in s, closer than the rules' values can tell
    apart: the cuts lie e^-46 below the peak, and a split near the peak
    serves as well as one on it.  A piece of zero width (the second, once
    the peak is at u = 0) adds nothing and is skipped.  Values below the
    smallest normal double are returned as 0.
    """
    c = 1.0 / (1.0 - alpha)
    log_yc = c * np.log(ys)
    log_a0 = alpha * c * math.log(alpha) + math.log(1.0 - alpha)
    s_max = math.log(math.pi)

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

    h_tab = np.sqrt(np.maximum(log_a(_KANTER_TABLE) - log_a0, 0.0))

    def invert(target):
        """The s where log a(s) = target, for each row (h falls in s)."""
        return np.interp(-np.sqrt(np.maximum(target - log_a0, 0.0)), -h_tab, _KANTER_TABLE)

    z0 = log_a0 + log_yc
    z_peak = np.maximum(z0, 0.0)
    k = z_peak - np.exp(np.minimum(z_peak, OVERFLOW_LOG)) - _KANTER_DEPTH
    # above the peak z = log(z - k) contracts by 1/(z - k) <= 1/46 a step;
    # below it z = k + e^z is k, as e^k <= e^-46 is below k's rounding
    z_hi = z_peak + 1.0
    for _ in range(6):
        z_hi = np.log(z_hi - k)
    s_right = invert(z_hi - log_yc)
    s_peak = np.where(z0 < 0.0, invert(-log_yc), s_max)
    s_left = np.where(z0 < k, invert(k - log_yc), s_max)

    x, w = _leggauss(_KANTER_NODES)
    total = np.zeros(ys.shape)
    for lo, hi in ((s_right, s_peak), (s_peak, s_left)):
        rows = np.flatnonzero(hi > lo)
        half = 0.5 * (hi[rows] - lo[rows])[:, None]
        s = half * x + (lo[rows, None] + half)
        # log of a Y exp(-a Y) / Y, then ds = du / (pi - u), and pi - u = e^s
        la = log_a(s)
        lyc = log_yc[rows, None]
        log_f = la - np.exp(np.minimum(la + lyc, OVERFLOW_LOG))
        total[rows] += (np.exp(log_f + lyc + s) * (half * w)).sum(axis=1)
    value = total / (math.pi * (1.0 - alpha) * ys)
    # a subnormal value has lost digits to gradual underflow, and which of
    # them survive depends on where the nodes fall
    value[value < np.finfo(float).tiny] = 0.0
    return value


def _m_wright_integral(alpha, y):
    """``_m_wright_integral_rows`` at one y > 0."""
    return float(_m_wright_integral_rows(alpha, np.array([float(y)]))[0])


# The series' value is refused where its cancellation ratio exceeds
# _M_WRIGHT_CANCEL; rows whose ratio provably exceeds it ten times over are
# sent to the integral without summing (``_m_wright_integral_first``).
_M_WRIGHT_CANCEL = 1e6
_ROUTE_WINDOW = 9
# Rows whose density bound lies below e^_M_WRIGHT_ZERO_LOG are 0: every
# node of their Kanter integral underflows.
_M_WRIGHT_ZERO_LOG = -800.0


def _m_wright_log_bound(alpha, logy):
    """log of an upper bound on M_a(y), from log y (an array, +inf allowed).

    In the Kanter form of ``_m_wright_integral_rows`` the density is the mean
    over u in (0, pi) of g(a(u) Y) / ((1-a) y), with g(t) = t e^-t.  g is at
    most g(1) = 1/e and falls for t >= 1, and a(u) >= a0, so
    M_a(y) <= g(max(a0 Y, 1)) / ((1-a) y): 1/(e (1-a) y) while a0 Y < 1,
    then the stretched-exponential tail a0 Y e^(-a0 Y) / ((1-a) y).  Holding
    log(a0 Y) at OVERFLOW_LOG only raises the bound.
    """
    c = 1.0 / (1.0 - alpha)
    log_a0 = alpha * c * math.log(alpha) + math.log(1.0 - alpha)
    log_t = np.clip(log_a0 + c * logy, 0.0, OVERFLOW_LOG)
    return log_t - np.exp(log_t) - math.log(1.0 - alpha) - logy


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
    - ``_m_wright_log_bound`` bounds the density: 1/(e (1-a) y), and its
      stretched-exponential tail once a0 Y >= 1.  The signed sum misses
      M_a(y) by at most its truncation tail (e^-46 of the largest term) and
      rounding (below 1e-9 of the absolute sum even at j ~ 1e5).  Where the
      largest counted term exceeds 10 _M_WRIGHT_CANCEL times the bound, the
      signed sum is therefore below 1/_M_WRIGHT_CANCEL of the absolute sum,
      and the series' ratio exceeds the cut.
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
    log_bound = _m_wright_log_bound(alpha, logy)
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
    after summing, bit for bit.  Points where ``_m_wright_log_bound`` puts
    the density below e^-800, +inf among them, are 0 without either: the
    series refuses them and their integral underflows to 0.  NaN and
    negative y raise DomainError.
    """
    if not (0.0 < alpha < 1.0):
        raise DomainError("m_wright requires alpha in (0, 1)")
    y = np.asarray(y, dtype=float)
    if not np.all(y >= 0.0):
        raise DomainError("m_wright requires y >= 0 (not NaN)")
    flat = y.ravel()
    out = np.full(flat.shape, 1.0 / math.gamma(1.0 - alpha))
    pos = np.flatnonzero(flat > 0.0)
    ys = flat[pos]
    value = np.zeros(ys.shape)
    live = np.flatnonzero(_m_wright_log_bound(alpha, np.log(ys)) >= _M_WRIGHT_ZERO_LOG)
    # NaN marks the rows the integral serves
    value[live] = math.nan
    summed = live[~_m_wright_integral_first(alpha, ys[live])]
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
