"""Weighted Poisson distributions with gamma-ratio weights.

The weight w(k) = Gamma(k + gamma) / Gamma(alpha k + beta)^nu reweights a
Poisson(lambda) law after renormalization.  Special parameter slices recover
the Poisson, COM-Poisson and hyper-Poisson laws plus several Mittag-Leffler
type variants; two three-parameter slices ("model I": alpha = 1, gamma = beta
and "model II": alpha = nu = 1) admit one-step pmf recursions and cover both
over- and underdispersion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np
from scipy import special as sc

from .errors import ConvergenceError, DomainError, EvaluationError
from .moments import FactorialMomentSequence, SummaryStats, summary_from_factorial
from .special import _SignedLogSum, trigamma

_ETA_EPS = 0.9       # multiplier certificate threshold
_ETA_BUDGET = 100_000
_DEC_RUN = 3         # consecutive ratio decreases required by the certificate
_ETA_FIRST = 32      # terms in the first block of the eta sum
_ETA_BLOCK = 4096    # most terms in any later block


class SpecialCase(str, Enum):
    POISSON = "poisson"
    COM_POISSON = "com_poisson"
    HYPER_POISSON = "hyper_poisson"
    ALT_MITTAG_LEFFLER = "alt_mittag_leffler"
    FRACTIONAL_COM_POISSON = "fractional_com_poisson"
    ALT_GENERALIZED_ML = "alt_generalized_ml"
    MODEL_I = "model_i"
    MODEL_I_2PARAM = "model_i_2param"
    MODEL_II = "model_ii"
    MODEL_II_2PARAM = "model_ii_2param"


@dataclass(frozen=True)
class WpdParams:
    """Parameters (alpha, beta, gamma, nu, lam) of the gamma-ratio weighted Poisson family.

    Requires gamma > 0, min(alpha, beta, nu) >= 0, alpha + beta > 0 and
    lam > 0.  beta = 0 is admitted only as the model-I limit gamma = beta
    with nu >= 1 (the weight of the zero cell then vanishes for nu > 1).
    """

    alpha: float
    beta: float
    gamma: float
    nu: float
    lam: float
    tag: SpecialCase | None = None

    def __post_init__(self):
        a, b, g, v, lam = self.alpha, self.beta, self.gamma, self.nu, self.lam
        if not all(math.isfinite(t) for t in (a, b, g, v, lam)):
            raise DomainError("parameters must be finite")
        if min(a, b, v) < 0:
            raise DomainError("alpha, beta, nu must be >= 0")
        if not a + b > 0:
            raise DomainError("alpha + beta must be > 0")
        if not lam > 0:
            raise DomainError("lam must be > 0")
        if b == 0.0:
            if not (g == 0.0 and v >= 1.0 and a == 1.0):
                raise DomainError(
                    "beta = 0 is only admitted in the model-I limit "
                    "(alpha = 1, gamma = beta, nu >= 1)"
                )
        elif not g > 0:
            raise DomainError("gamma must be > 0")

    @property
    def is_model_i_form(self) -> bool:
        return self.alpha == 1.0 and self.gamma == self.beta


# the free parameters of each named slice, in the order they are passed
SLICE_PARAMS = {
    SpecialCase.POISSON: ("lam",),
    SpecialCase.COM_POISSON: ("lam", "nu"),
    SpecialCase.HYPER_POISSON: ("lam", "beta"),
    SpecialCase.ALT_MITTAG_LEFFLER: ("lam", "alpha", "beta"),
    SpecialCase.FRACTIONAL_COM_POISSON: ("lam", "alpha", "beta", "nu"),
    SpecialCase.ALT_GENERALIZED_ML: ("lam", "alpha", "beta", "gamma"),
    SpecialCase.MODEL_I: ("lam", "beta", "nu"),
    SpecialCase.MODEL_I_2PARAM: ("lam", "beta"),
    SpecialCase.MODEL_II: ("lam", "beta", "gamma"),
    SpecialCase.MODEL_II_2PARAM: ("beta", "gamma"),
}


def make_special_case(tag: SpecialCase | str, **free) -> WpdParams:
    """Instantiate a named member of the family from its free parameters."""
    tag = SpecialCase(tag)
    need = SLICE_PARAMS[tag]
    missing = set(need) - set(free)
    extra = set(free) - set(need)
    if missing or extra:
        raise DomainError(f"{tag.value} takes exactly {need}, got {sorted(free)}")
    f = dict(free)
    if tag is SpecialCase.POISSON:
        return WpdParams(1.0, 1.0, 1.0, 1.0, f["lam"], tag=tag)
    if tag is SpecialCase.COM_POISSON:
        return WpdParams(1.0, 1.0, 1.0, f["nu"], f["lam"], tag=tag)
    if tag is SpecialCase.HYPER_POISSON:
        return WpdParams(1.0, f["beta"], 1.0, 1.0, f["lam"], tag=tag)
    if tag is SpecialCase.ALT_MITTAG_LEFFLER:
        return WpdParams(f["alpha"], f["beta"], 1.0, 1.0, f["lam"], tag=tag)
    if tag is SpecialCase.FRACTIONAL_COM_POISSON:
        return WpdParams(f["alpha"], f["beta"], 1.0, f["nu"], f["lam"], tag=tag)
    if tag is SpecialCase.ALT_GENERALIZED_ML:
        return WpdParams(f["alpha"], f["beta"], f["gamma"], 1.0, f["lam"], tag=tag)
    if tag is SpecialCase.MODEL_I:
        return WpdParams(1.0, f["beta"], f["beta"], f["nu"], f["lam"], tag=tag)
    if tag is SpecialCase.MODEL_I_2PARAM:
        if not f["beta"] > 0:
            raise DomainError("model_i_2param requires beta > 0")
        return WpdParams(1.0, f["beta"], f["beta"], f["beta"], f["lam"], tag=tag)
    if tag is SpecialCase.MODEL_II:
        return WpdParams(1.0, f["beta"], f["gamma"], 1.0, f["lam"], tag=tag)
    return WpdParams(1.0, f["beta"], f["gamma"], 1.0, 1.0, tag=tag)


def log_weight(p: WpdParams, k: int) -> float:
    """log w(k); -inf marks a vanishing weight (the beta = 0 zero cell)."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if p.beta == 0.0:
        # model-I limit: w(k) = Gamma(k + beta)^(1 - nu) as beta -> 0
        if k == 0:
            return 0.0 if p.nu == 1.0 else -math.inf
        return (1.0 - p.nu) * math.lgamma(k)
    return math.lgamma(k + p.gamma) - p.nu * math.lgamma(p.alpha * k + p.beta)


def weight(p: WpdParams, k: int) -> float:
    """Weight w(k) = Gamma(k + gamma) / Gamma(alpha k + beta)^nu."""
    lw = log_weight(p, k)
    if lw > 709.0:
        raise EvaluationError(f"weight overflows at k = {k} (log w = {lw:.1f})")
    return math.exp(lw)


@dataclass(frozen=True)
class EtaValue:
    """Truncated normalizing constant sum_k lam^k w(k) / k!.

    ``value`` is the partial sum plus the certified geometric remainder
    bound, so it always dominates the partial sum; ``remainder_bound``
    dominates the discarded tail.  ``log_value`` is carried for downstream
    log-space work.
    """

    value: float
    k_trunc: int
    remainder_bound: float
    log_value: float


def _log_term(p: WpdParams, k: int) -> float:
    return k * math.log(p.lam) - math.lgamma(k + 1) + log_weight(p, k)


@lru_cache(maxsize=4)
def _block_grid(s: int, e: int) -> tuple[np.ndarray, np.ndarray]:
    """k = s .. e and log k! for one block of the eta sum (read-only).

    The blocks always cover the same ranges of k, so the first few are kept.
    """
    k = np.arange(s, e + 1, dtype=float)
    log_fact = sc.gammaln(k + 1.0)
    k.flags.writeable = log_fact.flags.writeable = False
    return k, log_fact


def _log_terms(p: WpdParams, k: np.ndarray, log_fact: np.ndarray) -> np.ndarray:
    """log(lam^k w(k) / k!) over an array of k, the array form of ``_log_term``.

    ``log_fact`` holds log k!; a Gamma factor whose argument is k + 1 (gamma = 1,
    or alpha = beta = 1) is read from it instead of evaluated again.
    """
    lt = k * math.log(p.lam) - log_fact
    if p.beta == 0.0:
        # model-I limit; gammaln(0) = inf makes the zero cell -inf for nu > 1,
        # and at nu = 1 every weight is 1
        if p.nu != 1.0:
            lt += (1.0 - p.nu) * sc.gammaln(k)
        return lt
    num = log_fact if p.gamma == 1.0 else sc.gammaln(k + p.gamma)
    if p.alpha == 1.0:
        den = log_fact if p.beta == 1.0 else sc.gammaln(k + p.beta)
    else:
        den = sc.gammaln(p.alpha * k + p.beta)
    lt += num - (den if p.nu == 1.0 else p.nu * den)
    return lt


def _fold(shift: float, total: float, lt: np.ndarray, frame: float) -> float:
    """total * exp(shift) + sum(exp(lt)), summed with math.fsum and returned
    as a multiple of exp(frame).

    ``frame`` is the log of the sum to within rounding, so every addend is
    at most about 1 and the result is about 1.
    """
    return math.fsum([total * math.exp(shift - frame), *np.exp(lt - frame).tolist()])


@lru_cache(maxsize=4096)
def eta(p: WpdParams) -> EtaValue:
    """Normalizing constant of the weighted law, with a certified truncation bound.

    Terms are accumulated until the term multiplier is certified monotonically
    decreasing below 0.9 and the geometric tail bound falls below 1e-15 of
    the partial sum.  Raises ConvergenceError when the certificate cannot be
    reached within budget (which happens when lam^(1/nu) is astronomically
    large) and EvaluationError when the value itself overflows float64.

    Step k looks at term k + 1.  The steps run in blocks, ``_ETA_FIRST``
    wide and then doubling up to ``_ETA_BLOCK``; each block evaluates its
    log terms with gammaln and finds its first stopping step with array
    operations.  From block to block it carries the partial sum (a total
    in the frame exp(shift)), the previous ratio, the run of non-increasing
    ratios and the certificate.  Most sums stop inside the first block.
    """
    log_tol = math.log(1e-15)
    s, width = 0, _ETA_FIRST
    shift, total = -math.inf, 0.0
    prev_ratio, dec_run, certified = math.inf, 0, False
    while s < _ETA_BUDGET:
        k, log_fact = _block_grid(s, min(s + width, _ETA_BUDGET))
        lt = _log_terms(p, k, log_fact)
        if s == 0:
            if lt[0] == -math.inf:  # vanishing zero cell (beta = 0, nu > 1)
                k, lt, s = k[1:], lt[1:], 1
            shift, total = float(lt[0]), 1.0
        # the block's steps are s .. s + n - 1; lt[i] is term s + i
        n = len(lt) - 1
        steps = k[:-1]
        ratio = np.exp(np.minimum(lt[1:] - lt[:-1], 700.0))
        before = np.empty(n)
        before[0] = prev_ratio
        before[1:] = ratio[:-1]
        # non-increasing within roundoff keeps the geometric bound valid
        # (constant-ratio tails are genuinely geometric)
        steady = ratio <= before * (1.0 + 1e-12)
        # latest increase at or before each step (the carried run counts as
        # an increase just before the block) and latest ratio below 0.9; a
        # step is certified once such a ratio has come at least _DEC_RUN
        # steps into the current run (a carried certificate counts as one)
        reset = steps.copy()
        reset[steady] = s - 1.0 - dec_run
        np.maximum.accumulate(reset, out=reset)
        low = steps.copy()
        low[ratio >= _ETA_EPS] = s - 1.0 if certified else s - 1.0 - dec_run
        np.maximum.accumulate(low, out=low)
        cert = low >= reset + _DEC_RUN
        # log of the partial sum through term s + i
        log_part = lt.copy()
        log_part[0] = shift + math.log(total)
        np.logaddexp.accumulate(log_part, out=log_part)
        # geometric tail bound with epsilon = current (decreasing) ratio; a
        # certified ratio stays below 0.9 (1 + 1e-12)^budget < 0.99, so the
        # clamp only keeps log1p finite on the steps that are not certified
        log_bound = lt[1:] - np.log1p(-np.minimum(ratio, 0.99))
        stop = cert & (log_bound < log_part[:-1] + log_tol)
        i = int(stop.argmax())
        if stop[i]:
            frame = float(log_part[i])
            log_sum = frame + math.log(_fold(shift, total, lt[1:i + 1], frame))
            if log_sum > 709.0:
                raise EvaluationError("eta overflows float64 (log eta = %.1f)" % log_sum)
            lb = float(log_bound[i])
            bound = math.exp(lb) if lb > -745.0 else 5e-324
            return EtaValue(math.exp(log_sum) + bound, s + i, bound, log_sum)
        frame = float(log_part[-1])
        shift, total = frame, _fold(shift, total, lt[1:], frame)
        prev_ratio, dec_run, certified = float(ratio[-1]), s + n - 1 - int(reset[-1]), bool(cert[-1])
        s += n
        width = min(2 * width, _ETA_BLOCK)
    raise ConvergenceError(
        "eta: term multiplier not certified decreasing below "
        f"{_ETA_EPS} within {_ETA_BUDGET} terms"
    )


def log_eta(p: WpdParams) -> float:
    return eta(p).log_value


@lru_cache(maxsize=None)
def slice_jacobian(tag: SpecialCase) -> np.ndarray:
    """The constant (4 x d) map from a slice's free parameters to (lam, beta, gamma, nu).

    Every slice sets these four linearly (a free parameter, a tie such as
    gamma = beta, or a constant), so one column per free parameter is the
    change its unit step makes.  Read-only.
    """
    names = SLICE_PARAMS[tag]

    def base(theta):
        p = make_special_case(tag, **dict(zip(names, theta)))
        return np.array([p.lam, p.beta, p.gamma, p.nu])

    at = (2.0,) * len(names)
    steps = [at[:j] + (3.0,) + at[j + 1:] for j in range(len(names))]
    jac = np.column_stack([base(step) - base(at) for step in steps])
    jac.flags.writeable = False
    return jac


def _log_term_derivatives(p: WpdParams, used: np.ndarray, k: np.ndarray):
    """d lt(k) / d (lam, beta, gamma, nu) at alpha = 1 as a (4 x len(k))
    array, and the second derivatives that are not 0 as ((a, b), values);
    only the parameters in ``used`` are filled in."""
    first = np.zeros((4, len(k)))
    second = []
    if used[0]:
        first[0] = k / p.lam
        second.append(((0, 0), -k / p.lam**2))
    if used[1]:
        psi_b = sc.digamma(k + p.beta)
        first[1] = -p.nu * psi_b
        second.append(((1, 1), -p.nu * sc.polygamma(1, k + p.beta)))
        if used[3]:
            second.append(((1, 3), -psi_b))
    if used[3]:
        first[3] = -sc.gammaln(k + p.beta)
    if used[2]:
        first[2] = sc.digamma(k + p.gamma)
        second.append(((2, 2), sc.polygamma(1, k + p.gamma)))
    return first, second


def wpd_score(p: WpdParams, jac: np.ndarray, values: np.ndarray, freqs: np.ndarray):
    """Log likelihood of a histogram, its gradient and its observed information.

    The free parameters map to (lam, beta, gamma, nu) by the constant
    ``jac`` (see ``slice_jacobian``); alpha must be 1.  At alpha = 1 the log
    term lt(k) = k log lam - log k! + log Gamma(k + gamma) - nu log Gamma(k + beta)
    has the derivatives k/lam, -nu psi(k + beta), psi(k + gamma) and
    -log Gamma(k + beta).  With q the law's own pmf, d log eta = E_q[d lt]
    and d^2 log eta = E_q[d^2 lt] + Cov_q[d lt]: one pass over
    k = 0 .. k_trunc, in blocks of at most ``_ETA_BLOCK`` terms, keeps the k
    where q does not underflow, and the moments are dot products over them.
    The data side is the same derivatives at ``values`` weighted by
    ``freqs``.  Raises what ``eta`` raises.
    """
    if p.alpha != 1.0 or p.beta == 0.0:
        raise DomainError("the score needs alpha = 1 and beta > 0")
    e = eta(p)
    kept = []
    for s in range(0, e.k_trunc + 1, _ETA_BLOCK):
        k = np.arange(s, min(s + _ETA_BLOCK, e.k_trunc + 1), dtype=float)
        lt = _log_terms(p, k, sc.gammaln(k + 1.0)) - e.log_value
        live = lt > -745.0
        if live.any():
            kept.append((k[live], lt[live]))
    k, lt = (np.concatenate(a) for a in zip(*kept))
    q = np.exp(lt)
    x = values.astype(float)
    lt_x = _log_terms(p, x, sc.gammaln(x + 1.0))
    n = float(freqs.sum())
    used = jac.any(axis=1)
    first, second = _log_term_derivatives(p, used, k)
    first_x, second_x = _log_term_derivatives(p, used, x)
    # the derivatives in the free parameters, one row per parameter
    d_lt = jac.T @ first
    mean = d_lt @ q
    grad = (jac.T @ first_x) @ freqs - n * mean
    centred = d_lt - mean[:, None]
    hess = -n * ((centred * q) @ centred.T)
    base = np.zeros((4, 4))
    for ((a, b), h), (_, h_x) in zip(second, second_x):
        base[a, b] = base[b, a] = h_x @ freqs - n * (h @ q)
    hess += jac.T @ base @ jac
    ll = float(lt_x @ freqs) - n * e.log_value
    return ll, grad, -hess


def wpd_pmf(p: WpdParams, x: int) -> float:
    """P(Y = x) = lam^x w(x) / (x! eta)."""
    if x < 0 or x != int(x):
        raise DomainError(f"x must be a non-negative integer, got {x!r}")
    lp = _log_term(p, int(x)) - log_eta(p)
    return math.exp(lp) if lp > -745.0 else 0.0


_RECURSIVE_TAGS = {
    SpecialCase.POISSON,
    SpecialCase.COM_POISSON,
    SpecialCase.HYPER_POISSON,
    SpecialCase.MODEL_I,
    SpecialCase.MODEL_I_2PARAM,
    SpecialCase.MODEL_II,
    SpecialCase.MODEL_II_2PARAM,
}


def pmf_multiplier(p: WpdParams, x):
    """One-step pmf ratio P(x+1)/P(x) for the tags that admit one.

    ``x`` is an integer or a float array of them; both go through the same
    expression.
    """
    tag = p.tag
    if tag in (SpecialCase.MODEL_I, SpecialCase.MODEL_I_2PARAM):
        return p.lam / ((x + 1.0) * (x + p.beta) ** (p.nu - 1.0))
    if tag in (SpecialCase.MODEL_II, SpecialCase.MODEL_II_2PARAM):
        return p.lam * (x + p.gamma) / ((x + 1.0) * (x + p.beta))
    if tag is SpecialCase.HYPER_POISSON:
        return p.lam / (x + p.beta)
    if tag is SpecialCase.COM_POISSON:
        return p.lam / (x + 1.0) ** p.nu
    if tag is SpecialCase.POISSON:
        return p.lam / (x + 1.0)
    raise DomainError(f"no pmf recursion for tag {tag!r}")


def _check_zero_cell(p: WpdParams):
    if p.beta == 0.0 and p.nu != 1.0:
        raise DomainError("no pmf recursion from a vanishing zero cell (beta = 0, nu > 1)")


def wpd_pmf_recursive(p: WpdParams, x_max: int) -> np.ndarray:
    """pmf on 0..x_max built from P(0) = w(0)/eta and the tag's multiplier."""
    if p.tag not in _RECURSIVE_TAGS:
        raise DomainError(f"no pmf recursion for tag {p.tag!r}")
    _check_zero_cell(p)
    out = np.empty(x_max + 1)
    out[0] = math.exp(log_weight(p, 0) - log_eta(p))
    out[1:] = pmf_multiplier(p, np.arange(float(x_max)))
    # the running product multiplies in the order of the step P(x+1) = P(x) m(x)
    return np.multiply.accumulate(out, out=out)


def wpd_pmf_table(p: WpdParams, x_max: int | None = None, cum_target: float = 1.0 - 1e-12) -> np.ndarray:
    """pmf table, extended until the cumulative mass exceeds ``cum_target``.

    Uses the tag recursion when available, the direct formula otherwise.
    """
    if x_max is not None:
        if p.tag in _RECURSIVE_TAGS:
            return wpd_pmf_recursive(p, x_max)
        return np.array([wpd_pmf(p, x) for x in range(x_max + 1)])
    if p.tag in _RECURSIVE_TAGS:
        _check_zero_cell(p)
    le = log_eta(p)
    out = [math.exp(log_weight(p, 0) - le)]
    cum = out[0]
    x = 0
    while cum < cum_target:
        if p.tag in _RECURSIVE_TAGS:
            nxt = out[x] * pmf_multiplier(p, x)
        else:
            lp = _log_term(p, x + 1) - le
            nxt = math.exp(lp) if lp > -745.0 else 0.0
        out.append(nxt)
        cum += nxt
        x += 1
        if x > 10_000_000:
            raise ConvergenceError("pmf table extension budget exceeded")
    return np.asarray(out)


def wpd_factorial_moments(p: WpdParams, R: int) -> FactorialMomentSequence:
    """a_r = lam^r eta(gamma + r, alpha r + beta) / eta(gamma, beta)."""
    if R < 0:
        raise DomainError("R must be >= 0")
    base = log_eta(p)
    a = [1.0]
    for r in range(1, R + 1):
        shifted = WpdParams(p.alpha, p.beta + p.alpha * r, p.gamma + r, p.nu, p.lam)
        a.append(math.exp(r * math.log(p.lam) + log_eta(shifted) - base))
    return FactorialMomentSequence(tuple(a))


def wpd_summary(p: WpdParams) -> SummaryStats:
    return summary_from_factorial(wpd_factorial_moments(p, 3))


def wpd_factorial_moments_faa(p: WpdParams, R: int, max_j: int = 400) -> FactorialMomentSequence:
    """Independent factorial-moment path through partial Bell polynomials.

    Expands the shifted normalizer coefficient-wise against the reciprocal
    of the base normalizer, whose coefficients come from the
    composite-derivative expansion D_i = sum_k (-1)^k k! w(0)^-(k+1)
    B_{i,k}(w(1), ..., w(i-k+1)) with partial Bell polynomials B.  The outer
    series only converges for lam inside the reciprocal's disc of analyticity
    (the normalizer's first complex zero); beyond that, and on overflow, the
    budget error is raised.  This route exists purely as an independent
    cross-check on the normalizer-ratio path.
    """
    if R < 0:
        raise DomainError("R must be >= 0")

    def A(j, r):
        return math.exp(
            math.lgamma(j + r + p.gamma) - p.nu * math.lgamma(p.alpha * (j + r) + p.beta)
        )

    a00 = A(0, 0)
    # Exponentially scaled Bell triangle: b[n][k] = B_{n,k} k! lam^n / n!
    # with x_i = A(i,0), which keeps every entry on the scale of the series
    # terms themselves (the raw triangle overflows by n ~ 100).  The scaled
    # recurrence is b[n][k] = (k/n) sum_i xt_i b[n-i][k-1] with
    # xt_i = lam^i A(i,0) / (i-1)!.
    xt: list = []
    bell = [[1.0]]
    # v[i] = lam^i D_i / i! -- the reciprocal-normalizer coefficients
    v = [1.0 / a00]

    def extend(n):
        while len(bell) <= n:
            m = len(bell)
            while len(xt) < m:
                i = len(xt) + 1
                xt.append(
                    math.exp(
                        i * math.log(p.lam)
                        + math.lgamma(i + p.gamma)
                        - p.nu * math.lgamma(p.alpha * i + p.beta)
                        - math.lgamma(i)
                    )
                )
            row = [0.0] * (m + 1)
            for k in range(1, m + 1):
                s = 0.0
                for i in range(1, m - k + 2):
                    s += xt[i - 1] * bell[m - i][k - 1]
                row[k] = s * k / m
            bell.append(row)
            vi = math.fsum(
                (-1.0) ** k * a00 ** (-(k + 1.0)) * row[k] for k in range(m + 1)
            )
            if not math.isfinite(vi):
                raise EvaluationError("Bell-polynomial moment path overflowed")
            v.append(vi)

    a = [1.0]
    for r in range(1, R + 1):
        def u(m):
            return math.exp(
                m * math.log(p.lam)
                + math.lgamma(m + r + p.gamma)
                - p.nu * math.lgamma(p.alpha * (m + r) + p.beta)
                - math.lgamma(m + 1)
            )

        total = 0.0
        small = 0
        for j in range(max_j):
            extend(j)
            term = math.fsum(u(j - i) * v[i] for i in range(j + 1))
            total += term
            if not math.isfinite(total):
                raise EvaluationError("Bell-polynomial moment path overflowed")
            # the Bell rows' conditioning degrades geometrically even while
            # their alternating combinations decay, so this cross-check path
            # stops at 1e-9 relative, safely before the noise takeover and
            # inside its 1e-8 agreement contract
            if abs(term) < 1e-9 * max(abs(total), 1e-300):
                small += 1
                if small >= 5:
                    break
            else:
                small = 0
        else:
            raise ConvergenceError("Bell-polynomial moment path exceeded its budget")
        a.append(p.lam**r * total)
    return FactorialMomentSequence(tuple(a))


# ---------------------------------------------------------------------------
# dispersion criteria
# ---------------------------------------------------------------------------

def dispersion_classify(p: WpdParams, y_max: float = 50.0, step: float = 0.1) -> str:
    """Classify by the log-convexity condition on the weight.

    The weight is log-convex (log-concave) iff nu lies below (above)
    trigamma(y + gamma) / (alpha^2 trigamma(alpha y + beta)) for every y >= 0;
    the ratio is scanned on a grid and closed with its tail limit 1/alpha.
    Returns 'overdispersed', 'underdispersed', 'equidispersed' (exact Poisson
    boundary) or 'indeterminate' when nu crosses the ratio's range.
    """
    if p.tag is SpecialCase.POISSON or (p.alpha == 1.0 and p.gamma == p.beta and p.nu == 1.0):
        return "equidispersed"
    if p.alpha == 0.0:
        # constant denominator: the weight is log-convex outright
        return "overdispersed"
    ys = np.arange(0.0, y_max + step / 2, step)
    num = trigamma(ys + p.gamma) if p.gamma > 0 else trigamma(ys + 1e-12)
    den = p.alpha**2 * trigamma(p.alpha * ys + p.beta) if p.beta > 0 else p.alpha**2 * trigamma(
        np.maximum(p.alpha * ys, 1e-12)
    )
    ratio = num / den
    tail = 1.0 / p.alpha  # limit of the ratio beyond the grid, approached monotonically
    tol = 1e-9 * max(1.0, abs(p.nu))
    # strict inequality must hold at every finite y: on the grid it is checked
    # directly, and on the tail the ratio stays between ratio(y_max) and the
    # limit, so the limit itself may equal nu as long as it is approached from
    # the correct side
    if p.nu < float(ratio.min()) - tol and p.nu <= tail + tol:
        return "overdispersed"
    if p.nu > float(ratio.max()) + tol and p.nu >= tail - tol:
        return "underdispersed"
    return "indeterminate"


def _as_weight_fn(w):
    if callable(w):
        return w, None
    seq = list(w)
    return (lambda k: seq[k]), len(seq)


def _shifted_series_log(wfn, lam, shift, limit):
    """log sum_k lam^k w(k + shift) / k! with the eta-style stopping rule."""
    acc = _SignedLogSum()
    prev_ratio = math.inf
    dec_run = 0
    k = 0
    lt = None
    while True:
        if limit is not None and k + shift >= limit:
            raise ConvergenceError(
                "weight sequence too short for the shifted series to converge"
            )
        wk = wfn(k + shift)
        if wk < 0:
            raise DomainError("weights must be non-negative")
        new_lt = k * math.log(lam) - math.lgamma(k + 1) + (math.log(wk) if wk > 0 else -math.inf)
        acc.add(new_lt, 1.0)
        if lt is not None and new_lt > -math.inf and lt > -math.inf:
            ratio = math.exp(min(new_lt - lt, 700.0))
            dec_run = dec_run + 1 if ratio <= prev_ratio * (1.0 + 1e-12) else 0
            if dec_run >= _DEC_RUN and ratio < _ETA_EPS:
                if new_lt - math.log1p(-ratio) < math.log(1e-15) + acc.shift + math.log(
                    max(acc.total_scaled, 1e-300)
                ):
                    return acc.shift + math.log(acc.total_scaled)
            prev_ratio = ratio
        if new_lt > -math.inf:
            lt = new_lt
        k += 1
        if k > _ETA_BUDGET:
            raise ConvergenceError("shifted weight series failed to converge in budget")


def turan_check(w, lam: float, rel_tol: float = 1e-10) -> str:
    """Product-versus-squared-shift test on the normalizer.

    Computes f, Tf, T^2 f where (T^j f)(lam) = sum_k lam^k w(k+j) / k! and
    compares f * T^2 f against (Tf)^2: strictly larger means overdispersed,
    strictly smaller underdispersed, equality (within ``rel_tol``) the Poisson
    boundary.
    """
    if not lam > 0:
        raise DomainError("lam must be > 0")
    wfn, limit = _as_weight_fn(w)
    lf = _shifted_series_log(wfn, lam, 0, limit)
    ltf = _shifted_series_log(wfn, lam, 1, limit)
    lt2f = _shifted_series_log(wfn, lam, 2, limit)
    d = (lf + lt2f) - 2.0 * ltf
    if abs(math.expm1(d)) <= rel_tol:
        return "boundary"
    return "overdispersed" if d > 0 else "underdispersed"


def sufficient_condition_check(w, K: int = 10) -> str:
    """Sign test on binomial-difference convolutions of the weights.

    All sums positive for k <= K certifies overdispersion, all negative
    underdispersion; anything else (including the identically-zero Poisson
    boundary) is inconclusive.
    """
    wfn, limit = _as_weight_fn(w)
    if limit is not None and limit < K + 3:
        raise DomainError(f"need weights up to k = {K + 2}")
    signs = []
    for k in range(K + 1):
        terms = []
        for j in range(k + 2):
            c = math.comb(k, j) - (math.comb(k, j - 1) if j >= 1 else 0)
            terms.append(c * wfn(j) * wfn(k - j + 2))
        s = math.fsum(terms)
        scale = math.fsum(abs(t) for t in terms)
        if abs(s) <= 1e-12 * max(scale, 1e-300):
            signs.append(0)
        else:
            signs.append(1 if s > 0 else -1)
    if all(s > 0 for s in signs):
        return "overdispersed"
    if all(s < 0 for s in signs):
        return "underdispersed"
    return "inconclusive"


def weight_fn(p: WpdParams):
    """The parameter set's weight as a plain callable (for the generic checks)."""
    return lambda k: math.exp(log_weight(p, k)) if log_weight(p, k) > -math.inf else 0.0
