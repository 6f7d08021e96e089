"""Reference count distributions used in model comparisons."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DomainError
from .moments import FactorialMomentSequence, SummaryStats, summary_from_factorial
from .special import CONSECUTIVE, REL_TOL


@dataclass(frozen=True)
class NegBinomParams:
    """Extended negative binomial with size r > 0 and success probability p."""

    r: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 0):
            raise DomainError(f"r must be > 0, got {self.r}")
        if not (0.0 < self.p < 1.0):
            raise DomainError(f"p must lie in (0, 1), got {self.p}")

    @classmethod
    def from_size_mean(cls, size: float, mean: float) -> "NegBinomParams":
        """(size, mean) parametrization: mean = size (1-p)/p."""
        if not mean > 0:
            raise DomainError("mean must be > 0")
        return cls(size, size / (size + mean))

    @property
    def mean(self) -> float:
        return self.r * (1.0 - self.p) / self.p

    @property
    def variance(self) -> float:
        return self.mean / self.p


def negbinom_logpmf(p: NegBinomParams, x: int) -> float:
    if x < 0 or x != int(x):
        raise DomainError(f"x must be a non-negative integer, got {x!r}")
    x = int(x)
    return (
        math.lgamma(p.r + x)
        - math.lgamma(p.r)
        - math.lgamma(x + 1)
        + p.r * math.log(p.p)
        + x * math.log1p(-p.p)
    )


def negbinom_pmf(p: NegBinomParams, x: int) -> float:
    """Gamma(r+x) / (Gamma(r) x!) p^r (1-p)^x."""
    return math.exp(negbinom_logpmf(p, x))


def negbinom_logpmf_rows(p: NegBinomParams, xs: np.ndarray) -> np.ndarray:
    """log pmf at an array of counts, as cumulative log ratios up to the largest.

    log P(0) = r log p and log P(x+1) - log P(x) = log((r+x)(1-p)/(x+1)); the
    ratios stay exact when r is much larger than x, where the two log-gamma
    values of the closed form cancel.
    """
    x_max = int(np.max(xs))
    j = np.arange(x_max, dtype=float)
    log_pmf = np.empty(x_max + 1)
    log_pmf[0] = p.r * math.log(p.p)
    log_pmf[1:] = np.log((p.r + j) * (1.0 - p.p) / (j + 1.0))
    return np.cumsum(log_pmf, out=log_pmf)[xs]


def negbinom_pmf_table(p: NegBinomParams, x_max: int) -> np.ndarray:
    """pmf on 0..x_max: exp of ``negbinom_logpmf_rows``."""
    return np.exp(negbinom_logpmf_rows(p, np.arange(int(x_max) + 1)))


def negbinom_score(p: NegBinomParams, values: np.ndarray, freqs: np.ndarray):
    """Log likelihood of a histogram, its gradient and its observed
    information in (r, p).

    The log likelihood is ``negbinom_logpmf_rows`` at ``values`` weighted
    by ``freqs``.  psi(x+r) - psi(r) and psi'(r) - psi'(x+r) are sums over
    j < x of 1/(r+j) and 1/(r+j)^2, so they stay exact when r is much
    larger than x.  ``values`` ascend.
    """
    r, q = p.r, 1.0 - p.p
    rj = r + np.arange(int(values[-1]), dtype=float)
    sums = np.zeros((2, len(rj) + 1))
    np.cumsum(1.0 / rj, out=sums[0, 1:])
    np.cumsum(1.0 / (rj * rj), out=sums[1, 1:])
    dg, tg = sums[:, values] @ freqs
    n = float(freqs.sum())
    sx = float(values @ freqs)
    log_p = math.log(p.p)
    ll = float(negbinom_logpmf_rows(p, values) @ freqs)
    grad = np.array([dg + n * log_p, n * r / p.p - sx / q])
    info = np.array([[tg, -n / p.p], [-n / p.p, n * r / p.p**2 + sx / q**2]])
    return ll, grad, info


def negbinom_skewness(p: NegBinomParams) -> float:
    return (2.0 - p.p) / math.sqrt(p.r * (1.0 - p.p))


@dataclass(frozen=True)
class GenPoissonParams:
    """Generalized Poisson with rate lambda1 > 0 and dispersion lambda2 < 1.

    For lambda2 < 0 the support is truncated at M, the largest integer with
    lambda1 + M lambda2 > 0, and lambda2 >= max(-1, -lambda1 / M) is required.
    """

    lambda1: float
    lambda2: float

    def __post_init__(self):
        l1, l2 = self.lambda1, self.lambda2
        if not (math.isfinite(l1) and l1 > 0):
            raise DomainError(f"lambda1 must be > 0, got {l1}")
        if not (math.isfinite(l2) and l2 < 1.0):
            raise DomainError(f"lambda2 must be < 1, got {l2}")
        if l2 < 0:
            m = self.M
            if m < 1 or l2 < max(-1.0, -l1 / m):
                raise DomainError(
                    f"lambda2 = {l2} too negative for lambda1 = {l1} (M = {m})"
                )

    @property
    def M(self) -> int:
        """Largest integer with lambda1 + M lambda2 > 0 (support cap when lambda2 < 0)."""
        if self.lambda2 >= 0:
            raise DomainError("M is defined only for lambda2 < 0")
        m = math.ceil(self.lambda1 / -self.lambda2) - 1
        while self.lambda1 + m * self.lambda2 <= 0:
            m -= 1
        return int(m)


def genpoisson_pmf(p: GenPoissonParams, x: int) -> float:
    """lambda1 (lambda1 + lambda2 x)^(x-1) e^-(lambda1 + lambda2 x) / x!."""
    if x < 0 or x != int(x):
        raise DomainError(f"x must be a non-negative integer, got {x!r}")
    x = int(x)
    rate = p.lambda1 + p.lambda2 * x
    if rate <= 0:
        return 0.0
    if p.lambda2 < 0 and x > p.M:
        return 0.0
    return math.exp(
        math.log(p.lambda1) + (x - 1) * math.log(rate) - rate - math.lgamma(x + 1)
    )


def genpoisson_logpmf_rows(p: GenPoissonParams, xs: np.ndarray) -> np.ndarray:
    """log pmf at an array of counts; -inf past the support cap M (lambda2 < 0)."""
    x = np.asarray(xs, dtype=float)
    rate = p.lambda1 + p.lambda2 * x
    live = rate > 0
    if p.lambda2 < 0:
        live &= x <= p.M
    out = np.full(len(x), -math.inf)
    xl, rl = x[live], rate[live]
    out[live] = math.log(p.lambda1) + (xl - 1.0) * np.log(rl) - rl - gammaln(xl + 1.0)
    return out


def genpoisson_pmf_table(p: GenPoissonParams, x_max: int) -> np.ndarray:
    """pmf on 0..x_max: exp of ``genpoisson_logpmf_rows``, 0 past the support cap."""
    return np.exp(genpoisson_logpmf_rows(p, np.arange(int(x_max) + 1)))


def genpoisson_factorial_moments(p: GenPoissonParams, K: int) -> FactorialMomentSequence:
    """Factorial moments as exponentially weighted shifted-rate sums.

    For lambda2 > 0 the sum over r is truncated under the standard stopping
    rule, tested against a running compensated sum, and the kept terms are
    then summed by ``math.fsum``; for lambda2 < 0 it terminates exactly at
    r = M - k, and orders k > M are outside the domain.
    """
    if K < 0:
        raise DomainError("K must be >= 0")
    a = [1.0]
    for k in range(1, K + 1):
        if p.lambda2 < 0:
            m = p.M
            if k > m:
                raise DomainError(f"factorial moment order {k} exceeds the support cap M = {m}")
            r_iter = range(m - k + 1)
            terms = [_gp_term(p, r, k) for r in r_iter]
            a.append(math.fsum(terms))
        else:
            terms = []
            # the running sum of the terms so far with Neumaier's
            # compensation, within an ulp or two of their fsum
            total = comp = 0.0
            small = 0
            r = 0
            while True:
                t = _gp_term(p, r, k)
                terms.append(t)
                big, tiny = (total, t) if abs(total) >= abs(t) else (t, total)
                total = big + tiny
                comp += (big - total) + tiny
                if abs(t) < REL_TOL * max(abs(total + comp), 1e-300):
                    small += 1
                    if small >= CONSECUTIVE:
                        break
                else:
                    small = 0
                r += 1
                if r > 100_000:
                    raise DomainError("factorial moment series failed to converge")
            a.append(math.fsum(terms))
    return FactorialMomentSequence(tuple(a))


def genpoisson_summary(p: GenPoissonParams) -> SummaryStats:
    """Mean, variance, skewness and Fisher index.

    For lambda2 >= 0 Consul's closed forms: mean lambda1 / (1 - lambda2),
    variance lambda1 / (1 - lambda2)^3 and skewness
    (1 + 2 lambda2) / sqrt(lambda1 (1 - lambda2)), which hold where the
    factorial-moment series needs more terms than its budget allows.  For
    lambda2 < 0 the support is truncated at M and the finite series serves.
    """
    if p.lambda2 < 0:
        return summary_from_factorial(genpoisson_factorial_moments(p, 3))
    q = 1.0 - p.lambda2
    mean = p.lambda1 / q
    variance = p.lambda1 / q**3
    skewness = (1.0 + 2.0 * p.lambda2) / math.sqrt(p.lambda1 * q)
    return SummaryStats(mean, variance, skewness, variance / mean)


def _gp_term(p: GenPoissonParams, r: int, k: int) -> float:
    rate = p.lambda1 + p.lambda2 * (r + k)
    if rate <= 0:
        return 0.0
    return math.exp(
        -math.lgamma(r + 1)
        + math.log(p.lambda1)
        + (r + k - 1) * math.log(rate)
        - rate
    )
