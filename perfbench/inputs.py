"""Benchmark inputs, generated with NumPy and SciPy only.

Nothing here imports countfam, so a rewrite of the package's samplers
cannot change what the benchmark measures.  Every generator draws from the
``numpy.random.Generator`` it is given, so one seed fixes every input.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gammaln, logsumexp


def stable(rng: np.random.Generator, alpha: float, n: int) -> np.ndarray:
    """One-sided stable variates (E exp(-tS) = exp(-t^alpha)) by the sine-product formula."""
    u1 = 1.0 - rng.random(n)  # (0, 1]: the formula divides by sin(pi u1) and takes log u2
    u2 = 1.0 - rng.random(n)
    th = math.pi * u1
    inv = 1.0 / alpha
    return (
        np.sin(alpha * th)
        * np.sin((1.0 - alpha) * th) ** (inv - 1.0)
        / (np.sin(th) ** inv * np.abs(np.log(u2)) ** (inv - 1.0))
    )


def fpd_counts(rng: np.random.Generator, alpha: float, mu: float, n: int) -> np.ndarray:
    """Fractional-Poisson counts as Poisson(mu * S^-alpha), S one-sided stable."""
    return rng.poisson(mu * stable(rng, alpha, n) ** (-alpha))


def fpd_mean(alpha: float, mu: float) -> float:
    return mu / math.gamma(1.0 + alpha)


def _normalised(log_terms: np.ndarray) -> np.ndarray:
    return log_terms - logsumexp(log_terms)


def com_poisson_logpmf(lam: float, nu: float, k_max: int = 400) -> np.ndarray:
    """log pmf on 0..k_max of the COM-Poisson law, P(k) ~ lam^k / k!^nu."""
    k = np.arange(k_max + 1, dtype=float)
    return _normalised(k * math.log(lam) - nu * gammaln(k + 1.0))


def model_ii_logpmf(lam: float, beta: float, gamma: float, k_max: int = 400) -> np.ndarray:
    """log pmf on 0..k_max of the weighted law lam^k Gamma(k + gamma) / (k! Gamma(k + beta))."""
    k = np.arange(k_max + 1, dtype=float)
    return _normalised(
        k * math.log(lam) - gammaln(k + 1.0) + gammaln(k + gamma) - gammaln(k + beta)
    )


def inverse_cdf(rng: np.random.Generator, logpmf: np.ndarray, n: int) -> np.ndarray:
    """Draw n counts from a tabulated log pmf by inverse-CDF lookup."""
    cdf = np.cumsum(np.exp(logpmf))
    x = np.searchsorted(cdf, rng.random(n) * cdf[-1], side="right")
    return np.minimum(x, len(cdf) - 1)


def pmf_mean(logpmf: np.ndarray) -> float:
    return float(np.sum(np.arange(len(logpmf)) * np.exp(logpmf)))
