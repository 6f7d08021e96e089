"""Random variate generation and Monte Carlo estimators.

One-sided stable variates come from the sine-product formula driven by two
open-interval uniforms; fractional-Poisson counts from one mixed Poisson
draw, Poisson(mu S^(-alpha)) with S stable (Meerschaert, Nane & Vellaisamy
2011), so a variate costs the same at every mu; counts of any other law from
inverse-CDF lookup over its adaptive pmf table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EvaluationError
from .wpd import WpdParams, wpd_pmf_table


class RngStream:
    """Deterministic uniform stream on the open interval (0, 1).

    Endpoints are excluded because the stable-variate formula divides by
    sin(pi u) and takes log u.  One stream must be owned by one execution
    context; create independent seeded streams for parallel work.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._gen = np.random.default_rng(self.seed)

    def uniforms(self, n: int) -> np.ndarray:
        u = self._gen.random(n)
        mask = u <= 0.0
        while mask.any():
            u[mask] = self._gen.random(int(mask.sum()))
            mask = u <= 0.0
        return u

    def poisson(self, lam: np.ndarray) -> np.ndarray:
        """One Poisson count per mean in ``lam``, from the same generator."""
        return self._gen.poisson(lam)

    def beta(self, a: float, b: float, n: int) -> np.ndarray:
        """n Beta(a, b) variates, from the same generator."""
        return self._gen.beta(a, b, n)

    def spawn(self, offset: int) -> "RngStream":
        """Independent derived stream (for parallel batches)."""
        return RngStream(np.random.SeedSequence([self.seed, int(offset)]).generate_state(1)[0])


@dataclass(frozen=True)
class SampleBatch:
    """A batch of simulated counts plus the seed that produced it."""

    values: np.ndarray
    n: int
    seed: int

    def __post_init__(self):
        if len(self.values) != self.n:
            raise DomainError("n must equal len(values)")

    def histogram(self) -> dict:
        vals, counts = np.unique(self.values, return_counts=True)
        return {int(v): int(c) for v, c in zip(vals, counts)}


def sample_stable(alpha: float, n: int, rng: RngStream) -> np.ndarray:
    """One-sided stable variates S with E e^(-tS) = e^(-t^alpha).

    S = sin(a pi U1) sin((1-a) pi U1)^(1/a - 1) /
        (sin(pi U1)^(1/a) |ln U2|^(1/a - 1));
    at alpha = 1 the formula degenerates to the constant 1.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if n < 1:
        raise DomainError("n must be >= 1")
    if alpha == 1.0:
        return np.ones(n)
    u1 = rng.uniforms(n)
    u2 = rng.uniforms(n)
    th = math.pi * u1
    inv = 1.0 / alpha
    return (
        np.sin(alpha * th)
        * np.sin((1.0 - alpha) * th) ** (inv - 1.0)
        / (np.sin(th) ** inv * np.abs(np.log(u2)) ** (inv - 1.0))
    )


def sample_fpd(alpha: float, mu: float, n: int, rng: RngStream) -> SampleBatch:
    """Fractional-Poisson counts as one mixed Poisson draw.

    The count at time 1 is a Poisson process of rate mu run to the inverse
    stable time E_1, and E_1 has the law of S^(-alpha) with S stable
    (Meerschaert, Nane & Vellaisamy 2011, "The fractional Poisson process
    and the inverse stable subordinator").  So X = Poisson(mu S^(-alpha)):
    one batch of stable variates, then one batch of Poisson counts.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"alpha must lie in (0, 1], got {alpha}")
    if not mu > 0:
        raise DomainError("mu must be > 0")
    if n < 1:
        raise DomainError("n must be >= 1")
    lam = mu * sample_stable(alpha, n, rng) ** (-alpha)
    if not np.all(np.isfinite(lam)):
        raise EvaluationError(f"stable variates left float64 range at alpha = {alpha}")
    return SampleBatch(rng.poisson(lam), n, rng.seed)


def sample_wpd(p: WpdParams, n: int, rng: RngStream) -> SampleBatch:
    """Weighted-Poisson counts by inverse-CDF lookup over the adaptive pmf table."""
    return _inverse_cdf(wpd_pmf_table(p), n, rng)


def _inverse_cdf(table: np.ndarray, n: int, rng: RngStream) -> SampleBatch:
    """n counts by inverse-CDF lookup over a pmf table; a uniform past the
    table's cumulative mass draws its last count."""
    if n < 1:
        raise DomainError("n must be >= 1")
    cdf = np.cumsum(table)
    u = rng.uniforms(n)
    x = np.searchsorted(cdf, u, side="left")
    x[x >= len(table)] = len(table) - 1
    return SampleBatch(x.astype(np.int64), n, rng.seed)


def mc_moment(alpha: float, mu: float, k: int, n: int, rng: RngStream) -> tuple[float, float]:
    """Monte Carlo estimate of E X^k for the fractional law, with standard error."""
    if k < 0:
        raise DomainError("k must be >= 0")
    if k == 0:
        return 1.0, 0.0
    batch = sample_fpd(alpha, mu, n, rng)
    v = batch.values.astype(float) ** k
    se = float(v.std(ddof=1) / math.sqrt(n)) if n > 1 else math.inf
    return float(v.mean()), se
