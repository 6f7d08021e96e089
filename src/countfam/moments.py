"""Factorial-moment framework and support rule shared by every distribution family.

A factorial-moment sequence a_0, a_1, ... (a_0 = 1) determines raw moments
through Stirling numbers, the skewness through the first three entries, and
for sufficiently fast-decaying tails the pmf itself through an alternating
inversion, which the test-suite uses as a family-independent oracle.  Every
adaptive pmf table ends by ``adaptive_pmf_table``'s rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import stirling2

from .errors import ConvergenceError, DomainError, EvaluationError
from .special import CONSECUTIVE, REL_TOL

TAIL_TOL = 1e-14
_TAIL_RUN = 10
# an adaptive table is refused once it holds this many rows without meeting
# its tail rule, or when its mass is further than _MASS_TOL from 1
_ROW_CAP = 100_000
_MASS_TOL = 1e-8


@dataclass(frozen=True)
class FactorialMomentSequence:
    """Sequence a_k = E[X (X-1) ... (X-k+1)] for k = 0 .. len(a)-1."""

    a: tuple

    def __post_init__(self):
        vals = tuple(float(v) for v in self.a)
        if not vals or vals[0] != 1.0:
            raise DomainError("factorial moment sequence must start with a_0 = 1")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("factorial moments must be finite")
        object.__setattr__(self, "a", vals)

    def __len__(self):
        return len(self.a)

    def __getitem__(self, k):
        return self.a[k]


@dataclass(frozen=True)
class SummaryStats:
    """First moments of a count distribution plus its dispersion index."""

    mean: float
    variance: float
    skewness: float
    fisher_index: float

    def __post_init__(self):
        if not self.variance > 0:
            raise DomainError("variance must be positive")


def moments_from_factorial(a: Sequence[float] | FactorialMomentSequence, k: int) -> float:
    """k-th raw moment E[X^k] = sum_r S(k, r) a_r."""
    if k < 0:
        raise DomainError("moment order must be >= 0")
    if k == 0:
        return 1.0
    if k >= len(a):
        raise DomainError(f"need factorial moments up to order {k}, got {len(a) - 1}")
    return math.fsum(stirling2(k, r, exact=True) * a[r] for r in range(1, k + 1))


def skewness_from_factorial(a1: float, a2: float, a3: float) -> float:
    """Skewness from the first three factorial moments."""
    var = a1 + a2 - a1 * a1
    if not var > 0:
        raise DomainError(f"variance expression a1 + a2 - a1^2 = {var} must be positive")
    c3 = a3 + 3.0 * a2 + a1 * (1.0 - 3.0 * a2 + a1 * (2.0 * a1 - 3.0))
    return c3 / var**1.5


def summary_from_factorial(a: Sequence[float] | FactorialMomentSequence) -> SummaryStats:
    """Mean, variance, skewness and Fisher index from a_1, a_2, a_3."""
    if len(a) < 4:
        raise DomainError("need factorial moments up to order 3")
    mean = a[1]
    var = a[1] + a[2] - a[1] ** 2
    return SummaryStats(mean, var, skewness_from_factorial(a[1], a[2], a[3]), var / mean)


def pmf_from_factorial(a: Sequence[float] | FactorialMomentSequence, x: int) -> float:
    """Invert a factorial-moment sequence into P(X = x).

    Alternating sum (1/x!) sum_k (-1)^k a_{k+x} / k!, summed with exact
    compensation.  The sequence must be long enough for the tail to meet the
    stopping rule, otherwise ConvergenceError is raised.
    """
    if x < 0:
        raise DomainError("x must be >= 0")
    terms = []
    lfact = 0.0
    small_run = 0
    converged = False
    for k in range(len(a) - x):
        t = a[k + x] * (-1.0) ** k / math.exp(lfact)
        terms.append(t)
        partial = math.fsum(terms)
        if abs(t) < REL_TOL * max(abs(partial), 1e-300) + 1e-300:
            small_run += 1
            if small_run >= CONSECUTIVE:
                converged = True
                break
        else:
            small_run = 0
        lfact += math.log1p(k)
    if not converged:
        raise ConvergenceError(
            "factorial moment sequence too short for the inversion to converge"
        )
    return math.fsum(terms) / math.factorial(x)


def adaptive_pmf_table(evaluate, x_max: int | None = None, tail_tol: float = TAIL_TOL) -> np.ndarray:
    """pmf on 0..x_max, or on an adaptive support when ``x_max`` is None.

    ``evaluate(xs, x_end)`` gives the rows ``xs`` of a chunk that spans up to
    ``x_end``.  The adaptive table ends at the first x that completes a run
    of 10 values below ``tail_tol`` after one at or above it (so a low head
    before the bulk starts no run).  It is refused with ConvergenceError at
    100,000 rows and with EvaluationError when its sum is further than 1e-8
    from 1; a fixed ``x_max`` table may hold less mass and is not checked.
    """
    table = _run_adaptive(evaluate, x_max, tail_tol, _TAIL_RUN)
    if x_max is None:
        total = math.fsum(table)
        if not abs(total - 1.0) <= _MASS_TOL:
            raise EvaluationError(
                f"adaptive pmf table over 0..{len(table) - 1} sums to {total:.10g}, "
                f"more than {_MASS_TOL:g} from 1"
            )
    return table


def log_rows_table(log_rows, x_max: int | None = None, tail_tol: float = TAIL_TOL) -> np.ndarray:
    """`adaptive_pmf_table` over exp of ``log_rows(xs)``, a law's log pmf at
    the counts ``xs``: the table of every law but the fractional ones."""
    return adaptive_pmf_table(lambda xs, x_end: np.exp(log_rows(xs)), x_max, tail_tol)


def _run_adaptive(evaluate, x_max, tail_tol, tail_run) -> np.ndarray:
    if x_max is not None:
        return evaluate(np.arange(int(x_max) + 1), int(x_max))
    # the rule counts values below tail_tol only once the table has held one
    # at or above it, so a low region before the bulk (a Poisson of large mu)
    # does not end the table
    chunks = []
    start = 0
    end = -1
    size = 64
    run = 0
    risen = False
    while start < _ROW_CAP:
        if start > end:
            # the next chunk of the 64, 128, ... 1024-row doubling
            end = start + size - 1
            size = min(2 * size, 1024)
        # rows are taken from the chunk, and evaluated with its x_end (a
        # quadrature's node set), up to its end or, inside a run, up to the
        # row that would complete it
        stop = min(end + 1, _ROW_CAP)
        if run:
            stop = min(stop, start + tail_run - run)
        vals = evaluate(np.arange(start, stop), end)
        for i, v in enumerate(vals):
            if not v < tail_tol:
                run, risen = 0, True
            elif risen:
                run += 1
                if run >= tail_run:
                    chunks.append(vals[: i + 1])
                    return np.concatenate(chunks)
        chunks.append(vals)
        start = stop
    raise ConvergenceError(
        f"pmf table reached {_ROW_CAP} rows before {tail_run} consecutive values "
        f"fell below {tail_tol:g}; pass x_max (--x-max) for a fixed support"
    )
