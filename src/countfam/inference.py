"""Maximum likelihood fitting and goodness of fit for count data.

Every fitted law gives its log pmf at any set of counts
(``ModelSpec.log_rows``).  The log likelihood sums those rows at the
observed counts against the frequencies, and the chi-square test's expected
counts are exp of the rows on 0..max.

Fitting takes one of three routes.  The fractional laws (two bounded
parameters) are fitted by exhaustive grid search.  A law with an analytic
score (the weighted-Poisson slices and the negative binomial) is fitted by a
damped, bound-constrained Newton iteration on its log likelihood, gradient
and observed information; where that iteration does not certify a maximum,
the fit is the bounded derivative-free simplex's.  Every other law
(the generalized Poisson) is fitted by the simplex.  The chi-square test
pools cells from both tails inward until every cell carries enough expected
mass, and uses (cells - 1 - free parameters) degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from scipy.special import gammaincc, gammaln

from . import gfpd
# genpoisson_pmf, negbinom_logpmf, fpd_pmf_quadrature and wpd_pmf_recursive
# are not called here: the benchmark's tracer (perfbench/layers.py) wraps
# these bindings
from .baselines import (  # noqa: F401
    GenPoissonParams,
    NegBinomParams,
    genpoisson_factorial_moments,
    genpoisson_logpmf_rows,
    genpoisson_pmf,
    negbinom_logpmf,
    negbinom_logpmf_rows,
    negbinom_score,
    negbinom_skewness,
)
from .errors import DomainError, EvaluationError
from .gfpd import GfpdParams, fpd_pmf_quadrature, gfpd_summary  # noqa: F401
from .moments import SummaryStats, log_rows_table, summary_from_factorial
from .sampling import _inverse_cdf, sample_fpd
from .wpd import (  # noqa: F401
    SLICE_PARAMS,
    SpecialCase,
    make_special_case,
    slice_jacobian,
    wpd_logpmf_rows,
    wpd_pmf_recursive,
    wpd_score,
    wpd_summary,
)

_SIMPLEX_DIAM_TOL = 1e-6
_SIMPLEX_MAX_EVALS = 10_000
_NEWTON_MAX_ITER = 30
_NEWTON_MAX_HALVINGS = 40
_NEWTON_FRONTIER = 3  # consecutive iterations cut short by refused points
_NEWTON_MAX_STEP = 8.0  # largest step bound in search coordinates
_NEWTON_TOL = 1e-9  # projected Newton decrement g' I^-1 g, about twice the gain left
_ARMIJO = 1e-4
_NEG_INF = -1e300


@dataclass(frozen=True)
class CountData:
    """Observed counts as a value -> frequency histogram.

    ``values`` (ascending) and ``freqs`` hold the same histogram as arrays,
    so a log likelihood is one dot product.
    """

    histogram: dict
    n_total: int
    values: np.ndarray = field(init=False, repr=False, compare=False)
    freqs: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        h = {}
        for v, f in self.histogram.items():
            iv, fi = int(v), int(f)
            if iv < 0 or iv != v:
                raise DomainError(f"count values must be non-negative integers, got {v!r}")
            if fi < 1 or fi != f:
                raise DomainError(f"frequencies must be positive integers, got {f!r}")
            h[iv] = fi
        if sum(h.values()) != self.n_total:
            raise DomainError("n_total must equal the sum of frequencies")
        object.__setattr__(self, "histogram", h)
        values = sorted(h)
        object.__setattr__(self, "values", np.array(values, dtype=int))
        object.__setattr__(self, "freqs", np.array([h[v] for v in values], dtype=float))

    @classmethod
    def from_values(cls, values) -> "CountData":
        vals = np.asarray(values)
        if vals.size == 0:
            raise DomainError("empty data")
        if vals.dtype.kind not in "iu":
            as_float = vals.astype(float)
            bad = ~(np.isfinite(as_float) & (as_float == np.floor(as_float)))
            if bad.any():
                raise DomainError(
                    f"count values must be non-negative integers, got {vals[bad][0].item()!r}"
                )
            vals = as_float.astype(np.int64)
        uniq, counts = np.unique(vals, return_counts=True)
        return cls(dict(zip(uniq.tolist(), counts.tolist())), int(vals.size))

    @property
    def max_value(self) -> int:
        return max(self.histogram)

    def mean(self) -> float:
        return math.fsum(v * f for v, f in self.histogram.items()) / self.n_total

    def variance(self) -> float:
        m = self.mean()
        return math.fsum(f * (v - m) ** 2 for v, f in self.histogram.items()) / self.n_total

    def observed_vector(self) -> np.ndarray:
        out = np.zeros(self.max_value + 1)
        out[self.values] = self.freqs
        return out


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with likelihood and chi-square diagnostics.

    ``std_errors`` (a converged Newton fit only, else None) maps each
    parameter to the square root of its diagonal entry of the inverse
    observed information over the parameters off the faces of the box, and
    a parameter on a face to None.  ``points_failed`` (a grid fit only,
    else None) counts the grid points whose likelihood could not be
    evaluated.  ``to_dict`` leaves both out.
    """

    model_id: str
    params: dict
    loglik: float
    chi2: float
    df: int
    p_value: float
    converged: bool
    evaluations: int
    std_errors: dict | None = None
    points_failed: int | None = None

    def to_dict(self) -> dict:
        return {
            "model": self.model_id,
            "params": dict(self.params),
            "loglik": self.loglik,
            "chi2": self.chi2,
            "df": self.df,
            "p_value": self.p_value,
            "converged": self.converged,
        }


# ---------------------------------------------------------------------------
# model registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ModelSpec:
    """One count law: how to tabulate, summarise and sample it, and how to fit it.

    ``log_rows`` gives, for (theta, counts), the log pmf at those counts.
    Without a ``pmf`` a law is tabulated (by the CLI's ``pmf`` and the
    samplers) as the adaptive table over exp of its ``log_rows``; only the
    fractional laws name their own.  A law with ``bounds`` can be fitted,
    and the log likelihood, the grid scan and the chi-square test all read
    its ``log_rows``.  A law with a ``grid`` is fitted by grid search, and
    its ``log_rows`` also takes its last parameter as a 1-D array, one row
    per value, for scoring a run of grid points at once.
    A law with a ``score`` is fitted by ``fit_newton``: given (theta, data),
    the score returns the log likelihood, its gradient and the observed
    information (minus the Hessian) in the free parameters, and raises
    DomainError or EvaluationError where ``loglik`` would fail.  Any other
    law is fitted by the simplex.  Without a ``sample`` a law is sampled by
    inverse-CDF lookup over its adaptive ``pmf`` table.
    """

    name: str
    param_names: tuple
    pmf: Callable | None = None  # (theta, x_max | None) -> pmf array; None extends the support adaptively
    summary: Callable | None = None  # theta -> SummaryStats
    sample: Callable | None = None  # (theta, n, rng) -> SampleBatch
    log_rows: Callable | None = None  # (theta, counts) -> log pmf at the counts
    bounds: tuple | None = None
    init: Callable | None = None  # CountData -> theta
    grid: Callable | None = None  # CountData -> (points x parameters) array, in scan order
    score: Callable | None = None  # (theta, CountData) -> (loglik, gradient, information)
    face_start: Callable | None = None  # CountData -> theta on the face holding the maximum | None

    def __post_init__(self):
        if self.pmf is None:
            log_rows = self.log_rows
            pmf = lambda theta, x_max: log_rows_table(lambda xs: log_rows(theta, xs), x_max)
            object.__setattr__(self, "pmf", pmf)
        if self.sample is None:
            pmf = self.pmf
            sample = lambda theta, n, rng: _inverse_cdf(pmf(theta, None), n, rng)
            object.__setattr__(self, "sample", sample)


def _poisson_log_rows(lam, xs):
    """log Poisson(x; lam) at the counts ``xs``, one row per lam."""
    lam = np.asarray(lam, dtype=float)[..., None]
    return xs * np.log(lam) - lam - gammaln(xs + 1.0)


def _geometric_log_rows(mu, xs):
    """log of the geometric law (1 - q) q^x, q = mu / (1 + mu), at the
    counts ``xs``, one row per mu."""
    mu = np.asarray(mu, dtype=float)[..., None]
    return xs * np.log(mu) - (xs + 1.0) * np.log1p(mu)


_MU_BAND = np.linspace(0.8, 1.2, 41)


def _moment_inits(data: CountData):
    mean = data.mean()
    var = max(data.variance(), 1e-9)
    return mean, var


def _init_negbinom(data):
    mean, var = _moment_inits(data)
    p0 = min(max(mean / var if var > mean else 0.7, 1e-3), 1.0 - 1e-3)
    r0 = max(mean * p0 / (1.0 - p0), 1e-3)
    return (r0, p0)


def _face_negbinom(data):
    """With variance <= mean the likelihood rises towards the Poisson limit
    p -> 1, so the maximum over the box lies on the face p = 1 - 1e-9; the
    start there matches the mean."""
    mean, var = data.mean(), data.variance()
    if var > mean or mean <= 0.0:
        return None
    p = 1.0 - 1e-9
    return (mean * p / (1.0 - p), p)


def _init_genpoisson(data):
    mean, var = _moment_inits(data)
    l2 = 1.0 - 1.0 / math.sqrt(max(var / mean, 1e-6))
    l2 = min(max(l2, -0.5), 0.9)
    return (max(mean * (1.0 - l2), 1e-3), l2)


def _init_com_poisson(data):
    mean, var = _moment_inits(data)
    nu0 = min(max(mean / var, 0.05), 10.0)
    return (max(mean**nu0, 1e-3), nu0)


def _init_hyper_poisson(data):
    mean, var = _moment_inits(data)
    b0 = min(max(var / mean, 0.05), 50.0)
    return (max(mean + b0 - 1.0, 1e-3), b0)


def _init_model_i(data):
    mean, var = _moment_inits(data)
    return (max(mean, 1e-3), 1.0, min(max(mean / var, 0.05), 10.0))


def _init_model_i2(data):
    mean, var = _moment_inits(data)
    return (max(mean, 1e-3), min(max(mean / var, 0.05), 10.0))


def _init_model_ii(data):
    mean, _ = _moment_inits(data)
    return (max(mean, 1e-3), 1.0, 1.0)


def _init_model_ii2(data):
    mean, var = _moment_inits(data)
    return (min(max(var / mean, 0.05), 50.0), 1.0)


def _negbinom_log_rows(theta, xs):
    return negbinom_logpmf_rows(NegBinomParams(*theta), xs)


def _genpoisson_log_rows(theta, xs):
    return genpoisson_logpmf_rows(GenPoissonParams(*theta), xs)


def _negbinom_summary(theta):
    p = NegBinomParams(*theta)
    return SummaryStats(p.mean, p.variance, negbinom_skewness(p), 1.0 / p.p)


def _slice(tag, bounds=None, init=None, log_rows=wpd_logpmf_rows):
    """A weighted-Poisson slice; its log rows are ``log_rows`` (the law's
    WpdParams, counts), by default ``wpd_logpmf_rows``, the terms the score
    sums.  Every route builds the law first, so WpdParams' checks refuse a
    parameter out of the family's domain.  With ``bounds`` and ``init`` it
    is fitted by Newton on the eta engine's score."""
    names = SLICE_PARAMS[tag]
    law = lambda theta: make_special_case(tag, **dict(zip(names, theta)))
    score = None
    if bounds is not None:
        jac = slice_jacobian(tag)
        score = lambda theta, data: wpd_score(law(theta), jac, data.values, data.freqs)
    return ModelSpec(
        tag.value, names, summary=lambda theta: wpd_summary(law(theta)),
        log_rows=lambda theta, xs: log_rows(law(theta), xs),
        bounds=bounds, init=init, score=score,
    )


def _fractional(name, law, fitted=False, geometric_limit=False, sample=None):
    """A gfpd law; ``law`` maps its parameters to GfpdParams.

    A ``fitted`` law is a slice in (alpha, mu), fitted by grid search.  Its
    log rows are the mixture kernel over `_mixing_weight`'s density
    (``gfpd._mixture_logpmf``), the Poisson law at alpha = 1 and, for the
    slice with a ``geometric_limit``, the geometric law at alpha = 0.  Its
    grid crosses alpha on a 0.01 lattice across (0, 1) plus those boundary
    laws with 41 mu in a +-20 percent band around the mu at which the law's
    mean is the sample mean, the alphas rounded to 10 digits.
    """
    # gfpd_pmf_table is looked up on the module at call time, so a wrapper
    # installed on countfam.gfpd (the benchmark's tracer) sees CLI pmf calls
    routes = dict(
        pmf=lambda theta, x_max: gfpd.gfpd_pmf_table(law(*theta), x_max=x_max),
        summary=lambda theta: gfpd_summary(law(*theta)),
        sample=sample,
    )
    if not fitted:
        return ModelSpec(name, ("alpha", "beta", "delta", "mu"), **routes)

    # cached per alpha: building the law for each run of grid points, and
    # for each alpha of each grid, added a few percent to a warm grid fit
    @lru_cache(maxsize=1024)
    def shape(alpha):
        """The law's mixing weight at ``alpha``, and its mu over its mean,
        Gamma(beta + alpha) / (Gamma(beta) delta)."""
        p = law(alpha, 1.0)
        mu_scale = math.gamma(p.beta + p.alpha) / (math.gamma(p.beta) * p.delta)
        return gfpd._mixing_weight(alpha, p.beta, p.delta), mu_scale

    def log_rows(theta, xs):
        alpha, mu = theta
        if not np.all(np.asarray(mu) > 0):
            raise DomainError("mu must be > 0")
        if alpha >= 1.0:
            return _poisson_log_rows(mu, xs)
        if alpha <= 0.0:
            if not geometric_limit:
                raise DomainError("alpha must lie in (0, 1]")
            return _geometric_log_rows(mu, xs)
        (y_power, log_pref), _ = shape(alpha)
        return log_pref + gfpd._mixture_logpmf(alpha, mu, xs, y_power)

    def grid(data):
        mean = data.mean()
        lattice = ([0.0] if geometric_limit else []) + np.arange(0.01, 1.0, 0.01).tolist() + [1.0]
        alphas = [round(a, 10) for a in lattice]
        mus = np.concatenate([mean * shape(a)[1] * _MU_BAND for a in alphas])
        return np.column_stack([np.repeat(alphas, len(_MU_BAND)), mus])

    return ModelSpec(
        name, ("alpha", "mu"), **routes, log_rows=log_rows,
        bounds=((0.0 if geometric_limit else 1e-6, 1.0), _POS), init=lambda d: (0.9, d.mean()),
        grid=grid,
    )


_POS = (1e-12, math.inf)

# every law the command line accepts
LAWS = {s.name: s for s in (
    _fractional(
        "fpd", GfpdParams.fpd, fitted=True, geometric_limit=True,
        sample=lambda theta, n, rng: sample_fpd(*theta, n, rng),
    ),
    _fractional("gfpd", GfpdParams),
    _fractional("gfpd_aa1", GfpdParams.aa1, fitted=True),
    ModelSpec(
        "negbinom", ("r", "p"), summary=_negbinom_summary, log_rows=_negbinom_log_rows,
        bounds=(_POS, (1e-9, 1.0 - 1e-9)), init=_init_negbinom,
        score=lambda theta, data: negbinom_score(NegBinomParams(*theta), data.values, data.freqs),
        face_start=_face_negbinom,
    ),
    ModelSpec(
        "genpoisson", ("lambda1", "lambda2"),
        summary=lambda theta: summary_from_factorial(
            genpoisson_factorial_moments(GenPoissonParams(*theta), 3)),
        log_rows=_genpoisson_log_rows, bounds=(_POS, (-1.0 + 1e-9, 1.0 - 1e-9)),
        init=_init_genpoisson,
    ),
    # the closed form, so that a Poisson fit, table or sample does not need
    # eta, which refuses log eta > 709
    _slice(SpecialCase.POISSON, (_POS,), lambda d: (d.mean(),),
           log_rows=lambda p, xs: _poisson_log_rows(p.lam, xs)),
    _slice(SpecialCase.COM_POISSON, (_POS, (0.0, math.inf)), _init_com_poisson),
    _slice(SpecialCase.HYPER_POISSON, (_POS, _POS), _init_hyper_poisson),
    _slice(SpecialCase.ALT_MITTAG_LEFFLER),
    _slice(SpecialCase.FRACTIONAL_COM_POISSON),
    _slice(SpecialCase.ALT_GENERALIZED_ML),
    _slice(SpecialCase.MODEL_I, (_POS, _POS, (0.0, math.inf)), _init_model_i),
    _slice(SpecialCase.MODEL_I_2PARAM, (_POS, _POS), _init_model_i2),
    _slice(SpecialCase.MODEL_II, (_POS, _POS, _POS), _init_model_ii),
    _slice(SpecialCase.MODEL_II_2PARAM, (_POS, _POS), _init_model_ii2),
)}

# the laws that can be fitted
MODELS = {name: s for name, s in LAWS.items() if s.bounds is not None}


def _theta_vector(spec: ModelSpec, params) -> tuple:
    if isinstance(params, dict):
        missing = set(spec.param_names) - set(params)
        if missing:
            raise DomainError(f"missing parameters for {spec.name}: {sorted(missing)}")
        return tuple(float(params[n]) for n in spec.param_names)
    theta = tuple(float(v) for v in params)
    if len(theta) != len(spec.param_names):
        raise DomainError(
            f"{spec.name} takes {len(spec.param_names)} parameters {spec.param_names}"
        )
    return theta


def _params_dict(spec: ModelSpec, theta) -> dict:
    return {n: float(v) for n, v in zip(spec.param_names, theta)}


def _loglik_rows(log_rows: np.ndarray, freqs: np.ndarray):
    """sum_x freq(x) log pmf(x) for each row of log pmf values at the
    observed counts; -inf where a row holds NaN, +inf or a log below exp's
    range (a pmf value that is 0 in float64)."""
    total = log_rows @ freqs
    ok = np.isfinite(total) & (np.exp(log_rows.min(axis=-1)) > 0.0)
    return np.where(ok, total, -math.inf)


def loglik(model: str, params, data: CountData) -> float:
    """Log likelihood sum_x freq(x) log pmf(x), from the law's log rows at
    the observed counts; -inf when any observed value has zero probability
    under the model (see ``_loglik_rows``)."""
    spec = MODELS[model]
    theta = _theta_vector(spec, params)
    try:
        log_rows = spec.log_rows(theta, data.values)
    except (DomainError, EvaluationError) as exc:
        raise EvaluationError(
            f"pmf evaluation failed for {model} at the observed values: {exc}"
        ) from exc
    return float(_loglik_rows(log_rows, data.freqs))


def _safe_loglik(spec: ModelSpec, theta, data: CountData) -> float:
    """loglik with every failure (and a non-finite value) mapped to _NEG_INF."""
    try:
        total = loglik(spec.name, theta, data)
    except (EvaluationError, OverflowError):
        return _NEG_INF
    return total if math.isfinite(total) else _NEG_INF


def _run_logliks(spec: ModelSpec, lead, last: np.ndarray, data: CountData) -> np.ndarray:
    """_safe_loglik at the points (*lead, v) for each v in ``last``.

    A law with a ``grid`` scores the whole run with one ``log_rows`` call,
    under ``loglik``'s rule; if that call raises, and for any other law,
    the points are scored one at a time, so only the points that raise fail.
    """
    if spec.grid is not None:
        try:
            log_rows = spec.log_rows((*lead, last), data.values)
        except (DomainError, EvaluationError, OverflowError):
            pass
        else:
            return np.maximum(_loglik_rows(log_rows, data.freqs), _NEG_INF)
    return np.array([_safe_loglik(spec, (*lead, v), data) for v in last.tolist()])


def _grid_points(spec: ModelSpec, data: CountData, grid) -> np.ndarray:
    """The grid of ``fit_grid`` as a (points x parameters) array in scan order."""
    if grid is None:
        if spec.grid is None:
            raise DomainError(f"model {spec.name} has no default grid; pass one")
        return spec.grid(data)
    k = len(spec.param_names)
    if isinstance(grid, dict):
        missing = set(spec.param_names) - set(grid)
        if missing:
            raise DomainError(f"grid missing axes {sorted(missing)}")
        axes = [np.atleast_1d(np.asarray(grid[n], dtype=float)) for n in spec.param_names]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])
    points = [[float(t) for t in theta] for theta in grid]
    if any(len(theta) != k for theta in points):
        raise DomainError(f"{spec.name} takes {k} parameters {spec.param_names}")
    return np.array(points, dtype=float).reshape(len(points), k)


def fit_grid(model: str, data: CountData, grid=None, pool: bool = True) -> FitResult:
    """Exhaustive maximum likelihood over a parameter grid.

    ``grid`` may be an iterable of parameter tuples or a dict mapping
    parameter names to axes (crossed in declaration order of the model's
    parameters); by default the model's own grid is used.  A point fails
    when its log rows raise or ``loglik`` is -inf there; ``points_failed``
    counts them.  For a law with a default grid, each run of consecutive
    points that share all but the last parameter is scored with one
    ``log_rows`` call (see ``_run_logliks``).  Ties keep the
    first point in scan order, so the default scans resolve ties toward the
    smaller leading parameter.  ``evaluations`` counts grid points, and the
    reported ``loglik`` is ``loglik`` at the chosen point.
    """
    spec = MODELS[model]
    points = _grid_points(spec, data, grid)
    n_eval = len(points)
    lead = points[:, :-1]
    new_run = np.ones(n_eval, dtype=bool)
    new_run[1:] = (lead[1:] != lead[:-1]).any(axis=1)
    edges = [*np.flatnonzero(new_run).tolist(), n_eval]
    lls = np.empty(n_eval)
    for lo, hi in zip(edges[:-1], edges[1:]):
        lls[lo:hi] = _run_logliks(spec, lead[lo].tolist(), points[lo:hi, -1], data)
    failed = lls <= _NEG_INF
    if failed.all():
        raise EvaluationError(f"all {n_eval} grid points failed for {model}")
    best_theta = tuple(points[np.argmax(lls)].tolist())  # the first of equal maxima
    best_ll = loglik(model, best_theta, data)
    chi2, df, p_value = gof_chisq(model, best_theta, data, pool=pool)
    return FitResult(
        model, _params_dict(spec, best_theta), best_ll, chi2, df, p_value, True, n_eval,
        points_failed=int(failed.sum()),
    )


def _projector(bounds):
    """The map that clips a point into the box ``bounds``.

    A finite lower bound other than 0 is raised by 1e-10 (1 + |lo|), so the
    clipped point lies strictly inside it; each bound's limits are worked
    out once.
    """
    limits = []
    for lo, hi in bounds:
        if lo == 0.0:
            lo = 0.0
        elif math.isfinite(lo):
            lo = lo + 1e-10 * (1.0 + abs(lo))
        limits.append((lo, hi))

    def project(theta):
        return tuple(min(max(v, lo), hi) for v, (lo, hi) in zip(theta, limits))

    return project


def _nelder_mead_max(f, x0, bounds, diam_tol=_SIMPLEX_DIAM_TOL, max_evals=_SIMPLEX_MAX_EVALS):
    """Maximize f over a box with the classic simplex moves.

    Candidate points are projected into the box before evaluation.  Stops
    when the simplex infinity-diameter drops below ``diam_tol`` or the
    evaluation budget runs out; returns (x, fx, evaluations, converged).
    Vertices are tuples of floats; the centroid is the sequential sum of the
    kept vertices divided by their number.
    """
    project = _projector(bounds)
    nd = len(x0)
    evals = 0

    def fx(t):
        nonlocal evals
        evals += 1
        return f(t)

    simplex = [tuple(x0)]
    for i in range(nd):
        step = 0.05 * max(abs(x0[i]), 1.0)
        v = list(x0)
        v[i] += step
        simplex.append(project(v))
    values = [fx(v) for v in simplex]
    converged = False
    while evals < max_evals:
        order = sorted(range(nd + 1), key=lambda i: -values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best = simplex[0]
        diam = max(max(abs(a - b) for a, b in zip(v, best)) for v in simplex[1:])
        if diam < diam_tol:
            converged = True
            break
        centroid = list(best)
        for v in simplex[1:-1]:
            centroid = [c + a for c, a in zip(centroid, v)]
        centroid = [c / nd for c in centroid]
        step = [c - w for c, w in zip(centroid, simplex[-1])]
        xr = project([c + d for c, d in zip(centroid, step)])
        fr = fx(xr)
        if fr > values[0]:
            xe = project([c + 2.0 * d for c, d in zip(centroid, step)])
            fe = fx(xe)
            if fe > fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr > values[-1]:
                xc = project([c + 0.5 * d for c, d in zip(centroid, step)])
            else:
                xc = project([c - 0.5 * d for c, d in zip(centroid, step)])
            fc = fx(xc)
            if fc > min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, nd + 1):
                    simplex[i] = project([b + 0.5 * (a - b) for a, b in zip(simplex[i], best)])
                    values[i] = fx(simplex[i])
    order = sorted(range(nd + 1), key=lambda i: -values[i])
    return simplex[order[0]], values[order[0]], evals, converged


def _initial_point(spec: ModelSpec, init, data: CountData):
    """``init`` or the law's moment start, and its log likelihood; DomainError
    unless it lies in the box and its log likelihood can be evaluated."""
    theta0 = _theta_vector(spec, init) if init is not None else tuple(spec.init(data))
    for v, (lo, hi) in zip(theta0, spec.bounds):
        if not (lo <= v <= hi) or not math.isfinite(v):
            raise DomainError(
                f"initial point {theta0} outside the domain of {spec.name}"
            )
    ll = _safe_loglik(spec, theta0, data)
    if ll <= _NEG_INF:
        raise DomainError(f"initial point {theta0} is not evaluable for {spec.name}")
    return theta0, ll


def fit_simplex(model: str, data: CountData, init=None, pool: bool = True) -> FitResult:
    """Bounded derivative-free simplex maximization of the log likelihood."""
    spec = MODELS[model]
    theta0, _ = _initial_point(spec, init, data)
    theta, ll, evals, converged = _nelder_mead_max(
        lambda t: _safe_loglik(spec, t, data), theta0, spec.bounds
    )
    if ll <= _NEG_INF:
        raise EvaluationError(f"simplex failed to find an evaluable point for {model}")
    chi2, df, p_value = gof_chisq(model, theta, data, pool=pool)
    return FitResult(
        model, _params_dict(spec, theta), ll, chi2, df, p_value, converged, evals
    )


def _newton_direction(g, info, at_lo, at_hi):
    """Projected Newton direction on a box (Bertsekas 1982).

    A parameter on a face is held while its gradient, or its Newton step,
    points out of the box; the others take the Newton step of the reduced
    information, shifted (Levenberg) until positive definite when it is
    not.  Returns (direction, decrement g'd, whether the reduced
    information is positive definite).
    """
    held = (at_lo & (g < 0)) | (at_hi & (g > 0))
    while True:
        free = ~held
        w, v = np.linalg.eigh(info[np.ix_(free, free)])
        pd = bool(np.all(w > 0))
        shift = 0.0 if pd else 1e-3 * max(np.abs(w).max(), 1.0) - w.min()
        d = np.zeros_like(g)
        d[free] = v @ ((v.T @ g[free]) / (w + shift))
        out = (at_lo & (d < 0)) | (at_hi & (d > 0))
        if not out.any():
            return d, float(g @ d), pd
        held |= out


def fit_newton(model: str, data: CountData, pool: bool = True) -> FitResult:
    """Damped, bound-constrained Newton maximisation of the log likelihood.

    The law's ``score`` gives the gradient and the observed information.
    Parameters bounded by (1e-12, inf) are searched in log coordinates, the
    others as they are.  Each iteration takes the projected Newton direction
    (``_newton_direction``), bounded in every coordinate by a step bound
    that starts at 1, doubles (up to ``_NEWTON_MAX_STEP``) after a full step
    that reached it and shrinks to a step that had to be cut.  The step is
    halved until ``loglik`` rises by the Armijo fraction of the predicted
    gain; a trial point whose log rows raise (a refused eta, say) is a
    rejected step.  The score is evaluated only at accepted points.

    The fit converges when the reduced information is positive definite and
    the projected Newton decrement is below ``_NEWTON_TOL``; ``evaluations``
    then counts likelihood plus score evaluations.  Otherwise it returns
    what ``fit_simplex`` returns from the same start: after
    ``_NEWTON_MAX_ITER`` iterations, a score that fails, no acceptable step,
    a cut step that gains nothing, or ``_NEWTON_FRONTIER`` iterations in a
    row cut short by refused points.  The start and its refusal are
    ``fit_simplex``'s, except that a law's ``face_start`` may move the
    iteration's first point onto the face of the box where the maximum is
    known to lie.
    """
    spec = MODELS[model]
    theta, ll = _initial_point(spec, None, data)
    n_eval = 1
    face = spec.face_start(data) if spec.face_start is not None else None
    if face is not None:
        theta, ll = face, _safe_loglik(spec, face, data)
        n_eval += 1
    lo, hi = np.array(spec.bounds, dtype=float).T
    logc = (lo > 0.0) & (hi == math.inf)
    s_lo = lo.copy()
    s_lo[logc] = np.log(lo[logc])

    def search(theta):
        s = np.array(theta, dtype=float)
        s[logc] = np.log(s[logc])
        return s

    def params(s):
        theta = s.copy()
        theta[logc] = np.exp(s[logc])
        theta = np.where(s <= s_lo, lo, np.where(s >= hi, hi, np.clip(theta, lo, hi)))
        return tuple(theta.tolist())

    def score(theta):
        """(gradient, information) in search coordinates and the information in theta, or None."""
        try:
            _, g, info = spec.score(theta, data)
        except (DomainError, EvaluationError, OverflowError):
            return None
        if not (np.all(np.isfinite(g)) and np.all(np.isfinite(info))):
            return None
        c = np.where(logc, theta, 1.0)
        info_s = info * np.outer(c, c) - np.diag(np.where(logc, np.multiply(theta, g), 0.0))
        return g * c, info_s, info

    s = search(theta)
    cur = score(theta) if ll > _NEG_INF else None
    n_eval += 1
    converged, frontier, radius = False, 0, 1.0
    for _ in range(_NEWTON_MAX_ITER if cur is not None else 0):
        g, info_s, _ = cur
        d, decrement, pd = _newton_direction(g, info_s, s <= s_lo, s >= hi)
        if pd and decrement < _NEWTON_TOL:
            converged = True
            break
        length = np.abs(d).max()
        if length > radius:
            d *= radius / length
        # a step that loses no more than the rounding of the log likelihood
        # passes, so a last Newton step is not refused for noise
        slack = 1e-12 * (1.0 + abs(ll))
        t, refused = 1.0, False
        for _ in range(_NEWTON_MAX_HALVINGS):
            s_new = np.clip(s + t * d, s_lo, hi)
            theta_new = params(s_new)
            ll_new = _safe_loglik(spec, theta_new, data)
            n_eval += 1
            if ll_new > _NEG_INF and ll_new >= ll + _ARMIJO * float(g @ (s_new - s)) - slack:
                break
            refused |= ll_new <= _NEG_INF
            t *= 0.5
        else:
            break
        # the step bound grows after a full step that reached it and shrinks
        # to a step that had to be cut
        if t < 1.0:
            radius = t * min(length, radius)
        elif length >= radius:
            radius = min(2.0 * radius, _NEWTON_MAX_STEP)
        # steps cut short by refused points, iteration after iteration, walk
        # towards a supremum on the edge of the evaluable region
        frontier = frontier + 1 if refused else 0
        if frontier == _NEWTON_FRONTIER or (t < 1.0 and ll_new - ll <= slack):
            break
        s, ll, theta = s_new, ll_new, theta_new
        cur = score(theta)
        n_eval += 1
        if cur is None:
            break
    if not converged:
        return fit_simplex(model, data, pool=pool)
    chi2, df, p_value = gof_chisq(model, theta, data, pool=pool)
    return FitResult(
        model, _params_dict(spec, theta), ll, chi2, df, p_value, True, n_eval,
        _std_errors(spec, cur[2], (s <= s_lo) | (s >= hi)),
    )


def _std_errors(spec: ModelSpec, info: np.ndarray, on_face: np.ndarray) -> dict:
    """sqrt of the diagonal of the inverse information over the parameters
    off the faces; None on a face."""
    free = ~on_face
    out = dict.fromkeys(spec.param_names)
    w, v = np.linalg.eigh(info[np.ix_(free, free)])
    for name, var in zip(np.array(spec.param_names)[free], (v * v) @ (1.0 / w)):
        out[str(name)] = math.sqrt(var) if var > 0 else None
    return out


def fit(model: str, data: CountData, pool: bool = True) -> FitResult:
    """Fit with the model's default method: grid search for the fractional
    laws, Newton for a law with a score, the simplex for the others."""
    spec = MODELS[model]
    if spec.grid is not None:
        return fit_grid(model, data, pool=pool)
    if spec.score is not None:
        return fit_newton(model, data, pool=pool)
    return fit_simplex(model, data, pool=pool)


def _pooled_cells(observed: np.ndarray, expected: np.ndarray, min_expected: float):
    """Merge cells from the right tail, then the left, then any interior
    offender toward the tail it sits in, until every expected count clears
    the threshold."""
    obs = [float(o) for o in observed]
    exp = [float(e) for e in expected]
    while len(exp) > 1 and exp[-1] < min_expected:
        exp[-2] += exp[-1]
        obs[-2] += obs[-1]
        del exp[-1], obs[-1]
    while len(exp) > 1 and exp[0] < min_expected:
        exp[1] += exp[0]
        obs[1] += obs[0]
        del exp[0], obs[0]
    while len(exp) > 1:
        bad = [i for i, e in enumerate(exp) if e < min_expected]
        if not bad:
            break
        i = bad[0]
        j = i + 1 if i + 1 < len(exp) else i - 1
        lo, hi = min(i, j), max(i, j)
        exp[lo] += exp[hi]
        obs[lo] += obs[hi]
        del exp[hi], obs[hi]
    return np.array(obs), np.array(exp)


def gof_chisq(model: str, params, data: CountData, pool: bool = True, min_expected: float = 5.0):
    """Chi-square statistic, degrees of freedom and p-value.

    Cells are the consecutive count values 0..max with the final cell open
    to the right, so observed and expected totals both equal n; the
    expected counts are exp of the law's log rows there.  With
    ``pool=False`` the raw cells are kept regardless of expected mass.
    """
    spec = MODELS[model]
    theta = _theta_vector(spec, params)
    table = np.exp(spec.log_rows(theta, np.arange(data.max_value + 1)))
    expected = table * data.n_total
    expected[-1] = data.n_total * max(1.0 - float(np.sum(table[:-1])), 0.0)
    observed = data.observed_vector()
    if pool:
        observed, expected = _pooled_cells(observed, expected, min_expected)
    n_free = len(spec.param_names)
    if len(expected) < n_free + 2:
        raise EvaluationError(
            f"only {len(expected)} cells after pooling; need at least {n_free + 2}"
        )
    if np.any(expected <= 0.0):
        raise EvaluationError("a cell has non-positive expected count; cannot form the statistic")
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    df = len(expected) - 1 - n_free
    return chi2, df, float(gammaincc(df / 2.0, chi2 / 2.0))


def compare(models: Sequence[str], data: CountData, pool: bool = True) -> list:
    """Fit every model and rank the report rows by p-value.

    Individual model failures become rows with an ``error`` field rather
    than aborting the comparison.
    """
    models = list(models)
    if len(models) < 2:
        raise DomainError("compare needs at least two models")
    rows = []
    for m in models:
        if m not in MODELS:
            rows.append({"model": m, "error": f"unknown model {m!r}"})
            continue
        try:
            res = fit(m, data, pool=pool)
            row = res.to_dict()
            row["error"] = None
            rows.append(row)
        except (DomainError, EvaluationError) as exc:
            rows.append({"model": m, "error": str(exc)})
    rows.sort(key=lambda r: (-r.get("p_value", -math.inf) if r.get("error") is None else math.inf, r["model"]))
    return rows
