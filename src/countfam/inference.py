"""Maximum likelihood fitting and goodness of fit for count data.

Fitting is by exhaustive grid search for the fractional laws (two bounded
parameters) and by a bounded derivative-free simplex for everything else.
The chi-square test pools cells from both tails inward until every cell
carries enough expected mass, and uses (cells - 1 - free parameters)
degrees of freedom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import gfpd
from .baselines import (
    GenPoissonParams,
    NegBinomParams,
    genpoisson_pmf,
    negbinom_logpmf,
    negbinom_skewness,
)
from .errors import DomainError, EvaluationError
from .gfpd import GfpdParams, aa1_pmf_quadrature, fpd_pmf_quadrature, gfpd_summary
from .moments import SummaryStats
from .sampling import sample_fpd, sample_wpd
from .special import chi2_sf
from .wpd import (
    SLICE_PARAMS,
    SpecialCase,
    make_special_case,
    wpd_pmf_recursive,
    wpd_pmf_table,
    wpd_summary,
)

_SIMPLEX_DIAM_TOL = 1e-6
_SIMPLEX_MAX_EVALS = 10_000
_NEG_INF = -1e300


@dataclass(frozen=True)
class CountData:
    """Observed counts as a value -> frequency histogram."""

    histogram: dict
    n_total: int

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

    @classmethod
    def from_values(cls, values) -> "CountData":
        vals = [int(v) for v in values]
        if not vals:
            raise DomainError("empty data")
        h = {}
        for v in vals:
            h[v] = h.get(v, 0) + 1
        return cls(h, len(vals))

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
        for v, f in self.histogram.items():
            out[v] = f
        return out


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with likelihood and chi-square diagnostics."""

    model_id: str
    params: dict
    loglik: float
    chi2: float
    df: int
    p_value: float
    converged: bool
    evaluations: int

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

    ``pmf`` is the tabulation route (the CLI's); ``table`` is the fitting
    route, and only laws with a ``table`` can be fitted.  A law with a
    ``grid`` is fitted by grid search, any other by the simplex.
    """

    name: str
    param_names: tuple
    pmf: Callable  # (theta, x_max | None) -> pmf array; None extends the support adaptively
    summary: Callable | None = None  # theta -> SummaryStats
    sample: Callable | None = None  # (theta, n, rng) -> SampleBatch
    table: Callable | None = None  # (theta, x_max) -> pmf array on 0..x_max
    bounds: tuple | None = None
    init: Callable | None = None  # CountData -> theta
    grid: Callable | None = None  # CountData -> iterable of theta


def _poisson_table(theta, x_max):
    (lam,) = theta
    xs = np.arange(x_max + 1)
    from scipy.special import gammaln

    return np.exp(xs * math.log(lam) - lam - gammaln(xs + 1.0))


def _geometric_table(mu, x_max):
    q = mu / (1.0 + mu)
    xs = np.arange(x_max + 1)
    return (1.0 - q) * q**xs


def _fpd_table(theta, x_max):
    alpha, mu = theta
    if mu <= 0:
        raise DomainError("mu must be > 0")
    if alpha <= 0.0:
        return _geometric_table(mu, x_max)
    if alpha >= 1.0:
        return _poisson_table((mu,), x_max)
    return fpd_pmf_quadrature(alpha, mu, np.arange(x_max + 1))


def _aa1_table(theta, x_max):
    alpha, mu = theta
    if mu <= 0:
        raise DomainError("mu must be > 0")
    if alpha >= 1.0:
        return _poisson_table((mu,), x_max)
    if alpha <= 0.0:
        raise DomainError("alpha must lie in (0, 1]")
    return aa1_pmf_quadrature(alpha, mu, np.arange(x_max + 1))


def _fpd_grid(data: CountData):
    """alpha on a 0.01 lattice across (0, 1) plus both boundary laws; mu in a
    +-20 percent band around the sample mean rescaled by Gamma(1 + alpha)."""
    mean = data.mean()
    for alpha in np.concatenate([[0.0], np.arange(0.01, 1.0, 0.01), [1.0]]):
        alpha = round(float(alpha), 10)
        for mu in mean * math.gamma(1.0 + alpha) * np.linspace(0.8, 1.2, 41):
            yield (alpha, float(mu))


def _aa1_grid(data: CountData):
    mean = data.mean()
    for alpha in np.concatenate([np.arange(0.01, 1.0, 0.01), [1.0]]):
        alpha = round(float(alpha), 10)
        # mean of the law is Gamma(alpha) mu / Gamma(2 alpha)
        scale = math.gamma(2.0 * alpha) / math.gamma(alpha)
        for mu in mean * scale * np.linspace(0.8, 1.2, 41):
            yield (alpha, float(mu))


def _moment_inits(data: CountData):
    mean = data.mean()
    var = max(data.variance(), 1e-9)
    return mean, var


def _init_negbinom(data):
    mean, var = _moment_inits(data)
    p0 = min(max(mean / var if var > mean else 0.7, 1e-3), 1.0 - 1e-3)
    r0 = max(mean * p0 / (1.0 - p0), 1e-3)
    return (r0, p0)


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


def _pointwise_pmf(law, pmf):
    """pmf table of a law evaluated one count at a time; without x_max the
    support runs until the mass reaches 1 - 1e-10 (or 100,000 counts)."""

    def build(theta, x_max):
        p = law(*theta)
        if x_max is not None:
            return np.array([pmf(p, x) for x in range(int(x_max) + 1)])
        out = []
        cum = 0.0
        while cum < 1.0 - 1e-10 and len(out) < 100_000:
            out.append(pmf(p, len(out)))
            cum += out[-1]
        return np.asarray(out)

    return build


def _gfpd_routes(law):
    # gfpd_pmf_table is looked up on the module at call time, so a wrapper
    # installed on countfam.gfpd (the benchmark's tracer) sees CLI pmf calls
    return {
        "pmf": lambda theta, x_max: gfpd.gfpd_pmf_table(law(*theta), x_max=x_max),
        "summary": lambda theta: gfpd_summary(law(*theta)),
    }


# late-bound, because the benchmark's tracer wraps these two pmfs in this module
_negbinom_pmf = _pointwise_pmf(NegBinomParams, lambda p, x: math.exp(negbinom_logpmf(p, x)))
_genpoisson_pmf = _pointwise_pmf(GenPoissonParams, lambda p, x: genpoisson_pmf(p, x))


def _negbinom_summary(theta):
    p = NegBinomParams(*theta)
    return SummaryStats(p.mean, p.variance, negbinom_skewness(p), 1.0 / p.p)


def _slice(tag, bounds=None, init=None, table=None):
    """A weighted-Poisson slice; with ``bounds`` and ``init`` it is fitted
    through the tag's pmf recursion unless another ``table`` is given."""
    names = SLICE_PARAMS[tag]
    law = lambda theta: make_special_case(tag, **dict(zip(names, theta)))
    if bounds is not None and table is None:
        table = lambda theta, x_max: wpd_pmf_recursive(law(theta), x_max)
    return ModelSpec(
        tag.value, names,
        pmf=lambda theta, x_max: wpd_pmf_table(law(theta), x_max=x_max),
        summary=lambda theta: wpd_summary(law(theta)),
        sample=lambda theta, n, rng: sample_wpd(law(theta), n, rng),
        table=table, bounds=bounds, init=init,
    )


_POS = (1e-12, math.inf)

# every law the command line accepts
LAWS = {s.name: s for s in (
    ModelSpec(
        "fpd", ("alpha", "mu"), **_gfpd_routes(GfpdParams.fpd),
        sample=lambda theta, n, rng: sample_fpd(*theta, n, rng),
        table=_fpd_table, bounds=((0.0, 1.0), _POS), init=lambda d: (0.9, d.mean()),
        grid=_fpd_grid,
    ),
    ModelSpec("gfpd", ("alpha", "beta", "delta", "mu"), **_gfpd_routes(GfpdParams)),
    ModelSpec(
        "gfpd_aa1", ("alpha", "mu"), **_gfpd_routes(GfpdParams.aa1),
        table=_aa1_table, bounds=((1e-6, 1.0), _POS), init=lambda d: (0.9, d.mean()),
        grid=_aa1_grid,
    ),
    ModelSpec(
        "negbinom", ("r", "p"), _negbinom_pmf, summary=_negbinom_summary,
        table=_negbinom_pmf, bounds=(_POS, (1e-9, 1.0 - 1e-9)), init=_init_negbinom,
    ),
    ModelSpec(
        "genpoisson", ("lambda1", "lambda2"), _genpoisson_pmf, table=_genpoisson_pmf,
        bounds=(_POS, (-1.0 + 1e-9, 1.0 - 1e-9)), init=_init_genpoisson,
    ),
    _slice(SpecialCase.POISSON, (_POS,), lambda d: (d.mean(),), table=_poisson_table),
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
MODELS = {name: s for name, s in LAWS.items() if s.table is not None}


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


def loglik(model: str, params, data: CountData) -> float:
    """Log likelihood sum_x freq(x) log pmf(x); -inf when any observed value
    has zero probability under the model."""
    spec = MODELS[model]
    theta = _theta_vector(spec, params)
    try:
        table = spec.table(theta, data.max_value)
    except (DomainError, EvaluationError) as exc:
        raise EvaluationError(
            f"pmf evaluation failed for {model} at values 0..{data.max_value}: {exc}"
        ) from exc
    total = 0.0
    for v, f in data.histogram.items():
        p = table[v]
        if not p > 0.0:
            return -math.inf
        total += f * math.log(p)
    return total


def _safe_loglik(spec: ModelSpec, theta, data: CountData) -> float:
    """loglik with every failure (and a non-finite value) mapped to _NEG_INF."""
    try:
        total = loglik(spec.name, theta, data)
    except (EvaluationError, OverflowError):
        return _NEG_INF
    return total if math.isfinite(total) else _NEG_INF


def fit_grid(model: str, data: CountData, grid=None, pool: bool = True) -> FitResult:
    """Exhaustive maximum likelihood over a parameter grid.

    ``grid`` may be an iterable of parameter tuples or a dict mapping
    parameter names to axes (crossed in declaration order of the model's
    parameters); by default the model's own grid is used.  Ties keep the
    first point in scan order, so the default scans resolve ties toward the
    smaller leading parameter.
    """
    spec = MODELS[model]
    if grid is None:
        if spec.grid is None:
            raise DomainError(f"model {model} has no default grid; pass one")
        points = spec.grid(data)
    elif isinstance(grid, dict):
        missing = set(spec.param_names) - set(grid)
        if missing:
            raise DomainError(f"grid missing axes {sorted(missing)}")
        axes = [np.atleast_1d(np.asarray(grid[n], dtype=float)) for n in spec.param_names]
        mesh = np.meshgrid(*axes, indexing="ij")
        points = zip(*(m.ravel() for m in mesh))
    else:
        points = grid
    best_theta = None
    best_ll = -math.inf
    n_eval = 0
    for theta in points:
        theta = tuple(float(t) for t in theta)
        n_eval += 1
        ll = _safe_loglik(spec, theta, data)
        if ll > best_ll:
            best_ll = ll
            best_theta = theta
    if best_theta is None or best_ll <= _NEG_INF:
        raise EvaluationError(f"all {n_eval} grid points failed for {model}")
    chi2, df, p_value = gof_chisq(model, best_theta, data, pool=pool)
    return FitResult(
        model, _params_dict(spec, best_theta), best_ll, chi2, df, p_value, True, n_eval
    )


def _project(theta, bounds):
    out = []
    for v, (lo, hi) in zip(theta, bounds):
        eps = 1e-10 * (1.0 + abs(lo) if math.isfinite(lo) else 1.0)
        lo_eff = lo + eps if math.isfinite(lo) and lo != 0.0 else lo
        if lo == 0.0:
            lo_eff = 0.0
        v = max(v, lo_eff)
        if math.isfinite(hi):
            v = min(v, hi)
        out.append(v)
    return tuple(out)


def _nelder_mead_max(f, x0, bounds, diam_tol=_SIMPLEX_DIAM_TOL, max_evals=_SIMPLEX_MAX_EVALS):
    """Maximize f over a box with the classic simplex moves.

    Candidate points are projected into the box before evaluation.  Stops
    when the simplex infinity-diameter drops below ``diam_tol`` or the
    evaluation budget runs out; returns (x, fx, evaluations, converged).
    """
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
        simplex.append(_project(v, bounds))
    values = [fx(v) for v in simplex]
    converged = False
    while evals < max_evals:
        order = sorted(range(nd + 1), key=lambda i: -values[i])
        simplex = [simplex[i] for i in order]
        values = [values[i] for i in order]
        best = np.array(simplex[0])
        diam = max(np.max(np.abs(np.array(v) - best)) for v in simplex[1:])
        if diam < diam_tol:
            converged = True
            break
        centroid = np.mean(np.array(simplex[:-1]), axis=0)
        worst = np.array(simplex[-1])
        xr = _project(centroid + (centroid - worst), bounds)
        fr = fx(xr)
        if fr > values[0]:
            xe = _project(centroid + 2.0 * (centroid - worst), bounds)
            fe = fx(xe)
            if fe > fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr > values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            if fr > values[-1]:
                xc = _project(centroid + 0.5 * (centroid - worst), bounds)
            else:
                xc = _project(centroid - 0.5 * (centroid - worst), bounds)
            fc = fx(xc)
            if fc > min(fr, values[-1]):
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, nd + 1):
                    simplex[i] = _project(
                        best + 0.5 * (np.array(simplex[i]) - best), bounds
                    )
                    values[i] = fx(simplex[i])
    order = sorted(range(nd + 1), key=lambda i: -values[i])
    return simplex[order[0]], values[order[0]], evals, converged


def fit_simplex(model: str, data: CountData, init=None, pool: bool = True) -> FitResult:
    """Bounded derivative-free simplex maximization of the log likelihood."""
    spec = MODELS[model]
    theta0 = _theta_vector(spec, init) if init is not None else tuple(spec.init(data))
    for v, (lo, hi) in zip(theta0, spec.bounds):
        if not (lo <= v <= hi) or not math.isfinite(v):
            raise DomainError(
                f"initial point {theta0} outside the domain of {model}"
            )
    if _safe_loglik(spec, theta0, data) <= _NEG_INF:
        raise DomainError(f"initial point {theta0} is not evaluable for {model}")
    theta, ll, evals, converged = _nelder_mead_max(
        lambda t: _safe_loglik(spec, t, data), theta0, spec.bounds
    )
    if ll <= _NEG_INF:
        raise EvaluationError(f"simplex failed to find an evaluable point for {model}")
    chi2, df, p_value = gof_chisq(model, theta, data, pool=pool)
    return FitResult(
        model, _params_dict(spec, theta), ll, chi2, df, p_value, converged, evals
    )


def fit(model: str, data: CountData, pool: bool = True) -> FitResult:
    """Fit with the model's default method (grid for the fractional laws)."""
    if MODELS[model].grid is not None:
        return fit_grid(model, data, pool=pool)
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
    to the right, so observed and expected totals both equal n.  With
    ``pool=False`` the raw cells are kept regardless of expected mass.
    """
    spec = MODELS[model]
    theta = _theta_vector(spec, params)
    x_max = data.max_value
    table = spec.table(theta, x_max)
    expected = np.array(table, dtype=float) * data.n_total
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
    return chi2, df, chi2_sf(chi2, df)


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
