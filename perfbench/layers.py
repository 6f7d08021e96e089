"""Which countfam functions the traced run wraps, and the per-layer metrics
computed from the spans.

Each function is wrapped where the calling module bound it, so calls made
inside countfam are seen: ``_mixture_nodes`` looks up ``m_wright`` in
``countfam.gfpd``, ``_fpd_table`` looks up ``fpd_pmf_quadrature`` in
``countfam.inference``, and so on.  Functions the benchmark calls itself
are wrapped in the module it calls them through.
"""

from __future__ import annotations

import numpy as np

M_WRIGHT = "special.m_wright"
QUADRATURE = "gfpd.fpd_pmf_quadrature"
PMF_TABLE = "gfpd.gfpd_pmf_table"
FIT_GRID = "inference.fit_grid"
FIT_SIMPLEX = "inference.fit_simplex"
COMPARE = "inference.compare"
GOF = "inference.gof_chisq"
ETA = "wpd.eta"
RECURSIVE = "wpd.wpd_pmf_recursive"
NEGBINOM = "baselines.negbinom_logpmf"
GENPOISSON = "baselines.genpoisson_pmf"
SAMPLE_FPD = "sampling.sample_fpd"
SAMPLE_STABLE = "sampling.sample_stable"
SAMPLE_WPD = "sampling.sample_wpd"
INGEST = "cli.ingest"
PMF_GROUPS = ("plane", "offplane")


def _pmf_group(args, kwargs):
    """plane: beta = alpha delta (positive quadrature); offplane: the series."""
    p = args[0] if args else kwargs["p"]
    group = "plane" if abs(p.beta - p.alpha * p.delta) < 1e-12 else "offplane"
    return f"{PMF_TABLE}.{group}"


def _bad_values(out, args, kwargs):
    # counts whose pmf value is not a finite positive number; empty as a rule
    bad = np.flatnonzero(~((out > 0.0) & np.isfinite(out)))
    return {"bad_x": bad.tolist()} if len(bad) else None


def _fit_grid_attrs(res, args, kwargs):
    data = args[1] if len(args) > 1 else kwargs["data"]
    return {"points": res.evaluations, "observed": sorted(data.histogram)}


def point_failed(span_error, bad_x, observed):
    """_safe_loglik's rule for one grid point: its table raised, or the value
    at an observed count is not a finite positive number."""
    return span_error is not None or not set(bad_x).isdisjoint(observed)


def install(tracer, cf):
    gfpd, inference, sampling, wpd, cli = cf.gfpd, cf.inference, cf.sampling, cf.wpd, cf.cli
    tracer.install(gfpd, "m_wright", M_WRIGHT, leaf=True)
    tracer.install(inference, "fpd_pmf_quadrature", QUADRATURE, observe=_bad_values)
    rows = lambda out, a, k: {"rows": len(out)}
    for mod in (gfpd, cli):
        tracer.install(mod, "gfpd_pmf_table", PMF_TABLE, classify=_pmf_group, observe=rows)
    simplex = lambda res, a, k: {"evals": res.evaluations, "converged": int(res.converged)}
    for mod in (inference, cli):
        tracer.install(mod, "fit_grid", FIT_GRID, observe=_fit_grid_attrs)
        tracer.install(mod, "fit_simplex", FIT_SIMPLEX, observe=simplex)
    errors = lambda rows, a, k: {"error_rows": sum(1 for r in rows if r.get("error"))}
    for mod in (inference, cli):
        tracer.install(mod, "compare", COMPARE, observe=errors)
    tracer.install(inference, "gof_chisq", GOF)
    tracer.install(wpd, "eta", ETA, leaf=True)
    tracer.install(inference, "wpd_pmf_recursive", RECURSIVE, leaf=True)
    tracer.install(inference, "negbinom_logpmf", NEGBINOM, leaf=True)
    tracer.install(inference, "genpoisson_pmf", GENPOISSON, leaf=True)
    variates = lambda batch, a, k: {"variates": int(batch.n)}
    tracer.install(sampling, "sample_fpd", SAMPLE_FPD, observe=variates)
    tracer.install(sampling, "sample_wpd", SAMPLE_WPD, observe=variates)
    tracer.install(sampling, "sample_stable", SAMPLE_STABLE, leaf=True)
    tracer.install(cli, "ingest", INGEST)


def metrics(tracer, eta_delta):
    """Per-layer metrics from the spans, leaf aggregates and eta's cache counters."""
    spans = tracer.spans
    self_s = tracer.self_times()
    names = [s[0] for s in spans]
    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)
    cache = {}

    def outermost(name):
        # spans of ``name`` not nested in another span of the same name
        if name not in cache:
            cache[name] = [i for i in by_name.get(name, ())
                           if not any(names[j] == name for j in tracer.ancestors(spans[i][3]))]
        return cache[name]

    def calls(name):
        return len(outermost(name))

    def busy(name):
        return sum(spans[i][2] - spans[i][1] for i in outermost(name))

    def own(name):
        return sum(self_s[i] for i in by_name.get(name, ()))

    def attr(name, key):
        return sum((spans[i][6] or {}).get(key, 0) for i in by_name.get(name, ()))

    leaves = tracer.leaf_rows()

    def leaf(name, under=None):
        rows = [r for r in leaves if r[0] == name
                and (under is None or (r[1] >= 0 and names[r[1]] == under))]
        return sum(r[4] for r in rows), sum(r[5] for r in rows), sum(r[6] for r in rows)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    n, b, _ = leaf(M_WRIGHT)
    m[M_WRIGHT + ".calls"], m[M_WRIGHT + ".busy_s"] = n, b
    m[QUADRATURE + ".calls"] = calls(QUADRATURE)
    m[QUADRATURE + ".busy_s"] = busy(QUADRATURE)
    m[QUADRATURE + ".self_s"] = own(QUADRATURE)
    m["gfpd.nodes_per_point"] = ratio(leaf(M_WRIGHT, under=QUADRATURE)[0], calls(QUADRATURE))
    for g in PMF_GROUPS:
        m[f"{PMF_TABLE}.{g}.calls"] = calls(f"{PMF_TABLE}.{g}")
        m[f"{PMF_TABLE}.{g}.busy_s"] = busy(f"{PMF_TABLE}.{g}")
    m[PMF_TABLE + ".rows"] = sum(attr(f"{PMF_TABLE}.{g}", "rows") for g in PMF_GROUPS)
    m[FIT_GRID + ".calls"] = calls(FIT_GRID)
    m[FIT_GRID + ".busy_s"] = busy(FIT_GRID)
    m[FIT_GRID + ".self_s"] = own(FIT_GRID)
    m[FIT_GRID + ".points"] = attr(FIT_GRID, "points")
    # the alpha = 0 and alpha = 1 boundary points never reach the quadrature
    failed = 0
    for i in by_name.get(QUADRATURE, ()):
        grid = next((j for j in tracer.ancestors(spans[i][3]) if names[j] == FIT_GRID), None)
        if grid is not None:
            failed += point_failed(spans[i][5], (spans[i][6] or {}).get("bad_x", ()),
                                   (spans[grid][6] or {}).get("observed", ()))
    m[FIT_GRID + ".points_failed"] = failed
    m[FIT_SIMPLEX + ".calls"] = calls(FIT_SIMPLEX)
    m[FIT_SIMPLEX + ".busy_s"] = busy(FIT_SIMPLEX)
    m[FIT_SIMPLEX + ".self_s"] = own(FIT_SIMPLEX)
    m[FIT_SIMPLEX + ".evals"] = attr(FIT_SIMPLEX, "evals")
    returned = sum(1 for i in by_name.get(FIT_SIMPLEX, ()) if spans[i][5] is None)
    m[FIT_SIMPLEX + ".converged_ratio"] = ratio(attr(FIT_SIMPLEX, "converged"), returned)
    m[COMPARE + ".error_rows"] = attr(COMPARE, "error_rows")
    m[GOF + ".calls"] = calls(GOF)
    m[GOF + ".busy_s"] = busy(GOF)
    n, b, refused = leaf(ETA)
    hits, misses = eta_delta
    m[ETA + ".calls"], m[ETA + ".busy_s"] = n, b
    m[ETA + ".hits"], m[ETA + ".misses"] = hits, misses
    m[ETA + ".hit_ratio"] = ratio(hits, hits + misses)
    m[ETA + ".refused"] = refused
    for name in (RECURSIVE, NEGBINOM, GENPOISSON):
        n, b, _ = leaf(name)
        m[name + ".calls"], m[name + ".busy_s"] = n, b
    m[SAMPLE_FPD + ".busy_s"] = busy(SAMPLE_FPD)
    m[SAMPLE_FPD + ".variates"] = attr(SAMPLE_FPD, "variates")
    m[SAMPLE_STABLE + ".calls"] = leaf(SAMPLE_STABLE, under=SAMPLE_FPD)[0]
    m[SAMPLE_WPD + ".busy_s"] = busy(SAMPLE_WPD)
    m[SAMPLE_WPD + ".variates"] = attr(SAMPLE_WPD, "variates")
    m[INGEST + ".busy_s"] = busy(INGEST)
    return m
