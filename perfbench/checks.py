"""Output checks.  Each returns a list of failure messages; empty means pass.

The checks take plain data (rows as dicts, arrays, numbers) so that the
tests can hand them corrupted outputs.
"""

from __future__ import annotations

import math

import numpy as np

PMF_SUM_TOL = 1e-8
FIRST_MOMENT_TOL = 1e-6
SAMPLE_MEAN_SE = 5.0
RECOVERY_SHARE = 0.9  # criterion 12: at least 90 of 100 fits within tolerance


def check_pmf_table(table, first_moment: float, label: str = "pmf") -> list:
    """|sum - 1| < 1e-8 and the first factorial moment within 1e-6 (relative
    to max(|a_1|, 1)) of its closed form ``first_moment``."""
    t = np.asarray(table, dtype=float)
    if t.ndim != 1 or len(t) == 0:
        return [f"{label}: table is empty or not one-dimensional"]
    if not np.all(np.isfinite(t)) or np.any(t < 0.0):
        return [f"{label}: table has negative or non-finite entries"]
    out = []
    total = float(t.sum())
    if not abs(total - 1.0) < PMF_SUM_TOL:
        out.append(f"{label}: |sum - 1| = {abs(total - 1.0):.3e}")
    m1 = float(np.sum(np.arange(len(t)) * t))
    err = abs(m1 - first_moment) / max(abs(first_moment), 1.0)
    if not err < FIRST_MOMENT_TOL:
        out.append(f"{label}: first factorial moment {m1!r} vs {first_moment!r}")
    return out


def check_fit_row(row: dict, bounds: dict, label: str = "fit") -> list:
    """Finite log likelihood, p-value in [0, 1], every parameter within its bounds."""
    out = []
    ll = row.get("loglik")
    if not (isinstance(ll, (int, float)) and math.isfinite(ll)):
        out.append(f"{label}: log likelihood {ll!r} is not finite")
    p = row.get("p_value")
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        out.append(f"{label}: p-value {p!r} outside [0, 1]")
    params = row.get("params") or {}
    if set(params) != set(bounds):
        out.append(f"{label}: parameters {sorted(params)} != {sorted(bounds)}")
    for name, (lo, hi) in bounds.items():
        v = params.get(name)
        if not (isinstance(v, (int, float)) and lo <= v <= hi):
            out.append(f"{label}: {name} = {v!r} outside [{lo}, {hi}]")
    return out


def check_compare_rows(rows, bounds_by_model: dict, label: str = "compare") -> list:
    """One row per requested model; fit rows pass ``check_fit_row``; the
    ranking puts fitted rows first by descending p-value.  Error rows are
    refusals, allowed by compare's contract and counted by the caller."""
    out = []
    models = [r.get("model") for r in rows]
    if sorted(models) != sorted(bounds_by_model):
        return [f"{label}: models {models} != {sorted(bounds_by_model)}"]
    fitted = [r for r in rows if not r.get("error")]
    if not fitted:
        return [f"{label}: every model refused"]
    if rows[: len(fitted)] != fitted:
        out.append(f"{label}: an error row is ranked above a fitted row")
    for r in fitted:
        out += check_fit_row(r, bounds_by_model[r["model"]], f"{label}/{r['model']}")
    ps = [r.get("p_value") for r in fitted]
    if not out and any(a < b for a, b in zip(ps, ps[1:])):
        out.append(f"{label}: rows are not ranked by p-value")
    return out


def check_sample_mean(values, law_mean: float, label: str = "sample") -> list:
    """Sample mean within 5 standard errors of the law's mean."""
    v = np.asarray(values, dtype=float)
    if len(v) < 2 or not np.all(np.isfinite(v)) or np.any(v < 0.0):
        return [f"{label}: fewer than two draws, or negative or non-finite draws"]
    se = float(v.std(ddof=1)) / math.sqrt(len(v))
    dev = abs(float(v.mean()) - law_mean)
    if not dev <= SAMPLE_MEAN_SE * se:
        return [f"{label}: mean {v.mean():.6g} is {dev / se:.1f} se from {law_mean:.6g}"]
    return []


def check_recovery(fits, alpha0: float, mu0: float, label: str = "recovery") -> list:
    """Criterion 12's gate: at least 90 % of fits within 0.05 of alpha0 and
    within 5 % of mu0."""
    if not fits:
        return [f"{label}: no fits"]
    hits = sum(
        abs(f["alpha"] - alpha0) <= 0.05 and abs(f["mu"] - mu0) <= 0.05 * mu0 for f in fits
    )
    if hits < RECOVERY_SHARE * len(fits):
        return [f"{label}: {hits}/{len(fits)} fits within tolerance"]
    return []
