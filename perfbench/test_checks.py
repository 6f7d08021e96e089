"""Each output check accepts a correct output and rejects a corrupted one;
the NumPy-only input generators agree with countfam's own laws; the tracer
restores what it wraps and computes self time once per child; a grid point
counts as failed by the same rule the likelihood uses.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import math
import time
import types

import numpy as np
import pytest
from scipy.stats import poisson

import inputs
from checks import (
    check_compare_rows,
    check_fit_row,
    check_pmf_table,
    check_recovery,
    check_sample_mean,
)
from layers import _bad_values, point_failed
from spans import Tracer

POISSON2 = poisson.pmf(np.arange(80), 2.0)
BOUNDS = {"lam": (1e-12, math.inf), "nu": (0.0, math.inf)}


def _row(model="com_poisson", p=0.4, **params):
    return {"model": model, "params": params or {"lam": 2.0, "nu": 1.0},
            "loglik": -1234.5, "chi2": 3.0, "df": 4, "p_value": p,
            "converged": True, "error": None}


def test_pmf_table_accepts_a_normalised_table():
    assert check_pmf_table(POISSON2, 2.0) == []


@pytest.mark.parametrize("corrupt", [
    lambda t: t * (1.0 + 1e-6),                           # mass off by 1e-6
    lambda t: t + np.r_[-1e-5, 1e-5, np.zeros(len(t) - 2)],  # moment off, sum kept
    lambda t: np.r_[t[:-1], -t[-1]],                      # negative entry
    lambda t: np.r_[t[:-1], np.nan],                      # non-finite entry
])
def test_pmf_table_rejects_corruption(corrupt):
    assert check_pmf_table(corrupt(POISSON2.copy()), 2.0)


def test_fit_row_accepts_a_good_row():
    assert check_fit_row(_row(), BOUNDS) == []


@pytest.mark.parametrize("field,value", [
    ("loglik", math.nan), ("loglik", -math.inf), ("p_value", 1.5), ("p_value", -0.1),
    ("params", {"lam": -1.0, "nu": 1.0}), ("params", {"lam": 2.0}),
])
def test_fit_row_rejects_corruption(field, value):
    row = _row()
    row[field] = value
    assert check_fit_row(row, BOUNDS)


def _compare_rows():
    return [_row("com_poisson", 0.6), _row("poisson", 0.2, lam=2.0),
            {"model": "hyper_poisson", "error": "initial point is not evaluable"}]


COMPARE_BOUNDS = {"com_poisson": BOUNDS, "poisson": {"lam": BOUNDS["lam"]},
                  "hyper_poisson": {"lam": BOUNDS["lam"], "beta": BOUNDS["lam"]}}


def test_compare_accepts_ranked_rows_with_a_refusal():
    assert check_compare_rows(_compare_rows(), COMPARE_BOUNDS) == []


@pytest.mark.parametrize("corrupt", [
    lambda rows: rows[::-1],                         # refusal ranked first
    lambda rows: [rows[1], rows[0], rows[2]],        # not ranked by p-value
    lambda rows: rows[:2],                           # a model is missing
    lambda rows: [{"model": r["model"], "error": "x"} for r in rows],  # all refused
    lambda rows: [dict(rows[0], p_value=2.0)] + rows[1:],  # a bad fit row
])
def test_compare_rejects_corruption(corrupt):
    assert check_compare_rows(corrupt(_compare_rows()), COMPARE_BOUNDS)


def test_sample_mean_accepts_and_rejects():
    draws = np.random.default_rng(5).poisson(3.0, 20000)
    assert check_sample_mean(draws, 3.0) == []
    assert check_sample_mean(draws + 1, 3.0)
    assert check_sample_mean(draws * 1.05, 3.0)


def test_recovery_gate():
    good = [{"alpha": 0.85, "mu": 3.6}] * 9
    assert check_recovery(good + [{"alpha": 0.7, "mu": 3.6}], 0.85, 3.6) == []
    assert check_recovery(good[:8] + [{"alpha": 0.85, "mu": 4.0}] * 2, 0.85, 3.6)
    assert check_recovery([], 0.85, 3.6)


def test_inputs_match_countfam_laws():
    cf = pytest.importorskip("countfam")
    p = cf.make_special_case("model_ii", lam=2.0, beta=2.0, gamma=1.0)
    ref = cf.wpd_pmf_table(p, x_max=40)
    ours = np.exp(inputs.model_ii_logpmf(2.0, 2.0, 1.0)[:41])
    assert np.max(np.abs(ours - ref)) < 1e-14
    p = cf.make_special_case("com_poisson", lam=5.0, nu=2.0)
    ref = cf.wpd_pmf_table(p, x_max=40)
    ours = np.exp(inputs.com_poisson_logpmf(5.0, 2.0)[:41])
    assert np.max(np.abs(ours - ref)) < 1e-14
    # Poisson(mu S^-alpha) draws against the series pmf: total variation at n = 4e5
    table = cf.gfpd_pmf_table(cf.GfpdParams.fpd(0.85, 3.6))
    draws = inputs.fpd_counts(np.random.default_rng(11), 0.85, 3.6, 400_000)
    emp = np.bincount(draws, minlength=len(table))[: len(table)] / len(draws)
    assert 0.5 * np.abs(emp - table).sum() < 5e-3


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.01)
    mod.leaf = lambda: mod.inner()       # a leaf that calls another leaf
    mod.outer = lambda: [mod.leaf() for _ in range(3)]
    originals = dict(vars(mod))
    tr = Tracer()
    tr.install(mod, "inner", "inner", leaf=True)
    tr.install(mod, "leaf", "leaf", leaf=True)
    tr.install(mod, "outer", "outer")
    with tr.op(1, "op"):
        mod.outer()
    tr.restore()
    assert vars(mod) == originals
    names = [s[0] for s in tr.spans]
    assert names == ["op", "outer"]
    rows = {(r[0], r[2]): r for r in tr.leaf_rows()}
    assert rows[("leaf", False)][4] == 3 and rows[("inner", True)][4] == 3
    op_self, outer_self = tr.self_times()
    # the nested leaf's time is not subtracted twice from its parent span
    assert 0.0 <= outer_self < 0.01
    assert 0.0 <= op_self < 0.01
    assert tr.overhead_s > 0.0


def test_points_failed_follows_the_loglik_rule():
    table = np.array([0.5, 0.0, np.inf, np.nan, 0.25])
    assert _bad_values(table, (), {}) == {"bad_x": [1, 2, 3]}
    assert _bad_values(POISSON2, (), {}) is None
    observed = [0, 4]
    # a bad value at a count the data never show does not fail the point
    assert not point_failed(None, [1, 2, 3], observed)
    assert point_failed(None, [1, 4], observed)
    assert point_failed("EvaluationError", [], observed)
