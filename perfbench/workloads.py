"""The workloads.

Each workload builds its inputs in ``__init__`` (the set-up phase), then
offers one cold operation through the CLI and a fixed list of warm items, so
every run does the same amount of work.  A warm item is ``(kind, call,
check)``: ``kind`` is ``"op"`` for a timed operation or ``"draw"`` for a
sampler draw timed apart; ``call()`` does the work and ``check(result)``
returns failure messages.

A cold operation runs once per run, so its input does not depend on the
seed: ``cold_s`` then measures the program rather than which tail values a
seed happened to draw (the cold fit's cost follows the sample maximum and
mean through the mixture-node cut-offs).  The seed draws the warm inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os

import numpy as np

from checks import (
    check_compare_rows,
    check_fit_row,
    check_pmf_table,
    check_recovery,
    check_sample_mean,
)
import inputs


def _cli(cf, argv):
    """Run the CLI in-process with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cf.cli.main(argv)
    return code, buf.getvalue()


def _bounds(cf, model):
    spec = cf.inference.MODELS[model]
    return dict(zip(spec.param_names, spec.bounds))


def _write_counts(path, values):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in values) + "\n")


def _cold_rng(stream):
    """The generator of a cold operation's input: the same for every seed."""
    return np.random.default_rng([stream, 0xC01D])


class FitFractional:
    """Grid fit of the classical fractional law (criterion 12's shape)."""

    name = "fit_fractional"
    ALPHA, MU, N = 0.85, 3.6, 5000
    # a warm fit whose data need new mixture nodes takes 1-5 s instead of
    # 0.25 s; with 30 fits the median and the tail percentile (the 20th
    # fastest) stay among the others
    WARM_FITS = 30

    def __init__(self, cf, seed, tmpdir):
        self.cf = cf
        self.path = os.path.join(tmpdir, "fit_cold.txt")
        _write_counts(self.path, inputs.fpd_counts(_cold_rng(1), self.ALPHA, self.MU, self.N))
        rng = np.random.default_rng([seed, 1])
        self.samples = [inputs.fpd_counts(rng, self.ALPHA, self.MU, self.N)
                        for _ in range(self.WARM_FITS)]
        self.bounds = _bounds(cf, "fpd")
        self.fits = []
        self.error_ops = 0

    def cold(self):
        return _cli(self.cf, ["fit", "--model", "fpd", "--input", self.path,
                              "--output-format", "json"])

    def check_cold(self, out):
        code, text = out
        if code != 0:
            return [f"cold fit exited {code}"]
        rows = json.loads(text)
        if len(rows) != 1:
            return [f"cold fit printed {len(rows)} rows"]
        return self._check_fit(rows[0])

    def _check_fit(self, row):
        bad = check_fit_row(row, self.bounds, "fit_grid/fpd")
        if not bad:
            self.fits.append(row["params"])
        return bad

    def warm(self):
        cf = self.cf
        items = []
        for values in self.samples:
            def call(values=values):
                data = cf.inference.CountData.from_values(values)
                return cf.inference.fit_grid("fpd", data)

            items.append(("op", call, lambda res: self._check_fit(res.to_dict())))
        return items

    def finish(self):
        return check_recovery(self.fits, self.ALPHA, self.MU, "criterion-12 gate")


# criterion 04's grid: alpha, beta in {0.3, 0.6, 0.9}, delta = {1/2, 1} beta/alpha,
# mu in {0.5, 2, 5}, as (alpha, beta, delta / (beta / alpha), mu)
PMF_GRID = [(a, b, f, u) for a in (0.3, 0.6, 0.9) for b in (0.3, 0.6, 0.9)
            for f in (0.5, 1.0) for u in (0.5, 2.0, 5.0)]
# ROADMAP P0: the three off-plane points alpha = 0.3, mu = 5 take 15-20 s each
# on a 2-core machine, more than the rest of the grid together; they are left
# out so that a run of this workload takes seconds, not a minute
P0_POINTS = [g for g in PMF_GRID if g[0] == 0.3 and g[2] == 0.5 and g[3] == 5.0]
# the P0 point (0.3, 0.6, delta 1, 5) at mu = 2: off-plane, high-precision series
PMF_COLD = (0.3, 0.6, 0.5, 2.0)


class PmfTables:
    """gfpd_pmf_table over criterion 04's grid without the P0 points, each point
    once.  The grid is the input, so the seed changes nothing; the points run
    in grid order, so the same point pays for node tables the plane points
    share in every run."""

    name = "pmf_tables"

    def __init__(self, cf, seed, tmpdir):
        self.cf = cf
        self.points = [g for g in PMF_GRID if g not in P0_POINTS and g != PMF_COLD]
        self.error_ops = 0

    def _params(self, point):
        a, b, f, u = point
        return self.cf.gfpd.GfpdParams(a, b, f * b / a, u)

    def _check(self, table, point):
        p = self._params(point)
        a1 = self.cf.gfpd.gfpd_factorial_moments(p, 1)[1]
        return check_pmf_table(table, a1, f"gfpd_pmf_table{point}")

    def cold(self):
        a, b, f, u = PMF_COLD
        return _cli(self.cf, ["pmf", "--model", "gfpd", "--alpha", str(a), "--beta", str(b),
                              "--delta", str(f * b / a), "--mu", str(u)])

    def check_cold(self, out):
        code, text = out
        if code != 0:
            return [f"cold pmf exited {code}"]
        rows = list(csv.DictReader(io.StringIO(text)))
        if [int(r["x"]) for r in rows] != list(range(len(rows))):
            return ["cold pmf: x column is not 0..n-1"]
        return self._check(np.array([float(r["probability"]) for r in rows]), PMF_COLD)

    def warm(self):
        items = []
        for point in self.points:
            def call(point=point):
                return self.cf.gfpd.gfpd_pmf_table(self._params(point))

            items.append(("op", call, lambda table, point=point: self._check(table, point)))
        return items

    def finish(self):
        return []


COMPARE_MODELS = ("poisson", "negbinom", "genpoisson", "com_poisson", "hyper_poisson",
                  "model_i", "model_i_2param", "model_ii", "model_ii_2param")


class CompareWeighted:
    """Nine-model compare on over- and underdispersed data, with sampler draws
    between compares."""

    name = "compare_weighted"
    # each cycle: one compare per dataset kind, each followed by a draw; 32
    # compares take about 15 s on a 2-core machine
    CYCLES = 8
    N = 2000
    DRAW_N = 10000

    def __init__(self, cf, seed, tmpdir):
        self.cf = cf
        com = inputs.com_poisson_logpmf(5.0, 2.0)
        m2 = inputs.model_ii_logpmf(2.0, 2.0, 1.0)
        self.path = os.path.join(tmpdir, "compare_cold.txt")
        _write_counts(self.path, inputs.fpd_counts(_cold_rng(3), 0.85, 50.0, self.N))
        rng = np.random.default_rng([seed, 3])
        kinds = [
            lambda: inputs.fpd_counts(rng, 0.85, 50.0, self.N),
            lambda: inputs.fpd_counts(rng, 0.6, 3.0, self.N),
            lambda: inputs.inverse_cdf(rng, com, self.N),
            lambda: inputs.inverse_cdf(rng, m2, self.N),
        ]
        # datasets[i] is kind i % 4
        self.datasets = [kinds[i % 4]() for i in range(4 * self.CYCLES)]
        self.draw_seed = int(np.random.SeedSequence([seed, 4]).generate_state(1)[0])
        # one draw after each compare, cycling with the dataset kinds
        self.draws = [
            ("fpd", {"alpha": 0.85, "mu": 3.6}, inputs.fpd_mean(0.85, 3.6)),
            ("fpd", {"alpha": 0.85, "mu": 50.0}, inputs.fpd_mean(0.85, 50.0)),
            ("com_poisson", {"lam": 5.0, "nu": 2.0}, inputs.pmf_mean(com)),
            ("model_ii", {"lam": 2.0, "beta": 2.0, "gamma": 1.0}, inputs.pmf_mean(m2)),
        ]
        self.bounds = {m: _bounds(cf, m) for m in COMPARE_MODELS}
        self.error_ops = 0

    def cold(self):
        return _cli(self.cf, ["compare", "--models", ",".join(COMPARE_MODELS),
                              "--input", self.path, "--output-format", "json"])

    def check_cold(self, out):
        code, text = out
        if code != 0:
            return [f"cold compare exited {code}"]
        return self._check_rows(json.loads(text))

    def _check_rows(self, rows):
        self.error_ops += any(r.get("error") for r in rows)
        return check_compare_rows(rows, self.bounds)

    def _draw(self, i):
        cf = self.cf
        kind, theta, law_mean = self.draws[i % len(self.draws)]
        rng = cf.sampling.RngStream(self.draw_seed + i)
        if kind == "fpd":
            call = lambda: cf.sampling.sample_fpd(theta["alpha"], theta["mu"], self.DRAW_N, rng)
        else:
            p = cf.wpd.make_special_case(kind, **theta)
            call = lambda: cf.sampling.sample_wpd(p, self.DRAW_N, rng)
        check = lambda batch: check_sample_mean(batch.values, law_mean, f"sample {kind} {theta}")
        return "draw", call, check

    def warm(self):
        cf = self.cf
        items = []
        for i, values in enumerate(self.datasets):
            def call(values=values):
                data = cf.inference.CountData.from_values(values)
                return cf.inference.compare(COMPARE_MODELS, data)

            items += [("op", call, self._check_rows), self._draw(i)]
        return items

    def finish(self):
        return []


WORKLOADS = {w.name: w for w in (FitFractional, PmfTables, CompareWeighted)}
