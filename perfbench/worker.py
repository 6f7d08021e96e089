"""One benchmark worker: a fresh process that runs one workload as a single
closed-loop client (each operation starts after the previous one returns).

    python3 perfbench/worker.py --root . --workload pmf_tables --seed 1 --seconds 40

runs the cold operation, then the workload's fixed list of warm items, and
prints one JSON object.  ``--seconds`` is a safety cap on the warm phase: a
run that has not finished its list by then stops and records a failure.
``--stop-after setup`` or ``--stop-after cold`` makes a probe that stops
after set-up or after the cold operation; ``--trace`` installs the span
wrappers and adds the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time

_now = time.perf_counter

MAX_FAILURES_SHOWN = 20


def _import_countfam(src):
    sys.path.insert(0, src)
    import countfam
    import countfam.cli  # noqa: F401  (the package does not import its CLI)

    where = os.path.realpath(os.path.dirname(countfam.__file__))
    if os.path.dirname(where) != os.path.realpath(src):
        raise ImportError(f"countfam imported from {where}, not from {src}")
    return countfam


def _cpu_s():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def run(args):
    t0 = _now()
    cf = _import_countfam(os.path.join(args.root, "src"))
    import_s = _now() - t0

    from workloads import WORKLOADS

    out_dir = os.path.join(args.root, "perfbench", "out")
    os.makedirs(out_dir, exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix="inputs-", dir=out_dir)
    try:
        t1 = _now()
        wl = WORKLOADS[args.workload](cf, args.seed, tmpdir)
        inputs_s = _now() - t1
        ready = _now()
        result = {"ready": ready, "import_s": import_s, "inputs_s": inputs_s}
        if args.stop_after == "setup":
            return result
        result.update(measure(cf, wl, args))
        return result
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def measure(cf, wl, args):
    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        eta = cf.wpd.eta  # the lru-cached original, for cache_info()
        eta_before = eta.cache_info()
        tracer = Tracer()
        layers.install(tracer, cf)
    failures = []
    attempted = failed = 0
    warm_s, draw_s, variates = [], [], 0

    def timed(run_id, label, call, check):
        nonlocal attempted, failed
        attempted += 1
        start = _now()
        try:
            if tracer is None:
                res = call()
            else:
                with tracer.op(run_id, label):
                    res = call()
        except Exception as exc:  # an operation that raises is a failed operation
            failed += 1
            failures.append(f"{label} {run_id}: {type(exc).__name__}: {exc}")
            return None, _now() - start
        dt = _now() - start
        bad = check(res)
        if bad:
            failed += 1
            failures.extend(bad)
        return res, dt

    cpu0 = _cpu_s()
    w0 = _now()
    try:
        _, cold_s = timed(0, "op.cold", wl.cold, wl.check_cold)
        if args.stop_after == "cold":
            return {"cold_s": cold_s, "attempted": attempted, "failed": failed,
                    "failures": failures}
        items = wl.warm()
        cap = _now() + args.seconds
        done = 0
        for kind, call, check in items:
            if _now() > cap:  # the safety cap: the fixed work was not finished
                failures.append(f"warm phase passed the {args.seconds:g} s cap after "
                                f"{done} of {len(items)} items")
                break
            done += 1
            res, dt = timed(done, f"op.{kind}", call, check)
            if kind == "op":
                warm_s.append(dt)
            else:
                draw_s.append(dt)
                variates += 0 if res is None else len(res.values)
        wall_s = _now() - w0
        cpu_s = _cpu_s() - cpu0
    finally:
        if tracer is not None:
            tracer.restore()
    failures.extend(wl.finish())  # run-level gate: fails the run, not one operation
    out = {
        "cold_s": cold_s, "warm_s": warm_s, "draw_s": draw_s, "variates": variates,
        "warm_items": done, "wall_s": wall_s, "cpu_s": cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted, "failed": failed, "error_ops": wl.error_ops,
        "failures": failures[:MAX_FAILURES_SHOWN],
    }
    if tracer is not None:
        info = eta.cache_info()
        eta_delta = (info.hits - eta_before.hits, info.misses - eta_before.misses)
        out["layers"] = layers.metrics(tracer, eta_delta)
        out["layers"]["trace.overhead_s"] = tracer.overhead_s
        tracer.dump(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                     "warm_items": done})
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", required=True, help="checkout root holding src/countfam")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="safety cap on the warm phase")
    ap.add_argument("--stop-after", choices=("setup", "cold"), default=None)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
