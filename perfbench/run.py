"""countfam benchmark: run one workload in fresh worker processes and print
its metrics.

    python3 perfbench/run.py --workload fit_fractional --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (the directory holding ``src/countfam``).
With ``--trace 0`` it starts two probes and one measured worker and prints
the end-to-end metrics (a probe stops after set-up, or after the cold
operation where that is cheap enough to repeat); with ``--trace 1`` it runs
one traced worker and prints the per-layer metrics.  The last line of
standard output is the JSON result; the line before it holds the details
(percentiles, sample counts, machine, failures).
Exit status: 0 when every output check passed, 1 when one failed or a worker
broke, 2 on bad usage or when there is no countfam source to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("pmf_tables", "compare_weighted", "fit_fractional")
SETUP_SAMPLES = 3  # set-up is measured in this many fresh workers; the median is reported
# workloads whose probes also time the cold operation (the median of the three
# is reported); the cold fit takes 25-40 s on a 2-core machine, so it is timed once
REPEAT_COLD = ("pmf_tables", "compare_weighted")
BUDGET_S = 170.0  # a run must end within 180 s
TAIL_BEYOND = 10  # the tail percentile keeps at least this many operations above it


class WorkerError(Exception):
    pass


def _worker(root, deadline, args, extra):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    spawn = time.perf_counter()
    timeout = deadline - spawn
    if timeout <= 0:
        raise WorkerError("no time left for another worker")
    try:
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited {proc.returncode}")
    res = json.loads(lines[-1])
    # perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and worker
    res["setup_s"] = res["ready"] - spawn
    return res


def _tail(values):
    """Highest percentile with at least TAIL_BEYOND values above it."""
    s = sorted(values)
    k = max(len(s) - TAIL_BEYOND, 1)
    return s[k - 1], 100.0 * k / len(s)


def _git(root, *cmd):
    out = subprocess.run(["git", "-C", root, *cmd], stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=30)
    if out.returncode != 0:
        raise OSError(f"git {cmd[0]} failed")
    return out.stdout.strip()


def _revision(root):
    try:
        if os.path.realpath(_git(root, "rev-parse", "--show-toplevel")) != os.path.realpath(root):
            raise OSError("not the top of a git work tree")
        return {"git_sha": _git(root, "rev-parse", "HEAD"),
                "dirty": bool(_git(root, "status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": "unknown", "dirty": None}


def _machine(root):
    versions = {"python": platform.python_version()}
    for pkg in ("numpy", "scipy", "mpmath"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "versions": versions,
        "openblas_threads": {k: os.environ.get(k, "unset")
                             for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        **_revision(root),
    }


def end_to_end(setups, colds, res):
    warm = res["warm_s"]
    tail, q = _tail(warm)
    metrics = {
        "setup_s": statistics.median(setups),
        "cold_s": statistics.median(colds),
        "wall_s": res["wall_s"],
        "cpu_s": res["cpu_s"],
        "call_s_p50": statistics.median(warm),
        "call_s_ptail": tail,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    detail = {"setup_samples_s": setups, "cold_samples_s": colds, "warm_ops": len(warm),
              "call_s_ptail": {"percentile": q, "samples": len(warm)},
              "ops_per_s": {"value": len(warm) / sum(warm), "unit": "1/s"}}
    return metrics, detail


def per_layer(res):
    m = dict(res["layers"])
    m["setup.import_s"] = res["import_s"]
    m["setup.inputs_s"] = res["inputs_s"]
    # share of operations that raised, failed a check or returned a compare
    # row with an error (model refusals count)
    m["bench.fail_share"] = min(res["failed"] + res["error_ops"], res["attempted"]) / res["attempted"]
    draws = sum(res["draw_s"])
    m["sampling.variates_per_s"] = res["variates"] / draws if draws else 0.0
    return m, {"traced_wall_s": res["wall_s"], "warm_items": res["warm_items"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="safety cap on the warm phase; the warm work itself is fixed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    deadline = start + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "countfam", "__init__.py")):
        print(f"perfbench: no countfam source under {root}/src; run from the checkout root",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        listed = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    machine = _machine(root)
    try:
        if args.trace:
            trace_out = os.path.join(root, "perfbench", "out",
                                     f"trace-{args.workload}-seed{args.seed}.json")
            res = _worker(root, deadline, args, ["--trace", "--trace-out", trace_out])
            metrics, detail = per_layer(res)
            detail["trace_file"] = os.path.relpath(trace_out, root)
        else:
            stop = "cold" if args.workload in REPEAT_COLD else "setup"
            probes = [_worker(root, deadline, args, ["--stop-after", stop])
                      for _ in range(SETUP_SAMPLES - 1)]
            res = _worker(root, deadline, args, [])
            for p in probes:  # a probe's cold operation is checked like any other
                if "cold_s" in p:
                    res["attempted"] += p["attempted"]
                    res["failed"] += p["failed"]
                    res["failures"] += p["failures"]
            metrics, detail = end_to_end([p["setup_s"] for p in probes] + [res["setup_s"]],
                                         [p["cold_s"] for p in probes if "cold_s" in p]
                                         + [res["cold_s"]], res)
    except WorkerError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    failures = res["failures"]
    correct = not failures
    machine["loadavg_end"] = list(os.getloadavg())
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, machine=machine, failures=failures,
                  run_s=time.perf_counter() - start)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    if not correct:
        print("perfbench: output check failed: " + "; ".join(failures[:5]), file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
