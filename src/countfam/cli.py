"""Command-line interface over CSV count data.

Commands: pmf, sample, fit, gof, compare, moments.  Randomized commands take
a --seed (defaulting to 12345) which is echoed on stderr; `sample` writes one
count per line so its output re-ingests as raw data.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .errors import DomainError, EvaluationError
from .gfpd import gfpd_pmf_table  # noqa: F401  (perfbench/layers.py wraps cli.gfpd_pmf_table)
from .inference import LAWS, MODELS, CountData, fit, fit_grid, fit_simplex, gof_chisq, compare, loglik
from .sampling import RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_DOMAIN = 4
EXIT_EVAL = 5

DEFAULT_SEED = 12345


class CliError(Exception):
    def __init__(self, code, message):
        super().__init__(message)
        self.code = code


def ingest(path: str, fmt: str = "raw") -> CountData:
    """Read count data from a file.

    raw: one non-negative integer per line.  histogram: "value,frequency"
    lines.  Blank lines are skipped; anything else is a parse error carrying
    the 1-based line number.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}") from exc
    hist = {}
    n = 0
    for ln, raw in enumerate(lines, start=1):
        s = raw.strip()
        if not s:
            continue
        if fmt == "raw":
            try:
                v = _int_token(s)
            except ValueError:
                raise CliError(EXIT_PARSE, f"{path}:{ln}: not a non-negative integer: {s!r}")
            hist[v] = hist.get(v, 0) + 1
            n += 1
        else:
            parts = s.split(",")
            if len(parts) != 2:
                raise CliError(EXIT_PARSE, f"{path}:{ln}: expected 'value,frequency': {s!r}")
            try:
                v = _int_token(parts[0].strip())
                f = _int_token(parts[1].strip())
            except ValueError:
                raise CliError(EXIT_PARSE, f"{path}:{ln}: non-integer token: {s!r}")
            if f < 1:
                raise CliError(EXIT_PARSE, f"{path}:{ln}: frequency must be >= 1: {s!r}")
            hist[v] = hist.get(v, 0) + f
            n += f
    if n == 0:
        raise CliError(EXIT_PARSE, f"{path}: no data")
    try:
        return CountData(hist, n)
    except DomainError as exc:
        raise CliError(EXIT_PARSE, f"{path}: {exc}") from exc


def _int_token(s: str) -> int:
    if not s or not (s.isdigit() or (s[0] in "+" and s[1:].isdigit())):
        raise ValueError(s)
    return int(s)


def _theta(args, spec):
    """The law's parameters from their flags, in the registry's order."""
    theta = []
    for name in spec.param_names:
        v = getattr(args, name)
        if v is None:
            raise CliError(EXIT_USAGE, f"--{name} is required for model {args.model!r}")
        theta.append(v)
    return tuple(theta)


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _emit_rows(rows, header, fmt, out):
    if fmt == "json":
        json.dump(rows, out, indent=2, default=float)
        out.write("\n")
        return
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for r in rows:
            out.write(",".join(_cell(r.get(h)) for h in header) + "\n")
        return
    widths = [max(len(h), *(len(_cell(r.get(h))) for r in rows)) for h in header]
    out.write("  ".join(h.ljust(w) for h, w in zip(header, widths)) + "\n")
    for r in rows:
        out.write("  ".join(_cell(r.get(h)).ljust(w) for h, w in zip(header, widths)) + "\n")


def _cell(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.10g}"
    if isinstance(v, dict):
        return ";".join(f"{k}={val:.6g}" for k, val in v.items())
    return str(v)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_pmf(args, out):
    if args.x_max is not None and args.x_max < 0:
        raise CliError(EXIT_USAGE, f"--x-max must be >= 0, got {args.x_max}")
    spec = LAWS[args.model]
    table = spec.pmf(_theta(args, spec), args.x_max)
    rows = [{"x": i, "probability": float(p)} for i, p in enumerate(table)]
    _emit_rows(rows, ["x", "probability"], args.output_format, out)
    return EXIT_OK


def _cmd_sample(args, out):
    rng = RngStream(args.seed)
    spec = LAWS[args.model]
    batch = spec.sample(_theta(args, spec), args.n, rng)
    for v in batch.values:
        out.write(f"{int(v)}\n")
    print(f"seed: {batch.seed}", file=sys.stderr)
    return EXIT_OK


def _fit_one(args, data):
    if args.method == "grid":
        return fit_grid(args.model, data, pool=not args.no_pool)
    if args.method == "simplex":
        return fit_simplex(args.model, data, pool=not args.no_pool)
    return fit(args.model, data, pool=not args.no_pool)


def _cmd_fit(args, out):
    data = ingest(args.input, args.format)
    res = _fit_one(args, data)
    row = res.to_dict()
    _emit_rows([row], ["model", "params", "loglik", "chi2", "df", "p_value", "converged"],
               args.output_format, out)
    return EXIT_OK


def _cmd_gof(args, out):
    data = ingest(args.input, args.format)
    spec = MODELS[args.model]
    theta = _theta(args, spec)
    chi2, df, p = gof_chisq(args.model, theta, data, pool=not args.no_pool)
    ll = loglik(args.model, theta, data)
    row = {"model": args.model, "params": dict(zip(spec.param_names, theta)),
           "loglik": ll, "chi2": chi2, "df": df, "p_value": p, "converged": True}
    _emit_rows([row], ["model", "params", "loglik", "chi2", "df", "p_value"],
               args.output_format, out)
    return EXIT_OK


def _cmd_compare(args, out):
    data = ingest(args.input, args.format)
    models = [m.strip() for m in args.models.split(",") if m.strip()]
    rows = compare(models, data, pool=not args.no_pool)
    _emit_rows(rows, ["model", "params", "loglik", "chi2", "df", "p_value", "converged", "error"],
               args.output_format, out)
    return EXIT_OK


def _cmd_moments(args, out):
    spec = LAWS[args.model]
    s = spec.summary(_theta(args, spec))
    row = {"mean": s.mean, "variance": s.variance, "skewness": s.skewness,
           "fisher_index": s.fisher_index}
    _emit_rows([row], ["mean", "variance", "skewness", "fisher_index"], args.output_format, out)
    return EXIT_OK


def _add_model_flags(p, models):
    p.add_argument("--model", required=True, choices=sorted(models))
    for flag in dict.fromkeys(n for spec in LAWS.values() for n in spec.param_names):
        p.add_argument(f"--{flag}", type=float, default=None)


def build_parser():
    ap = argparse.ArgumentParser(
        prog="countfam",
        description="Count-distribution toolkit: flexible Poisson-type laws, "
        "sampling, fitting and goodness of fit.",
    )
    ap.add_argument("--version", action="version", version=f"countfam {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pmf", help="tabulate a pmf as (x, probability) rows")
    _add_model_flags(p, LAWS)
    p.add_argument("--x-max", type=int, default=None)
    p.add_argument("--output-format", choices=("table", "json", "csv"), default="csv")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("sample", help="simulate counts, one per line")
    _add_model_flags(p, LAWS)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_sample)

    for name, fn in (("fit", _cmd_fit), ("gof", _cmd_gof)):
        p = sub.add_parser(name)
        _add_model_flags(p, MODELS)
        p.add_argument("--input", required=True)
        p.add_argument("--format", choices=("raw", "histogram"), default="raw")
        p.add_argument("--no-pool", action="store_true",
                       help="keep raw chi-square cells instead of pooling to expected >= 5")
        p.add_argument("--output-format", choices=("table", "json", "csv"), default="table")
        if name == "fit":
            p.add_argument("--method", choices=("auto", "grid", "simplex"), default="auto")
        p.set_defaults(func=fn)

    p = sub.add_parser("compare", help="fit several models and rank by p-value")
    p.add_argument("--models", required=True, help="comma-separated model names")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=("raw", "histogram"), default="raw")
    p.add_argument("--no-pool", action="store_true")
    p.add_argument("--output-format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("moments", help="mean/variance/skewness/Fisher index of a model")
    _add_model_flags(p, LAWS)
    p.add_argument("--output-format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=_cmd_moments)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        return args.func(args, sys.stdout)
    except CliError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.code
    except DomainError as exc:
        print(f"error[{EXIT_DOMAIN}]: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except EvaluationError as exc:
        print(f"error[{EXIT_EVAL}]: {exc}", file=sys.stderr)
        return EXIT_EVAL


if __name__ == "__main__":
    sys.exit(main())
