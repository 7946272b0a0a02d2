"""Command-line interface: fit estimators, run verification suites, summarize.

Exit codes: 0 on success, 1 on errors (parse, configuration, solver failure),
2 when a fit finished but is flagged non-converged or a verification run
contains at least one violated bound.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import json
import os
import sys

import numpy as np

from .errors import TrexlabError
from . import harness
from .lasso import fit_lasso
from .norms import NormSpec, l1_spec
from .serialize import (
    ExperimentConfig,
    ParseError,
    lasso_fit_to_dict,
    load_problem,
    trex_fit_to_dict,
)
from .trex import SolverConfig, solve_trex, solve_trex_constrained, solve_trex_unpenalized


@functools.cache
def _openblas() -> tuple:
    """(get, set) thread-count functions of every OpenBLAS this process has
    loaded, found once per process through /proc/self/maps; empty without
    OpenBLAS. numpy loads its own when this module is imported."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return ()
    pairs = []
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
            get = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
            set_ = getattr(handle, f"{prefix}openblas_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pairs.append((get, set_))
                break
    return tuple(pairs)


def _one_blas_thread() -> None:
    """Set every OpenBLAS this process has loaded to one thread.

    ``verify --jobs N`` runs one share of its cells in this process and the
    others in children forked from it with ``os.fork``, so every share runs
    on one thread and ``--jobs`` alone sets the parallelism. Does nothing
    where no OpenBLAS is loaded.
    """
    for get, set_ in _openblas():
        if get() != 1:
            set_(1)


def cmd_fit(args) -> int:
    problem, _ = load_problem(args.problem)
    config = SolverConfig(c=args.c, seed=args.seed or 0)
    spec = l1_spec()
    if args.groups:
        with open(args.groups) as fh:
            spec = NormSpec.from_dict(json.load(fh))
    if args.estimator == "lasso":
        if args.penalty is None:
            raise TrexlabError("--penalty is required for the lasso estimator")
        fit = fit_lasso(problem, args.penalty)
        payload = lasso_fit_to_dict(fit)
        converged = fit.converged
    else:
        if args.estimator == "trex":
            fit = solve_trex(problem, config, spec)
        elif args.estimator == "trex-constrained":
            fit = solve_trex_constrained(problem, config, spec, bound=args.bound)
        elif args.estimator == "trex-unpenalized":
            idx = [int(v) - 1 for v in args.unpenalized.split(",")] if args.unpenalized else []
            fit = solve_trex_unpenalized(problem, config, spec, idx)
        else:
            raise TrexlabError(f"unknown estimator {args.estimator!r}")
        payload = trex_fit_to_dict(fit)
        converged = fit.diagnostics["all_converged"]
    out = args.out or "fit.json"
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=1)
    print(f"wrote {out}")
    return 0 if converged else 2


def cmd_verify(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    if args.seed is not None:
        from dataclasses import replace
        config = replace(config, scenarios=tuple(
            replace(s, seed=args.seed + i) for i, s in enumerate(config.scenarios)))
    jobs = args.jobs if args.jobs is not None else int(os.environ.get("TREXLAB_JOBS", "1"))
    rows = harness.run_verification(config, jobs=jobs)
    out_dir = args.out or "."
    summary = harness.write_reports(rows, out_dir, timestamp=not args.no_timestamp)
    for theorem in sorted(k for k in summary if not k.startswith("_")):
        t = summary[theorem]
        print(f"{theorem}: holds={t['holds']} violated={t['violated']} "
              f"not_applicable={t['not_applicable']}")
    violated = summary["_total"]["violated"]
    print(f"total rows: {summary['_total']['rows']}, violated: {violated}")
    return 2 if violated else 0


def cmd_report(args) -> int:
    path = args.report
    if path.endswith(".json"):
        with open(path) as fh:
            rows = json.load(fh)["rows"]
    else:
        rows = []
        with open(path) as fh:
            lines = [ln for ln in fh.read().splitlines()
                     if ln and not ln.startswith("#")]
        header = lines[0].split(",")
        for ln in lines[1:]:
            parts = ln.split(",")
            row = dict(zip(header, parts))
            row["lhs"] = float(row["lhs"]) if row["lhs"] else None
            row["rhs"] = float(row["rhs"]) if row["rhs"] else None
            rows.append(row)
    summary = harness.summarize(rows)
    for theorem in sorted(k for k in summary if not k.startswith("_")):
        t = summary[theorem]
        line = (f"{theorem}: holds={t['holds']} violated={t['violated']} "
                f"not_applicable={t['not_applicable']}")
        if t.get("worst_ratio") is not None:
            line += f" worst_lhs/rhs={t['worst_ratio']:.6g}"
        if "slack_quantiles" in t:
            qs = ", ".join(f"{q:.3g}" for q in t["slack_quantiles"])
            line += f" slack[min,q25,med,q75,max]=[{qs}]"
        print(line)
    print(f"total rows: {summary['_total']['rows']}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="trexlab")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit an estimator on a problem file")
    fit.add_argument("problem", help="problem file (.csv or .json)")
    fit.add_argument("--estimator", default="trex",
                     choices=["trex", "trex-constrained", "trex-unpenalized", "lasso"])
    fit.add_argument("--c", type=float, default=0.5)
    fit.add_argument("--penalty", type=float, default=None,
                     help="penalty level for the lasso estimator")
    fit.add_argument("--bound", type=float, default=None,
                     help="dual bound for the constrained variant")
    fit.add_argument("--unpenalized", default="",
                     help="comma-separated 1-based unpenalized indices")
    fit.add_argument("--groups", default=None,
                     help="norm spec JSON file; the penalty is l1 without it")
    fit.add_argument("--seed", type=int, default=None)
    fit.add_argument("--out", default=None)
    fit.set_defaults(func=cmd_fit)

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("--config", required=True)
    ver.add_argument("--out", default=None)
    ver.add_argument("--jobs", type=int, default=None)
    ver.add_argument("--seed", type=int, default=None)
    ver.add_argument("--no-timestamp", action="store_true")
    ver.set_defaults(func=cmd_verify)

    rep = sub.add_parser("report", help="summarize a report file")
    rep.add_argument("report", help="report.csv or report.json")
    rep.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    _one_blas_thread()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TrexlabError, ParseError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
