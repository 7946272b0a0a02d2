"""Monte-Carlo verification driver.

Expands an :class:`ExperimentConfig` into (scenario, replicate) cells, fits
the requested estimators on each synthetic instance, evaluates the selected
bound reports, and assembles rows in a frozen, deterministic order.

``run_verification(config, jobs)`` splits the cells into k = min(jobs, cells)
strided shares. The caller forks k − 1 children with ``os.fork``, runs share
0 itself, and reads each child's rows back as one pickle over a pipe. Every
cell derives its own seed and rows are put back in (scenario index,
replicate) order, so the output never depends on ``jobs`` or scheduling.
"""

from __future__ import annotations

import datetime
import json
import os
import pickle
import signal

import numpy as np

from . import bounds as bd
from .datagen import derive_seed, generate
from .errors import ConfigError, TrexlabError
from .lasso import fit_lasso
from .norms import l1_spec
from .serialize import ExperimentConfig
from .trex import solve_trex, solve_trex_constrained

CSV_COLUMNS = (
    "scenario", "replicate", "theorem", "verdict", "lhs", "rhs",
    "u_hat", "lambda", "nu", "c", "seed", "gates",
)
VERDICTS = ("holds", "violated", "not_applicable")

_TREX_THEOREMS = {
    "trex_fast_via_lasso", "trex_fast_compat", "trex_slow", "general_slow",
    "l1_ordering",
}


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _gates_str(report: bd.BoundReport) -> str:
    return "|".join(f"{a.name}={int(a.holds)}" for a in report.assumptions)


def run_cell(config: ExperimentConfig, scenario_idx: int, replicate: int) -> list[dict]:
    """Evaluate every requested theorem on one synthetic instance."""
    scenario = config.scenarios[scenario_idx]
    seed = derive_seed(scenario.seed, f"replicate={replicate}")
    from dataclasses import replace
    inst_spec = replace(scenario, seed=seed)
    problem, truth = generate(inst_spec)
    spec = config.norm or l1_spec()
    noise_dual = float(np.max(np.abs(problem.x.T @ truth.epsilon)))

    trex_fit = None
    if _TREX_THEOREMS & set(config.theorems):
        solver = config.solver
        if "trex_constrained" in config.estimators:
            trex_fit = solve_trex_constrained(problem, solver, spec)
        else:
            trex_fit = solve_trex(problem, solver, spec)

    nu_est = None
    if {"lasso_fast", "trex_fast_compat"} & set(config.theorems):
        if truth.sparsity > 0:
            nu_est = bd.estimate_compatibility(
                problem, truth.support, samples=config.compat_samples, seed=seed)

    rows = []
    for theorem in config.theorems:
        report = None
        if theorem == "lasso_fast":
            lam = max(2.0 * noise_dual, 1e-12)
            fit = fit_lasso(problem, lam)
            nu_eff = 1.0 if nu_est is None else bd.deflated_nu(nu_est.nu_lower_report,
                                                               nu_est.exact)
            report = bd.verify_lasso_fast(problem, truth, fit, nu_eff)
        elif theorem == "lasso_slow":
            lam = max(noise_dual, 1e-12)
            fit = fit_lasso(problem, lam)
            report = bd.verify_lasso_slow(problem, truth, fit)
        elif theorem == "trex_fast_via_lasso":
            report = bd.verify_trex_fast_via_lasso(problem, truth, trex_fit)
        elif theorem == "trex_fast_compat":
            if nu_est is None:
                continue
            report = bd.verify_trex_fast_compat(
                problem, truth, trex_fit, nu_est.nu_lower_report,
                nu_exact=nu_est.exact)
        elif theorem in ("trex_slow", "general_slow"):
            report = bd.verify_trex_slow(problem, truth, trex_fit, spec)
        elif theorem == "l1_ordering":
            report = bd.verify_l1_ordering(problem, trex_fit)
        if report is None:
            continue
        rows.append({
            "scenario": scenario_idx,
            "replicate": replicate,
            "theorem": report.theorem_id,
            "verdict": report.verdict,
            "lhs": report.bound_lhs,
            "rhs": report.bound_rhs,
            "u_hat": report.inputs.get("u_hat"),
            "lambda": report.inputs.get("lambda_tilde", report.inputs.get("lambda")),
            "nu": report.inputs.get("nu_effective", report.inputs.get("nu")),
            "c": report.inputs.get("c"),
            "seed": seed,
            "gates": _gates_str(report),
        })
    return rows


def _run_share(config: ExperimentConfig, cells) -> list[list[dict]]:
    # looks ``run_cell`` up at call time, so a wrapper installed on the
    # module also runs in the forked children
    return [run_cell(config, i, r) for i, r in cells]


def _fork_share(config: ExperimentConfig, cells) -> tuple[int, int]:
    """Fork a child that runs ``cells`` and writes one pickle to a pipe:
    (chunks, None, None), or (None, pickled exception or None, its text).
    Returns (pid, read end)."""
    read, write = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write)
        return pid, read
    status = 1
    try:
        os.close(read)
        try:
            payload = pickle.dumps((_run_share(config, cells), None, None))
        except Exception as exc:
            try:
                blob = pickle.dumps(exc)
            except Exception:
                blob = None
            payload = pickle.dumps((None, blob, f"{type(exc).__name__}: {exc}"))
        with open(write, "wb") as fh:
            fh.write(payload)
        status = 0
    finally:
        os._exit(status)


def _unpack(payload: bytes, pid: int, status: int) -> list[list[dict]]:
    """A child's chunks, or its exception raised here with its own type."""
    try:
        chunks, blob, text = pickle.loads(payload)
    except Exception:
        raise TrexlabError(f"verification child {pid} exited with status "
                           f"{os.waitstatus_to_exitcode(status)} and no result") from None
    if text is None:
        return chunks
    try:
        exc = pickle.loads(blob)
    except Exception:
        raise TrexlabError(text) from None
    raise exc


def run_verification(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Run every (scenario, replicate) cell, share s of k = min(jobs, cells)
    holding cells s, s+k, s+2k, ...; rows come back in cell order."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    cells = [(i, r) for i in range(len(config.scenarios))
             for r in range(config.replicates)]
    k = min(jobs, len(cells))
    if jobs > 1 and not hasattr(os, "fork"):
        raise ConfigError("jobs > 1 needs os.fork, which this platform lacks")
    children, payloads, statuses = [], [], []
    try:
        for share in range(1, k):
            children.append(_fork_share(config, cells[share::k]))
        shares = [_run_share(config, cells[::k])]
        # read every pipe to its end before reaping: a child blocks on a
        # payload larger than the pipe's buffer until it is read
        for _, read in children:
            with open(read, "rb", closefd=False) as fh:
                payloads.append(fh.read())
    finally:
        failed = len(payloads) < len(children)
        for pid, read in children:
            os.close(read)
            if failed:
                os.kill(pid, signal.SIGKILL)
            statuses.append(os.waitpid(pid, 0)[1])
    for (pid, _), payload, status in zip(children, payloads, statuses):
        shares.append(_unpack(payload, pid, status))
    chunks = [None] * len(cells)
    for share, got in enumerate(shares):
        chunks[share::k] = got
    return [row for chunk in chunks for row in chunk]


def summarize(rows: list[dict]) -> dict:
    """Per-theorem verdict counts, worst holds-ratio and slack quantiles."""
    summary = {}
    for row in rows:
        t = summary.setdefault(row["theorem"], {
            **dict.fromkeys(VERDICTS, 0), "worst_ratio": None, "slacks": []})
        t[row["verdict"]] += 1
        if row["verdict"] == "holds" and row["rhs"]:
            ratio = row["lhs"] / row["rhs"]
            if t["worst_ratio"] is None or ratio > t["worst_ratio"]:
                t["worst_ratio"] = ratio
            t["slacks"].append(1.0 - ratio)
    out = {}
    for theorem, t in summary.items():
        slacks = np.asarray(t.pop("slacks"))
        if slacks.size:
            qs = np.percentile(slacks, [0, 25, 50, 75, 100])
            t["slack_quantiles"] = [float(q) for q in qs]
        out[theorem] = t
    out["_total"] = {
        "rows": len(rows),
        "violated": sum(1 for r in rows if r["verdict"] == "violated"),
    }
    return out


def rows_to_csv(rows: list[dict], timestamp: bool = True) -> str:
    lines = []
    if timestamp:
        lines.append(f"# generated {datetime.datetime.now().isoformat()}")
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def write_reports(rows: list[dict], out_dir: str, timestamp: bool = True) -> dict:
    """Write report.csv and report.json under ``out_dir``; returns the summary."""
    os.makedirs(out_dir, exist_ok=True)
    summary = summarize(rows)
    with open(os.path.join(out_dir, "report.csv"), "w") as fh:
        fh.write(rows_to_csv(rows, timestamp=timestamp))
    payload = {"rows": rows, "summary": summary}
    if timestamp:
        payload["generated"] = datetime.datetime.now().isoformat()
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        json.dump(payload, fh, indent=1)
    return summary
