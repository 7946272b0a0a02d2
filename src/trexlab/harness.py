"""Monte-Carlo verification driver.

Expands an :class:`ExperimentConfig` into (scenario, replicate) cells, fits
the requested estimators on each synthetic instance, evaluates the selected
bound reports, and assembles rows in a frozen, deterministic order. Cells may
execute concurrently; output order never depends on scheduling because every
cell derives its own seed and rows are sorted by (scenario index, replicate).
"""

from __future__ import annotations

import concurrent.futures
import datetime
import json
import os

import numpy as np

from . import bounds as bd
from .datagen import derive_seed, generate
from .lasso import fit_lasso
from .norms import l1_spec
from .serialize import ExperimentConfig
from .trex import solve_trex, solve_trex_constrained

CSV_COLUMNS = (
    "scenario", "replicate", "theorem", "verdict", "lhs", "rhs",
    "u_hat", "lambda", "nu", "c", "seed", "gates",
)

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


def run_verification(config: ExperimentConfig, jobs: int = 1) -> list[dict]:
    """Run every (scenario, replicate) cell, deterministically ordered."""
    cells = [(i, r) for i in range(len(config.scenarios))
             for r in range(config.replicates)]
    if jobs <= 1:
        chunks = [run_cell(config, i, r) for i, r in cells]
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = {pool.submit(run_cell, config, i, r): (i, r) for i, r in cells}
            got = {futures[f]: f.result() for f in
                   concurrent.futures.as_completed(futures)}
        chunks = [got[cell] for cell in cells]
    return [row for chunk in chunks for row in chunk]


def summarize(rows: list[dict]) -> dict:
    """Per-theorem verdict counts, worst holds-ratio and slack quantiles."""
    summary = {}
    for row in rows:
        t = summary.setdefault(row["theorem"], {
            "holds": 0, "violated": 0, "not_applicable": 0,
            "worst_ratio": None, "slacks": []})
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
