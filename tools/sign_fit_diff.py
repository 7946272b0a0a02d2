"""Sign and group fits of a base commit against this checkout, family by family.

    python3 tools/sign_fit_diff.py --base HEAD
    python3 tools/sign_fit_diff.py --base HEAD --family item1 --family wide --repeat 3

Builds every problem once, in this checkout (the ``fit_l1``, ``fit_l1_c1``,
``fit_constrained`` and ``group`` items come from ``benchmarks/workloads.py``,
which is only read), then solves them all in one process per side: the base commit,
extracted as ``tools/bench_pairs.py`` extracts it (into the gitignored
``.bench_base/<sha>``), and this checkout, each on one BLAS thread. With
``--repeat N`` the sides run N times each, alternating which goes first. The
families, every fit at c = 1/2 unless stated:

- ``fit_l1``, ``fit_constrained``: the benchmark items of seed 11, passes 0-1;
- ``fit_l1_c1``: the ``fit_l1`` items at c = 1, where most rows are pruned
  within a few iterations, so that the fixed cost of choosing the starts
  shows in the CPU time;
- ``item1``: ``solve_trex_constrained`` with the default bound on
  ``ScenarioSpec(n, p, s=5, seed)`` for (40, 200, 3) and (50, 400, 7-9);
- ``wide``: ``solve_trex`` on (40, 200, 3) and (50, 400, 7);
- ``noise``: ``solve_trex`` on n=6, p=9 pure noise, ``default_rng(k)`` for
  k < 200;
- ``tiny``: 300 pure-noise problems, n 2-20, p 2-15, every third with a
  weighted l1 penalty, constrained at 0.2-1 of dual(x.T y);
- ``group``: the ``fit_group`` items of seed 11, passes 0-1 (groups of 4),
  each solved by ``solve_trex`` and by ``solve_trex_constrained`` with the
  default bound.

Per family it prints the fits, the identical ones (objective, winner and
``certified_gap`` exactly equal on both sides), the fits with
``all_converged``, the heuristic fits (``certified_gap`` None: group fits
carry no certificate), the uncertified fits (``certified_gap`` above
1e-9 (1 + |f|), or no fit), the falsely converged ones (``all_converged``
with such a gap), the CPU seconds of each side (one number per run) and, over the fits
without an error, the summed ``iterations``, ``row_iterations`` and
``trial_rounds`` of each side's first run (None where a side lacks one);
among the fits both sides certify, and every pair of heuristic fits, the
ones whose winners differ and the largest relative objective change; the fits whose objective rose by more
than 1e-9 relative, with those of them the base certified and the largest
relative rise; and the fits whose objective fell by more than 1e-9 relative.

It exits 1, naming each fault, when a family has more uncertified or more
falsely converged fits on this checkout than on the base, when a winner
differs where both sides certify, or when an objective the base certified
rose by more than 1e-9 relative (``regressions``); otherwise 0.
"""

import argparse
import json
import os
import pickle
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_pairs import base_checkout  # noqa: E402

FAMILIES = ("fit_l1", "fit_l1_c1", "fit_constrained", "item1", "wide", "noise", "tiny",
            "group")
CERTIFIED = 1e-9
# the engine's work counters of a fit's diagnostics, summed per family and side
COUNTS = ("iterations", "row_iterations", "trial_rounds")
SINGLE_THREAD = {k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                  "MKL_NUM_THREADS")}

# run inside one side's checkout: solve every case of a pickled list, write
# one record per case
RUNNER = """
import json, pickle, sys, time
from trexlab.model import RegressionProblem
from trexlab.norms import group_spec, l1_spec, weighted_l1_spec
from trexlab.trex import SolverConfig, solve_trex, solve_trex_constrained
COUNTS = %r
cases, out = pickle.load(open(sys.argv[1], "rb")), []
for case in cases:
    problem = RegressionProblem(case["x"], case["y"], normalized=True)
    if case["partition"] is not None:
        spec = group_spec(case["partition"])
    else:
        spec = l1_spec() if case["w"] is None else weighted_l1_spec(case["w"])
    config = SolverConfig(c=case["c"])
    start = time.process_time()
    try:
        if case["constrained"]:
            fit = solve_trex_constrained(problem, config, spec, bound=case["bound"])
        else:
            fit = solve_trex(problem, config, spec)
        rec = {"objective": fit.objective, "winner": list(fit.winner),
               "gap": fit.diagnostics["certified_gap"],
               "converged": fit.diagnostics["all_converged"]}
        rec.update((k, fit.diagnostics.get(k)) for k in COUNTS)
    except Exception as exc:
        rec = {"error": type(exc).__name__}
    rec["cpu"] = time.process_time() - start
    out.append(rec)
json.dump(out, open(sys.argv[2], "w"))
""" % (COUNTS,)


def _case(family, problem, constrained, w=None, bound=None, partition=None, c=0.5):
    return {"family": family, "x": problem.x, "y": problem.y, "w": w,
            "constrained": constrained, "bound": bound, "partition": partition, "c": c}


def build_cases(families) -> list:
    """Every problem of the named families, in a fixed order."""
    from trexlab.datagen import ScenarioSpec, generate
    from trexlab.model import make_problem
    from workloads import FitConstrained, FitGroup, FitL1

    cases = []
    with tempfile.TemporaryDirectory() as work:
        for family, workload, c in (("fit_l1", FitL1, 0.5), ("fit_l1_c1", FitL1, 1.0),
                                    ("fit_constrained", FitConstrained, 0.5)):
            if family in families:
                for pass_index in (0, 1):
                    for item in workload(11, False, work).make_pass(pass_index):
                        cases.append(_case(family, item.problem,
                                           family == "fit_constrained", c=c))
        if "group" in families:
            for pass_index in (0, 1):
                for item in FitGroup(11, False, work).make_pass(pass_index):
                    partition = [list(g) for g in item.spec.partition]
                    for constrained in (False, True):
                        cases.append(_case("group", item.problem, constrained,
                                           partition=partition))
    if "item1" in families:
        for n, p, seed in ((40, 200, 3), (50, 400, 7), (50, 400, 8), (50, 400, 9)):
            cases.append(_case("item1", generate(ScenarioSpec(n=n, p=p, s=5, seed=seed))[0],
                               True))
    if "wide" in families:
        for n, p, seed in ((40, 200, 3), (50, 400, 7)):
            cases.append(_case("wide", generate(ScenarioSpec(n=n, p=p, s=5, seed=seed))[0],
                               False))
    if "noise" in families:
        for k in range(200):
            rng = np.random.default_rng(k)
            x = rng.standard_normal((6, 9))
            cases.append(_case("noise", make_problem(x, rng.standard_normal(6))[0], False))
    if "tiny" in families:
        for k in range(300):
            rng = np.random.default_rng([7, k])
            n, p = int(rng.integers(2, 21)), int(rng.integers(2, 16))
            problem = make_problem(rng.standard_normal((n, p)), rng.standard_normal(n))[0]
            w = rng.uniform(0.5, 2.0, p) if k % 3 == 0 else np.ones(p)
            bound = float(rng.uniform(0.2, 1.0) * np.max(np.abs(problem.x.T @ problem.y) / w))
            cases.append(_case("tiny", problem, True, None if k % 3 else w, bound))
    return cases


def solve_side(root, case_file, out_file) -> list:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **SINGLE_THREAD)
    subprocess.run([sys.executable, "-c", RUNNER, case_file, out_file], cwd=root,
                   env=env, check=True)
    with open(out_file) as fh:
        return json.load(fh)


def _heuristic(rec) -> bool:
    return "error" not in rec and rec["gap"] is None


def _uncertified(rec) -> bool:
    """No fit, or a certificate open beyond ``CERTIFIED``; a heuristic fit
    has none to be open."""
    return "error" in rec or not (_heuristic(rec) or
                                  rec["gap"] <= CERTIFIED * (1.0 + abs(rec["objective"])))


def summarize(families, parent, change) -> dict:
    """Per family: fits, bit-identical fits, fits with ``all_converged``,
    heuristic, uncertified and falsely converged fits on each side, the
    summed engine counters (``COUNTS``) of each side's first run,
    differing winners and the largest relative objective change among the
    fits neither side left uncertified (every heuristic pair), the fits whose
    objective rose (and the largest relative rise) and those whose objective
    fell. ``families`` names the family of each record; ``parent`` and
    ``change`` are lists of runs, each a list of records."""
    out = {}
    for family in dict.fromkeys(families):
        at = [i for i, f in enumerate(families) if f == family]
        pairs = [(parent[0][i], change[0][i]) for i in at
                 if "error" not in parent[0][i] and "error" not in change[0][i]]
        row = {"fits": len(at),
               "identical": sum(all(a[k] == b[k] for k in ("objective", "winner", "gap"))
                                for a, b in pairs)}
        for side, runs in (("parent", parent), ("change", change)):
            recs = [runs[0][i] for i in at]
            row[f"converged_{side}"] = sum("error" not in r and r["converged"] for r in recs)
            row[f"heuristic_{side}"] = sum(map(_heuristic, recs))
            row[f"uncertified_{side}"] = sum(map(_uncertified, recs))
            row[f"false_converged_{side}"] = sum(
                "error" not in r and r["converged"] and _uncertified(r) for r in recs)
            row[f"cpu_{side}"] = [round(sum(run[i]["cpu"] for i in at), 3) for run in runs]
            for key in COUNTS:
                # None where a side's fits lack the counter
                vals = [r.get(key) for r in recs if "error" not in r]
                row[f"{key}_{side}"] = None if None in vals else sum(vals)
        both = [(a, b) for a, b in pairs if not (_uncertified(a) or _uncertified(b))]
        row["winners_differ"] = sum(a["winner"] != b["winner"] for a, b in both)
        row["max_rel_objective_change"] = max(
            (abs(b["objective"] - a["objective"]) / max(abs(a["objective"]), 1e-300)
             for a, b in both), default=0.0)
        rise = [(b["objective"] - a["objective"]) / max(abs(a["objective"]), 1e-300)
                for a, b in pairs]
        rose = [(a, b) for (a, b), r in zip(pairs, rise) if r > CERTIFIED]
        row["rose"] = len(rose)
        row["rose_where_parent_certified"] = sum(not _uncertified(a) for a, _ in rose)
        row["max_rel_rise"] = max((r for r in rise if r > CERTIFIED), default=0.0)
        row["fell"] = sum(r < -CERTIFIED for r in rise)
        out[family] = row
    return out


def regressions(table) -> list:
    """One line per family and fault of a ``summarize`` table: more
    uncertified or falsely converged fits on the change side, winners that
    differ where both sides certify (``winners_differ``, which counts every
    heuristic pair too), and objectives the parent certified that rose by
    more than ``CERTIFIED`` relative."""
    out = []
    for family, row in table.items():
        for key in ("uncertified", "false_converged"):
            before, after = row[f"{key}_parent"], row[f"{key}_change"]
            if after > before:
                out.append(f"{family}: {key} fits {before} -> {after}")
        if row["winners_differ"]:
            out.append(f"{family}: {row['winners_differ']} winners differ")
        if row["rose_where_parent_certified"]:
            out.append(f"{family}: {row['rose_where_parent_certified']} objectives the "
                       f"parent certified rose by more than {CERTIFIED:g} relative")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="git revision to compare against")
    ap.add_argument("--family", action="append", choices=FAMILIES,
                    help="a family to run (repeatable; default: all)")
    ap.add_argument("--repeat", type=int, default=1, help="runs per side")
    args = ap.parse_args(argv)
    families = args.family or list(FAMILIES)
    cases = build_cases(families)
    _, base_root = base_checkout(args.base)
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as work:
        case_file = os.path.join(work, "cases.pkl")
        with open(case_file, "wb") as fh:
            pickle.dump(cases, fh)
        for k in range(args.repeat):
            order = (("parent", base_root), ("change", ROOT))
            for side, root in (order if k % 2 == 0 else order[::-1]):
                runs[side].append(solve_side(root, case_file, os.path.join(work, "out.json")))
    table = summarize([c["family"] for c in cases], runs["parent"], runs["change"])
    for family, row in table.items():
        print(family, json.dumps(row))
    faults = regressions(table)
    for line in faults:
        print("worse:", line)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
