"""Paired benchmark runs of this checkout against a base commit.

    python3 tools/bench_pairs.py --tag verify --base HEAD \
        --pairs verify_mixed=301-310 --pairs fit_l1=311-320

The base commit is extracted with ``git archive`` into ``.bench_base/<sha>``
(gitignored). For every ``--pairs WORKLOAD=SEEDS`` the script runs
``benchmarks/run.py --workload W --seed S --seconds T --trace 0`` once in the
base ("parent") and once in this checkout ("change") per seed, the parent
first in even-numbered pairs and the change first in odd ones, then one
``--trace 1 --seed 11`` run per side and workload. T is the ``run_seconds``
of ``BENCHMARK.json``, the length the benchmark's own gate uses. It writes
``BENCH_<tag>.json`` with every run, a summary per end-to-end metric of
``BENCHMARK.json`` (medians, quartiles, the parent's IQR, the change/parent
ratio of medians, the pairs the change wins and the gate's two verdicts,
``claim_met`` and ``within_bound``) and the per-layer metrics of the traced
runs. The file is rewritten after every run, so a script
stopped midway keeps every run it finished.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
TRACE_SEED = 11
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    BENCHMARK = json.load(_fh)


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, text=True,
                          stdout=subprocess.PIPE).stdout.strip()


def base_checkout(rev: str) -> tuple:
    """The sha of ``rev`` and a clean copy of it under .bench_base/."""
    sha = git("rev-parse", rev)
    path = os.path.join(ROOT, ".bench_base", sha)
    if not os.path.isdir(path):
        os.makedirs(path + ".part", exist_ok=True)
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", path + ".part"], stdin=archive.stdout,
                       check=True)
        if archive.wait() != 0:
            raise SystemExit(f"git archive {sha} failed")
        os.rename(path + ".part", path)
    return sha, path


def seeds_of(text: str) -> list:
    """'301-310' or '1,5,9' (or a mix) as a list of seeds."""
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(root: str, workload: str, seed: int, trace: int) -> tuple:
    """One benchmark run; returns (result JSON, environment JSON)."""
    cmd = [sys.executable, os.path.join("benchmarks", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, text=True, stdout=subprocess.PIPE, timeout=1800)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    try:
        return json.loads(lines[-1]), env
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{' '.join(cmd)} in {root}: no result "
                         f"(exit code {proc.returncode})")


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarize(runs: list, metrics: list) -> dict:
    """Per metric: medians and quartiles per side, ratio and the change's wins.

    ``claim_met``: the change wins at least 9 in 10 of the pairs (ties count
    for neither) and its median beats the parent's by more than the parent's
    IQR. ``within_bound``: the change's median is no worse than the parent's
    by more than the metric's ``bound``, a fraction of the parent's median.
    """
    by_seed = {}
    for rec in runs:
        by_seed.setdefault(rec["seed"], {})[rec["side"]] = rec
    pairs = [p for p in by_seed.values() if len(p) == 2]
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        if not pairs or any(name not in p[s] for p in pairs for s in SIDES):
            continue
        values = {s: [p[s][name] for p in pairs] for s in SIDES}
        stats = {"pairs": len(pairs), "better": better}
        for side in SIDES:
            q1, q3 = quartiles(values[side])
            stats.update({f"{side}_median": statistics.median(values[side]),
                          f"{side}_q1": q1, f"{side}_q3": q3})
            if side == "parent":
                stats["parent_iqr"] = q3 - q1
        stats["ratio"] = stats["change_median"] / stats["parent_median"]
        sign = 1.0 if better == "higher" else -1.0
        stats["change_wins"] = sum(sign * (c - p) > 0
                                   for p, c in zip(values["parent"], values["change"]))
        gain = sign * (stats["change_median"] - stats["parent_median"])
        stats["claim_met"] = (10 * stats["change_wins"] >= 9 * len(pairs)
                              and gain > stats["parent_iqr"])
        stats["within_bound"] = sign * (stats["ratio"] - 1.0) >= -metric["bound"]
        out[name] = stats
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--tag", required=True, help="writes BENCH_<tag>.json")
    ap.add_argument("--base", default="HEAD", help="the parent side's commit")
    ap.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=SEEDS")
    ap.add_argument("--what", default="", help="one line on the change measured")
    ap.add_argument("--check", action="append", default=[], metavar="NAME=TEXT",
                    help="a results check to record under results_check")
    args = ap.parse_args(argv)

    metrics = BENCHMARK["end_to_end"]
    sha, base = base_checkout(args.base)
    roots = {"parent": base, "change": ROOT}
    plan = [(w, seeds_of(s)) for w, s in (p.split("=", 1) for p in args.pairs)]
    out_path = os.path.join(ROOT, f"BENCH_{args.tag}.json")
    doc = {
        "what": args.what,
        "command": f"python3 benchmarks/run.py --workload W --seed S --seconds "
                   f"{BENCHMARK['run_seconds']} --trace 0 (end to end); --trace 1 "
                   f"--seed {TRACE_SEED} for per_layer",
        "host": "",
        "parent": sha,
        "change": git("describe", "--always", "--dirty"),
        "seeds_note": "; ".join(f"{w} seeds {min(s)}-{max(s)}" for w, s in plan)
                      + "; pair i runs the parent first when i is even, the change "
                        "first when i is odd",
        "end_to_end": {w: [] for w, _ in plan},
        "summary": {},
        f"per_layer_seed_{TRACE_SEED}": {w: {} for w, _ in plan},
        "results_check": dict(c.split("=", 1) for c in args.check),
    }

    def save():
        with open(out_path, "w") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")

    for workload, seeds in plan:
        for i, seed in enumerate(seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                result, env = run(roots[side], workload, seed, 0)
                doc["host"] = doc["host"] or (
                    f"{env.get('nproc')} CPUs, {env.get('blas')} "
                    f"({env.get('blas_threads')} threads), numpy {env.get('numpy')}, "
                    f"scipy {env.get('scipy')}, python {platform.python_version()}")
                rec = {"seed": seed, "side": side, "correct": result["correct"],
                       "attempted": result["attempted"], "failed": result["failed"]}
                rec.update((k, v["value"]) for k, v in result["metrics"].items())
                doc["end_to_end"][workload].append(rec)
                doc["summary"][workload] = summarize(doc["end_to_end"][workload], metrics)
                save()
                print(f"{workload} seed {seed} {side}: "
                      f"{rec.get('throughput_per_s', float('nan')):.3f} instances/s",
                      flush=True)
        for side in SIDES:
            result, _ = run(roots[side], workload, TRACE_SEED, 1)
            doc[f"per_layer_seed_{TRACE_SEED}"][workload][side] = {
                k: v["value"] for k, v in result["metrics"].items()}
            save()
    print(f"wrote {out_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
