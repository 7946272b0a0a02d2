"""Verdict transitions of ``trexlab verify`` between a base commit and this checkout.

    python3 tools/verdict_diff.py --base HEAD --seeds 11,51 --passes 0-1

Writes the ``verify_mixed`` configs of the given benchmark seeds and passes
with ``benchmarks/workloads.py`` (only reading it) into a temporary
directory, then runs ``trexlab verify --no-timestamp`` on every config once
in the base commit, extracted as ``tools/bench_pairs.py`` extracts it (into
the gitignored ``.bench_base/<sha>``), and once in this checkout, each side in
one process of its own. It prints, per theorem, how many report rows went
from each verdict to each other verdict, then how many configs wrote a
``report.csv`` that differs byte for byte between the two sides, naming the
first few, and for every (theorem, column) with differing cells their count
and the largest relative difference |a - b| / max(|a|, |b|) ("-" where a
cell is not a number). It exits 1 if any row that was not ``violated`` in
the base is ``violated`` here.
"""

import argparse
import collections
import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, os.path.join(ROOT, "benchmarks"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from bench_pairs import base_checkout, seeds_of  # noqa: E402

# run inside one side's checkout: every (config, out) pair of a JSON list
RUNNER = """
import json, sys
from trexlab.cli import main
for config, out in json.load(open(sys.argv[1])):
    code = main(["verify", "--config", config, "--out", out, "--no-timestamp"])
    if code not in (0, 2):
        raise SystemExit(f"trexlab verify --config {config} exited {code}")
"""


def write_configs(seeds, passes, work_dir) -> list:
    """(tag, config path) of every verify_mixed item of the seeds and passes."""
    from workloads import VerifyMixed

    configs = []
    for seed in seeds:
        for pass_index in passes:
            d = os.path.join(work_dir, f"seed{seed}", f"pass{pass_index}")
            os.makedirs(d)
            for item in VerifyMixed(seed, False, d).make_pass(pass_index):
                tag = f"seed={seed} pass={pass_index} " + os.path.basename(
                    item.config_path)[:-len(".json")]
                configs.append((tag, item.config_path))
    return configs


def verdicts(root, configs, out_dir) -> tuple:
    """Verdict of every report row, keyed by (tag, scenario, replicate, theorem),
    and the bytes of every config's ``report.csv``, keyed by tag."""
    jobs = [(path, os.path.join(out_dir, str(i))) for i, (_, path) in enumerate(configs)]
    plan = os.path.join(out_dir, "plan.json")
    with open(plan, "w") as fh:
        json.dump(jobs, fh)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    subprocess.run([sys.executable, "-c", RUNNER, plan], cwd=root, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    rows, reports = {}, {}
    for (tag, _), (_, out) in zip(configs, jobs):
        with open(os.path.join(out, "report.csv"), "rb") as fh:
            reports[tag] = fh.read()
        for row in csv.DictReader(io.StringIO(reports[tag].decode(), newline="")):
            key = (tag, row["scenario"], row["replicate"], row["theorem"])
            rows[key] = row["verdict"]
    return rows, reports


def _cells(report: bytes) -> dict:
    """Every cell of a ``report.csv``, keyed by (scenario, replicate, theorem)
    and column."""
    cells = {}
    for row in csv.DictReader(io.StringIO(report.decode(), newline="")):
        key = (row["scenario"], row["replicate"], row["theorem"])
        cells.update(((key, column), value) for column, value in row.items())
    return cells


def field_diffs(pairs) -> dict:
    """[count, largest relative difference] of the differing cells per
    (theorem, column), over (base, change) ``report.csv`` pairs; the
    difference is inf where a cell is not a number."""
    out = {}
    for old_report, new_report in pairs:
        old, new = _cells(old_report), _cells(new_report)
        for (key, column), a in old.items():
            b = new.get((key, column))
            if a == b:
                continue
            try:
                fa, fb = float(a), float(b)
                rel = abs(fa - fb) / max(abs(fa), abs(fb), math.ulp(0.0))
            except (TypeError, ValueError):
                rel = math.inf
            entry = out.setdefault((key[2], column), [0, 0.0])
            entry[0] += 1
            entry[1] = max(entry[1], rel)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", default="HEAD", help="the base side's commit")
    ap.add_argument("--seeds", required=True, help="benchmark seeds, e.g. 11,51")
    ap.add_argument("--passes", default="0", help="passes, e.g. 0-1")
    args = ap.parse_args(argv)

    sha, base = base_checkout(args.base)
    with tempfile.TemporaryDirectory() as tmp:
        configs = write_configs(seeds_of(args.seeds), seeds_of(args.passes),
                                os.path.join(tmp, "configs"))
        sides, reports = {}, {}
        for side, root in (("base", base), ("change", ROOT)):
            os.makedirs(os.path.join(tmp, side))
            sides[side], reports[side] = verdicts(root, configs, os.path.join(tmp, side))
    if sides["base"].keys() != sides["change"].keys():
        print("the two sides wrote different report rows")
        return 1
    moves = collections.defaultdict(collections.Counter)
    for key, old in sides["base"].items():
        moves[key[3]][(old, sides["change"][key])] += 1
    print(f"base {sha[:12]} against this checkout: {len(configs)} configs, "
          f"{len(sides['base'])} report rows")
    new_violations = 0
    for theorem in sorted(moves):
        for (old, new), count in sorted(moves[theorem].items()):
            mark = "" if old == new else "  <- moved"
            print(f"{theorem:22s} {old:>15s} -> {new:<15s} {count:5d}{mark}")
            if new == "violated" and old != "violated":
                new_violations += count
    differ = [tag for tag, _ in configs if reports["base"][tag] != reports["change"][tag]]
    print(f"{len(differ)} of {len(configs)} configs wrote a report.csv that differs "
          "byte for byte" + "".join(f"\n  {tag}" for tag in differ[:5]))
    fields = field_diffs((reports["base"][tag], reports["change"][tag]) for tag in differ)
    for (theorem, column), (count, rel) in sorted(fields.items()):
        print(f"{theorem:22s} {column:22s} {count:5d} cells differ, largest relative "
              + ("-" if rel == math.inf else f"{rel:.2e}"))
    if new_violations:
        print(f"{new_violations} rows became violated")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
