"""Write reference.json: the objective of every fit-library instance.

    python3 benchmarks/make_reference.py

The fit workloads fail an operation whose objective exceeds the stored one by
more than 1e-6 * (1 + |f|), so that speed is never bought with looser
tolerances. Regenerate the file only in a change to the benchmark itself,
never in a change that claims a speed-up.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import workloads  # noqa: E402


def main():
    out = {}
    for cls in (workloads.FitL1, workloads.FitConstrained, workloads.FitGroup):
        for quick in (False, True):
            workload = cls(0, quick, None, references=[])
            objectives = []
            for scenario, spec in workload.library:
                problem, truth = workloads.generate(scenario)
                item = workloads.FitItem(problem, truth, spec, None)
                objectives.append(workload.run(item).objective)
            out[workload.reference_key] = objectives
            print(workload.reference_key, len(objectives), file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
