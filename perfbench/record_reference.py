"""Write `reference.json`: the report numbers the output checks compare against.

    python3 perfbench/record_reference.py

Runs every workload's invocation sequence once, with seed 1, and records the
numbers of `checks.COMPARED` per case and command. None of them depends on
the seed beyond its tolerance, so the seed is fixed. The stored values come
from the commit that defined the benchmark; rerun this only in a change that
redefines what correct output is, and say so there.
"""

import json
import shutil
import sys

from checks import COMPARED, REFERENCE_PATH, observed
from run import ROOT, WORK, invoke
from workloads import WORKLOADS, invocation_argv, prepare

# Values at the level of the solver tolerances get an absolute bound; values
# set by the discretisation get a relative one, loose enough for rounding
# changes such as a reordered assembly (about 7e-15 relative in K). The
# rest must match exactly.
TOLERANCES = {
    "energy": {"rtol": 1e-8},
    "max interface flux jump": {"rtol": 1e-6},
    "gamma_disc": {"rtol": 1e-6},
    "final time": {"rtol": 1e-12},
    "residual (dual)": {"atol": 1e-9},
    "final err_H": {"atol": 1e-9},
}


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))

    run_dir = WORK / "record-reference"
    shutil.rmtree(run_dir, ignore_errors=True)
    cases = {}
    try:
        for workload, steps in WORKLOADS.items():
            input_dir = run_dir / workload / "inputs"
            input_dir.mkdir(parents=True)
            prepared = prepare(ROOT, workload, 1, input_dir)
            for index, (case, command) in enumerate(steps):
                out_dir = run_dir / workload / case
                inv = invoke(invocation_argv(ROOT, prepared, case, command, out_dir), False,
                             run_dir / workload / f"inv{index}")
                if inv["exit_code"] != 0:
                    print(f"{command} {case} exited {inv['exit_code']}", file=sys.stderr)
                    return 1
                if COMPARED[command]:
                    cases[f"{case}/{command}"] = observed(command, out_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    with open(REFERENCE_PATH, "w") as handle:
        json.dump({"tolerances": TOLERANCES, "cases": cases}, handle, indent=2)
        handle.write("\n")
    print(f"wrote {REFERENCE_PATH.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
