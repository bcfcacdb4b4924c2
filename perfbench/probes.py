"""Failure probes: show that the benchmark's output checks can fail.

    python3 perfbench/probes.py

1. `verify --corrupt-b` (the CLI's hidden hook that flips the sign of b2)
   exits 1; the check must count it as a failed invocation.
2. A correct `stationary` run, checked against a copy of the reference with
   its energy perturbed by 1e-3 relative, must count as failed, while the
   same outputs pass against the true reference.

The probes belong to no workload. Exits 0 when every probe is counted as a
failure, 1 otherwise.
"""

import copy
import shutil
import sys

from checks import check, load_reference
from run import ROOT, WORK, invoke
from workloads import case_argv

CASE = "radial_desk"


def main() -> int:
    reference = load_reference()
    run_dir = WORK / "probes"
    shutil.rmtree(run_dir, ignore_errors=True)
    outcomes = []
    try:
        out = run_dir / "corrupt-b"
        inv = invoke(case_argv(ROOT, CASE, "verify")
                     + ["--output-dir", str(out), "--seed", "1", "--corrupt-b"],
                     False, run_dir / "inv-corrupt-b")
        problems = check(CASE, "verify", inv["exit_code"], out, reference)
        outcomes.append(("verify --corrupt-b", problems))

        out = run_dir / "stationary"
        inv = invoke(case_argv(ROOT, CASE, "stationary") + ["--output-dir", str(out)],
                     False, run_dir / "inv-stationary")
        clean = check(CASE, "stationary", inv["exit_code"], out, reference)
        if clean:
            print(f"probe setup failed: the unperturbed check reports {clean}")
            return 1
        perturbed = copy.deepcopy(reference)
        perturbed["cases"][f"{CASE}/stationary"]["energy"] *= 1.0 + 1e-3
        problems = check(CASE, "stationary", inv["exit_code"], out, perturbed)
        outcomes.append(("stationary against a perturbed reference energy", problems))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, problems in outcomes:
        verdict = f"counted as failed: {'; '.join(problems)}" if problems else "NOT counted as failed"
        print(f"probe {name}: {verdict}")
    caught = sum(1 for _, problems in outcomes if problems)
    print(f"probes counted as failures: {caught}/{len(outcomes)}")
    return 0 if caught == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
