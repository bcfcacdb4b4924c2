"""coreshell benchmark: wall time of real CLI invocations, with outputs checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. NAME is one of `workloads.WORKLOADS`, or
`all` to run each in turn. A workload is a fixed sequence of CLI
invocations, each its own process (`stub.py`), run one after another: a
closed loop with one client. The sequence repeats until another one would
end after S seconds (at least once, three times when tracing); every
invocation's outputs are checked after its sequence, outside timing.

With --trace 0 the result line carries the end-to-end metrics (medians over
the sequences). With --trace 1 sequences alternate traced and untraced, and
the result line carries the per-layer metrics of the traced ones
(`tracer.LAYER_METRICS`) plus trace.overhead_s, the traced minus the
untraced median wall time. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}; attempted and failed
count invocations. Scratch files go to `.perfbench_work/` in the checkout.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from checks import check, load_reference
from tracer import COUNT_METRICS, LAYER_METRICS, layer_metrics
from workloads import WORKLOADS, invocation_argv, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
INVOCATION_TIMEOUT_S = 150

# End-to-end metrics: name -> unit. mesh_s and verify_s are printed on the
# workloads that run those commands but are not in the result line, which
# carries only metrics every workload has.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "work_s": "s",
    "stationary_s": "s",
    "evolve_s": "s",
    "peak_rss_mb": "MB",
}
COMMAND_METRICS = ("mesh_s", "stationary_s", "evolve_s", "verify_s")


def clock() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def invoke(argv: list, trace: bool, inv_dir: Path) -> dict:
    """Run one CLI invocation in a fresh process; time it from spawn to exit."""
    inv_dir.mkdir(parents=True, exist_ok=True)
    record_path = inv_dir / "record.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    command = [sys.executable, str(HERE / "stub.py"), str(record_path),
               "1" if trace else "0", "--", *argv]
    with open(inv_dir / "stdout.txt", "wb") as out, open(inv_dir / "stderr.txt", "wb") as err:
        spawn = clock()
        proc = subprocess.Popen(command, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = clock()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = {}
    if record_path.is_file():
        try:
            record = json.loads(record_path.read_text())
        except ValueError:  # died while writing it; the exit code says so
            record = {}
    return {
        "argv": argv,
        "exit_code": proc.returncode,
        "spawn_ns": spawn,
        "end_ns": end,
        "wall_s": (end - spawn) / 1e9,
        "setup_s": (record.get("ready_ns", end) - spawn) / 1e9,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        **{key: record[key] for key in ("imported_ns", "modules", "scipy_modules", "spans")
           if key in record},
    }


def run_sequence(workload: str, prepared, reference: dict, trace: bool, seq_dir: Path) -> dict:
    """One pass over the workload's invocations, then the output checks."""
    invocations = []
    for index, (case, command) in enumerate(WORKLOADS[workload]):
        argv = invocation_argv(ROOT, prepared, case, command, seq_dir / case)
        inv = invoke(argv, trace, seq_dir / f"inv{index}")
        inv.update(id=index, case=case, command=command)
        invocations.append(inv)
    for inv in invocations:
        inv["problems"] = check(inv["case"], inv["command"], inv["exit_code"],
                                seq_dir / inv["case"], reference,
                                prepared.oracles.get(inv["case"]) if inv["command"] == "stationary"
                                else None)
    seq = {
        "traced": trace,
        "invocations": invocations,
        "wall_s": sum(inv["wall_s"] for inv in invocations),
        "setup_s": sum(inv["setup_s"] for inv in invocations),
        "peak_rss_mb": max(inv["peak_rss_mb"] for inv in invocations),
        "failed": sum(1 for inv in invocations if inv["problems"]),
    }
    seq["work_s"] = seq["wall_s"] - seq["setup_s"]
    for name in COMMAND_METRICS:
        command = name[:-2]
        if any(inv["command"] == command for inv in invocations):
            seq[name] = sum(inv["wall_s"] for inv in invocations if inv["command"] == command)
    return seq


def summarize(values: list) -> dict:
    """Median, plus the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"median": statistics.median(ordered), "n": n}
    if n >= 11:
        pct = math.floor(100 * (n - 10) / n)
        summary[f"p{pct}"] = ordered[max(0, math.ceil(pct * n / 100) - 1)]
    return summary


def describe(name: str, unit: str, summary: dict) -> str:
    tail = [f"{key} {value:.6g} {unit}" for key, value in summary.items()
            if key.startswith("p")]
    tail = tail[0] if tail else "no percentile with ten samples beyond it"
    return (f"  {name:<32} median {summary['median']:.6g} {unit:<10} "
            f"{tail}  (n={summary['n']})")


def bare_python_start_s() -> float:
    """Median spawn-to-exit time of `python -c pass`, the floor of every invocation."""
    times = []
    for _ in range(5):
        start = clock()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        times.append((clock() - start) / 1e9)
    return statistics.median(times)


def measure(workload: str, seed: int, seconds: int, trace: bool, run_dir: Path):
    """Repeat the workload's sequence for about `seconds`; return the sequences."""
    input_dir = run_dir / "inputs"
    input_dir.mkdir(parents=True)
    prepared = prepare(ROOT, workload, seed, input_dir)
    reference = load_reference()
    # Compile and page in the package once, so no timed sequence pays for it.
    warm = invoke(["--help"], False, run_dir / "warm-up")
    if warm["exit_code"] != 0:
        raise RuntimeError("importing coreshell.cli failed; see "
                           f"{run_dir / 'warm-up' / 'stderr.txt'}")
    bare = bare_python_start_s() if trace else None

    sequences = []
    start = clock()
    while True:
        traced = trace and len(sequences) % 2 == 0
        seq_dir = run_dir / f"seq{len(sequences)}"
        sequences.append(run_sequence(workload, prepared, reference, traced, seq_dir))
        shutil.rmtree(seq_dir)
        elapsed = (clock() - start) / 1e9
        if trace and len(sequences) < 3:
            continue
        traced_next = trace and len(sequences) % 2 == 0
        same_kind = [s["wall_s"] for s in sequences if s["traced"] == traced_next]
        if elapsed + statistics.median(same_kind) > seconds:
            break
    return prepared, sequences, bare


def end_to_end_metrics(sequences: list) -> dict:
    return {name: summarize([s[name] for s in sequences])
            for name in list(END_TO_END) + list(COMMAND_METRICS) if name in sequences[0]}


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Measure one workload; print its report; return its result object."""
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"run-{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    try:
        prepared, sequences, bare = measure(workload, seed, seconds, trace, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    invocations = [inv for s in sequences for inv in s["invocations"]]
    failed = sum(1 for inv in invocations if inv["problems"])
    untraced = [s for s in sequences if not s["traced"]]
    e2e = end_to_end_metrics(untraced)

    print(f"coreshell benchmark  workload={workload}  seed={seed}  "
          f"verify_seed={prepared.verify_seed}  trace={int(trace)}  "
          f"sequences={len(untraced)} untraced, {len(sequences) - len(untraced)} traced")
    for inv in invocations:
        for problem in inv["problems"]:
            print(f"  FAILED {inv['command']} {inv['case']}: {problem}")
    print(f"  {'fail_frac':<32} {failed}/{len(invocations)} = "
          f"{failed / len(invocations):.6g}")

    if not trace:
        for name, summary in e2e.items():
            print(describe(name, END_TO_END.get(name, "s"), summary))
        metrics = {name: {"value": e2e[name]["median"], "unit": unit}
                   for name, unit in END_TO_END.items()}
    else:
        traced = [s for s in sequences if s["traced"]]
        per_seq = [layer_metrics(s["invocations"], bare) for s in traced]
        drift = [name for name in COUNT_METRICS
                 if len({json.dumps(m[name]) for m in per_seq}) > 1]
        print(f"  count metrics repeat exactly over {len(per_seq)} traced runs: "
              + ("yes" if not drift else "NO: " + ", ".join(drift)))
        values = {name: statistics.median(m[name] for m in per_seq) for name in LAYER_METRICS}
        values["trace.overhead_s"] = (statistics.median(s["wall_s"] for s in traced)
                                      - e2e["wall_s"]["median"])
        for name, unit in LAYER_METRICS.items():
            print(f"  {name:<32} {values[name]:.6g} {unit}")
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in LAYER_METRICS.items()}
        spans_path = WORK / f"spans-{workload}-seed{seed}.json"
        with open(spans_path, "w") as handle:
            json.dump({"workload": workload, "seed": seed, "sequences": [
                {"index": i, "invocations": [
                    {key: inv[key] for key in ("id", "case", "command", "argv", "spawn_ns",
                                               "imported_ns", "end_ns", "spans")
                     if key in inv} for inv in s["invocations"]]}
                for i, s in enumerate(sequences) if s["traced"]]}, handle)
        print(f"  spans written to {spans_path.relative_to(ROOT)}")

    result = {"correct": failed == 0, "attempted": len(invocations), "failed": failed,
              "metrics": metrics}
    with open(WORK / f"result-{workload}-seed{seed}-trace{int(trace)}.json", "w") as handle:
        json.dump({"workload": workload, "seed": seed, "verify_seed": prepared.verify_seed,
                   "seconds": seconds, "result": result, "sequences": [
                       {**{k: v for k, v in s.items() if k != "invocations"},
                        "invocations": [{k: v for k, v in inv.items() if k != "spans"}
                                        for inv in s["invocations"]]}
                       for s in sequences]}, handle, indent=1)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in ("src/coreshell/cli.py", "configs/annulus_desk.cfg",
                           "configs/radial_desk.cfg") if not (ROOT / p).is_file()]
    if missing:
        print(f"not a coreshell checkout (missing {', '.join(missing)}): {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
        if len(names) > 1:
            print(json.dumps(results[name]))
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
