"""Run the benchmark on several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload desk --seeds 1-10 --seconds 56 [--trace 0]
                                [--out perfbench/baseline.json]

Each seed runs in its own `run.py` process.
The spread of a metric is the distance between the first and third quartile
of its per-seed values (`statistics.quantiles(values, n=4)`) as a share of
their median. With --out, the figures are merged into that JSON file under
the workload's name (and `-trace` when tracing).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    seeds = parse_seeds(args.seeds)
    results = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)
        results.append(result)

    figures = {}
    for name, entry in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else float("nan")
        figures[name] = {"unit": entry["unit"], "median": median, "q1": q1, "q3": q3,
                         "spread": spread, "values": values}
        print(f"  {name:<32} median {median:.6g} {entry['unit']:<10} "
              f"q1 {q1:.6g}  q3 {q3:.6g}  spread {spread:.3f}")
    print(f"correct in all runs: {all(r['correct'] for r in results)}")

    if args.out:
        out = Path(args.out)
        data = json.loads(out.read_text()) if out.is_file() else {}
        key = args.workload + ("-trace" if args.trace else "")
        data[key] = {"seeds": seeds, "seconds": args.seconds, "metrics": figures}
        out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
