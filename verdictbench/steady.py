"""Steadiness of the benchmark: run each workload on several seeds and
print every metric's median and quartiles against its bound.

    python3 verdictbench/steady.py --runs 10
    python3 verdictbench/steady.py --runs 5 --workloads certify --seconds 10

The workloads alternate, and the order rotates on every repetition, so a
slow stretch of the machine does not land on one workload only.  The
spread of a metric is the distance between its first and third quartile
as a share of its median; it should stay below a third of the bound in
BENCHMARK.json.  The share of failed operations must be the same in
every run, and every run must be correct.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds):
    cmd = [*command, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    results = {w: [] for w in workloads}
    for i in range(args.runs):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            res = run_once(bench["command"], w, i + 1, args.seconds)
            results[w].append(res)
            print(f"run {i + 1}/{args.runs} {w}: correct={res['correct']} "
                  f"failed {res['failed']}/{res['attempted']} " + " ".join(
                      f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()),
                  flush=True)

    steady = True
    for w in workloads:
        runs = results[w]
        shares = {r["failed"] / r["attempted"] for r in runs}
        correct = all(r["correct"] for r in runs)
        print(f"\n{w}: {len(runs)} runs, correct={correct}, failed share "
              f"{'same in every run' if len(shares) == 1 else 'VARIES'}: {sorted(shares)}")
        steady &= correct and len(shares) == 1
        for metric in bench["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<16} median {med:10.4f} {metric['unit']:<3} "
                  f"q1 {q1:10.4f} q3 {q3:10.4f} spread {spread:6.3f} "
                  f"bound {metric['bound']:.2f} {'ok' if ok else 'TOO WIDE'}")
    print("\nsteady" if steady else "\nnot steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
