"""Run one workload of the selab verdict benchmark and print its result.

    python3 verdictbench/run.py --workload lambda-axis --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; selab is imported from its src/ tree.
The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  The same object, and
with --trace 1 the spans, are also written under .verdictbench/.

Every process this starts is a fresh interpreter, like a CLI user's:
seven that only set up, then the one that measures.  Set-up time is
taken from just before a process is started until it reports READY.

The machine this was written on changes speed by tens of percent over
seconds to minutes (it shares its cores with other guests), so times
are reported at a fixed nominal speed: each is scaled by
YARDSTICK_NOMINAL_S over the time of the yardstick (yardstick.py)
measured next to it in the same process.  An operation's time is the
median over the rounds of its duration scaled by the mean of the
yardsticks just before and after it; `wall_s` is the sum of those over
the workload's operations and `verdict_p50_s` their median.  `setup_s`
is the median over the set-up processes of set-up time scaled by the
yardstick each process times right after it.  The times as measured
are printed too, above the result.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_PROCESSES = 7
# the yardstick's typical time on the machine of the README's reference
# figures; fixed, so that results stay comparable across commits
YARDSTICK_NOMINAL_S = 0.030
DEADLINE_S = 170.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"wall_s": "s", "verdict_p50_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    # one BLAS thread per process: the cold sweeps' pool threads would
    # otherwise each start their own BLAS pool on a small machine
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def start_worker(args, deadline, extra=()):
    """Start a worker; return (process, set-up seconds, watchdog)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            text=True)
    watchdog = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        watchdog.cancel()
        raise BenchmarkError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup, watchdog


def finish(proc, watchdog):
    out = proc.stdout.read()
    proc.wait()
    watchdog.cancel()
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    return out


def op_times(rounds):
    """Each operation's time at the machine's nominal speed: its median
    over the rounds of duration x YARDSTICK_NOMINAL_S / the mean of the
    yardsticks timed just before and just after it."""
    per_op = zip(*([d * 2.0 * YARDSTICK_NOMINAL_S / (y0 + y1)
                    for d, y0, y1 in zip(r["durations"], r["yardsticks"], r["yardsticks"][1:])]
                   for r in rounds))
    return [statistics.median(ratios) for ratios in per_op]


def op_medians(rounds):
    """Each operation's median time over the rounds, as measured."""
    return [statistics.median(ds) for ds in zip(*(r["durations"] for r in rounds))]


def summarize(payload, setups, trace):
    plain, traced = payload["plain"], payload["traced"]
    rounds = plain + traced
    attempted = len(payload["ops"]) * len(rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    problems = sorted({p for r in rounds for p in r["problems"]})
    reference = plain[0]["verdicts"]
    unsteady = [i for i, r in enumerate(rounds) if r["verdicts"] != reference]
    plain_ops = op_times(plain)
    measured = op_medians(plain)
    print(f"as measured: wall {sum(measured):.6g} s, p50 {statistics.median(measured):.6g} s, "
          f"set-up {statistics.median(s for s, _ in setups):.6g} s")
    for name, t in zip(payload["ops"], plain_ops):
        print(f"op {name:<55} {t:.6g} s")
    if trace:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in payload["layers"].items()}
        metrics["trace.overhead_ratio"] = {
            "value": sum(op_times(traced)) / sum(plain_ops), "unit": "ratio"}
    else:
        values = {
            "wall_s": sum(plain_ops),
            "verdict_p50_s": statistics.median(plain_ops),
            "setup_s": statistics.median(s * YARDSTICK_NOMINAL_S / y for s, y in setups),
            "peak_rss_mb": payload["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    unexpected = []
    for name in sorted({n for r in rounds for n in r["failed"]}):
        fault = payload["known_faults"].get(name)
        if fault:
            print(f"failed: {name} (known fault: {fault})")
        else:
            print(f"incorrect: {name} failed, and is not a known fault")
            unexpected.append(name)
    for p in problems:
        print(f"incorrect: {p}")
    if unsteady:
        print(f"incorrect: verdicts of rounds {unsteady} differ from the first round's")
    correct = not (problems or unsteady or unexpected)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = perf_counter() + DEADLINE_S

    if not (ROOT / "src" / "selab" / "__init__.py").is_file():
        print(f"run.py: no selab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".verdictbench"
    out_dir.mkdir(exist_ok=True)
    compileall.compile_dir(str(ROOT / "src" / "selab"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1, maxlevels=0)

    try:
        setups = []
        for _ in range(SETUP_ONLY_PROCESSES):
            proc, setup, watchdog = start_worker(args, deadline, ["--setup-only"])
            yard = json.loads(finish(proc, watchdog).strip().splitlines()[-1])["yardstick_s"]
            setups.append((setup, yard))
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        extra = ["--trace-file", str(out_dir / f"{stem}.spans.jsonl")] if args.trace else []
        proc, _, watchdog = start_worker(args, deadline, extra)
        lines = finish(proc, watchdog).strip().splitlines()
        payload = json.loads(lines[-1])
        (out_dir / f"{stem}.payload.json").write_text(json.dumps({"setups": setups, **payload}))
    except (BenchmarkError, json.JSONDecodeError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    result = summarize(payload, setups, args.trace)
    for name, m in result["metrics"].items():
        print(f"{name:<40} {m['value']:.6g} {m['unit']}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    (out_dir / f"{stem}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
