"""One benchmark process: set up a workload, run whole rounds of its
operations, check every output, and print one JSON line.

Started by run.py, which times set-up from outside: this process prints
READY once selab is imported, the inputs are generated and the warm-up
is done.  With --setup-only it stops there.

Rounds repeat the same operations on the same inputs until --seconds
have passed (at least three, so that each operation has a median).
The yardstick is timed before the first operation and after each, so
that run.py can scale every operation's time to a nominal machine
speed; a set-up-only process times it after READY, for `setup_s`.
Peak memory is read after the first round: set-up plus one pass over
the operations, whatever the number of rounds the machine's speed
allowed.  With --trace 1 the first half of the time runs untraced and
the second half traced, so that the overhead ratio compares like with
like and the traced verdicts can be checked against the untraced ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import warnings
from time import perf_counter

import numpy as np

import workloads
from yardstick import yardstick

SETUP_YARDSTICKS = 5


def timed(fn):
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def run_round(ops):
    """Time each operation, and the yardstick before and after each, then
    check them all; returns durations, yardstick times (one more than
    operations), verdicts, failed names and output problems."""
    durations, yards, outputs = [], [timed(yardstick)], {}
    for op in ops:
        t0 = perf_counter()
        try:
            outputs[op.name] = op.call()
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            outputs[op.name] = exc
        durations.append(perf_counter() - t0)
        # selab leaves large reference cycles; collect them (untimed) so
        # that each operation starts from the heap a fresh process would
        # have, and peak memory does not depend on when the collector ran
        gc.collect()
        yards.append(timed(yardstick))
    verdicts, failed, problems = [], [], []
    for op in ops:
        out = outputs[op.name]
        if isinstance(out, Exception):
            delivered, found, verdict = False, [], f"error: {type(out).__name__}: {out}"
        else:
            delivered, found, verdict = op.check(out, outputs)
        verdicts.append(verdict)
        if not delivered:
            failed.append(op.name)
        problems += [f"{op.name}: {m}" for m in found]
    return durations, yards, verdicts, failed, problems


def run_rounds(ops, seconds, min_rounds, after_first=None):
    """Whole rounds until `seconds` have passed."""
    rounds = []
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        rounds.append(run_round(ops))
        if after_first is not None and len(rounds) == 1:
            after_first()
    return rounds


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-file", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore")

    work_root = os.path.join(os.getcwd(), ".verdictbench")
    os.makedirs(work_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        ops = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), tmp)
        workloads.warm_up(tmp)
        yardstick()
        print("READY", flush=True)
        if args.setup_only:
            # the machine's speed right after this set-up, for run.py
            yards = sorted(timed(yardstick) for _ in range(SETUP_YARDSTICKS))
            print(json.dumps({"yardstick_s": yards[len(yards) // 2]}), flush=True)
            return 0
        rss = []
        record_rss = lambda: rss.append(peak_rss_mb())  # noqa: E731
        if args.trace:
            plain = run_rounds(ops, args.seconds / 2, 2, record_rss)
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_rounds(ops, args.seconds / 2, 2)
            finally:
                tracer.uninstall()
        else:
            plain, traced = run_rounds(ops, args.seconds, 3, record_rss), []
        payload = {
            "ops": [op.name for op in ops],
            "known_faults": {op.name: op.known_fault for op in ops if op.known_fault},
            "plain": [{"durations": d, "yardsticks": y, "verdicts": v, "failed": f,
                       "problems": p} for d, y, v, f, p in plain],
            "traced": [{"durations": d, "yardsticks": y, "verdicts": v, "failed": f,
                        "problems": p} for d, y, v, f, p in traced],
            "peak_rss_mb": rss[0],
        }
        if traced:
            payload["layers"] = tracing.layer_metrics(tracer.spans, len(traced))
            if args.trace_file:
                tracer.write(args.trace_file)
        print(json.dumps(payload), flush=True)
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
