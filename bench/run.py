"""Benchmark of algspec: one workload per run, one JSON line of results.

    python3 bench/run.py --workload mixture --seed 1 --seconds 10 --trace 0

Run from the root of a checkout: the program is imported from ./src.  The
run draws its inputs from the seed, times the cold import of algspec.cli in
fresh interpreters, then calls the workload's op list in whole rounds: as
many as make --seconds at the workload's nominal round time (at least
three), so that every run does the same work.  Every output is checked.
The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics when --trace is 0, and the per-layer metrics of
tracer.py when --trace is 1.  Failures are described on standard error.

The shared host's speed swings by up to a factor of two over spells of
seconds to minutes, so every time is scaled to a host of fixed speed: a
fixed reference loop (reference_loop) runs before each op, outside the timed
call, and a time t taken while the loop took L seconds is reported as
t * REF_LOOP_S / L, the time on a host where the loop takes REF_LOOP_S.
The loop does not touch the program, so a change to the program moves the
reported times as much as the raw ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

# one thread of load: no BLAS worker threads in this process or its children
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_STARTS = 11
# the reference loop's time on the reference machine (README.md) when quiet
REF_LOOP_S = 0.0024
# an op's host speed is the median of the loops run before the ops within
# this many places of it in the same round
LOOP_WINDOW = 2
# a run makes at least this many rounds, so that each op's median is of three
MIN_ROUNDS = 3


def import_program():
    """Import algspec from ./src, and refuse any other copy."""
    if not (SRC / "algspec" / "cli.py").is_file():
        sys.exit(f"bench: no algspec sources under {SRC}; run from the "
                 "root of a checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    import algspec.cli
    found = Path(algspec.cli.__file__).resolve().parent
    if found != (SRC / "algspec").resolve():
        sys.exit(f"bench: imported algspec from {algspec.cli.__file__}")


# inputs of the reference loop's polynomial product and least squares
_POLY_A = [Fraction(k * k + 1, 2 * k + 3) for k in range(10)]
_POLY_B = [Fraction(3 * k - 7, k + 5) for k in range(10)]
_LSQ_A = np.linspace(0.0, 1.0, 256).reshape(64, 4)
_LSQ_B = np.linspace(1.0, 2.0, 64)


def reference_loop() -> float:
    """Seconds taken by fixed work of the kinds the program does: small
    and big integer arithmetic, a dict of strings, a sort, Fraction
    arithmetic, a product of polynomials over Q and small least-squares
    fits.  The collector is off, so the size of the program's heap does
    not enter."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0
        for i in range(10000):
            acc += i * i % 7
        table = {}
        for i in range(3000):
            table[i] = str(i)
        pairs = sorted(((i * 7919) % 1000, str(i)) for i in range(1500))
        f = Fraction(1, 3)
        for i in range(60):
            f = f * Fraction(i + 1, i + 2) + 1
        prod = [Fraction(0)] * (2 * len(_POLY_A) - 1)
        for i, a in enumerate(_POLY_A):
            for j, b in enumerate(_POLY_B):
                prod[i + j] += a * b
        big, mod = (1 << 400) + 12345, (1 << 390) + 7
        for i in range(1000):
            big = (big * 3 + i) % mod
        for _ in range(6):
            np.linalg.lstsq(_LSQ_A, _LSQ_B, rcond=None)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_seconds() -> float:
    """Median wall time of `import algspec.cli` in fresh interpreters,
    scaled by the median of reference loops run between the starts."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, loops = [], []
    for _ in range(SETUP_STARTS):
        loops.extend(reference_loop() for _ in range(3))
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import algspec.cli"],
                       env=env, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * REF_LOOP_S / statistics.median(loops)


class Outcome:
    """Latencies and reference-loop times (one list per round, one entry
    per op) and failures over a run."""

    def __init__(self):
        self.rounds: list[list[float]] = []
        self.loops: list[list[float]] = []
        self.failed = 0
        self.unexpected: list[str] = []

    @property
    def attempted(self) -> int:
        return sum(len(r) for r in self.rounds)


def run_round(ops, outcome: Outcome, verified: dict, tracer=None):
    """Call every op once, timing only the call, after a reference loop;
    check every output.

    An output equal to one already verified for the same op passes without
    re-running its check."""
    latencies, loops = [], []
    outcome.rounds.append(latencies)
    outcome.loops.append(loops)
    for k, op in enumerate(ops):
        loops.append(reference_loop())
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out, error = op.call(), None
        except Exception as exc:        # an op that raises has failed
            out, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        latencies.append(elapsed)
        if error is None and not (k in verified and verified[k] == out):
            try:
                op.check(out)
                verified[k] = out
            except Exception as exc:    # a check that raises has failed
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            outcome.failed += 1
            if op.known_fault is None:
                outcome.unexpected.append(f"{op.name}: {error}")


def run_rounds(ops, rounds: int, tracer=None):
    """Call the op list `rounds` times; returns the outcome and, when
    traced, one snapshot of the tracer's totals per round."""
    outcome, verified, snapshots = Outcome(), {}, []
    for _ in range(rounds):
        gc.collect()
        run_round(ops, outcome, verified, tracer)
        if tracer is not None:
            snapshots.append(tracer.take_round())
    return outcome, snapshots


def scaled_ms(outcome: Outcome) -> list[list[float]]:
    """Each latency in ms on the reference host: scaled by the median of
    the reference loops run near it (LOOP_WINDOW) in its round."""
    out = []
    for latencies, loops in zip(outcome.rounds, outcome.loops):
        out.append([
            t * 1000.0 * REF_LOOP_S / statistics.median(
                loops[max(0, k - LOOP_WINDOW):k + LOOP_WINDOW + 1])
            for k, t in enumerate(latencies)])
    return out


def end_to_end(outcome: Outcome, setup_s: float) -> dict:
    """Each op's latency is its median over the rounds, scaled to the
    reference host."""
    op_ms = [statistics.median(per_op) for per_op in zip(*scaled_ms(outcome))]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": len(op_ms) / (sum(op_ms) / 1000.0),
                      "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(op_ms, n=10)[8],
                           "unit": "ms"},
        "peak_rss_mb": {"value": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def per_layer(snapshots, outcome: Outcome) -> dict:
    """Times are the median over the rounds, each round's scaled to the
    reference host by the median of its reference loops; counts repeat
    exactly from round to round, so the first round's stand."""
    scales = [REF_LOOP_S / statistics.median(loops)
              for loops in outcome.loops]
    out = {}
    for name, (value, unit) in snapshots[0].items():
        if unit == "ms":
            value = statistics.median(
                s[name][0] * scale for s, scale in zip(snapshots, scales))
        out[name] = {"value": value, "unit": unit}
    return out


def warm_up(ops):
    """A few reference loops, and one untimed call of the first op of each
    kind."""
    for _ in range(5):
        reference_loop()
    seen = set()
    for op in ops:
        kind = op.name.split(" ")[0]
        if kind not in seen:
            seen.add(kind)
            try:
                op.call()
            except Exception:           # failures are counted in the rounds
                pass


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["mixture", "equation", "sampled"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    import_program()
    from workloads import ROUND_SECONDS, WORKLOADS
    workdir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        rng = random.Random(f"{args.workload}:{args.seed}")
        ops = WORKLOADS[args.workload](rng, workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer
            tracer = Tracer()
            tracer.install()
        else:
            setup_s = setup_seconds()
        warm_up(ops)
        rounds = max(MIN_ROUNDS,
                     round(args.seconds / ROUND_SECONDS[args.workload]))
        outcome, snapshots = run_rounds(ops, rounds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for line in outcome.unexpected:
        print(f"bench: failed: {line}", file=sys.stderr)
    op_seconds = sum(map(sum, outcome.rounds))
    loop_ms = 1000.0 * statistics.median(
        t for loops in outcome.loops for t in loops)
    print(f"bench: {args.workload} seed {args.seed}: {rounds} round(s) of "
          f"{len(ops)} ops, {op_seconds:.3f} s in op calls, reference loop "
          f"{loop_ms:.3f} ms (reference host {REF_LOOP_S * 1000:.1f} ms)",
          file=sys.stderr)
    metrics = per_layer(snapshots, outcome) if args.trace else \
        end_to_end(outcome, setup_s)
    print(json.dumps({"correct": not outcome.unexpected,
                      "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
