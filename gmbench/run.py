"""gradedmat benchmark: one seeded workload, timed and checked.

    python3 gmbench/run.py --workload elementary --seed 1 --seconds 28 --trace 0

Runs whole rounds of the workload's fixed operation list until --seconds have
passed, checks every result against gmbench/oracles.py, and prints as its last
line one JSON object with `correct`, `attempted`, `failed` and `metrics`.
End-to-end times are scaled to a reference CPU by a calibration loop timed
throughout the run (see `SpeedScale`).
With --trace 0 the metrics are the end-to-end ones; with --trace 1 one untraced
round is followed by traced rounds and the metrics are the per-layer ones.
--quick runs a workload at its smallest sizes (used by test_gmbench.py), and
--workload all runs the four workloads in turn and summarizes them.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

SETUP_REPEATS = 5
MIN_ROUNDS = 3
TAIL_BEYOND = 10  # op_tail_ms is the highest latency with this many samples above it
PROBE_ARGV = ["verify", "--spec", '{"kind": "epsilon", "n": 2}']
REFERENCE_S = 1e-3  # the calibration loop's time on the reference CPU
SAMPLE_PERIOD_S = 0.1  # how often SpeedScale samples the calibration loop


def calibration_loop() -> Fraction:
    """Fixed interpreter work of the kind gradedmat does (Fractions, tuples, a
    dict), independent of the program so that no change to it moves this."""
    acc, seen = Fraction(0), {}
    for i in range(1, 520):
        acc += Fraction(i % 7 + 1, i % 11 + 2)
        seen[(i, i % 5)] = acc
    return acc


class WallClock:
    """Times spans as measured."""

    def start(self) -> float:
        return time.perf_counter()

    def seconds(self, mark: float) -> float:
        return time.perf_counter() - mark


class SpeedScale(WallClock):
    """Times spans scaled to a reference CPU.

    The host this benchmark was written on runs a CPU at one of two speeds
    about 1.7x apart, flipping within seconds and staying for minutes at a
    time, and CPU time follows wall time.  So `calibration_loop` is sampled just
    before and just after each span and, with `period_s` set and inside a
    `with` block, every `period_s` during it from a timer signal.  The span's
    wall time, less that of the samples taken during it, is scaled by
    REFERENCE_S over the mean of its samples: the time it would take on a CPU
    that runs the loop in REFERENCE_S.  Spans that wait on a child process
    take no samples during it, since on the shared CPU the sample would be
    slowed by the child.  Samples run with the collector off, so that they
    never pay for the program's garbage.
    """

    def __init__(self, period_s: Optional[float] = None):
        self.period_s = period_s
        self.samples: List[float] = []
        self.stolen = 0.0  # total time of the samples

    def _sample(self, *_signal) -> None:
        """The faster of two timings of the loop, so that an interrupt or a
        preemption during one of them does not count."""
        start = time.perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        try:
            timings = []
            for _ in range(2):
                t0 = time.perf_counter()
                calibration_loop()
                timings.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples.append(min(timings))
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "SpeedScale":
        if self.period_s:
            self._handler = signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc) -> None:
        if self.period_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._handler)

    def start(self) -> tuple:
        self._sample()
        return len(self.samples) - 1, self.stolen, time.perf_counter()

    def seconds(self, mark: tuple) -> float:
        first, stolen, begin = mark
        elapsed = time.perf_counter() - begin - (self.stolen - stolen)
        self._sample()
        return elapsed * REFERENCE_S / statistics.fmean(self.samples[first:])


def pin_to_one_cpu() -> None:
    """Keep the benchmark and its child processes on one CPU, so that the
    calibrations and the operations they scale run on the same one."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def metric_units() -> Dict[str, str]:
    """The unit of every metric, as BENCHMARK.json states it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def fresh_process_seconds(cmd: List[str], env=None, clock: WallClock = WallClock()) -> float:
    mark = clock.start()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT, env=env)
    return clock.seconds(mark)


def setup_seconds(args, clock: WallClock) -> float:
    """Median time of fresh processes that import gradedmat and build the
    workload's inputs, which is the set-up a run does before its first operation."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed)] + (["--quick"] if args.quick else [])
    return statistics.median(fresh_process_seconds(cmd, clock=clock) for _ in range(SETUP_REPEATS))


class Round:
    def __init__(self):
        self.latencies: List[float] = []
        self.largest: List[float] = []
        self.failures: List[str] = []
        self.unexpected: List[str] = []
        self.tagged: Dict[str, List[tuple]] = {}
        self.wall = 0.0


def run_round(ops, tracer=None, clock: WallClock = WallClock()) -> Round:
    from oracles import CheckFailed
    out = Round()
    ctx: dict = {}
    start = time.perf_counter()
    for op in ops:
        mark = clock.start()
        try:
            result, error = op.run(ctx), None
        except Exception as exc:  # a failing operation is counted, not fatal
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = clock.seconds(mark)
        if tracer is not None:
            tracer.paused = True
        try:
            if error is None:
                op.check(result, ctx)
        except CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # malformed output that the check could not read
            error = f"unreadable output: {type(exc).__name__}: {exc}"
        finally:
            if tracer is not None:
                tracer.paused = False
        ctx[op.name] = result
        out.latencies.append(elapsed)
        if op.largest:
            out.largest.append(elapsed)
        if op.tag is not None:
            out.tagged.setdefault(op.tag[0], []).append((op.tag[1], elapsed))
        if error is not None:
            out.failures.append(op.name)
            if op.fault is None:
                out.unexpected.append(f"{op.name}: {error}")
    out.wall = time.perf_counter() - start
    return out


def run_rounds(ops, seconds: float, min_rounds: int, tracer=None, on_round=None,
               clock: WallClock = WallClock()) -> List[Round]:
    """Whole rounds until `seconds` have passed: another round starts while at
    least half of one still fits, so a run ends within half a round of it."""
    rounds: List[Round] = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() + rounds[-1].wall / 2 < deadline:
        rounds.append(run_round(ops, tracer, clock))
        if on_round is not None:
            on_round(len(rounds))
    return rounds


def fitted_exponent(points) -> float:
    """Least-squares slope of log(time) against log(size)."""
    xs = [math.log(size) for size, _ in points]
    ys = [math.log(t) for _, t in points]
    if len(set(xs)) < 2:
        return 0.0
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(rounds: List[Round], setup_s: float, peak_rss_kb: int) -> Dict[str, float]:
    """Each operation's latency, the largest case's too, is its mean over the run's rounds."""
    n = len(rounds[0].latencies)
    per_op = [statistics.fmean(r.latencies[i] for r in rounds) for i in range(n)]
    if n >= 4 * TAIL_BEYOND:
        tail = sorted(per_op)[n - TAIL_BEYOND - 1]
        print(f"op_tail_ms is p{100 * (n - TAIL_BEYOND) / n:.1f} of {n} per-operation latencies "
              f"({TAIL_BEYOND} beyond it), each the mean of {len(rounds)} rounds")
    else:  # too few samples for a tail (quick mode)
        tail = statistics.median(per_op)
        print(f"op_tail_ms is the median: {n} operations are too few for a tail")
    return {
        "setup_s": setup_s,
        "ops_per_s": n / sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_tail_ms": tail * 1e3,
        "largest_case_s": statistics.fmean(x for r in rounds for x in r.largest),
        "peak_rss_mb": peak_rss_kb / 1024,
    }


def cli_probes() -> Dict[str, float]:
    """Fresh-process import time of gradedmat.cli, and the wall time of a small
    `verify` as a child process minus the same argv run through main() here."""
    import workloads
    from gradedmat import cli
    env = workloads.child_env(ROOT)
    code = "import time; t = time.perf_counter(); import gradedmat.cli; print(time.perf_counter() - t)"
    imports = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True,
                             text=True, cwd=ROOT, env=env)
        imports.append(float(res.stdout))
    child = statistics.median(
        fresh_process_seconds([sys.executable, "-m", "gradedmat", *PROBE_ARGV], env)
        for _ in range(SETUP_REPEATS))
    in_process = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(list(PROBE_ARGV))
        in_process.append(time.perf_counter() - t0)
    return {"cli.import_s": statistics.median(imports),
            "cli.process_overhead_s": child - statistics.median(in_process)}


def write_spans(spans, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        for span_id, name, parent, start, end in spans:
            handle.write(json.dumps({"id": span_id, "name": name, "parent": parent,
                                     "start": start, "end": end}) + "\n")


def traced(args, ops, runner):
    import tracer as tracing
    probes = cli_probes()
    untraced = run_round(ops)
    fits = {series: fitted_exponent(points) for series, points in untraced.tagged.items()}
    tracer = tracing.Tracer()
    tracer.install()
    if runner is not None:
        runner.tracer = tracer
    first_counts = {}

    def after_round(n):
        if n == 1:
            first_counts.update(tracer.counts)
            tracer.keep_spans = False

    rounds = run_rounds(ops, args.seconds, 1, tracer, after_round)
    spans_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.jsonl"
    write_spans(tracer.spans, spans_path)
    print(f"spans of the first traced round: {spans_path.relative_to(ROOT)}")
    metrics = tracing.layer_metrics(first_counts, tracer.self_s, tracer.group_s, len(rounds))
    metrics["gradings.verify_grading_exponent"] = fits.get("verify", 0.0)
    metrics["equivalence.decide_exponent"] = fits.get("decide", 0.0)
    metrics.update(probes)
    traced_wall = statistics.fmean(r.wall for r in rounds)
    metrics["trace.overhead_s"] = traced_wall - untraced.wall
    metrics["trace.overhead_share"] = (traced_wall - untraced.wall) / untraced.wall
    return metrics, [untraced] + rounds


def run_all(args) -> int:
    """Each workload in turn as a child process; one summary line per workload
    and, last, one JSON object keyed by workload."""
    results = {}
    for workload in ("elementary", "fine", "group-scale", "cli"):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[workload] = result = json.loads(proc.stdout.strip().splitlines()[-1])
        metrics = ", ".join(f"{name}={m['value']:.4g} {m['unit']}" for name, m in result["metrics"].items())
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}; {metrics}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("elementary", "fine", "group-scale", "cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="smallest sizes, one round")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "gradedmat" / "__init__.py").is_file():
        print(f"error: no gradedmat sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    import workloads

    pin_to_one_cpu()

    units = metric_units()
    with contextlib.ExitStack() as stack:
        runner = None
        if args.workload == "cli":
            workdir = stack.enter_context(tempfile.TemporaryDirectory(prefix=".bench_work-", dir=ROOT))
            runner = workloads.CliRunner(ROOT, Path(workdir))
        ops = workloads.build(args.workload, args.seed, args.quick, runner)
        if args.setup_only:
            return 0
        if args.trace:
            metrics, rounds = traced(args, ops, runner)
        else:
            setup_s = setup_seconds(args, SpeedScale())
            # cli operations wait on child processes: no samples during them
            with SpeedScale(None if runner else SAMPLE_PERIOD_S) as clock:
                rounds = run_rounds(ops, args.seconds, 1 if args.quick else MIN_ROUNDS, clock=clock)
            cals = [c * 1e3 for c in clock.samples]
            print(f"calibration loop: median {statistics.median(cals):.3f} ms, range {min(cals):.3f} "
                  f"to {max(cals):.3f} ms over {len(cals)} samples; times scaled to "
                  f"{REFERENCE_S * 1e3:g} ms")
            rss = runner.peak_rss_kb if runner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            metrics = end_to_end(rounds, setup_s, rss)
    unexpected = [msg for r in rounds for msg in r.unexpected]
    for msg in dict.fromkeys(unexpected):
        print(f"unexpected failure: {msg}", file=sys.stderr)
    known = sorted({op.name for op in ops if op.fault} & {n for r in rounds for n in r.failures})
    print(f"{args.workload}: {len(rounds)} rounds of {len(ops)} operations; "
          f"known faults failing: {', '.join(known) or 'none'}")
    result = {
        "correct": not unexpected,
        "attempted": sum(len(r.latencies) for r in rounds),
        "failed": sum(len(r.failures) for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
