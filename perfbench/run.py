"""Run one benchmark workload against the treescale sources of this checkout.

    python3 perfbench/run.py --workload axis_queries --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the op list runs in a closed loop (one client, one op at
a time) for about ``--seconds`` seconds, in whole passes; every pass sets
the groups up afresh.  Times are normalised by calibration slices (see
``Clock``).  Peak memory is read when the first pass ends, so it does not
depend on how many passes fit.  The end-to-end metrics of BENCHMARK.json
are printed with their units.  With ``--trace 1`` an untraced, a traced
and another untraced pass run (with the workload's trace-only ops), and
the per-layer metrics of BENCHMARK.json are printed.
Every distinct output of every op is checked against ``reference.py``
after the timed region.
The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import traceback
from array import array
from time import perf_counter

import perms

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 7
IMPORT_SAMPLES = 3
MIN_BEYOND_TAIL = 10
CALIBRATION_STEPS = 1500
REFERENCE_SLICE_S = 0.002
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW_S = 0.4
CALIBRATION_MIN_SLICES = 8


def percentile(sorted_values, q: float):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def calibration_slice() -> float:
    """Seconds taken by a fixed piece of pure-Python work (tuple
    permutations and a dict) that shares no code with treescale.  The
    collector is off so that it cannot charge the program's garbage here."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        p, q, seen = perms.identity(12), tuple(range(12, 0, -1)), {}
        for i in range(CALIBRATION_STEPS):
            p = perms.compose(p, q)
            seen[p] = i
            if i % 7 == 0:
                q = perms.inverse(p)
        return perf_counter() - t0
    finally:
        if was_enabled:
            gc.enable()


class Clock:
    """Times ops.  Started as a context manager, it also runs a calibration
    slice from a SIGALRM timer every CALIBRATE_EVERY_S of wall time, during
    ops as well as between them; the part of a slice that falls within an
    op is taken out of that op's time.  Unstarted, it gives raw wall times."""

    def __init__(self):
        self.starts: list[float] = []      # when each slice started
        self.ends: list[float] = []        # when each slice ended
        self.slices: list[float] = []      # how long each slice's work took
        self._busy = False
        self._previous = None

    def _tick(self, signum, frame):
        if self._busy:   # a slow slice outlasted the interval: skip, do not nest
            return
        self._busy = True
        try:
            t0 = perf_counter()
            took = calibration_slice()
            t1 = perf_counter()
            self.starts.append(t0)
            self.slices.append(took)
            self.ends.append(t1)
        finally:
            self._busy = False

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATE_EVERY_S, CALIBRATE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn):
        """(result, start, end, seconds) of fn(): seconds is end - start less
        the overlap of every slice with [start, end].  A slice that runs
        just before start or just after end overlaps nothing."""
        first, start = len(self.ends), perf_counter()
        result = fn()
        end = perf_counter()
        inside = sum(max(0.0, min(end, self.ends[j]) - max(start, self.starts[j]))
                     for j in range(first, len(self.ends)))
        seconds = end - start - inside
        assert seconds >= 0, f"negative op time {seconds}"
        return result, start, end, seconds

    def factor(self, start: float, end: float) -> float:
        """Reference slice seconds over the median of the slices that ended
        within CALIBRATION_WINDOW_S of [start, end] (at least the nearest
        CALIBRATION_MIN_SLICES); 1 when no slice ran."""
        if not self.slices:
            return 1.0
        lo = bisect.bisect_left(self.ends, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.ends, end + CALIBRATION_WINDOW_S)
        while hi - lo < min(CALIBRATION_MIN_SLICES, len(self.slices)):
            lo, hi = max(0, lo - 1), min(len(self.slices), hi + 1)
        return REFERENCE_SLICE_S / statistics.median(self.slices[lo:hi])


class Samples:
    """The op samples of whole passes, so sample j is op j % n_ops.  Times
    sit in flat arrays, and each distinct (op, output, error) is kept once
    with its count, so the harness's memory grows by 24 bytes per sample
    and not with the outputs."""

    def __init__(self, n_ops: int):
        self.n_ops = n_ops
        self.start, self.end, self.raw = array("d"), array("d"), array("d")
        self.outputs: dict = {}   # (op index, repr) -> [op index, output, error, count]

    def __len__(self) -> int:
        return len(self.raw)

    def add(self, index, start, end, raw, output, error) -> None:
        self.start.append(start)
        self.end.append(end)
        self.raw.append(raw)
        entry = self.outputs.setdefault((index, repr((output, error))), [index, output, error, 0])
        entry[3] += 1

    def normalised(self, clock: Clock) -> list[float]:
        return [raw * clock.factor(start, end)
                for start, end, raw in zip(self.start, self.end, self.raw)]


def run_pass(wl, inputs, clock, samples, tracer=None):
    """Set up, bind and run every op once, under ``tracer`` when one is
    given, adding each op to ``samples``.  Returns the set-up timing
    (start, end, seconds)."""
    gc.collect()
    if tracer is not None and not wl.fresh_import:
        tracer.install()
    try:
        state, *setup = clock.time(lambda: wl.setup(inputs))
        if tracer is not None and wl.fresh_import:
            tracer.install()
        for i, call in enumerate(wl.calls(state, inputs)):
            if tracer is not None:
                tracer.op = i
            try:
                (result, *timing), error = clock.time(call), None
            except Exception:  # an unexpected exception is a failed op
                timing = [0.0, 0.0, 0.0]
                result, error = None, traceback.format_exc().strip().splitlines()[-1]
            samples.add(i, *timing, None if error else wl.plain(inputs["ops"][i], result), error)
        return setup
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(wl, inputs, seconds: float):
    """Whole passes until the next one would end after ``seconds``, then
    extra set-ups up to SETUP_SAMPLES.  Returns normalised set-up seconds,
    the samples, their normalised latencies, and the peak resident memory
    in MB when the first pass ended."""
    clock = Clock()
    setups, samples, peak_rss_mb = [], Samples(len(inputs["ops"])), None
    with clock:
        start = perf_counter()
        while True:
            t0 = perf_counter()
            setups.append(run_pass(wl, inputs, clock, samples))
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            now = perf_counter()
            if (now - start) + (now - t0) > seconds:
                break
        while len(setups) < SETUP_SAMPLES:
            gc.collect()
            setups.append(clock.time(lambda: wl.setup(inputs))[1:])
    setups = [raw * clock.factor(start, end) for start, end, raw in setups]
    return setups, samples, samples.normalised(clock), peak_rss_mb


def import_seconds() -> float:
    """Median wall time of a child ``python -S -c "import treescale.cli"``
    (interpreter start included)."""
    path = [SRC] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-S", "-c", "import treescale.cli"], env=env, cwd=ROOT,
                       check=True, timeout=60)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def check(wl, inputs, samples):
    """Reference-check each distinct output once.  Returns the number of
    failed samples and one line per failing distinct output."""
    import reference
    checker = reference.Checker()
    failed, lines = 0, []
    for index, output, error, count in samples.outputs.values():
        problem = error and "exception: " + error
        if problem is None:
            try:
                problem = checker.check_op(wl.name, inputs, index, output)
            except Exception:
                problem = "reference check raised: " + traceback.format_exc().splitlines()[-1]
        if problem:
            failed += count
            lines.append(f"op {index} {json.dumps(inputs['ops'][index])} ({count} samples): "
                         f"{problem}")
    return failed, lines


def kind(op) -> str:
    """An op's kind: its API function, or its subcommand for a CLI op."""
    return op[1][0] if op[0] == "cli" else op[0]


def describe(wl, inputs, latencies, seed):
    ops = inputs["ops"]
    kinds = {}
    for op in ops:
        kinds[kind(op)] = kinds.get(kind(op), 0) + 1
    import workloads
    print(f"workload {wl.name} seed {seed}: inputs digest {workloads.digest(inputs)} "
          f"({len(inputs['groups'])} groups, {len(ops)} ops per pass)")
    print("ops by kind: " + ", ".join(f"{k} {100 * n / len(ops):.1f}%"
                                      for k, n in sorted(kinds.items())))
    busy = {}
    for j, latency in enumerate(latencies):
        op = ops[j % len(ops)]
        busy[kind(op)] = busy.get(kind(op), 0.0) + latency
    total = sum(busy.values())
    print("time by kind: " + ", ".join(f"{k} {100 * t / total:.1f}%"
                                       for k, t in sorted(busy.items())))
    if inputs["groups"]:
        by_group = {}
        for j, latency in enumerate(latencies):
            g = inputs["groups"][ops[j % len(ops)][1]]
            by_group[g] = by_group.get(g, 0.0) + latency
        top = max(by_group, key=by_group.get)
        print(f"largest group share of op time: {top} {100 * by_group[top] / total:.1f}%")


def end_to_end(wl, inputs, seconds):
    """The end-to-end metrics from normalised latencies."""
    setups, samples, latencies, peak_rss_mb = measure(wl, inputs, seconds)
    ordered = sorted(latencies)
    p50, _ = percentile(ordered, 50)
    tail, beyond = percentile(ordered, wl.tail_percentile)
    values = {"ops_per_s": len(ordered) / sum(ordered),
              "op_p50_ms": 1000 * p50, "op_tail_ms": 1000 * tail,
              "setup_s": statistics.median(setups), "peak_rss_mb": peak_rss_mb}
    raw = sorted(samples.raw)
    print(f"raw wall time: {len(raw) / sum(raw):.6g} ops/s, "
          f"p50 {1000 * percentile(raw, 50)[0]:.6g} ms, "
          f"p{wl.tail_percentile} {1000 * percentile(raw, wl.tail_percentile)[0]:.6g} ms; "
          f"speed factor (raw / normalised time) {sum(raw) / sum(ordered):.4f}")
    print(f"{len(ordered) // samples.n_ops} passes, {len(ordered)} op samples, "
          f"{len(setups)} setup samples; op_tail_ms is p{wl.tail_percentile} with {beyond} "
          "samples beyond it"
          + ("" if beyond >= MIN_BEYOND_TAIL else " (fewer than 10: tail is unreliable)"))
    return values, samples, latencies


def traced(wl, inputs, seed):
    """One untraced, one traced and one more untraced pass, in raw wall
    time; the per-layer metrics come from the tracer, the overhead from the
    faster untraced pass."""
    from tracer import Tracer
    extra = {}
    if wl.name == "cli_calls":
        extra["cli.import_s"] = import_seconds()

    n = len(inputs["ops"])
    samples, tracer = Samples(n), Tracer()
    for pass_tracer in (None, tracer, None):
        run_pass(wl, inputs, Clock(), samples, tracer=pass_tracer)
    plain, traced_pass, again = (samples.raw[k * n:(k + 1) * n] for k in range(3))
    extra["trace.overhead_ratio"] = sum(traced_pass) / min(sum(plain), sum(again))
    if wl.name == "cli_calls":
        by_command = {}
        for j, latency in enumerate(plain + again):
            by_command.setdefault(inputs["ops"][j % n][1][0], []).append(latency)
        for command, lats in by_command.items():
            extra[f"cli.{command}.p50_ms"] = 1000 * statistics.median(lats)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{wl.name}-{seed}.jsonl")
    tracer.write(path, {"workload": wl.name, "seed": seed})
    print(f"spans written to {os.path.relpath(path, ROOT)}")

    def value(name):
        return extra[name] if name in extra else (
            0.0 if name.startswith("cli.") and name.endswith(".p50_ms")
            else tracer.metric(name))
    return value, samples, list(samples.raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(SRC, "treescale", "__init__.py")):
        print("perfbench: no treescale sources under src/ in this checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import treescale
    if os.path.dirname(os.path.abspath(treescale.__file__)) != os.path.join(SRC, "treescale"):
        print(f"perfbench: imported treescale from {treescale.__file__}", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)

    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in spec["workloads"]}.get(wl.name, "")
    if f"op_tail_ms is p{wl.tail_percentile}" not in why:
        print(f"perfbench: the why of {wl.name} in BENCHMARK.json must end "
              f"'op_tail_ms is p{wl.tail_percentile}'", file=sys.stderr)
        return 2
    inputs = wl.inputs(args.seed)

    if args.trace:
        inputs = {**inputs, "ops": inputs["ops"] + inputs.get("trace_ops", [])}
        value, samples, latencies = traced(wl, inputs, args.seed)
        wanted = spec["per_layer"]
        metrics = {m["name"]: {"value": value(m["name"]), "unit": m["unit"]} for m in wanted}
    else:
        values, samples, latencies = end_to_end(wl, inputs, args.seconds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    describe(wl, inputs, latencies, args.seed)
    failed, failures = check(wl, inputs, samples)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_ratio = {failed / len(samples):.6g} ratio ({failed} of {len(samples)} ops)")
    for line in failures[:50]:
        print("FAILED " + line)
    if len(failures) > 50:
        print(f"... and {len(failures) - 50} more failing outputs")
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
