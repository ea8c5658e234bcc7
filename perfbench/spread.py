"""Run the benchmark over several seeds and report each metric's median and
spread (interquartile distance as a share of the median).

    python3 perfbench/spread.py --workload axis_queries --seeds 1-10 [--trace 1] [--json out.json]
                                [--record]

Runs are sequential, one process at a time, from the root of the checkout.
``--record`` stores the medians as the workload's baseline in
perfbench/baseline.json: its end-to-end part with ``--trace 0``, its
per-layer part with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASELINE = os.path.join(ROOT, "perfbench", "baseline.json")


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="write medians and spreads to this file")
    parser.add_argument("--record", action="store_true",
                        help="store the medians as this workload's baseline")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    units = {}
    notes = {}
    for seed in seeds(args.seeds):
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", args.workload,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(args.trace)],
                              cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        for line in lines:
            for key in ("ops by kind", "time by kind", "largest group share of op time"):
                if line.startswith(key + ":"):
                    notes.setdefault(key.replace(" ", "_"), line.partition(": ")[2])
            if "samples beyond it" in line:
                notes.setdefault("samples", line)
        if proc.returncode or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}, {result['failed']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + " ".join(f"{k}={m['value']:.4g}"
                                          for k, m in result["metrics"].items()
                                          if k in bounds), flush=True)
    summary = {}
    for name, vals in values.items():
        median = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (median, 0, median)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "spread": spread, "unit": units[name]}
        if name in bounds:
            bound = bounds[name]
            print(f"{name:12} median {median:.6g} {units[name]}  spread {spread:.3f}  "
                  f"bound {bound}  {'ok' if spread <= bound / 3 else 'WIDE'}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
                       "trace": args.trace, **notes, "metrics": summary}, fh, indent=1)
    if args.record:
        record(args, notes, summary)
    return 0


def record(args, notes: dict, summary: dict) -> None:
    with open(BASELINE, encoding="utf-8") as fh:
        baseline = json.load(fh)
    entry = baseline["workloads"].setdefault(args.workload, {})
    if args.trace:
        entry["per_layer"] = {"seeds": args.seeds,
                              **{name: m["median"] for name, m in summary.items()}}
    else:
        entry.update(notes)
        entry["end_to_end"] = {"seeds": args.seeds, **summary}
    with open(BASELINE, "w", encoding="utf-8") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(main())
