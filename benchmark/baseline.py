"""Measure every workload on several seeds and write baseline.json.

    python3 benchmark/baseline.py [--runs 10] [--traced 3] [--seconds S]

Runs `run.py` one run at a time: seeds 1..runs untraced and 1..traced
traced, per workload.  For each end-to-end metric it records the median,
the quartiles and the spread (distance between the quartiles as a share of
the median, as `statistics.quantiles(values, n=4)` gives them) next to the
metric's bound in BENCHMARK.json.  For each per-layer metric it records the
median, and checks that the layer self times add up to the untraced check
and FSM time plus the tracing overhead (means over the traced runs, within
1%).  Exits 1 if any run failed, was wrong or did not finish.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode or not result.get("correct") or result.get("failed"):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"{workload} seed {seed} trace {trace}: exit {proc.returncode}")
    return result


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "runs": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=3)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out = {
        "recorded_with": {
            "runs": args.runs, "traced_runs": args.traced, "seconds": args.seconds,
            "machine": f"{platform.processor() or platform.machine()},"
                       f" python {platform.python_version()}",
        },
        "workloads": {},
    }
    for w in spec["workloads"]:
        name = w["name"]
        plain = [measure(name, seed, args.seconds, 0) for seed in range(1, args.runs + 1)]
        traced = [measure(name, seed, args.seconds, 1) for seed in range(1, args.traced + 1)]
        e2e = {}
        for metric in plain[0]["metrics"]:
            e2e[metric] = summary([r["metrics"][metric]["value"] for r in plain])
            e2e[metric].update(unit=plain[0]["metrics"][metric]["unit"],
                               bound=bounds.get(metric))
        layers = {metric: {"median": statistics.median(r["metrics"][metric]["value"]
                                                       for r in traced),
                           "unit": traced[0]["metrics"][metric]["unit"]}
                  for metric in traced[0]["metrics"]}
        untraced, layer_sum, overhead = (
            statistics.fmean(r["metrics"][f"trace.{m}_ms"]["value"] for r in traced)
            for m in ("untraced", "layers", "overhead"))
        out["workloads"][name] = {
            "why": w["why"],
            "attempted": sum(r["attempted"] for r in plain + traced),
            "failed": sum(r["failed"] for r in plain + traced),
            "end_to_end": e2e,
            "per_layer": layers,
            "tracing": {"untraced_ms": untraced, "layers_ms": layer_sum,
                        "overhead_ms": overhead,
                        "layers_add_up": abs(layer_sum - untraced - overhead)
                        <= 0.01 * untraced},
        }
        print(f"{name}: " + ", ".join(f"{m} {v['spread']:.3f}" for m, v in e2e.items()),
              flush=True)
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
