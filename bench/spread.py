"""Run-to-run spread of the end-to-end metrics, as the acceptance rule takes it.

    python3 bench/spread.py [--first-seed 1] [--out FILE]

Runs the benchmark command of BENCHMARK.json on RUNS consecutive seeds for
each of its workloads, one run after another, with ``--trace 0`` and the file's
``run_seconds``.  For every end-to-end metric it prints the median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(Q3 - Q1) / median against the metric's bound; a spread at or above a third
of the bound is flagged.  It exits 1 if an output is incorrect or a
spread reaches its bound.  ``--out`` writes every value, the machine record
and the summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    report = {"run_seconds": bench["run_seconds"], "runs": RUNS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + RUNS):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            report.setdefault("machine", lines[0])
            result = json.loads(lines[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: incorrect output", file=sys.stderr)
                ok = False
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < m["bound"] / 3 else "  <-- at or above bound/3"
            if spread >= m["bound"]:
                ok = False
            summary[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                  "bound": m["bound"], "values": vals}
            print(f"{workload:<16} {m['name']:<16} median={med:<12.5g} q1={q1:<12.5g} "
                  f"q3={q3:<12.5g} spread={spread:.4f} bound={m['bound']}{flag}", flush=True)
        report["workloads"][workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
