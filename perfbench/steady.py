"""Steadiness check: is each end-to-end metric repeatable within its bound?

    python3 perfbench/steady.py [--workloads serve_warm ...]

Runs ``run.py`` ten times per workload with seeds 1, ..., 10, then the
same ten runs again. For each set and every end-to-end metric it reports
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread: the distance between the quartiles as a share of the median. A
metric is flagged ``OVER`` when its spread exceeds its bound in
``BENCHMARK.json`` and ``tight`` when it exceeds a third of it. A second
median worse than the first by more than the bound is flagged
``DRIFT``. Exits 1 when anything is flagged or a run fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Two sets of ten runs: the spread is taken within a set, the drift
#: between the two sets' medians.
SETS = 2
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict | None:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result = json.loads(lines[-1])
    return {name: m["value"] for name, m in result["metrics"].items()}


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)

    flagged = False
    summary: dict[str, list[dict]] = {}
    for workload in args.workloads:
        medians: list[dict[str, float]] = []
        for set_index in range(SETS):
            runs = []
            for k in range(RUNS):
                values = one_run(workload, k + 1, spec["run_seconds"])
                if values is None:
                    print(f"{workload}: run with seed {k + 1} failed")
                    flagged = True
                    continue
                runs.append(values)
            if len(runs) < 2:
                flagged = True
                continue
            print(f"\n{workload} (set {set_index + 1}, {len(runs)} runs)")
            print(f"  {'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} "
                  f"{'spread':>7} {'bound':>6}")
            medians.append({})
            stats = {}
            for metric in spec["end_to_end"]:
                name, bound = metric["name"], metric["bound"]
                values = [run[name] for run in runs]
                q1, median, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / median if median else float("inf")
                flag = ""
                if spread > bound:
                    flag, flagged = "OVER", True
                elif spread > bound / 3:
                    flag = "tight"
                if len(medians) == 2 and worse_by(
                    medians[0][name], median, metric["better"]
                ) > bound:
                    flag, flagged = (flag + " DRIFT").strip(), True
                medians[-1][name] = median
                stats[name] = {"median": median, "q1": q1, "q3": q3,
                               "spread": spread}
                print(f"  {name:<14} {median:>12.5g} {q1:>12.5g} {q3:>12.5g} "
                      f"{spread:>7.3f} {bound:>6.2f} {flag}", flush=True)
            summary.setdefault(workload, []).append(stats)
    print(json.dumps({"steadiness": summary}))
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
