"""End-to-end benchmark of the repro package: one workload per invocation.

    python3 perfbench/run.py --workload scale_e2e --seed 0 --seconds 20 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory. The workloads, metrics and bounds are declared in
``BENCHMARK.json`` at the checkout root and described in
``perfbench/README.md``.

Each workload runs in fresh interpreters (``workloads.py``): one that
sets up, checks the program's outputs and measures, and four that only
set up, two before it and two after, so ``setup_s`` is a median of five.
Every cache, store and artifact lives in a temporary directory under
``.perfbench-tmp/`` in the checkout, removed on exit.

Output: a ``{"record": ...}`` line with the environment, parameters and
raw samples, then, as the last line, the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation succeeded and every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters that set up per run, the measuring one included.
SETUP_REPEATS = 5
#: Limits on one child process, well inside the 180 s a run may take.
PROBE_TIMEOUT_S = 30
MEASURE_SLACK_S = 60


class ChildFailed(RuntimeError):
    """A workload process exited abnormally or printed no result."""


def run_child(args: list[str], env: dict[str, str], timeout: float) -> dict:
    """Run ``workloads.py`` in its own session; return its last JSON line.

    On timeout the whole process group is killed, so no pool worker or
    server outlives the child.
    """
    argv = [sys.executable, str(HERE / "workloads.py"), *args,
            "--t0", repr(time.monotonic())]
    child = subprocess.Popen(
        argv, stdout=subprocess.PIPE, env=env, cwd=ROOT,
        start_new_session=True, text=True,
    )
    try:
        stdout, _ = child.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise ChildFailed(f"{' '.join(args)}: no result within {timeout:.0f} s")
    finally:
        try:
            os.killpg(child.pid, signal.SIGKILL)  # stray grandchildren
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise ChildFailed(f"{' '.join(args)}: exit code {child.returncode}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              f"run from a checkout of the repository", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    tmp_root = ROOT / ".perfbench-tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp),
               PYTHONUNBUFFERED="1")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--tmp", str(tmp)]

    def probe() -> float:
        return run_child([*common, "--mode", "setup"], env, PROBE_TIMEOUT_S)[
            "setup_s"
        ]

    # A traced run reports no setup_s, so it skips the extra set-ups. The
    # others run half before and half after the measuring child: the
    # host's speed wanders over seconds, and a median of set-ups spread
    # over the whole run is steadier than one of back-to-back set-ups.
    probes = 0 if args.trace else SETUP_REPEATS - 1
    try:
        setups = [probe() for _ in range(probes // 2)]
        result = run_child(
            [*common, "--mode", "measure", "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            env, args.seconds + MEASURE_SLACK_S,
        )
        setups += [probe() for _ in range(probes - probes // 2)]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass  # another run still uses it
    setups.append(result["setup_s"])
    measured = dict(result["metrics"], setup_s=statistics.median(setups))
    unknown = sorted(set(measured) - {m["name"] for m in declared} - {"setup_s"})
    missing = sorted({m["name"] for m in declared} - set(measured))
    if unknown or missing:
        # A missing layer was renamed or is no longer called; one a
        # workload never calls is listed in its NOT_MEASURED and reads 0.
        print(f"perfbench: undeclared metrics {unknown}, "
              f"unmeasured metrics {missing}", file=sys.stderr)
        return 1
    metrics = {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
        for m in declared
    }
    correct = result["failed"] == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": result["env"],
        "params": result["params"],
        "facts": result["facts"],
        "samples": result["samples"],
        "setup_s_samples": setups,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
