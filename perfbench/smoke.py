"""Smoke test: every workload at tiny size, untraced and traced.

Run from the root of a checkout::

    python3 perfbench/smoke.py

Each workload must finish with zero failed checks, print exactly the metrics
``BENCHMARK.json`` declares, resolve every hook, and leave the hooks
predicted idle for its family at zero calls.  Exits non-zero on any miss.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
               "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{workload}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def main() -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for name in spec["workloads"]:
        workload = name["name"]
        if workload not in WORKLOADS:
            problems.append(f"{workload}: declared but not implemented")
            continue
        for trace in (0, 1):
            result, header = run(workload, trace)
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload} trace={trace}: {result['failed']} failed checks")
            if sorted(result["metrics"]) != sorted(declared[trace]):
                problems.append(f"{workload} trace={trace}: metrics differ from BENCHMARK.json")
            for line in header:
                if line.startswith(("# unresolved_hooks:", "# idle_hooks_fired:")):
                    if json.loads(line.split(":", 1)[1]):
                        problems.append(f"{workload}: {line}")
        print(f"ok {workload}", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
