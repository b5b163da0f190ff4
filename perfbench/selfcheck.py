"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Runs all four workloads at the reduced sizes of ``workloads.SIZES["tiny"]``,
untraced and traced, and asserts that every run's samples pass their
oracles, that every metric of ``BENCHMARK.json`` prints by name with its
unit (and ``failed_frac`` with each untraced run), and that the last line
is the result object with exactly the keys the benchmark promises.  Exits
non-zero on the first failed assertion.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402


def check(cond, msg):
    if not cond:
        sys.exit(f"selfcheck FAILED: {msg}")


def main():
    bench = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    declared = {0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in bench["per_layer"]]}
    check(declared[0] == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
    check(declared[1] == run.PER_LAYER, "BENCHMARK.json per_layer != run.PER_LAYER")
    check([w["name"] for w in bench["workloads"]] == list(workloads.NAMES),
          "BENCHMARK.json workloads != workloads.NAMES")

    for name in workloads.NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", "7", "--seconds", "1", "--trace", str(trace),
                 "--size", "tiny"],
                capture_output=True, text=True, timeout=170)
            where = f"{name} trace={trace}"
            check(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{where}: result keys {sorted(result)}")
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{where}: {result['failed']} of {result['attempted']} "
                  f"samples failed\n{proc.stderr}")
            metrics = result["metrics"]
            check(list(metrics) == [n for n, _ in declared[trace]],
                  f"{where}: metric names {list(metrics)}")
            text = "\n".join(lines[:-1])
            for metric, unit in declared[trace]:
                check(metrics[metric]["unit"] == unit, f"{where}: unit of {metric}")
                check(re.search(rf"^{re.escape(metric)} \S+ {re.escape(unit)} ",
                                text, re.M), f"{where}: {metric} not printed")
            check(re.search(r"^failed_frac 0 ratio ", text, re.M),
                  f"{where}: failed_frac not printed as 0")
            check(re.search(r"^env \{.*\"fracdyn_backend\"", text, re.M),
                  f"{where}: environment not printed")
            print(f"ok {where}: {result['attempted']} samples")
    print("selfcheck passed")


if __name__ == "__main__":
    main()
