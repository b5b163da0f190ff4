"""fracdyn benchmark: four seeded batch workloads, closed loop, one client.

    python3 perfbench/run.py --workload sg_wave --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; fracdyn is imported from
``src/``.  Samples run one after another, each a fresh interpreter
(``sample.py``), until the next one would end past ``--seconds`` (at least
``MIN_SAMPLES``), so every sample has its own set-up time and peak RSS.
Every sample's output is checked by the workload's oracle; a sample that
raises, exits non-zero or fails its oracle counts as failed.

``--trace 0`` reports the end-to-end metrics as medians over the samples.
``--trace 1`` alternates untraced and traced samples and reports the
per-layer metrics of the traced ones (median per metric) plus
``trace.overhead_s``, the traced minus the untraced median ``run_s``.

Standard output: the environment, one line per metric with its unit and
sample count, and as the last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details of every
sample go to ``perfbench/_out/<workload>/result.json``.
"""

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from tracer import TARGETS  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "_out"
MIN_SAMPLES = 3          # per kind of sample (untraced, traced)
TIME_LIMIT_S = 170.0     # a run never outlasts this

END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB")]

CALL_COUNTS = ["cli.write_csv", "fields.guard", "fields.explicit_terms",
               "fields.stationary_residual", "fracops.l1_apply",
               "fracops.mittag_leffler", "chain.chain_guard",
               "chain.fit_mode_rate", "kernels.ring_kernel"]
PER_LAYER = ([(f"{name}_s", "s") for name in TARGETS]
             + [(f"{name}_calls", "count") for name in CALL_COUNTS]
             + [("cli.output_bytes", "B"), ("fields.history_bytes", "B"),
                ("fields.newton_iters", "count"),
                ("fields.newton_useful_ratio", "ratio"),
                ("chain.ml_calls_per_fit", "calls/fit"),
                ("trace.run_s", "s"), ("trace.unwrapped_s", "s"),
                ("trace.overhead_s", "s")])


def nproc():
    return len(os.sched_getaffinity(0))


def check_checkout():
    """The program's sources must be present; the benchmark builds nothing."""
    missing = [p for p in (workloads.ROOT / "src" / "fracdyn" / "__init__.py",
                           workloads.SG_CONFIG) if not p.is_file()]
    if missing:
        sys.exit("perfbench: not a fracdyn checkout, missing "
                 + ", ".join(str(p.relative_to(workloads.ROOT)) for p in missing))


def child_env():
    env = dict(os.environ)
    src = str(workloads.ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    # at most one BLAS/OpenMP thread per core available to this process
    threads = str(nproc())
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    return env


def run_sample(name, params, sample_dir, trace, timeout):
    """Start one sample process, wait for it, and return its result dict."""
    sample_dir.mkdir(parents=True)
    workloads.write_inputs(name, params, sample_dir)
    request = {"workload": name, "params": params, "dir": str(sample_dir),
               "trace": trace}
    request["spawn"] = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py"), json.dumps(request)],
            env=child_env(), capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"ok": False, "error": "no result line"}
    if proc.returncode != 0:
        result["ok"] = False
        result.setdefault("error", f"exit code {proc.returncode}")
        result["stderr"] = proc.stderr[-2000:]
    return result


def collect(name, seed, seconds, trace, size):
    """Run samples of one workload for ``seconds``; returns the samples."""
    rng = random.Random(f"{name}:{seed}")
    shutil.rmtree(OUT / name, ignore_errors=True)
    kinds = [False, True] if trace else [False]
    start = time.monotonic()
    samples = []
    last_wall = 0.0
    while True:
        elapsed = time.monotonic() - start
        enough = len(samples) >= MIN_SAMPLES * len(kinds)
        if enough and elapsed + last_wall > seconds:
            break
        if elapsed + last_wall > TIME_LIMIT_S:
            break
        traced = kinds[len(samples) % len(kinds)]
        params = workloads.draw_params(name, rng, size)
        t0 = time.monotonic()
        result = run_sample(name, params, OUT / name / f"s{len(samples)}",
                            traced, TIME_LIMIT_S - elapsed)
        last_wall = time.monotonic() - t0
        result.update(traced=traced, params=params, wall_s=last_wall)
        samples.append(result)
    return samples


def layer_metrics(s):
    """Per-layer metrics of one traced sample."""
    self_s, calls = s["self_s"], s["calls"]
    m = {f"{name}_s": self_s[name] for name in TARGETS}
    m.update({f"{name}_calls": calls[name] for name in CALL_COUNTS})
    trials = calls["fields.stationary_residual"] - calls["fields.stationary_fgle_solve"]
    fits = calls["chain.fit_mode_rate"]
    m.update({
        "cli.output_bytes": s["output_bytes"],
        "fields.history_bytes": s["history_bytes"],
        "fields.newton_iters": s["newton_iters"],
        # 0 where no Newton solve runs
        "fields.newton_useful_ratio": s["newton_iters"] / trials if trials else 0.0,
        "chain.ml_calls_per_fit": calls["fracops.mittag_leffler"] / fits if fits else 0.0,
        "trace.run_s": s["traced_run_s"],
        "trace.unwrapped_s": self_s["run"],
    })
    return m


def summarize(samples, trace):
    """Medians of the passing samples; returns (metrics, counts by metric)."""
    ok = [s for s in samples if s["ok"]]
    plain = [s for s in ok if not s["traced"]]
    traced = [s for s in ok if s["traced"]]
    metrics, counts = {}, {}
    if not trace:
        for key, unit in END_TO_END:
            if plain:
                metrics[key] = {"value": statistics.median(s[key] for s in plain),
                                "unit": unit}
                counts[key] = len(plain)
        return metrics, counts
    per_sample = [layer_metrics(s) for s in traced]
    for key, unit in PER_LAYER:
        if key == "trace.overhead_s":
            if plain and traced:
                metrics[key] = {"value": statistics.median(s["run_s"] for s in traced)
                                - statistics.median(s["run_s"] for s in plain),
                                "unit": unit}
                counts[key] = len(traced) + len(plain)
        elif per_sample:
            metrics[key] = {"value": statistics.median(m[key] for m in per_sample),
                            "unit": unit}
            counts[key] = len(per_sample)
    return metrics, counts


def report(name, seed, seconds, trace, size):
    """Measure one workload, print its metrics; returns the result object."""
    samples = collect(name, seed, seconds, trace, size)
    metrics, counts = summarize(samples, trace)
    failed = sum(not s["ok"] for s in samples)
    env = next((s["env"] for s in samples if s["ok"]), {})
    env["nproc"] = nproc()
    print(f"== {name} seed={seed} trace={trace}: {len(samples)} samples, "
          f"{failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for s in samples:
        if not s["ok"]:
            print(f"FAILED sample: {s.get('error')}", file=sys.stderr)
            if s.get("stderr"):
                print(s["stderr"], file=sys.stderr)
    for key, m in metrics.items():
        print(f"{key} {m['value']:.6g} {m['unit']} (median of {counts[key]})")
    # A percentile above the median would need ten samples beyond it, which
    # no run of this length has, so medians only.
    print(f"failed_frac {failed / len(samples):.6g} ratio ({failed} of {len(samples)})")
    if trace:
        predicted = json.loads((HERE / "predictions.json").read_text())["largest_self_time"]
        top = max(TARGETS, key=lambda t: metrics.get(f"{t}_s", {"value": -1})["value"])
        print(f"largest self time: {top} (predicted {predicted[name]})")
        gone = sorted({n for s in samples for n in s.get("untraced", ())})
        if gone:
            print("not traced, function not found: " + ", ".join(gone))
    result = {"correct": failed == 0 and len(metrics) > 0,
              "attempted": len(samples), "failed": failed, "metrics": metrics}
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / name / "result.json").write_text(json.dumps(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
         "size": size, "env": env, "result": result, "samples": samples},
        indent=1))
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    args = parser.parse_args(argv)
    # exit through SystemExit on SIGTERM, so that a running sample is killed
    # and waited for by subprocess.run
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    check_checkout()
    names = workloads.NAMES if args.workload == "all" else [args.workload]
    results = {n: report(n, args.seed, args.seconds, args.trace, args.size)
               for n in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    if not any(r["metrics"] for r in results.values()):
        sys.exit("perfbench: no sample passed")
    print(json.dumps(final))


if __name__ == "__main__":
    main()
