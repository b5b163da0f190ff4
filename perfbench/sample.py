"""One benchmark sample: a fresh interpreter runs one workload once.

    python3 perfbench/sample.py '<json request>'

The request names the workload, its drawn parameters, the sample
directory, whether to trace, and ``spawn``: the ``time.monotonic()`` reading
the parent took just before starting this interpreter, so that ``setup_s``
counts interpreter start, imports and input set-up.  The last line of
standard output is one JSON object with the measurements; the exit code is
non-zero when the sample failed.
"""

import json
import sys
import time


def _environment():
    import os
    import platform

    import numpy as np
    import scipy

    import fracdyn
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"fracdyn_backend": getattr(fracdyn, "BACKEND", None),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "python": platform.python_version(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration"),
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def main(request):
    import resource
    from pathlib import Path

    import fracdyn
    import fracdyn.cli  # noqa: F401  (every layer is loaded before tracing)
    import workloads
    name, params = request["workload"], request["params"]
    sample_dir = Path(request["dir"])
    if not Path(fracdyn.__file__).resolve().is_relative_to(workloads.ROOT / "src"):
        raise RuntimeError(f"fracdyn imported from {fracdyn.__file__}, "
                           "not from this checkout")
    tracer = None
    if request["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        untraced = tracer.install()

    ctx = workloads.setup(name, params, sample_dir)
    ready = time.monotonic()

    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    if tracer is None:
        workloads.run(ctx)
    else:
        tracer.root(workloads.run, ctx)
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)

    out = {
        "ok": True,
        "setup_s": ready - request["spawn"],
        "run_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "peak_rss_mb": ru1.ru_maxrss / 1024.0,
        "output_bytes": workloads.output_bytes(ctx),
    }
    if tracer is not None:
        tracer.remove()
        self_s, calls, root_s = tracer.totals()
        tracer.write(sample_dir / "spans.json")
        out.update(self_s=self_s, calls=calls, traced_run_s=root_s,
                   history_bytes=tracer.history_bytes,
                   newton_iters=tracer.newton_iters, untraced=untraced)
    out["oracle"] = workloads.check(ctx)
    out["env"] = _environment()
    return out


if __name__ == "__main__":
    req = json.loads(sys.argv[1])
    try:
        result = main(req)
    except Exception as exc:  # report any failure as a failed sample
        import traceback
        traceback.print_exc()
        print(json.dumps({"ok": False, "error": f"{type(exc).__name__}: {exc}"}))
        sys.exit(1)
    print(json.dumps(result))
