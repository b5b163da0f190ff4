"""The benchmark's per-layer hooks still find the functions they trace."""

import importlib.util
from pathlib import Path

from fracdyn import cli  # loads every module the tracer patches

_TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# targets whose functions are gone; the benchmark reports them as zero
_STALE = {"chain.chain_guard", "kernels.ring_kernel"}


def test_tracer_finds_its_targets():
    # a renamed function would zero its per-layer metric without an error
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tracer = module.Tracer()
    load_config = cli.load_config
    try:
        missing = tracer.install()
    finally:
        tracer.remove()
    assert set(missing) <= _STALE
    assert cli.load_config is load_config
