"""CLI and config tests: validation messages, outputs, determinism."""

import ast
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import fracdyn

from fracdyn import analysis, cli, fracops
from fracdyn.analysis import DispersionReport, dispersion_check
from fracdyn.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, load_config,
                         main, read_metadata, run, write_csv, write_json,
                         write_metadata)
from fracdyn.errors import ConfigError
from fracdyn.fields import FieldState, nls_evolve
from fracdyn.grids import GridSpec, TimeGrid
from oracles import mode_series, write_csv_per_value

EVOLVE_CONFIG = """
[experiment]
kind = evolve_field
seed = 7

[grid]
n_points = 64
length = 6.283185307179586

[time]
dt = 0.001
n_steps = 200

[model]
g0 = 1.0
beta = 0.8
spatial_terms = 1.5:0.5
potential = ginzburg_landau
a = -1.0
b = 1.0

[initial]
kind = cosine
amplitude = 0.01
mode = 1

[output]
snapshot_every = 50
"""

NLS_CONFIG = """
[experiment]
kind = nls
seed = 3

[grid]
n_points = 128
length = 6.283185307179586

[time]
dt = 0.001
n_steps = 300

[nls]
alpha = 1.5
g = 1.0
a = 0.1
b = 0.5

[initial]
kind = plane_wave
amplitude = 0.75
mode = 3
"""

CHAIN_CONFIG = """
[experiment]
kind = chain

[time]
dt = 0.01
n_steps = 10

[chain]
n_particles = 32
alpha = 1.5
"""

COMPARE_CONFIG = """
[experiment]
kind = continuum_compare

[chain]
n_particles = 512
dx = 1.0
alpha = 1.5
g0 = -1.0
beta = 1.0

[time]
dt = 0.02
n_steps = 2000

[compare]
modes = {modes}
"""

DISPERSION_CONFIG = """
[experiment]
kind = dispersion

[grid]
n_points = 128
length = 6.283185307179586

[time]
dt = 0.001
n_steps = 500

[nls]
alpha = 1.5
g = 1.0
a = 0.0
b = 0.0

[dispersion]
modes = {modes}
"""

STATIONARY_CONFIG = """
[experiment]
kind = stationary_fgle

[grid]
n_points = 128
length = 12.0

[stationary]
alpha = 1.5
g = 1.0
a = -1.0
b = 1.0

[initial]
kind = pulse
amplitude = 1.0
width = 1.0
"""

SINE_GORDON_CONFIG = """
[experiment]
kind = sine_gordon

[grid]
n_points = 64
length = 40.0

[time]
dt = 0.05
n_steps = 20

[sine_gordon]
alpha = 2.0
beta_plus_one = 2.0
velocity = 0.2
"""

SELFTEST_CONFIG = """
[experiment]
kind = operator_selftest
seed = 1
"""


def _write(tmp_path, text, name="config.ini"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_and_roundtrip(tmp_path):
    cfg = load_config(_write(tmp_path, EVOLVE_CONFIG))
    assert cfg.kind == "evolve_field"
    assert cfg.seed == 7
    assert cfg.sections["model"]["spatial_terms"] == [[1.5, 0.5]]
    out = tmp_path / "out"
    run(cfg, out)
    cfg2 = read_metadata(out / "metadata.json")
    assert cfg2 == cfg


def test_unknown_key_rejected(tmp_path):
    bad = EVOLVE_CONFIG.replace("amplitude = 0.01", "amplitdue = 0.01")
    with pytest.raises(ConfigError, match="amplitdue"):
        load_config(_write(tmp_path, bad))


def test_unknown_section_rejected(tmp_path):
    bad = EVOLVE_CONFIG + "\n[mystery]\nx = 1\n"
    with pytest.raises(ConfigError, match="mystery"):
        load_config(_write(tmp_path, bad))


def test_alpha_out_of_range_names_key(tmp_path):
    bad = NLS_CONFIG.replace("alpha = 1.5", "alpha = 3")
    with pytest.raises(ConfigError, match=r"invalid 'alpha': '3.0' in \[nls\]"):
        load_config(_write(tmp_path, bad))


@pytest.mark.parametrize("kind, text, key, value", [
    ("evolve_field", EVOLVE_CONFIG.replace("potential = ginzburg_landau",
                                           "potential = bogus"),
     "potential", "bogus"),
    ("evolve_field", EVOLVE_CONFIG.replace("potential = ginzburg_landau",
                                           "potential = custom"),
     "potential", "custom"),
    ("evolve_field", EVOLVE_CONFIG.replace("b = 1.0", "b = 1.0\ninteraction = cubic"),
     "interaction", "cubic"),
    ("chain", CHAIN_CONFIG + "potential = custom\n", "potential", "custom"),
    ("chain", CHAIN_CONFIG + "interaction = cubic\n", "interaction", "cubic"),
    # values a kind cannot run, rejected before any file is written
    ("evolve_field", EVOLVE_CONFIG.replace("g0 = 1.0", "g0 = 0"), "g0", "0.0"),
    ("stationary_fgle", STATIONARY_CONFIG.replace("a = -1.0\nb = 1.0",
                                                  "a = 0\nb = 0"),
     "a", "0.0"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4").replace(
        "alpha = 1.5", "alpha = 2.0"), "alpha", "2.0"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4").replace(
        "beta = 1.0", "beta = 1.5"), "beta", "1.5"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4").replace(
        "beta = 1.0", "beta = 1.0\npotential = sine_gordon"),
     "potential", "sine_gordon"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4").replace(
        "beta = 1.0", "beta = 1.0\npotential = ginzburg_landau\nb = 0.5"),
     "b", "0.5"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4").replace(
        "beta = 1.0", "beta = 1.0\ninteraction = square"),
     "interaction", "square"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4")
     + "fit_horizon = -5\n", "fit_horizon", "-5.0"),
    ("continuum_compare", COMPARE_CONFIG.format(modes="2,4")
     + "fit_horizon = 0\n", "fit_horizon", "0.0"),
    # the library's ChainSpec rules, which a copy in the runner once missed
    ("chain", CHAIN_CONFIG + "cutoff = 100\n", "cutoff", "100"),
    ("chain", CHAIN_CONFIG.replace("n_particles = 32", "n_particles = 4"),
     "n_particles", "4"),
    ("chain", CHAIN_CONFIG + "dx = -1.0\n", "dx", "-1.0"),
    ("chain", CHAIN_CONFIG + "beta = 0\n", "beta", "0.0"),
    ("evolve_field", EVOLVE_CONFIG.replace("n_points = 64", "n_points = 1"),
     "n_points", "1"),
    ("evolve_field", EVOLVE_CONFIG.replace("length = 6.283185307179586",
                                           "length = 0"), "length", "0.0"),
    ("evolve_field", EVOLVE_CONFIG.replace("dt = 0.001", "dt = 0"), "dt",
     "0.0"),
    ("evolve_field", EVOLVE_CONFIG.replace("n_steps = 200", "n_steps = 0"),
     "n_steps", "0"),
    ("evolve_field", EVOLVE_CONFIG.replace("beta = 0.8", "beta = 2.5"),
     "beta", "2.5"),
    # a spatial order fails validate_spatial_order's 'alpha', which [model]
    # states as spatial_terms
    ("evolve_field", EVOLVE_CONFIG.replace("spatial_terms = 1.5:0.5",
                                           "spatial_terms = 2.5:1"),
     "spatial_terms", r"\[\[2.5, 1.0\]\]"),
    ("sine_gordon", SINE_GORDON_CONFIG.replace("beta_plus_one = 2.0",
                                               "beta_plus_one = 1.0"),
     "beta_plus_one", "1.0"),
    ("sine_gordon", SINE_GORDON_CONFIG.replace("velocity = 0.2",
                                               "velocity = 1.0"),
     "velocity", "1.0"),
    ("stationary_fgle", STATIONARY_CONFIG.replace("alpha = 1.5", "alpha = 3"),
     "alpha", "3.0"),
    # the initial shapes divide by their width
    ("evolve_field", EVOLVE_CONFIG.replace("kind = cosine",
                                           "kind = gaussian\nwidth = 0"),
     "width", "0.0"),
    ("stationary_fgle", STATIONARY_CONFIG.replace("width = 1.0", "width = -1"),
     "width", "-1.0"),
    # neither kind has an initial velocity key, which orders above 1 need
    ("evolve_field", EVOLVE_CONFIG.replace("beta = 0.8", "beta = 1.5"),
     "beta", "1.5"),
    ("chain", CHAIN_CONFIG + "beta = 1.5\n", "beta", "1.5"),
], ids=["model-bogus", "model-custom", "model-cubic", "chain-custom",
        "chain-cubic", "model-g0-zero", "stationary-no-force",
        "compare-alpha-2", "compare-beta-above-1", "compare-sine-gordon",
        "compare-cubic-force", "compare-square", "compare-fit-horizon-negative",
        "compare-fit-horizon-zero", "chain-cutoff-above-half",
        "chain-4-particles", "chain-dx-negative", "chain-beta-zero",
        "grid-1-point", "grid-length-zero", "time-dt-zero", "time-no-step",
        "model-beta-above-2", "model-spatial-order-above-2",
        "sine-gordon-order-1", "sine-gordon-velocity-1",
        "stationary-alpha-3", "gaussian-width-zero", "pulse-width-negative",
        "model-beta-above-1", "chain-beta-above-1"])
def test_unknown_model_choice_rejected(tmp_path, kind, text, key, value):
    cfgp = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=f"invalid '{key}': '{value}'"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


def test_run_checks_before_writing(tmp_path):
    # a replayed config edited past a library rule fails in run() before
    # the output directory is made
    first = tmp_path / "first"
    run(load_config(_write(tmp_path, CHAIN_CONFIG)), first)
    cfg = read_metadata(first / "metadata.json")
    cfg.sections["chain"]["cutoff"] = 100
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=r"invalid 'cutoff': '100' in \[chain\]"):
        run(cfg, out)
    assert not out.exists()


@pytest.mark.parametrize("key, value, reason", [
    ("velocity", 1.0, r"kink velocity must satisfy \|v\| < 1"),
    ("beta_plus_one", 1.0, r"temporal order in \(1, 2\]")],
    ids=["velocity", "beta_plus_one"])
def test_run_checks_single_key_rules_before_writing(tmp_path, key, value,
                                                    reason):
    # a replayed kink config edited past the rule of one key fails in run()
    # before the output directory is made: velocity 1 divided by zero in
    # the kink's Lorentz factor, and order 1 stepped at first order and
    # passed
    write_metadata(tmp_path, load_config(_write(tmp_path, SINE_GORDON_CONFIG)))
    cfg = read_metadata(tmp_path / "metadata.json")
    cfg.sections["sine_gordon"][key] = value
    out = tmp_path / "out"
    with pytest.raises(ConfigError, match=rf"invalid '{key}': '{value}' in "
                       rf"\[sine_gordon\]: .*{reason}"):
        run(cfg, out)
    assert not out.exists()


_CONFIGS = Path(__file__).resolve().parent.parent / "configs"
_GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("name", ["gl_relaxation", "sine_gordon_kink",
                                  "chain_continuum"])
def test_shipped_configs_resolve_to_golden_metadata(tmp_path, name):
    # the resolved config of each shipped config, every default filled in,
    # is pinned byte for byte
    write_metadata(tmp_path, load_config(_CONFIGS / f"{name}.ini"))
    assert (tmp_path / "metadata.json").read_bytes() \
        == (_GOLDEN / f"{name}.metadata.json").read_bytes()


_CI_CONFIGS = Path(__file__).resolve().parent / "configs"
# Golden outputs: every float within _GOLDEN_RTOL of its golden value.  Bits
# are not portable across NumPy versions or SIMD paths, so no byte is
# pinned.  The keys below hold rounding errors (drifts, residual norms,
# self-test errors, the dispersion check's relative errors), differences or
# residuals of O(1) values whose own rounding a second NumPy changes; they
# may also move by _GOLDEN_ATOL, about 4500 ulps of 1.
_GOLDEN_RTOL = 1e-9
_GOLDEN_ATOL = 1e-12
_ROUNDING_KEYS = {"energy_drift", "mass_drift", "residual_norm", "worst",
                  "checks", "max_rel_err", "rel_err"}


def _assert_matches_golden(got, want, where, atol=0.0):
    """``got`` equals ``want`` in booleans, integers, strings, ``null``,
    list lengths and dict keys, and in every float within the tolerances."""
    assert type(got) is type(want), f"{where}: {got!r} against {want!r}"
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            _assert_matches_golden(
                got[key], want[key], f"{where}.{key}",
                _GOLDEN_ATOL if key in _ROUNDING_KEYS else atol)
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches_golden(g, w, f"{where}[{i}]", atol)
    elif isinstance(want, float):
        assert abs(got - want) <= max(_GOLDEN_RTOL * abs(want), atol), \
            f"{where}: {got!r} against {want!r}"
    else:
        assert got == want, f"{where}: {got!r} against {want!r}"


@pytest.mark.parametrize("cfgp", sorted(
    [*_CONFIGS.glob("*.ini"), *_CI_CONFIGS.glob("*.ini")]), ids=lambda p: p.stem)
def test_configs_match_golden_outputs(tmp_path, cfgp):
    # each config CI runs, through the CLI with warnings as errors as there:
    # it exits 0, and every summary, report and self-test value it writes
    # matches tests/golden/<name>.<file>.json, which pins CI's pass flags too
    out = tmp_path / cfgp.stem
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([load_config(cfgp).kind, "--config", str(cfgp),
                     "--out", str(out)]) == EXIT_OK
    written = {f.name for f in out.glob("*.json")} - {"metadata.json"}
    pinned = {g.name[len(cfgp.stem) + 1:]
              for g in _GOLDEN.glob(f"{cfgp.stem}.*.json")} - {"metadata.json"}
    assert "summary.json" in written and written == pinned
    for fname in sorted(written):
        _assert_matches_golden(
            json.loads((out / fname).read_text()),
            json.loads((_GOLDEN / f"{cfgp.stem}.{fname}").read_text()), fname)


@pytest.mark.parametrize("cfgp", sorted(
    p for p in [*_CONFIGS.glob("*.ini"), *_CI_CONFIGS.glob("*.ini")]
    # its path forms no block of _blocks, and it takes half this test's time
    if p.stem != "sine_gordon_kink"), ids=lambda p: p.stem)
def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch, cfgp):
    # every blocked layer (l1_apply, the HistorySum products, the series
    # reciprocal, the solve's level placement, residual, the Mittag-Leffler
    # series) is bit for bit independent of its blocks: a run at 64 bytes a
    # block, one row, column or argument in each, writes the bytes of a run
    # at the default size
    def write(name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([load_config(cfgp).kind, "--config", str(cfgp),
                         "--out", str(tmp_path / name)]) == EXIT_OK
        return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

    default = write("default")
    monkeypatch.setattr(fracops, "_FFT_BLOCK_BYTES", 64)
    assert write("small") == default


def test_cli_messages_go_through_the_fracdyn_logger(tmp_path, capsys,
                                                    caplog):
    # the status line on stdout and the error line on stderr keep their
    # text, and both are records of the "fracdyn" logger
    good = _write(tmp_path, EVOLVE_CONFIG)
    bad = _write(tmp_path, EVOLVE_CONFIG.replace("amplitude = 0.01",
                                                 "amplitude = nan"),
                 name="bad.ini")
    for _ in range(2):  # a second call adds no second handler
        assert main(["evolve_field", "--config", str(good),
                     "--out", str(tmp_path / "ok")]) == EXIT_OK
    assert main(["evolve_field", "--config", str(bad),
                 "--out", str(tmp_path / "bad")]) == EXIT_CONFIG
    out = capsys.readouterr()
    assert out.out == "evolve_field: ok\n" * 2
    assert out.err == ("config error: non-finite value for 'amplitude' in "
                       "[initial]: 'nan'\n")
    assert [(r.name, r.levelname) for r in caplog.records] == [
        ("fracdyn", "INFO"), ("fracdyn", "INFO"), ("fracdyn", "ERROR")]


def test_cli_linear_run_prints_only_its_status_line(tmp_path, capsys,
                                                     caplog):
    # at a = 1, b = 0 no mode grows and the run is solved for the whole run
    # at once; the solve's DEBUG record stays below the console's INFO level
    cfgp = _write(tmp_path, EVOLVE_CONFIG.replace("a = -1.0\nb = 1.0",
                                                  "a = 1.0\nb = 0.0"))
    assert main(["evolve_field", "--config", str(cfgp),
                 "--out", str(tmp_path / "out")]) == EXIT_OK
    out = capsys.readouterr()
    assert (out.out, out.err) == ("evolve_field: ok\n", "")
    assert [(r.name, r.levelname) for r in caplog.records] == [
        ("fracdyn", "INFO")]


def test_library_has_no_bare_print():
    src = Path(fracdyn.__file__).parent
    for path in sorted(src.glob("*.py")):
        calls = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Call)
                 and getattr(node.func, "id", None) == "print"]
        assert calls == [], f"{path.name} calls print at lines {calls}"


@pytest.mark.parametrize("section, key, line, text", [
    ("initial", "amplitude", "amplitude = 0.01", "amplitude = nan"),
    ("model", "a", "a = -1.0", "a = -inf"),
    ("model", "spatial_terms", "spatial_terms = 1.5:0.5",
     "spatial_terms = 1.5:0.5, 2.0:inf"),
    ("model", "spatial_terms", "spatial_terms = 1.5:0.5", "spatial_terms = nan:0.5"),
    ("time", "dt", "dt = 0.001", "dt = inf"),
], ids=["amplitude-nan", "a-minus-inf", "terms-coeff-inf", "terms-order-nan",
        "dt-inf"])
def test_non_finite_values_rejected(tmp_path, section, key, line, text):
    # float("nan") and float("inf") parse, so each float is checked after
    # conversion, before any file is written
    cfgp = _write(tmp_path, EVOLVE_CONFIG.replace(line, text))
    with pytest.raises(ConfigError,
                       match=rf"non-finite value for '{key}' in \[{section}\]"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main(["evolve_field", "--config", str(cfgp), "--out", str(out)]) \
        == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


@pytest.mark.parametrize("kind, text, value", [
    ("evolve_field", EVOLVE_CONFIG.replace("kind = cosine", "kind = bogus"),
     "bogus"),
    ("evolve_field", EVOLVE_CONFIG.replace("kind = cosine", "kind = plane_wave"),
     "plane_wave"),
    ("nls", NLS_CONFIG.replace("kind = plane_wave", "kind = bogus"), "bogus"),
    ("stationary_fgle", STATIONARY_CONFIG.replace("kind = pulse",
                                                  "kind = plane_wave"),
     "plane_wave"),
    ("chain", CHAIN_CONFIG + "\n[initial]\nkind = plane_wave\n", "plane_wave"),
], ids=["model-bogus", "model-real-plane-wave", "nls-bogus",
        "stationary-plane-wave", "chain-plane-wave"])
def test_bad_initial_kind_rejected(tmp_path, kind, text, value):
    cfgp = _write(tmp_path, text)
    with pytest.raises(ConfigError,
                       match=rf"invalid 'kind': '{value}' in \[initial\]"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


def test_plane_wave_accepted_for_complex_field(tmp_path):
    text = EVOLVE_CONFIG.replace("kind = cosine", "kind = plane_wave").replace(
        "b = 1.0", "b = 1.0\nfield_kind = complex")
    out = tmp_path / "out"
    assert main(["evolve_field", "--config", str(_write(tmp_path, text)),
                 "--out", str(out)]) == EXIT_OK
    assert (out / "snapshots.csv").read_text().startswith("t,x,u_re,u_im\n")


@pytest.mark.parametrize("text, section, key", [
    (EVOLVE_CONFIG.replace("b = 1.0", "b = 1.0\ng0_prime = 0.5"),
     "model", "g0_prime"),
    (EVOLVE_CONFIG + "\n[tolerances]\nresidual = 5\n", "tolerances", "residual"),
], ids=["g0_prime", "residual"])
def test_removed_keys_rejected(tmp_path, text, section, key):
    # g0_prime only ever had the value 0 in stepping and is no field of
    # ModelSpec, and no runner read the residual tolerance
    cfgp = _write(tmp_path, text)
    with pytest.raises(ConfigError,
                       match=rf"unknown key '{key}' in section \[{section}\]"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main(["evolve_field", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


def test_bad_field_kind_rejected(tmp_path):
    cfgp = _write(tmp_path, EVOLVE_CONFIG.replace(
        "b = 1.0", "b = 1.0\nfield_kind = bogus"))
    with pytest.raises(ConfigError,
                       match=r"invalid 'field_kind': 'bogus' in \[model\]"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main(["evolve_field", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("kind, text, value", [
    ("evolve_field", EVOLVE_CONFIG.replace("snapshot_every = 50",
                                           "snapshot_every = -2"), -2),
    ("nls", NLS_CONFIG + "\n[output]\nsnapshot_every = -1\n", -1),
    ("chain", CHAIN_CONFIG + "\n[output]\nsnapshot_every = -5\n", -5),
], ids=["evolve_field", "nls", "chain"])
def test_negative_snapshot_every_rejected(tmp_path, kind, text, value):
    cfgp = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=rf"^invalid 'snapshot_every': "
                       rf"'{value}' in \[output\]: need >= 0$"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


@pytest.mark.parametrize("text, flags", [
    (NLS_CONFIG.replace("seed = 3", "seed = -1"), []),
    (NLS_CONFIG, ["--seed", "-1"]),
], ids=["file", "flag"])
def test_negative_seed_rejected(tmp_path, capsys, text, flags):
    # rejected before any file is written, whether or not the kind draws
    cfgp = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main(["nls", "--config", str(cfgp), "--out", str(out),
                 *flags]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()
    assert capsys.readouterr().err == ("config error: invalid 'seed': '-1' in "
                                       "[experiment]: need >= 0\n")


_GL = "needs potential = ginzburg_landau"


@pytest.mark.parametrize("kind, text, message", [
    ("evolve_field", EVOLVE_CONFIG.replace("potential = ginzburg_landau",
                                           "potential = none"),
     f"invalid 'a': '-1.0' in [model]: {_GL}"),
    ("evolve_field", EVOLVE_CONFIG.replace(
        "potential = ginzburg_landau\na = -1.0", "potential = sine_gordon"),
     f"invalid 'b': '1.0' in [model]: {_GL}"),
    ("evolve_field", EVOLVE_CONFIG.replace(
        "b = 1.0", "b = 1.0\ninteraction = square\ninteraction_mix = 0.5"),
     "invalid 'interaction_mix': '0.5' in [model]: needs interaction = "
     "quadratic_mix"),
    ("chain", CHAIN_CONFIG + "a = 0.5\n",
     f"invalid 'a': '0.5' in [chain]: {_GL}"),
    ("chain", CHAIN_CONFIG + "interaction_mix = 0.2\n",
     "invalid 'interaction_mix': '0.2' in [chain]: needs interaction = "
     "quadratic_mix"),
    ("continuum_compare",
     COMPARE_CONFIG.format(modes="3,5").replace("beta = 1.0", "beta = 1.0\na = 0.5"),
     f"invalid 'a': '0.5' in [chain]: {_GL}"),
], ids=["model-a-no-potential", "model-b-sine-gordon", "model-mix-square",
        "chain-a-no-potential", "chain-mix-identity", "compare-a-no-potential"])
def test_on_site_keys_the_run_ignores_rejected(tmp_path, capsys, kind, text,
                                               message):
    # a nonzero a or b acts only on the Ginzburg-Landau force, and a
    # nonzero interaction_mix only on the quadratic_mix interaction
    cfgp = _write(tmp_path, text)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_missing_section_message_independent_of_hash_seed(tmp_path):
    # absent sections are resolved in schema order, so the first one named
    # is the same under every string hash seed
    text = DISPERSION_CONFIG.format(modes="1,2")
    text = text[:text.index("[nls]")]
    cfgp = _write(tmp_path, text)
    src = str(Path(fracdyn.__file__).resolve().parent.parent)
    messages = []
    for seed in ("1", "2"):
        out = tmp_path / f"out{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "fracdyn.cli", "dispersion", "--config",
             str(cfgp), "--out", str(out)], capture_output=True, text=True,
            env={"PYTHONPATH": src, "PYTHONHASHSEED": seed})
        assert proc.returncode == EXIT_CONFIG
        assert not (out / "metadata.json").exists()
        messages.append(proc.stderr)
    assert messages[0] == messages[1] == (
        "config error: missing required key 'alpha' in section [nls]\n")


def test_kind_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, EVOLVE_CONFIG), kind="nls")


def test_cli_exit_codes(tmp_path):
    cfgp = _write(tmp_path, NLS_CONFIG)
    code = main(["nls", "--config", str(cfgp), "--out", str(tmp_path / "o1")])
    assert code == EXIT_OK

    bad = _write(tmp_path, NLS_CONFIG.replace("alpha = 1.5", "alpha = 3"),
                 name="bad.ini")
    assert main(["nls", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == EXIT_CONFIG

    assert main(["nls", "--config", str(tmp_path / "missing.ini"),
                 "--out", str(tmp_path / "o3")]) == 3


def test_cli_usage_errors_exit_config(tmp_path, capsys):
    cfgp = _write(tmp_path, NLS_CONFIG)
    out = tmp_path / "o"
    assert main(["nls", "--config", str(cfgp), "--out", str(out),
                 "--bogus"]) == EXIT_CONFIG
    assert main(["nls", "--config", str(cfgp)]) == EXIT_CONFIG
    assert main(["no_such_kind"]) == EXIT_CONFIG
    assert not out.exists()
    assert main(["--help"]) == EXIT_OK
    assert main(["nls", "--help"]) == EXIT_OK
    assert "--config" in capsys.readouterr().out


def test_importing_the_cli_loads_no_argparse(capsys):
    # only main parses arguments: a fresh interpreter's import of the CLI
    # leaves argparse unloaded, and main still prints its help
    src = str(Path(fracdyn.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, fracdyn.cli; print('argparse' in sys.modules)"],
        capture_output=True, text=True, env={"PYTHONPATH": src}, check=True)
    assert proc.stdout == "False\n"
    assert main(["--help"]) == EXIT_OK
    assert "usage: fracdyn" in capsys.readouterr().out


@pytest.mark.parametrize("kind, template, modes", [
    ("continuum_compare", COMPARE_CONFIG, "-3,5"),
    ("continuum_compare", COMPARE_CONFIG, "0,5"),
    ("continuum_compare", COMPARE_CONFIG, "5,257"),
    ("continuum_compare", COMPARE_CONFIG, "5,17"),
    ("dispersion", DISPERSION_CONFIG, "3,100"),
    ("dispersion", DISPERSION_CONFIG, "3,64"),
    ("dispersion", DISPERSION_CONFIG, "-64,3"),
    ("continuum_compare", COMPARE_CONFIG, ""),
    ("continuum_compare", COMPARE_CONFIG, "3,3"),
    ("dispersion", DISPERSION_CONFIG, ""),
    ("dispersion", DISPERSION_CONFIG, "3,3"),
], ids=["compare-negative", "compare-zero", "compare-above-half",
        "compare-kdx-above-0.2", "dispersion-100", "dispersion-nyquist",
        "dispersion-minus-nyquist", "compare-empty", "compare-repeated",
        "dispersion-empty", "dispersion-repeated"])
def test_modes_out_of_range_rejected(tmp_path, kind, template, modes):
    cfgp = _write(tmp_path, template.format(modes=modes))
    with pytest.raises(ConfigError, match="invalid 'modes'"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


def test_modes_in_range_accepted(tmp_path):
    # 16 is the largest ring mode of 512 particles with 2 pi m / n <= 0.2
    load_config(_write(tmp_path, COMPARE_CONFIG.format(modes="1,16")))
    load_config(_write(tmp_path, DISPERSION_CONFIG.format(modes="-63,63")))


def test_cli_blowup_exit(tmp_path):
    blow = EVOLVE_CONFIG.replace("a = -1.0", "a = 0.0").replace(
        "b = 1.0", "b = -1.0").replace("amplitude = 0.01", "amplitude = 40.0").replace(
        "kind = cosine", "kind = uniform\nvalue = 40.0")
    cfgp = _write(tmp_path, blow, name="blow.ini")
    code = main(["evolve_field", "--config", str(cfgp),
                 "--out", str(tmp_path / "ob")])
    assert code == EXIT_NUMERICAL


def test_cli_failed_rate_fit_is_a_numerical_failure(tmp_path, monkeypatch,
                                                    capsys):
    # a fit that runs out of iterations is a numerical failure, not a bad
    # config: exit 2
    monkeypatch.setattr(analysis, "_RATE_FIT_MAX_ITER", 1)
    cfgp = _CI_CONFIGS / "continuum_fit.ini"
    assert main(["continuum_compare", "--config", str(cfgp),
                 "--out", str(tmp_path / "out")]) == EXIT_NUMERICAL
    assert capsys.readouterr().err.startswith(
        "numerical failure: Mittag-Leffler rate fit from")


def test_determinism_bytes(tmp_path):
    cfgp = _write(tmp_path, NLS_CONFIG)
    d1, d2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["nls", "--config", str(cfgp), "--out", str(d1),
                 "--seed", "11"]) == EXIT_OK
    assert main(["nls", "--config", str(cfgp), "--out", str(d2),
                 "--seed", "11"]) == EXIT_OK
    for name in ("metadata.json", "snapshots.csv", "summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_selftest_runs_green(tmp_path):
    cfgp = _write(tmp_path, SELFTEST_CONFIG)
    out = tmp_path / "self"
    assert main(["operator_selftest", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "selftest.json").read_text())
    assert report["passed"] is True
    assert set(report["checks"]) == {
        "riesz_mode_exactness", "caputo_constant", "caputo_linear", "ml_exp",
        "ml_at_zero", "riesz_linearity"}
    assert all(v <= report["tolerance"] for v in report["checks"].values())


def test_csv_float_format_roundtrips(tmp_path):
    vals = [math.pi, 1.0 / 3.0, 2.0 ** -52]
    p = tmp_path / "x.csv"
    write_csv(p, ("a", "b", "c"), [vals])
    line = p.read_text().splitlines()[1].split(",")
    for text, v in zip(line, vals):
        assert float(text) == v  # 17 significant digits reproduce the double


def _awkward_floats(rng, n):
    """``n`` float64: special values (NaN, infinities, signed zeros,
    subnormals, integer-valued floats), the rest from random bit patterns."""
    special = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324,
               -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308,
               1.0, -3.0, 2.0 ** 53, 1e16, 1e17, 1e22, -1e300, 123456789.0,
               1.7976931348623157e308]
    bits = np.frombuffer(rng.bytes(8 * (n - len(special))), dtype=np.float64)
    return np.concatenate([bits, special])


def test_write_csv_matches_per_value_writer(tmp_path):
    # one "%" per block of rows against one format() per value, over more
    # rows than one block and a block that is not full
    vals = _awkward_floats(np.random.default_rng(18),
                           3 * (cli._CSV_BLOCK_ROWS + 7)).reshape(-1, 3)
    header = ("a", "b", "c")
    write_csv(tmp_path / "block.csv", header, [vals[:5], vals[5:]])
    write_csv_per_value(tmp_path / "value.csv", header, vals.tolist())
    assert ((tmp_path / "block.csv").read_bytes()
            == (tmp_path / "value.csv").read_bytes())


@pytest.mark.parametrize("complex_field", [False, True], ids=["real", "complex"])
def test_write_snapshots_matches_per_value_writer(tmp_path, complex_field):
    # 1500 points: each kept level is more than one block of rows
    rng = np.random.default_rng(7)
    grid = GridSpec(1500, 30.0)
    u0 = rng.standard_normal(grid.n_points)
    if complex_field:
        u0 = u0 + 1j * rng.standard_normal(grid.n_points)
    state = FieldState.from_initial(grid, TimeGrid(12, 0.1), u0, rows=2)
    kept = {j: (u0 * math.cos(j)).copy() for j in (0, 5, 12)}
    kept[5][::97] = -0.0
    cli._write_snapshots(tmp_path / "block.csv", state, kept)
    cols = ("t", "x", "u_re", "u_im") if complex_field else ("t", "x", "u")
    t, x = state.times, grid.x
    write_csv_per_value(tmp_path / "value.csv", cols, (
        (t[j], x[i], *v) for j in sorted(kept)
        for i, v in enumerate(kept[j].view(np.float64).reshape(len(x), -1))))
    text = (tmp_path / "block.csv").read_bytes()
    assert text == (tmp_path / "value.csv").read_bytes()
    assert text.count(b"\n") == 1 + 3 * grid.n_points


def test_write_snapshots_memory_is_one_block(tmp_path):
    # 200 kept levels of 1024 points (4.9 MB as float64): the writer holds
    # one level's block and the Python floats and text of one format call at
    # a time, never all levels.  Measured: 0.22 MB traced beyond the kept
    # levels, 8.8 float64 blocks of 1024 rows of t, x, u; all levels joined
    # would take at least 200
    grid = GridSpec(1024, 10.0)
    rng = np.random.default_rng(3)
    state = FieldState.from_initial(grid, TimeGrid(199, 0.1),
                                    rng.standard_normal(1024), rows=2)
    kept = {j: rng.standard_normal(1024) for j in range(200)}
    block_bytes = cli._CSV_BLOCK_ROWS * 3 * 8
    tracemalloc.start()
    try:
        cli._write_snapshots(tmp_path / "snap.csv", state, kept)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12 * block_bytes
    assert (tmp_path / "snap.csv").read_text().count("\n") == 1 + 200 * 1024


def test_write_snapshots_holds_no_time_grid(tmp_path):
    # 2 levels kept of 400001: the writer makes their 2 times, not the
    # 3.2 MB array of the whole time grid (measured: 20 kB traced)
    grid = GridSpec(64, 10.0)
    state = FieldState.from_initial(grid, TimeGrid(400_000, 0.1),
                                    np.ones(64), rows=2)
    tracemalloc.start()
    try:
        cli._write_snapshots(tmp_path / "snap.csv", state,
                             {0: np.ones(64), 400_000: np.zeros(64)})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.1 * 400_001 * 8
    rows = (tmp_path / "snap.csv").read_text().splitlines()
    assert rows[-1].startswith("%.17g," % (400_000 * 0.1))


def test_sine_gordon_cli_summary(tmp_path):
    text = """
[experiment]
kind = sine_gordon

[grid]
n_points = 256
length = 80.0

[time]
dt = 0.05
n_steps = 400

[sine_gordon]
alpha = 2.0
beta_plus_one = 2.0
velocity = 0.2
"""
    cfgp = _write(tmp_path, text, name="sg.ini")
    out = tmp_path / "sg"
    assert main(["sine_gordon", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["energy_drift"] < 1e-2
    assert "kink_shape_error" in summary


def test_fractional_sine_gordon_passes_on_its_damped_energy(tmp_path):
    # below order 2 the memory term drains the wave energy by more than the
    # default energy_drift; that is the physics, and the run passes
    cfgp = _CI_CONFIGS / "sine_gordon_memory.ini"
    assert load_config(cfgp).section("tolerances")["energy_drift"] == 1e-2
    out = tmp_path / "sg"
    assert main(["sine_gordon", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["energy_final"] < summary["energy_initial"]
    assert summary["energy_drift"] > 1e-2 and summary["passed"] is True


@pytest.mark.parametrize("order, ratio, passed", [
    ("1.5", 0.98, True), ("1.5", 1.005, True), ("1.5", 1.02, False),
    ("2.0", 0.98, False), ("2.0", 1.02, False)])
def test_sine_gordon_energy_rule(tmp_path, monkeypatch, order, ratio, passed):
    # the energy ends at ratio times its start; at order 2 it must hold
    # within energy_drift (1e-2), below order 2 it must not grow by as much
    monkeypatch.setattr(cli, "sine_gordon_energy",
                        lambda state, j: 1.0 if j == 0 else ratio)
    cfgp = _write(tmp_path, SINE_GORDON_CONFIG.replace(
        "beta_plus_one = 2.0", f"beta_plus_one = {order}"))
    out = tmp_path / "sg"
    assert main(["sine_gordon", "--config", str(cfgp), "--out", str(out)]) \
        == (EXIT_OK if passed else EXIT_NUMERICAL)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["passed"] is passed
    assert summary["energy_drift"] == pytest.approx(abs(ratio - 1.0))


def test_sine_gordon_bad_keys_reported_in_schema_order(tmp_path):
    # of several bad keys, the rules on one key are reported first, in
    # [sine_gordon]'s schema order, and the library's rule on alpha last
    bad = {"beta_plus_one": ("2.0", "1.0", r"sine-Gordon stepping needs "
                             r"temporal order in \(1, 2\]"),
           "velocity": ("0.2", "1.0", r"kink velocity must satisfy \|v\| < 1"),
           "alpha": ("2.0", "3", r"spatial order alpha must be in \(0, 2\]")}
    text = SINE_GORDON_CONFIG
    for key, (good, value, _) in bad.items():
        text = text.replace(f"{key} = {good}", f"{key} = {value}")
    for key, (good, value, reason) in bad.items():
        with pytest.raises(ConfigError, match=f"invalid '{key}': "
                           rf"'{float(value)}' in \[sine_gordon\]: {reason}"):
            load_config(_write(tmp_path, text))
        text = text.replace(f"{key} = {value}", f"{key} = {good}")
    load_config(_write(tmp_path, text))


def test_key_rules_reported_after_every_section_resolves(tmp_path):
    # every section is resolved (unknown and missing keys, conversions)
    # before any key's own rule is checked, so a missing key in [time] is
    # reported before the broken rule on [experiment] seed
    text = SINE_GORDON_CONFIG.replace("kind = sine_gordon",
                                      "kind = sine_gordon\nseed = -1")
    with pytest.raises(ConfigError, match=r"missing required key 'dt' in "
                       r"section \[time\]"):
        load_config(_write(tmp_path, text.replace("dt = 0.05\n", "")))
    with pytest.raises(ConfigError, match=r"bad value for 'n_steps' in "
                       r"\[time\]"):
        load_config(_write(tmp_path, text.replace("n_steps = 20",
                                                  "n_steps = x")))
    with pytest.raises(ConfigError, match=r"invalid 'seed': '-1' in "
                       r"\[experiment\]"):
        load_config(_write(tmp_path, text))


def test_stationary_cli(tmp_path):
    text = """
[experiment]
kind = stationary_fgle

[grid]
n_points = 128
length = 12.0

[stationary]
alpha = 2.0
g = 1.0
a = -1.0
b = 1.0

[initial]
kind = pulse
amplitude = 1.4142135623730951
width = 1.0
"""
    cfgp = _write(tmp_path, text, name="st.ini")
    out = tmp_path / "st"
    assert main(["stationary_fgle", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["converged"] is True


def test_stationary_cli_reports_solver_counts(tmp_path):
    cfgp = _write(tmp_path, STATIONARY_CONFIG, name="st.ini")
    out = tmp_path / "st"
    assert main(["stationary_fgle", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["iterations"] > 0
    assert summary["krylov_iterations"] > 0
    assert summary["line_search_halvings"] >= 0


@pytest.mark.parametrize("key, value", [("tol", "0"), ("max_iter", "0")])
def test_stationary_solver_settings_rejected(tmp_path, key, value):
    cfgp = _write(tmp_path, STATIONARY_CONFIG.replace(
        "b = 1.0", f"b = 1.0\n{key} = {value}"), name="st.ini")
    with pytest.raises(ConfigError, match=f"invalid '{key}'"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main(["stationary_fgle", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


def test_continuum_compare_cli(tmp_path):
    cfgp = _write(tmp_path, COMPARE_CONFIG.format(modes="2,4"), name="cc.ini")
    out = tmp_path / "cc"
    code = main(["continuum_compare", "--config", str(cfgp),
                 "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    assert len(report["rate_measured"]) == 2
    # measured rates track the lattice closed form tightly
    assert max(report["deviation_vs_lattice"]) < 5e-3


def test_dispersion_cli(tmp_path):
    cfgp = _write(tmp_path, DISPERSION_CONFIG.format(modes="1,2,3,4,6,8"),
                  name="d.ini")
    out = tmp_path / "d"
    assert main(["dispersion", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert abs(report["fitted_exponent"] - 1.5) < 0.02


# one mode fits no exponent; the nonlinear run passes on its frequency alone
@pytest.mark.parametrize("modes, b", [("-2,1,3,5", "0.0"), ("3", "0.7")],
                         ids=["linear", "nonlinear"])
def test_dispersion_cli_matches_full_trajectory(tmp_path, modes, b):
    # the runner streams each level's mode coefficients; the report must be
    # the one the whole stored trajectory, transformed at once, gives
    text = DISPERSION_CONFIG.format(modes=modes).replace("b = 0.0", f"b = {b}")
    cfgp = _write(tmp_path, text, name="d.ini")
    out = tmp_path / "d"
    assert main(["dispersion", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    cfg = load_config(cfgp)
    p, ms = cfg.section("nls"), cfg.section("dispersion")["modes"]
    assert p["b"] == float(b)
    g, t = cfg.section("grid"), cfg.section("time")
    grid = GridSpec(g["n_points"], g["length"])
    u0 = np.zeros(grid.n_points, dtype=complex)
    for m in ms:
        u0 += np.exp(1j * (2 * np.pi * m / grid.length) * grid.x)
    state = FieldState.from_initial(grid, TimeGrid(t["n_steps"], t["dt"]), u0)
    nls_evolve(state, p["alpha"], p["g"], p["a"], p["b"])
    expected = dispersion_check(mode_series(state, ms), alpha=p["alpha"],
                                beta=1.0, g=p["g"], a=p["a"], b=p["b"])
    write_json(tmp_path / "expected.json", expected)
    assert ((out / "report.json").read_bytes()
            == (tmp_path / "expected.json").read_bytes())


def test_dispersion_cli_g_zero_passes_without_exponent(tmp_path):
    # at g = 0 no mode has a dispersive part, so the exponent is undefined
    # and the run is judged on its frequencies alone (a single mode is the
    # nonlinear case of the test above)
    text = (DISPERSION_CONFIG.format(modes="1,2,3")
            .replace("g = 1.0", "g = 0.0").replace("a = 0.0", "a = 0.5"))
    cfgp = _write(tmp_path, text, name="d.ini")
    out = tmp_path / "d"
    assert main(["dispersion", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert summary["fitted_exponent"] is None
    assert summary["max_rel_err"] < 1e-4
    assert summary["passed"] is True


def test_dispersion_cli_zero_rate_reports_absolute_error(tmp_path):
    # at g = 0, a = 0 every predicted frequency is exactly 0, so the error
    # reported for each mode is absolute: a rounding-level frequency passes
    text = (DISPERSION_CONFIG.format(modes="1,2,3")
            .replace("g = 1.0", "g = 0.0"))
    cfgp = _write(tmp_path, text, name="d.ini")
    out = tmp_path / "d"
    assert main(["dispersion", "--config", str(cfgp),
                 "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["predicted"] == [0.0, 0.0, 0.0]
    assert report["rel_err"] == [abs(m) for m in report["measured"]]
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_rel_err"] < 1e-12
    assert summary["fitted_exponent"] is None
    assert summary["passed"] is True


def test_write_json_writes_non_finite_as_null(tmp_path):
    path = tmp_path / "x.json"
    write_json(path, {"nan": float("nan"), "inf": np.float64(np.inf),
                      "row": np.array([1.5, -np.inf]), "ok": np.int64(3)})
    assert "NaN" not in path.read_text() and "Infinity" not in path.read_text()
    assert json.loads(path.read_text()) == {"nan": None, "inf": None,
                                            "row": [1.5, None], "ok": 3}


def test_write_json_writes_a_report_by_its_fields(tmp_path):
    # a report is written as its fields, a complex entry as [re, im]
    path = tmp_path / "report.json"
    write_json(path, DispersionReport(
        beta=0.5, k=[np.float64(1.0)],
        measured=[np.complex128(0.25 - 1.5j)], predicted=[complex(0, np.nan)],
        rel_err=[np.float64(0.125)], fitted_exponent=float("nan")))
    assert json.loads(path.read_text()) == {
        "beta": 0.5, "k": [1.0], "measured": [[0.25, -1.5]],
        "predicted": [[0.0, None]], "rel_err": [0.125],
        "fitted_exponent": None}


class _NoDeepCopy:
    def __deepcopy__(self, memo):
        raise AssertionError("deep-copied")


@dataclass
class _Outer:
    report: DispersionReport
    token: _NoDeepCopy


def test_jsonable_reads_dataclass_fields_in_place():
    # a dataclass is read field by field, a nested one too, and nothing in
    # it is deep-copied on the way
    token = _NoDeepCopy()
    report = DispersionReport(beta=1.0, k=[2.0], measured=[-2.5],
                              predicted=[-2.5], rel_err=[0.0],
                              fitted_exponent=float("nan"))
    got = cli._jsonable(_Outer(report=report, token=token))
    assert got["token"] is token
    assert got["report"] == {"beta": 1.0, "k": [2.0], "measured": [-2.5],
                             "predicted": [-2.5], "rel_err": [0.0],
                             "fitted_exponent": None}


CHAIN_RANDOM_CONFIG = """
[experiment]
kind = chain
seed = 5

[chain]
n_particles = 64
dx = 1.0
alpha = 1.5
g0 = -1.0
beta = 0.5

[time]
dt = 0.01
n_steps = 100

[initial]
kind = random
amplitude = 0.1

[output]
snapshot_every = 20
"""


def test_chain_cli(tmp_path):
    # --seed overrides the file's seed, and the random initial field is
    # the first draw of the generator it seeds
    cfgp = _write(tmp_path, CHAIN_RANDOM_CONFIG, name="ch.ini")
    out = tmp_path / "ch"
    assert main(["chain", "--config", str(cfgp), "--out", str(out),
                 "--seed", "11"]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 6 * 64  # header + six snapshots
    level0 = [[float(v) for v in line.split(",")] for line in lines[1:65]]
    assert [t for t, _, _ in level0] == [0.0] * 64
    assert [u for _, _, u in level0] \
        == (0.1 * np.random.default_rng(11).standard_normal(64)).tolist()


_RSS_CHILD = """
import resource, sys
from fracdyn import cli
cfg = cli.load_config(sys.argv[1])
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
cli.run(cfg, sys.argv[2])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(before, after)
"""


_SG_MEMORY_CONFIG = """
[experiment]
kind = sine_gordon

[grid]
n_points = 4096
length = 80.0

[time]
dt = 0.01
n_steps = 4000
"""

_DISPERSION_MEMORY_CONFIG = (
    DISPERSION_CONFIG.format(modes="1,2,3,4,6,8")
    .replace("n_points = 128", "n_points = 1024")
    .replace("n_steps = 500", "n_steps = 4000"))


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="ru_maxrss is in KiB on Linux only")
@pytest.mark.parametrize("text, itemsize", [(_SG_MEMORY_CONFIG, 8),
                                             (_DISPERSION_MEMORY_CONFIG, 16)],
                         ids=["sine_gordon", "dispersion"])
def test_run_memory_stays_bounded(tmp_path, text, itemsize):
    # the whole trajectory (131 MB of real levels for sine-Gordon, 66 MB of
    # complex ones for dispersion) is never held: each runner keeps two
    # levels and what it writes, so the child's peak RSS grows by far less
    # than 20 MB over what the import already took
    bound = 20 << 20
    cfgp = _write(tmp_path, text, name="run.ini")
    cfg = load_config(cfgp)
    levels = cfg.section("time")["n_steps"] + 1
    assert levels * cfg.section("grid")["n_points"] * itemsize > 3 * bound
    src = str(Path(fracdyn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _RSS_CHILD, str(cfgp),
                           str(tmp_path / "out")], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, check=True)
    before, after = map(int, proc.stdout.split())
    assert (after - before) * 1024 < bound
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True


_IMPORTS_CHILD = """
import json, sys
import numpy
numpy_loads_random = "numpy.random" in sys.modules
from fracdyn import cli
cfg = cli.load_config(sys.argv[1])
before = set(sys.modules)
cli.run(cfg, sys.argv[2])
print(json.dumps({
    "run_imports": sorted(m for m in set(sys.modules) - before
                          if m.split(".")[0] in ("numpy", "scipy")),
    "numpy_random": "numpy.random" in sys.modules,
    "numpy_loads_random": numpy_loads_random}))
"""

# beta < 1 takes the least-squares rate fit, and a fit horizon of 20 rate
# times reaches Mittag-Leffler arguments beyond the series radius (the
# quadrature path)
_COMPARE_FIT_CONFIG = """
[experiment]
kind = continuum_compare

[chain]
n_particles = 512
alpha = 1.5
g0 = -1.0
beta = 0.8

[time]
dt = 0.05
n_steps = 2000

[compare]
modes = 16
fit_horizon = 20.0

[tolerances]
rate_deviation = 1.0
"""

_CONFIG_BY_KIND = {
    "evolve_field": EVOLVE_CONFIG,
    "sine_gordon": SINE_GORDON_CONFIG,
    "nls": NLS_CONFIG,
    "stationary_fgle": STATIONARY_CONFIG,
    "chain": CHAIN_CONFIG,
    "continuum_compare": _COMPARE_FIT_CONFIG,
    "dispersion": DISPERSION_CONFIG.format(modes="1,2"),
    "operator_selftest": SELFTEST_CONFIG,
}


def test_every_kind_has_an_import_check():
    assert set(_CONFIG_BY_KIND) == set(cli._KINDS)


_IMPORT_CASES = {**_CONFIG_BY_KIND,
                 "chain_random_initial": CHAIN_RANDOM_CONFIG}
_DRAWING = {"operator_selftest", "chain_random_initial"}


@pytest.mark.parametrize("case", sorted(_IMPORT_CASES))
def test_run_imports_nothing_after_load_config(tmp_path, case):
    # cli and load_config import what NumPy 2 would load on first use, so
    # no import lands in run(); numpy.random is loaded only for a config
    # that draws, unless importing NumPy already loads it (NumPy 1.x)
    cfgp = _write(tmp_path, _IMPORT_CASES[case], name="run.ini")
    src = str(Path(fracdyn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD, str(cfgp),
                           str(tmp_path / "out")], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, check=True)
    result = json.loads(proc.stdout)
    assert result["run_imports"] == []
    if not result["numpy_loads_random"]:
        assert result["numpy_random"] == (case in _DRAWING)


_NO_SCIPY_CHILD = """
import importlib.abc, json, sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"import of {name} refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
try:
    import scipy
    blocked = False
except ModuleNotFoundError:
    blocked = True

import numpy as np
from fracdyn import cli, fracops
from fracdyn.analysis import dispersion_check
from fracdyn.fields import nls_linear_mode_evolution

quadrature = fracops._ml_integral_negative
calls = []


def counted(*args):
    calls.append(args)
    return quadrature(*args)


fracops._ml_integral_negative = counted
configs, out = json.loads(sys.argv[1]), sys.argv[2]
passed = {}
for kind, path in configs.items():
    summary = cli.run(cli.load_config(path), f"{out}/{kind}")
    passed[kind] = bool(summary["passed"])
# the runner's dispersion fits at beta = 1; below it dispersion_check fits
# Mittag-Leffler rates
times = np.linspace(0.0, 2.0, 41)
series = {k: nls_linear_mode_evolution(1.5, 0.6, 1.0, 0.2, k, 1.0 + 0.0j, times)
          for k in (0.5, 1.0, 2.0)}
report = dispersion_check((times, series), alpha=1.5, beta=0.6, g=1.0, a=0.2)
print(json.dumps({"blocked": blocked, "passed": passed,
                  "quadrature_calls": len(calls),
                  "dispersion_rel_err": max(report.rel_err),
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def test_every_kind_runs_without_scipy(tmp_path):
    # SciPy is a test oracle only: with every scipy import refused, a fresh
    # interpreter loads and runs one config of every kind, including the
    # beta < 1 rate fit that reaches the Mittag-Leffler quadrature
    configs = {kind: str(_write(tmp_path, text, name=f"{kind}.ini"))
               for kind, text in _CONFIG_BY_KIND.items()}
    src = str(Path(fracdyn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _NO_SCIPY_CHILD,
                           json.dumps(configs), str(tmp_path / "out")],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src}, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["blocked"] and result["scipy"] == []
    assert result["passed"] == dict.fromkeys(cli._KINDS, True)
    assert result["quadrature_calls"] > 0
    assert result["dispersion_rel_err"] < 1e-10
