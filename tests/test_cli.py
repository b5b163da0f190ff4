"""CLI and config tests: validation messages, outputs, determinism."""

import ast
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fracdyn

from fracdyn import cli
from fracdyn.analysis import dispersion_check
from fracdyn.cli import (EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, load_config,
                         main, read_metadata, run, write_csv, write_json)
from fracdyn.errors import ConfigError
from fracdyn.fields import FieldState, nls_evolve
from fracdyn.grids import GridSpec, TimeGrid
from oracles import mode_series

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
    with pytest.raises(ConfigError, match="alpha"):
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
], ids=["model-bogus", "model-custom", "model-cubic", "chain-custom",
        "chain-cubic", "model-g0-zero", "stationary-no-force",
        "compare-alpha-2", "compare-beta-above-1", "compare-sine-gordon",
        "compare-cubic-force", "compare-square"])
def test_unknown_model_choice_rejected(tmp_path, kind, text, key, value):
    cfgp = _write(tmp_path, text)
    with pytest.raises(ConfigError, match=f"invalid '{key}': '{value}'"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not (out / "metadata.json").exists()


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
    # g0_prime only ever had the value 0 in stepping, and no runner read the
    # residual tolerance
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


@pytest.mark.parametrize("kind, text", [
    ("evolve_field", EVOLVE_CONFIG.replace("snapshot_every = 50",
                                           "snapshot_every = -2")),
    ("nls", NLS_CONFIG + "\n[output]\nsnapshot_every = -1\n"),
    ("chain", CHAIN_CONFIG + "\n[output]\nsnapshot_every = -5\n"),
], ids=["evolve_field", "nls", "chain"])
def test_negative_snapshot_every_rejected(tmp_path, kind, text):
    cfgp = _write(tmp_path, text)
    with pytest.raises(ConfigError, match="invalid 'snapshot_every': need >= 0"):
        load_config(cfgp)
    out = tmp_path / "out"
    assert main([kind, "--config", str(cfgp), "--out", str(out)]) == EXIT_CONFIG
    assert not out.exists()


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


def test_csv_float_format_roundtrips(tmp_path):
    vals = [math.pi, 1.0 / 3.0, 2.0 ** -52]
    p = tmp_path / "x.csv"
    write_csv(p, ("a", "b", "c"), [vals])
    line = p.read_text().splitlines()[1].split(",")
    for text, v in zip(line, vals):
        assert float(text) == v  # 17 significant digits reproduce the double


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
    write_json(tmp_path / "expected.json", expected.to_dict())
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


def test_chain_cli(tmp_path):
    text = """
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
    cfgp = _write(tmp_path, text, name="ch.ini")
    out = tmp_path / "ch"
    assert main(["chain", "--config", str(cfgp), "--out", str(out)]) == EXIT_OK
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,x,u"
    assert len(lines) == 1 + 6 * 64  # header + six snapshots


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
import sys
from fracdyn import cli
cfg = cli.load_config(sys.argv[1])
before = set(sys.modules)
cli.run(cfg, sys.argv[2])
print(sorted(m for m in set(sys.modules) - before
             if m.split(".")[0] in ("numpy", "scipy")))
"""

_SG_SMALL_CONFIG = """
[experiment]
kind = sine_gordon

[grid]
n_points = 64
length = 40.0

[time]
dt = 0.05
n_steps = 20
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
    "sine_gordon": _SG_SMALL_CONFIG,
    "nls": NLS_CONFIG,
    "stationary_fgle": STATIONARY_CONFIG,
    "chain": CHAIN_CONFIG,
    "continuum_compare": _COMPARE_FIT_CONFIG,
    "dispersion": DISPERSION_CONFIG.format(modes="1,2"),
    "operator_selftest": SELFTEST_CONFIG,
}


def test_every_kind_has_an_import_check():
    assert set(_CONFIG_BY_KIND) == set(cli._SECTIONS_BY_KIND)


@pytest.mark.parametrize("kind", sorted(_CONFIG_BY_KIND))
def test_run_imports_nothing_after_load_config(tmp_path, kind):
    # cli imports what NumPy 2 would load on first use, so no import lands
    # in run()
    cfgp = _write(tmp_path, _CONFIG_BY_KIND[kind], name="run.ini")
    src = str(Path(fracdyn.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _IMPORTS_CHILD, str(cfgp),
                           str(tmp_path / "out")], capture_output=True,
                          text=True, env={"PYTHONPATH": src}, check=True)
    assert proc.stdout.strip() == "[]"


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
    assert result["passed"] == dict.fromkeys(cli._SECTIONS_BY_KIND, True)
    assert result["quadrature_calls"] > 0
    assert result["dispersion_rel_err"] < 1e-10
