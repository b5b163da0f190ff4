"""Experiment runner.

Configs are INI files (``configparser`` syntax): named sections of
``key = value`` pairs.  Unknown sections or keys are rejected.  Every run
writes ``metadata.json`` (the fully resolved configuration plus the library
version; it re-parses into an equal configuration), one or more data files
(CSV for time series and snapshots, JSON for reports), and ``summary.json``
with pass/fail results against the configured tolerances.  Floats are
written with 17 significant digits so repeated runs are byte-identical.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure
(blow-up or non-convergence), 3 I/O error.
"""

import argparse
import configparser
import json
import logging
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import numpy.fft  # eager: NumPy 2 loads it on first use, inside a run
import numpy.random  # eager: NumPy 2 loads it on first use, inside a run

from . import __version__
from .analysis import dispersion_check
from .chain import (MAX_KDX, ChainSpec, ChainState, continuum_limit_compare,
                    evolve_chain)
from .errors import (BlowUpError, ConfigError, ConvergenceError, DomainError,
                     FracdynError)
from .fields import (FieldState, Interaction, ModelSpec, Potential,
                     evolve_field, evolve_sine_gordon, field_mass,
                     nls_evolve, sine_gordon_energy, stationary_fgle_solve)
from .fracops import (caputo_left_l1, mittag_leffler,
                      riesz_derivative_spectral)
from .grids import GridSpec, TimeGrid
from .kernels import MemoryKernel, memory_convolution

EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL, EXIT_IO = 0, 1, 2, 3

log = logging.getLogger("fracdyn")


def _parse_terms(text):
    terms = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        try:
            order, coeff = item.split(":")
            terms.append([float(order), float(coeff)])
        except ValueError as exc:
            raise ConfigError(f"bad spatial term '{item}', expected order:coeff") from exc
    return terms


def _parse_int_list(text):
    try:
        return [int(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list '{text}'") from exc


# (section, key) -> (converter, default); REQUIRED means no default
REQUIRED = object()

_SCHEMA = {
    "experiment": {"kind": (str, REQUIRED), "seed": (int, 0)},
    "grid": {"n_points": (int, REQUIRED), "length": (float, REQUIRED)},
    "time": {"dt": (float, REQUIRED), "n_steps": (int, REQUIRED)},
    "model": {"g0": (float, 1.0), "beta": (float, 1.0),
              "spatial_terms": (_parse_terms, []), "potential": (str, "none"),
              "a": (float, 0.0), "b": (float, 0.0),
              "interaction": (str, "identity"), "interaction_mix": (float, 0.0),
              "field_kind": (str, "real")},
    "initial": {"kind": (str, "cosine"), "amplitude": (float, 1.0),
                "mode": (int, 1), "value": (float, 0.0), "width": (float, 1.0),
                "phase": (float, 0.0)},
    "nls": {"alpha": (float, REQUIRED), "g": (float, 1.0), "a": (float, 0.0),
            "b": (float, 0.0)},
    "sine_gordon": {"alpha": (float, 2.0), "beta_plus_one": (float, 2.0),
                    "velocity": (float, 0.2)},
    "stationary": {"alpha": (float, REQUIRED), "g": (float, 1.0),
                   "a": (float, REQUIRED), "b": (float, REQUIRED),
                   "tol": (float, 1e-10), "max_iter": (int, 100)},
    "chain": {"n_particles": (int, REQUIRED), "dx": (float, 1.0),
              "alpha": (float, REQUIRED), "g0": (float, 1.0),
              "beta": (float, 1.0), "cutoff": (int, 0),
              "a": (float, 0.0), "b": (float, 0.0),
              "potential": (str, "none"), "interaction": (str, "identity"),
              "interaction_mix": (float, 0.0)},
    "compare": {"modes": (_parse_int_list, REQUIRED), "fit_horizon": (float, 2.0)},
    "dispersion": {"modes": (_parse_int_list, REQUIRED)},
    "output": {"snapshot_every": (int, 0)},
    "tolerances": {"mass_drift": (float, 1e-10), "energy_drift": (float, 1e-2),
                   "rate_deviation": (float, 5e-2), "selftest": (float, 1e-12)},
}

_SECTIONS_BY_KIND = {
    "evolve_field": {"experiment", "grid", "time", "model", "initial", "output",
                     "tolerances"},
    "sine_gordon": {"experiment", "grid", "time", "sine_gordon", "output",
                    "tolerances"},
    "nls": {"experiment", "grid", "time", "nls", "initial", "output",
            "tolerances"},
    "stationary_fgle": {"experiment", "grid", "stationary", "initial",
                        "tolerances"},
    "chain": {"experiment", "chain", "time", "initial", "output", "tolerances"},
    "continuum_compare": {"experiment", "chain", "time", "compare",
                          "tolerances"},
    "dispersion": {"experiment", "grid", "time", "nls", "dispersion",
                   "tolerances"},
    "operator_selftest": {"experiment", "tolerances"},
}

INITIAL_KINDS = ("cosine", "uniform", "random", "gaussian", "plane_wave",
                 "pulse")


@dataclass
class ExperimentConfig:
    """Fully resolved and validated experiment description."""

    kind: str
    seed: int = 0
    sections: dict = field(default_factory=dict)

    def section(self, name):
        return self.sections.get(name, {})

    def to_dict(self):
        return {"kind": self.kind, "seed": self.seed, "sections": self.sections}

    @classmethod
    def from_dict(cls, data):
        return cls(kind=data["kind"], seed=data["seed"], sections=data["sections"])


def _finite(value):
    """False if ``value`` is, or a list in it holds, a NaN or infinite float."""
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _resolve_section(name, raw):
    schema = _SCHEMA[name]
    out = {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
    for key, (conv, default) in schema.items():
        if key in raw:
            try:
                out[key] = conv(raw[key])
            except ConfigError:
                raise
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for '{key}' in [{name}]: {raw[key]!r}") from exc
            if not _finite(out[key]):
                raise ConfigError(f"non-finite value for '{key}' in [{name}]: "
                                  f"{raw[key]!r}")
        elif default is REQUIRED:
            raise ConfigError(f"missing required key '{key}' in section [{name}]")
        else:
            out[key] = default
    return out


def _validate_ranges(cfg: ExperimentConfig):
    """Range checks that name the offending key."""
    def check(cond, key, msg):
        if not cond:
            raise ConfigError(f"invalid '{key}': {msg}")

    for sec in ("nls", "stationary", "sine_gordon", "chain"):
        if sec in cfg.sections and "alpha" in cfg.sections[sec]:
            a = cfg.sections[sec]["alpha"]
            check(0.0 < a <= 2.0, "alpha", f"must be in (0, 2], got {a}")
    if "model" in cfg.sections:
        for order, _ in cfg.sections["model"]["spatial_terms"]:
            check(0.0 < order <= 2.0, "spatial_terms",
                  f"order must be in (0, 2], got {order}")
    if "model" in cfg.sections:
        fk = cfg.sections["model"]["field_kind"]
        check(fk in ("real", "complex"), "field_kind",
              f"'{fk}' in [model] is not one of real, complex")
        g0 = cfg.sections["model"]["g0"]
        check(g0 != 0, "g0", f"'{g0}' in [model] must be nonzero for time "
              "stepping")
    for sec in ("model", "chain"):
        if sec in cfg.sections:
            beta = cfg.sections[sec]["beta"]
            check(0.0 < beta <= 2.0, "beta", f"must be in (0, 2], got {beta}")
            for key, enum_type in (("potential", Potential),
                                   ("interaction", Interaction)):
                allowed = [e.value for e in enum_type]
                value = cfg.sections[sec][key]
                check(value in allowed, key,
                      f"'{value}' in [{sec}] is not one of {', '.join(allowed)}")
    if cfg.kind == "continuum_compare":
        # what continuum_limit_compare and renormalized_constant accept
        ch = cfg.sections["chain"]
        check(1.0 < ch["alpha"] < 2.0, "alpha", f"'{ch['alpha']}' in [chain] "
              "is outside (1, 2), where the continuum constant is defined")
        check(ch["beta"] <= 1.0, "beta", f"'{ch['beta']}' in [chain] is above "
              "1; rate comparison needs a monotone amplitude")
        check(ch["potential"] in ("none", "ginzburg_landau"), "potential",
              f"'{ch['potential']}' in [chain] is nonlinear; rate comparison "
              "needs none or ginzburg_landau with b = 0")
        check(ch["b"] == 0, "b", f"'{ch['b']}' in [chain] makes the on-site "
              "force nonlinear; rate comparison needs b = 0")
        check(ch["interaction"] == "identity", "interaction",
              f"'{ch['interaction']}' in [chain] is nonlinear; rate "
              "comparison needs identity")
    if "initial" in cfg.sections:
        kind = cfg.sections["initial"]["kind"]
        check(kind in INITIAL_KINDS, "kind",
              f"'{kind}' in [initial] is not one of {', '.join(INITIAL_KINDS)}")
        check(kind != "plane_wave" or cfg.kind == "nls"
              or cfg.section("model").get("field_kind") == "complex", "kind",
              "'plane_wave' in [initial] needs a complex field")
    if "sine_gordon" in cfg.sections:
        bp1 = cfg.sections["sine_gordon"]["beta_plus_one"]
        check(1.0 < bp1 <= 2.0, "beta_plus_one", f"must be in (1, 2], got {bp1}")
        v = cfg.sections["sine_gordon"]["velocity"]
        check(abs(v) < 1.0, "velocity", "kink velocity must satisfy |v| < 1")
    if "grid" in cfg.sections:
        check(cfg.sections["grid"]["n_points"] >= 2, "n_points", "need >= 2")
        check(cfg.sections["grid"]["length"] > 0, "length", "must be positive")
    if "time" in cfg.sections:
        check(cfg.sections["time"]["dt"] > 0, "dt", "must be positive")
        check(cfg.sections["time"]["n_steps"] >= 1, "n_steps", "need >= 1")
    if "output" in cfg.sections:
        every = cfg.sections["output"]["snapshot_every"]
        check(every >= 0, "snapshot_every", f"need >= 0, got {every}")
    if "stationary" in cfg.sections:
        st = cfg.sections["stationary"]
        check(st["tol"] > 0, "tol", f"must be positive, got {st['tol']}")
        check(st["max_iter"] >= 1, "max_iter", f"need >= 1, got {st['max_iter']}")
        check(st["a"] != 0 or st["b"] != 0, "a", f"'{st['a']}' in "
              "[stationary] with b = 0 leaves the equation no local force")
    if "compare" in cfg.sections:
        n = cfg.sections["chain"]["n_particles"]
        for m in cfg.sections["compare"]["modes"]:
            check(1 <= m <= n // 2, "modes",
                  f"ring mode {m} is not in [1, n_particles // 2 = {n // 2}]")
            kdx = 2.0 * math.pi * m / n
            check(kdx <= MAX_KDX, "modes",
                  f"ring mode {m} has k dx = {kdx:.4g}, outside the asymptotic "
                  f"regime k dx <= {MAX_KDX}")
    for sec in ("compare", "dispersion"):
        if sec in cfg.sections:
            modes = cfg.sections[sec]["modes"]
            check(modes, "modes", f"[{sec}] lists no mode")
            check(len(set(modes)) == len(modes), "modes",
                  f"[{sec}] lists a mode twice: {modes}")
    if "dispersion" in cfg.sections:
        n = cfg.sections["grid"]["n_points"]
        for m in cfg.sections["dispersion"]["modes"]:
            check(abs(m) < n / 2, "modes",
                  f"grid mode {m} does not satisfy |m| < n_points / 2 = {n / 2:g}")


def load_config(path, kind=None, seed=None):
    """Parse and validate an INI experiment config into an ExperimentConfig."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    if "experiment" not in raw:
        raise ConfigError("missing [experiment] section")
    exp = _resolve_section("experiment", raw["experiment"])
    if exp["kind"] not in _SECTIONS_BY_KIND:
        raise ConfigError(f"unknown experiment kind '{exp['kind']}'")
    if kind is not None and exp["kind"] != kind:
        raise ConfigError(f"config kind '{exp['kind']}' does not match "
                          f"subcommand '{kind}'")
    allowed = _SECTIONS_BY_KIND[exp["kind"]]
    sections = {}
    for name, body in raw.items():
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        if name not in allowed:
            raise ConfigError(f"section [{name}] does not apply to "
                              f"experiment kind '{exp['kind']}'")
        if name != "experiment":
            sections[name] = _resolve_section(name, body)
    for name in allowed - {"experiment"}:
        if name not in sections:
            # sections with only defaulted keys may be omitted entirely
            schema = _SCHEMA[name]
            if any(d is REQUIRED for _, d in schema.values()):
                raise ConfigError(f"missing required section [{name}] for "
                                  f"kind '{exp['kind']}'")
            sections[name] = _resolve_section(name, {})
    cfg = ExperimentConfig(kind=exp["kind"],
                           seed=exp["seed"] if seed is None else int(seed),
                           sections=sections)
    _validate_ranges(cfg)
    return cfg


# ---------------------------------------------------------------- writers

def _fmt(x):
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _jsonable(o):
    """``o`` with NumPy scalars and arrays as Python values and every
    non-finite float (an undefined fit exponent, say) as ``None``: JSON has
    no NaN or infinity, so these are written as ``null``."""
    if isinstance(o, dict):
        return {k: _jsonable(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, (np.generic, np.ndarray)):
        return _jsonable(o.tolist())
    if isinstance(o, float) and not math.isfinite(o):
        return None
    return o


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(_jsonable(data), fh, indent=2, sort_keys=True,
                  allow_nan=False)
        fh.write("\n")


def write_metadata(outdir, cfg):
    write_json(outdir / "metadata.json",
               {"version": __version__, "config": cfg.to_dict()})


def read_metadata(path):
    with open(path) as fh:
        data = json.load(fh)
    return ExperimentConfig.from_dict(data["config"])


# ---------------------------------------------------------------- builders

def _build_model(sec):
    return ModelSpec(
        g0=sec["g0"],
        spatial_terms=tuple((o, c) for o, c in sec["spatial_terms"]),
        a=sec["a"], b=sec["b"], potential=Potential(sec["potential"]),
        interaction=Interaction(sec["interaction"]),
        interaction_mix=sec["interaction_mix"], field_kind=sec["field_kind"])


def _initial_field(sec, grid, rng, complex_field=False):
    x = grid.x
    kind = sec["kind"]
    if kind not in INITIAL_KINDS:
        raise ConfigError(f"unknown initial kind '{kind}'")
    amp, mode = sec["amplitude"], sec["mode"]
    if kind == "cosine":
        u0 = amp * np.cos(2 * np.pi * mode * np.arange(grid.n_points)
                          / grid.n_points + sec["phase"])
    elif kind == "uniform":
        u0 = np.full(grid.n_points, sec["value"])
    elif kind == "random":
        u0 = amp * rng.standard_normal(grid.n_points)
    elif kind == "gaussian":
        c = grid.length / 2
        u0 = amp * np.exp(-((x - c) / sec["width"]) ** 2 / 2)
    elif kind == "plane_wave":
        k = 2 * np.pi * mode / grid.length
        u0 = amp * np.exp(1j * k * x)
    else:  # pulse
        c = grid.length / 2
        u0 = amp / np.cosh((x - c) / sec["width"])
    if complex_field:
        return u0.astype(complex)
    if np.iscomplexobj(u0):
        raise ConfigError(f"initial kind '{kind}' produces a complex field")
    return u0


def _snapshot_observer(cfg, state):
    """An ``observe(j, u)`` for the steppers that copies every
    ``[output] snapshot_every``-th level (the first and last when 0) into
    the returned dict, which already holds level 0."""
    every = cfg.section("output")["snapshot_every"]
    n = state.time.n_steps
    wanted = set(range(0, n + 1, every) if every else (0, n))
    kept = {0: state.level(0).copy()}

    def observe(j, u):
        if j in wanted:
            kept[j] = u.copy()
    return observe, kept


def _write_snapshots(path, state, kept):
    """The kept levels as rows ``t, x, u``, or ``t, x, u_re, u_im`` for a
    complex field."""
    t, x = state.times, state.grid.x
    cols = ("t", "x", "u_re", "u_im") if state.is_complex else ("t", "x", "u")
    # a complex row viewed as float64 holds re, im pairs
    write_csv(path, cols, ((t[j], x[i], *v) for j in sorted(kept)
                           for i, v in enumerate(
                               kept[j].view(np.float64).reshape(len(x), -1))))


def _grid(cfg):
    g = cfg.section("grid")
    return GridSpec(g["n_points"], g["length"])


def _time_grid(cfg):
    t = cfg.section("time")
    return TimeGrid(t["n_steps"], t["dt"])


# ---------------------------------------------------------------- runners

def _run_evolve_field(cfg, outdir, rng):
    grid = _grid(cfg)
    model = _build_model(cfg.section("model"))
    beta = cfg.section("model")["beta"]
    u0 = _initial_field(cfg.section("initial"), grid, rng,
                        complex_field=model.field_kind == "complex")
    state = FieldState.from_initial(grid, _time_grid(cfg), u0, rows=2)
    observe, kept = _snapshot_observer(cfg, state)
    evolve_field(model, state, beta, observe)
    _write_snapshots(outdir / "snapshots.csv", state, kept)
    return {"final_sup_norm": float(np.max(np.abs(state.current()))),
            "steps": state.n_completed, "passed": True}


def _run_sine_gordon(cfg, outdir, rng):
    grid = _grid(cfg)
    time = _time_grid(cfg)
    sg = cfg.section("sine_gordon")
    alpha, bp1, v = sg["alpha"], sg["beta_plus_one"], sg["velocity"]
    L = grid.length
    x = grid.x - L / 2
    gam = 1.0 / math.sqrt(1.0 - v * v)

    def pair(tau):
        xx = (x - v * tau + L / 2) % L - L / 2
        return (4 * np.arctan(np.exp(gam * (xx + L / 4)))
                + 4 * np.arctan(np.exp(-gam * (xx - L / 4))) - 2 * np.pi)

    u0 = pair(0.0)
    kr = grid.wavenumbers_real
    v0 = -v * np.fft.irfft(1j * kr * np.fft.rfft(u0), n=grid.n_points)
    state = FieldState.from_initial(grid, time, u0, initial_velocity=v0, rows=2)
    keep, kept = _snapshot_observer(cfg, state)
    energy = {}

    def observe(j, u):
        keep(j, u)
        if j == 1:   # the ring still holds level 0
            energy[0] = sine_gordon_energy(state, 0)

    evolve_sine_gordon(state, alpha, bp1, observe)
    e0 = energy[0]
    e1 = sine_gordon_energy(state, state.n_completed - 1)
    drift = abs(e1 - e0) / abs(e0)
    summary = {"energy_initial": e0, "energy_final": e1, "energy_drift": drift,
               "passed": drift < cfg.section("tolerances")["energy_drift"]}
    if alpha == 2.0 and bp1 == 2.0:
        shape_err = float(np.max(np.abs(state.current() - pair(time.t_final))))
        summary["kink_shape_error"] = shape_err
    _write_snapshots(outdir / "snapshots.csv", state, kept)
    return summary


def _run_nls(cfg, outdir, rng):
    grid = _grid(cfg)
    p = cfg.section("nls")
    u0 = _initial_field(cfg.section("initial"), grid, rng, complex_field=True)
    state = FieldState.from_initial(grid, _time_grid(cfg), u0, rows=2)
    m0 = field_mass(state.level(0), grid)
    observe, kept = _snapshot_observer(cfg, state)
    nls_evolve(state, p["alpha"], p["g"], p["a"], p["b"], observe)
    m1 = field_mass(state.current(), grid)
    drift = abs(m1 - m0) / m0
    _write_snapshots(outdir / "snapshots.csv", state, kept)
    return {"mass_initial": m0, "mass_final": m1, "mass_drift": drift,
            "passed": drift < cfg.section("tolerances")["mass_drift"]
            * max(1, state.n_completed / 1000)}


def _run_stationary(cfg, outdir, rng):
    grid = _grid(cfg)
    p = cfg.section("stationary")
    guess = _initial_field(cfg.section("initial"), grid, rng)
    result = stationary_fgle_solve(grid, p["alpha"], p["g"], p["a"], p["b"],
                                   guess, tol=p["tol"], max_iter=p["max_iter"])
    write_csv(outdir / "solution.csv", ("x", "u"),
              zip(grid.x, result.u))
    if not result.converged:
        raise ConvergenceError(
            f"stationary solve stalled at residual {result.residual_norm:.3e}",
            estimate=result.residual_norm)
    return {"residual_norm": result.residual_norm, "iterations": result.n_iter,
            "krylov_iterations": result.krylov_iters,
            "line_search_halvings": result.line_search_halvings,
            "converged": result.converged, "passed": result.converged}


def _build_chain(sec):
    local = ModelSpec(a=sec["a"], b=sec["b"],
                      potential=Potential(sec["potential"]),
                      interaction=Interaction(sec["interaction"]),
                      interaction_mix=sec["interaction_mix"])
    return ChainSpec(n_particles=sec["n_particles"], dx=sec["dx"],
                     alpha=sec["alpha"], g0=sec["g0"], beta=sec["beta"],
                     coupling_cutoff=sec["cutoff"], local=local)


def _run_chain(cfg, outdir, rng):
    spec = _build_chain(cfg.section("chain"))
    u0 = _initial_field(cfg.section("initial"), spec.grid, rng)
    state = ChainState.from_chain(spec, _time_grid(cfg), u0, rows=2)
    observe, kept = _snapshot_observer(cfg, state)
    evolve_chain(spec, state, observe)
    _write_snapshots(outdir / "trajectory.csv", state, kept)
    return {"final_sup_norm": float(np.max(np.abs(state.current()))),
            "steps": state.n_completed, "passed": True}


def _run_continuum_compare(cfg, outdir, rng):
    spec = _build_chain(cfg.section("chain"))
    tsec = cfg.section("time")
    comp = cfg.section("compare")
    report = continuum_limit_compare(spec, comp["modes"], tsec["dt"],
                                     tsec["n_steps"],
                                     fit_horizon=comp["fit_horizon"])
    write_json(outdir / "report.json", report.to_dict())
    worst = max(report.deviation_vs_continuum)
    return {"worst_deviation_vs_continuum": worst,
            "fitted_exponent": report.fitted_exponent,
            "passed": worst < cfg.section("tolerances")["rate_deviation"]}


def _run_dispersion(cfg, outdir, rng):
    grid = _grid(cfg)
    p = cfg.section("nls")
    modes = cfg.section("dispersion")["modes"]
    x = grid.x
    u0 = np.zeros(grid.n_points, dtype=complex)
    for m in modes:
        u0 += np.exp(1j * (2 * np.pi * m / grid.length) * x)
    state = FieldState.from_initial(grid, _time_grid(cfg), u0, rows=2)
    series = np.empty((state.time.n_steps + 1, len(modes)), dtype=complex)

    def observe(j, u):
        series[j] = np.fft.fft(u)[modes] / grid.n_points

    observe(0, state.level(0))
    nls_evolve(state, p["alpha"], p["g"], p["a"], p["b"], observe)
    source = (state.times, dict(zip(grid.wavenumbers[modes], series.T)))
    report = dispersion_check(source, alpha=p["alpha"], beta=1.0, g=p["g"],
                              a=p["a"], b=p["b"])
    write_json(outdir / "report.json", report.to_dict())
    # the exponent is NaN, and not checked, below two dispersive modes
    slope = report.fitted_exponent
    return {"max_rel_err": max(report.rel_err),
            "fitted_exponent": slope,
            "passed": max(report.rel_err) < 1e-4
            and (math.isnan(slope) or abs(slope - p["alpha"]) < 0.02)}


def _run_selftest(cfg, outdir, rng):
    checks = {}
    grid = GridSpec(128, 2 * np.pi)
    x = grid.x
    worst = 0.0
    for alpha in (1.2, 1.5, 2.0):
        for m in (1, 5, 31):
            u = np.cos(m * x)
            got = riesz_derivative_spectral(u, alpha, grid)
            err = float(np.max(np.abs(got + m ** alpha * u)) / m ** alpha)
            worst = max(worst, err)
    checks["riesz_mode_exactness"] = worst

    u = np.full(64, 3.7)
    checks["caputo_constant"] = float(np.max(np.abs(caputo_left_l1(u, 0.5, 0.01))))

    t = np.arange(0, 1001) * 1e-3
    val = caputo_left_l1(t, 0.5, 1e-3)[-1]
    checks["caputo_linear"] = abs(val - 2 / math.sqrt(math.pi))

    checks["ml_exp"] = abs(mittag_leffler(1.0, 1.0) - math.e)
    checks["ml_at_zero"] = abs(mittag_leffler(0.7, 0.0) - 1.0)

    hist = rng.standard_normal(257)
    kern = MemoryKernel(beta=0.4, g0=1.7)
    dt = 1.0 / 256
    mc = memory_convolution(kern, np.diff(hist) / dt, dt)
    ca = 1.7 * caputo_left_l1(hist, 0.4, dt)
    checks["memory_identity"] = float(np.max(np.abs(mc - ca)))

    u1 = rng.standard_normal(128)
    u2 = rng.standard_normal(128)
    lin = riesz_derivative_spectral(2.0 * u1 - 0.5 * u2, 1.5, grid) - (
        2.0 * riesz_derivative_spectral(u1, 1.5, grid)
        - 0.5 * riesz_derivative_spectral(u2, 1.5, grid))
    checks["riesz_linearity"] = float(np.max(np.abs(lin)))

    tol = cfg.section("tolerances")["selftest"]
    passed = all(v <= tol for v in checks.values())
    write_json(outdir / "selftest.json",
               {"checks": checks, "tolerance": tol, "passed": passed})
    if not passed:
        raise ConvergenceError("operator self-test failed", estimate=max(checks.values()))
    return {"worst": max(checks.values()), "passed": passed}


_RUNNERS = {
    "evolve_field": _run_evolve_field,
    "sine_gordon": _run_sine_gordon,
    "nls": _run_nls,
    "stationary_fgle": _run_stationary,
    "chain": _run_chain,
    "continuum_compare": _run_continuum_compare,
    "dispersion": _run_dispersion,
    "operator_selftest": _run_selftest,
}


def run(cfg: ExperimentConfig, outdir):
    """Execute an experiment; returns the summary dict."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_metadata(outdir, cfg)
    rng = np.random.default_rng(cfg.seed)
    summary = _RUNNERS[cfg.kind](cfg, outdir, rng)
    write_json(outdir / "summary.json", summary)
    return summary


def _make_parser():
    parser = argparse.ArgumentParser(
        prog="fracdyn",
        description="fractional field and chain experiment runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _SECTIONS_BY_KIND:
        p = sub.add_parser(kind)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
    return parser


class _ConsoleHandler(logging.Handler):
    """Writes each message alone on its line: below WARNING to standard
    output, the rest to standard error, both looked up at each record."""

    def emit(self, record):
        stream = sys.stdout if record.levelno < logging.WARNING else sys.stderr
        stream.write(self.format(record) + "\n")


def _log_to_console():
    """Give the ``fracdyn`` logger its console handler, once, at INFO."""
    if not any(isinstance(h, _ConsoleHandler) for h in log.handlers):
        log.addHandler(_ConsoleHandler())
        log.setLevel(logging.INFO)


def main(argv=None):
    try:
        args = _make_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on misuse
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    _log_to_console()
    try:
        cfg = load_config(args.config, kind=args.kind, seed=args.seed)
    except (ConfigError, configparser.Error) as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return EXIT_IO
    try:
        summary = run(cfg, args.out)
    except (BlowUpError, ConvergenceError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (ConfigError, DomainError) as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except FracdynError as exc:
        log.error("error: %s", exc)
        return EXIT_NUMERICAL
    except OSError as exc:
        log.error("i/o error: %s", exc)
        return EXIT_IO
    passed = summary.get("passed", True)
    log.info("%s: %s", cfg.kind, "ok" if passed else "tolerance check failed")
    return EXIT_OK if passed else EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
