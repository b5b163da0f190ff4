"""Experiment runner.

Configs are INI files (``configparser`` syntax): named sections of
``key = value`` pairs.  Unknown sections or keys are rejected.  Sections
are resolved in schema order, so a missing section is reported by its
first required key.  A rule on one key is that key's ``_SCHEMA`` entry, a
rule that joins keys is in ``_build``, and a library rule is the library's
own, reached through ``_checked``; ``_build`` checks all three, for both
``load_config`` and ``run``, after every section has been resolved, so a
missing or unconvertible key is reported before any rule's failure.

Every run writes ``metadata.json`` (the fully resolved configuration plus
the library version; it re-parses into an equal configuration), one or
more data files (CSV for time series and snapshots, JSON for reports), and
``summary.json`` with pass/fail results against the configured tolerances.
Floats are written with 17 significant digits so repeated runs are
byte-identical.

Only ``[initial] kind = random`` and ``operator_selftest`` draw random
numbers, from one generator seeded with ``[experiment] seed``; a config
that does not draw never loads ``numpy.random``.  ``run`` imports nothing
that ``load_config`` has not: ``load_config`` loads ``numpy.random`` for a
config that draws, and importing the package loads every other NumPy
submodule a run uses (``numpy.fft``, in ``grids``).

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure
(blow-up or non-convergence), 3 I/O error.
"""

import configparser
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import dispersion_check
from .chain import (ChainSpec, _check_compare, continuum_limit_compare,
                    evolve_chain)
from .errors import (BlowUpError, ConfigError, ConvergenceError, DomainError,
                     FracdynError)
from .fields import (FieldState, Interaction, ModelSpec, Potential,
                     _check_evolve_field, _check_stationary, evolve_field,
                     field_mass, nls_evolve, sine_gordon_energy,
                     stationary_fgle_solve)
from .fracops import (caputo_left_l1, mittag_leffler,
                      riesz_derivative_spectral)
from .grids import GridSpec, TimeGrid, validate_spatial_order

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


_NON_NEGATIVE = (lambda v: v >= 0, "need >= 0")


def _one_of(*choices):
    return (lambda v: v in choices), f"not one of {', '.join(choices)}"


# (section, key) -> (converter, default[, rule]); REQUIRED means no default.
# A rule, (test, reason), is the key's own: ``_build`` checks it on the
# converted value alone.  Rules that join keys are checked there too.
REQUIRED = object()
_MODES = (lambda m: len(m) > 0 and len(set(m)) == len(m),
          "needs at least one mode and no mode twice")

# the on-site force and interaction keys of [model] and [chain]
_ON_SITE = {"a": (float, 0.0), "b": (float, 0.0),
            "potential": (str, "none",
                          _one_of(*(e.value for e in Potential))),
            "interaction": (str, "identity",
                            _one_of(*(e.value for e in Interaction))),
            "interaction_mix": (float, 0.0)}
# on-site keys that act only with one choice of another key, and that choice
_ON_SITE_NEEDS = {"a": ("potential", "ginzburg_landau"),
                  "b": ("potential", "ginzburg_landau"),
                  "interaction_mix": ("interaction", "quadratic_mix")}

_SCHEMA = {
    "experiment": {"kind": (str, REQUIRED), "seed": (int, 0, _NON_NEGATIVE)},
    "grid": {"n_points": (int, REQUIRED), "length": (float, REQUIRED)},
    "time": {"dt": (float, REQUIRED), "n_steps": (int, REQUIRED)},
    "model": {"g0": (float, 1.0), "beta": (float, 1.0),
              "spatial_terms": (_parse_terms, []), **_ON_SITE,
              "field_kind": (str, "real", _one_of("real", "complex"))},
    "initial": {"kind": (str, "cosine", _one_of(
                    "cosine", "uniform", "random", "gaussian", "plane_wave",
                    "pulse")),
                "amplitude": (float, 1.0), "mode": (int, 1),
                "value": (float, 0.0), "width": (float, 1.0),
                "phase": (float, 0.0)},
    "nls": {"alpha": (float, REQUIRED), "g": (float, 1.0), "a": (float, 0.0),
            "b": (float, 0.0)},
    "sine_gordon": {"alpha": (float, 2.0), "beta_plus_one": (float, 2.0, (
                        lambda v: 1.0 < v <= 2.0,
                        "sine-Gordon stepping needs temporal order in (1, 2]")),
                    "velocity": (float, 0.2, (
                        lambda v: abs(v) < 1.0,
                        "kink velocity must satisfy |v| < 1"))},
    "stationary": {"alpha": (float, REQUIRED), "g": (float, 1.0),
                   "a": (float, REQUIRED), "b": (float, REQUIRED),
                   "tol": (float, 1e-10), "max_iter": (int, 100)},
    "chain": {"n_particles": (int, REQUIRED), "dx": (float, 1.0),
              "alpha": (float, REQUIRED), "g0": (float, 1.0),
              "beta": (float, 1.0), "cutoff": (int, 0), **_ON_SITE},
    "compare": {"modes": (_parse_int_list, REQUIRED, _MODES),
                "fit_horizon": (float, 2.0)},
    "dispersion": {"modes": (_parse_int_list, REQUIRED, _MODES)},
    "output": {"snapshot_every": (int, 0, _NON_NEGATIVE)},
    "tolerances": {"mass_drift": (float, 1e-10), "energy_drift": (float, 1e-2),
                   "rate_deviation": (float, 5e-2), "selftest": (float, 1e-12)},
}


@dataclass
class ExperimentConfig:
    """Fully resolved and validated experiment description."""

    kind: str
    seed: int = 0
    sections: dict = field(default_factory=dict)

    def section(self, name):
        return self.sections.get(name, {})


def _finite(value):
    """False if ``value`` is, or a list in it holds, a NaN or infinite float."""
    if isinstance(value, list):
        return all(_finite(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def _invalid(section, key, value, reason):
    return ConfigError(f"invalid '{key}': '{value}' in [{section}]: {reason}")


def _resolve_section(name, raw):
    schema = _SCHEMA[name]
    out = {}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown key '{key}' in section [{name}]")
    for key, (conv, default, *rule) in schema.items():
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


def _check_rules(cfg):
    """Check each key's own ``_SCHEMA`` rule on ``cfg``'s values, section by
    section in schema order."""
    given = {"experiment": {"kind": cfg.kind, "seed": cfg.seed},
             **cfg.sections}
    for name in _SCHEMA:
        if name not in given:
            continue
        for key, (_, _, *rule) in _SCHEMA[name].items():
            for test, reason in rule:
                if not test(given[name][key]):
                    raise _invalid(name, key, given[name][key], reason)


def _checked(cfg, section, key, make, *args, **kwargs):
    """``make(*args, **kwargs)``, a ``DomainError`` turned into a
    ``ConfigError`` for the config key the error names (the first section,
    in schema order, of ``cfg`` that has it) or, when no section has that
    key, for ``key`` of ``section``, the value the call was made from."""
    try:
        return make(*args, **kwargs)
    except DomainError as exc:
        for name in _SCHEMA:
            if exc.key in cfg.section(name):
                section, key = name, exc.key
                break
        raise _invalid(section, key, cfg.sections[section][key], exc) from exc


def _local_model(sec, **kw):
    """The on-site force and interaction of ``[model]`` or ``[chain]``."""
    return ModelSpec(a=sec["a"], b=sec["b"],
                     potential=Potential(sec["potential"]),
                     interaction=Interaction(sec["interaction"]),
                     interaction_mix=sec["interaction_mix"], **kw)


def _build(cfg: ExperimentConfig):
    """Check each key's own rule (its ``_SCHEMA`` entry's), build what
    ``cfg``'s run uses through the library's own checks, and check the
    runner's rules that join several keys.  Returns the ``GridSpec``,
    ``TimeGrid``, ``ModelSpec`` and ``ChainSpec`` the run has, by section;
    ``[sine_gordon]``'s equation is the ``"model"``."""
    _check_rules(cfg)
    s = cfg.sections
    specs = {}
    if "grid" in s:
        specs["grid"] = _checked(cfg, "grid", "length", GridSpec,
                                 s["grid"]["n_points"], s["grid"]["length"])
    if "time" in s:
        specs["time"] = _checked(cfg, "time", "dt", TimeGrid,
                                 s["time"]["n_steps"], s["time"]["dt"])
    if "model" in s:
        m = s["model"]
        specs["model"] = _checked(
            cfg, "model", "spatial_terms", _local_model, m, g0=m["g0"],
            spatial_terms=tuple(map(tuple, m["spatial_terms"])))
        _checked(cfg, "model", "beta", _check_evolve_field, specs["model"],
                 m["beta"])
    if "sine_gordon" in s:
        specs["model"] = _checked(
            cfg, "sine_gordon", "alpha", ModelSpec, g0=1.0,
            spatial_terms=((s["sine_gordon"]["alpha"], 1.0),),
            potential=Potential.SINE_GORDON)
    if "chain" in s:
        c = s["chain"]
        specs["chain"] = _checked(
            cfg, "chain", "alpha", ChainSpec, c["n_particles"], c["dx"],
            c["alpha"], c["g0"], c["beta"], c["cutoff"],
            _local_model(c))
    if "compare" in s:
        _checked(cfg, "compare", "modes", _check_compare, specs["chain"],
                 s["compare"]["modes"], s["compare"]["fit_horizon"])
    for name in ("model", "chain"):
        for key, (other, choice) in _ON_SITE_NEEDS.items():
            if name in s and s[name][key] != 0 and s[name][other] != choice:
                raise _invalid(name, key, s[name][key],
                               f"needs {other} = {choice}")
    if cfg.kind in ("evolve_field", "chain"):
        name = "model" if cfg.kind == "evolve_field" else "chain"
        if s[name]["beta"] > 1.0:
            raise _invalid(name, "beta", s[name]["beta"],
                           "orders in (1, 2] need an initial velocity, which "
                           f"kind '{cfg.kind}' does not set")
    if "nls" in s:
        _checked(cfg, "nls", "alpha", validate_spatial_order, s["nls"]["alpha"])
    if "stationary" in s:
        st = s["stationary"]
        _checked(cfg, "stationary", "alpha", _check_stationary, st["alpha"],
                 st["a"], st["b"], st["tol"], st["max_iter"])
    if "initial" in s:
        kind = s["initial"]["kind"]
        if kind == "plane_wave" and cfg.kind != "nls" \
                and s.get("model", {}).get("field_kind") != "complex":
            raise _invalid("initial", "kind", kind, "needs a complex field")
        if kind in ("gaussian", "pulse") and not s["initial"]["width"] > 0:
            raise _invalid("initial", "width", s["initial"]["width"],
                           f"a {kind} needs width > 0")
    if "dispersion" in s:
        n = s["grid"]["n_points"]
        if not all(abs(m) < n / 2 for m in s["dispersion"]["modes"]):
            raise _invalid("dispersion", "modes", s["dispersion"]["modes"],
                           f"grid modes need |m| < n_points / 2 = {n / 2:g}")
    return specs


def _draws(cfg):
    """Whether ``cfg``'s run draws from the generator seeded with
    ``cfg.seed``: the operator self-test, and a random initial field."""
    return (cfg.kind == "operator_selftest"
            or cfg.section("initial").get("kind") == "random")


def load_config(path, kind=None, seed=None):
    """Parse and validate an INI experiment config into an ExperimentConfig.
    ``seed``, when given, stands for ``[experiment] seed`` and is checked
    as that key is."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from exc

    raw = {s: dict(parser.items(s)) for s in parser.sections()}
    if seed is not None:
        raw.setdefault("experiment", {})["seed"] = seed
    exp = _resolve_section("experiment", raw.get("experiment", {}))
    if exp["kind"] not in _KINDS:
        raise ConfigError(f"unknown experiment kind '{exp['kind']}'")
    if kind is not None and exp["kind"] != kind:
        raise ConfigError(f"config kind '{exp['kind']}' does not match "
                          f"subcommand '{kind}'")
    _, allowed = _KINDS[exp["kind"]]
    for name in raw:
        if name not in _SCHEMA:
            raise ConfigError(f"unknown section [{name}]")
        if name not in allowed and name != "experiment":
            raise ConfigError(f"section [{name}] does not apply to "
                              f"experiment kind '{exp['kind']}'")
    # an absent section is resolved as empty: its defaults, or an error
    # naming its first required key
    sections = {name: _resolve_section(name, raw.get(name, {}))
                for name in _SCHEMA if name in allowed}
    cfg = ExperimentConfig(kind=exp["kind"], seed=exp["seed"],
                           sections=sections)
    _build(cfg)
    if _draws(cfg):
        import numpy.random  # noqa: F401  (NumPy 2 would load it in run)
    return cfg


# ---------------------------------------------------------------- writers

_CSV_BLOCK_ROWS = 1024   # rows formatted by one ``%``; bounds the text held


def write_csv(path, header, blocks):
    """Write ``header``, then each of ``blocks`` (float64 rows of
    ``len(header)`` columns), formatting ``_CSV_BLOCK_ROWS`` rows at a time."""
    line = ",".join(["%.17g"] * len(header)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for block in blocks:
            block = np.asarray(block, dtype=np.float64).reshape(-1, len(header))
            for i in range(0, len(block), _CSV_BLOCK_ROWS):
                part = block[i:i + _CSV_BLOCK_ROWS]
                fh.write(line * len(part) % tuple(part.ravel().tolist()))


def _jsonable(o):
    """``o`` with a dataclass (a report) as the dict of its fields, NumPy
    scalars and arrays as Python values, a complex number as ``[re, im]``
    and every non-finite float (an undefined fit exponent, say) as
    ``None``: JSON has no complex numbers, NaN or infinity, so these are
    written as pairs and ``null``."""
    if is_dataclass(o):
        return {f.name: _jsonable(getattr(o, f.name)) for f in fields(o)}
    if isinstance(o, dict):
        return {k: _jsonable(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_jsonable(v) for v in o]
    if isinstance(o, (np.generic, np.ndarray)):
        return _jsonable(o.tolist())
    if isinstance(o, complex):
        return _jsonable([o.real, o.imag])
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
               {"version": __version__, "config": cfg})


def read_metadata(path):
    with open(path) as fh:
        data = json.load(fh)
    return ExperimentConfig(**data["config"])


# ---------------------------------------------------------------- builders

def _initial_field(sec, grid, rng, complex_field=False):
    x = grid.x
    kind = sec["kind"]
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
    return u0.astype(complex) if complex_field else u0


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
    complex field, one block of rows per level.  Level ``j``'s time is made
    alone as ``j dt``, bit for bit ``state.times[j]``, so the ``n_steps +
    1`` times of the whole grid are never held."""
    x, dt = state.grid.x, state.time.dt
    cols = ("t", "x", "u_re", "u_im") if state.is_complex else ("t", "x", "u")
    # a complex row viewed as float64 holds re, im pairs
    write_csv(path, cols, (np.column_stack((
        np.full(len(x), j * dt), x, kept[j].view(np.float64).reshape(len(x), -1)))
        for j in sorted(kept)))


# ---------------------------------------------------------------- runners

def _run_evolve_field(cfg, specs, outdir, rng):
    grid, p = specs["grid"], cfg.section("model")
    u0 = _initial_field(cfg.section("initial"), grid, rng,
                        complex_field=p["field_kind"] == "complex")
    state = FieldState.from_initial(grid, specs["time"], u0, rows=2)
    observe, kept = _snapshot_observer(cfg, state)
    evolve_field(specs["model"], state, p["beta"], observe)
    _write_snapshots(outdir / "snapshots.csv", state, kept)
    return {"final_sup_norm": float(np.max(np.abs(state.current()))),
            "steps": state.n_completed, "passed": True}


def _run_sine_gordon(cfg, specs, outdir, rng):
    grid, time = specs["grid"], specs["time"]
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

    evolve_field(specs["model"], state, bp1, observe)
    e0 = energy[0]
    e1 = sine_gordon_energy(state, state.n_completed - 1)
    drift = abs(e1 - e0) / abs(e0)
    # below order 2 the memory term drains the energy: only growth is an error
    change = drift if bp1 == 2.0 else (e1 - e0) / abs(e0)
    summary = {"energy_initial": e0, "energy_final": e1, "energy_drift": drift,
               "passed": change < cfg.section("tolerances")["energy_drift"]}
    if alpha == 2.0 and bp1 == 2.0:
        shape_err = float(np.max(np.abs(state.current() - pair(time.t_final))))
        summary["kink_shape_error"] = shape_err
    _write_snapshots(outdir / "snapshots.csv", state, kept)
    return summary


def _run_nls(cfg, specs, outdir, rng):
    grid = specs["grid"]
    p = cfg.section("nls")
    u0 = _initial_field(cfg.section("initial"), grid, rng, complex_field=True)
    state = FieldState.from_initial(grid, specs["time"], u0, rows=2)
    m0 = field_mass(state.level(0), grid)
    observe, kept = _snapshot_observer(cfg, state)
    nls_evolve(state, p["alpha"], p["g"], p["a"], p["b"], observe)
    m1 = field_mass(state.current(), grid)
    drift = abs(m1 - m0) / m0
    _write_snapshots(outdir / "snapshots.csv", state, kept)
    return {"mass_initial": m0, "mass_final": m1, "mass_drift": drift,
            "passed": drift < cfg.section("tolerances")["mass_drift"]
            * max(1, state.n_completed / 1000)}


def _run_stationary(cfg, specs, outdir, rng):
    grid = specs["grid"]
    p = cfg.section("stationary")
    guess = _initial_field(cfg.section("initial"), grid, rng)
    result = stationary_fgle_solve(grid, p["alpha"], p["g"], p["a"], p["b"],
                                   guess, tol=p["tol"], max_iter=p["max_iter"])
    write_csv(outdir / "solution.csv", ("x", "u"),
              [np.column_stack((grid.x, result.u))])
    if not result.converged:
        raise ConvergenceError(
            f"stationary solve stalled at residual {result.residual_norm:.3e}",
            estimate=result.residual_norm)
    return {"residual_norm": result.residual_norm, "iterations": result.n_iter,
            "krylov_iterations": result.krylov_iters,
            "line_search_halvings": result.line_search_halvings,
            "converged": result.converged, "passed": result.converged}


def _run_chain(cfg, specs, outdir, rng):
    spec = specs["chain"]
    u0 = _initial_field(cfg.section("initial"), spec.grid, rng)
    state = FieldState.from_initial(spec.grid, specs["time"], u0, rows=2)
    observe, kept = _snapshot_observer(cfg, state)
    evolve_chain(spec, state, observe)
    _write_snapshots(outdir / "trajectory.csv", state, kept)
    return {"final_sup_norm": float(np.max(np.abs(state.current()))),
            "steps": state.n_completed, "passed": True}


def _run_continuum_compare(cfg, specs, outdir, rng):
    time, comp = specs["time"], cfg.section("compare")
    report = continuum_limit_compare(specs["chain"], comp["modes"], time.dt,
                                     time.n_steps,
                                     fit_horizon=comp["fit_horizon"])
    write_json(outdir / "report.json", report)
    worst = max(report.deviation_vs_continuum)
    return {"worst_deviation_vs_continuum": worst,
            "fitted_exponent": report.fitted_exponent,
            "passed": worst < cfg.section("tolerances")["rate_deviation"]}


def _run_dispersion(cfg, specs, outdir, rng):
    grid = specs["grid"]
    p = cfg.section("nls")
    modes = cfg.section("dispersion")["modes"]
    x = grid.x
    u0 = np.zeros(grid.n_points, dtype=complex)
    for m in modes:
        u0 += np.exp(1j * (2 * np.pi * m / grid.length) * x)
    state = FieldState.from_initial(grid, specs["time"], u0, rows=2)
    series = np.empty((state.time.n_steps + 1, len(modes)), dtype=complex)

    def observe(j, u):
        series[j] = np.fft.fft(u)[modes] / grid.n_points

    observe(0, state.level(0))
    nls_evolve(state, p["alpha"], p["g"], p["a"], p["b"], observe)
    source = (state.times, dict(zip(grid.wavenumbers[modes], series.T)))
    report = dispersion_check(source, alpha=p["alpha"], beta=1.0, g=p["g"],
                              a=p["a"], b=p["b"])
    write_json(outdir / "report.json", report)
    # the exponent is NaN, and not checked, below two distinct |k|
    slope = report.fitted_exponent
    return {"max_rel_err": max(report.rel_err),
            "fitted_exponent": slope,
            "passed": max(report.rel_err) < 1e-4
            and (math.isnan(slope) or abs(slope - p["alpha"]) < 0.02)}


def _run_selftest(cfg, specs, outdir, rng):
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


# experiment kind -> (runner, the sections its config may hold beside
# [experiment])
_KINDS = {
    "evolve_field": (_run_evolve_field, {
        "grid", "time", "model", "initial", "output", "tolerances"}),
    "sine_gordon": (_run_sine_gordon, {
        "grid", "time", "sine_gordon", "output", "tolerances"}),
    "nls": (_run_nls, {
        "grid", "time", "nls", "initial", "output", "tolerances"}),
    "stationary_fgle": (_run_stationary, {
        "grid", "stationary", "initial", "tolerances"}),
    "chain": (_run_chain, {
        "chain", "time", "initial", "output", "tolerances"}),
    "continuum_compare": (_run_continuum_compare, {
        "chain", "time", "compare", "tolerances"}),
    "dispersion": (_run_dispersion, {
        "grid", "time", "nls", "dispersion", "tolerances"}),
    "operator_selftest": (_run_selftest, {"tolerances"}),
}


def run(cfg: ExperimentConfig, outdir):
    """Execute an experiment; returns the summary dict.  Every rule of
    ``cfg`` (on one key, joining keys, or the library's) is checked again,
    by the ``_build`` that ``load_config`` calls, before any file is
    written, so an edited or replayed config cannot run past one."""
    specs = _build(cfg)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_metadata(outdir, cfg)
    rng = np.random.default_rng(cfg.seed) if _draws(cfg) else None
    runner, _ = _KINDS[cfg.kind]
    summary = runner(cfg, specs, outdir, rng)
    write_json(outdir / "summary.json", summary)
    return summary


def _make_parser():
    # imported here, not at the top: only main parses arguments, and every
    # other user of this module would pay argparse's import for nothing
    import argparse

    parser = argparse.ArgumentParser(
        prog="fracdyn",
        description="fractional field and chain experiment runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in _KINDS:
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
        summary = run(cfg, args.out)
    except (BlowUpError, ConvergenceError) as exc:
        log.error("numerical failure: %s", exc)
        return EXIT_NUMERICAL
    except (ConfigError, DomainError, configparser.Error) as exc:
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
