"""The four benchmark workloads: seeded inputs, set-up, entry calls, oracle.

Each workload is a closed loop with one client: one fracdyn run at a time,
each in a fresh interpreter (see ``sample.py``).  Seeds change values only,
never sizes.  ``SIZES["tiny"]`` shrinks every workload for the self-check.

Parent side (``run.py``): ``draw_params`` and ``write_inputs`` turn a seed
into the inputs of one sample.  Child side (``sample.py``): ``setup``
builds what the entry calls need (this is the end of ``setup_s``), ``run``
makes the entry calls (``run_s``), and ``check`` is the output oracle; it
raises ``OracleError`` on a wrong result.
"""

import configparser
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SG_CONFIG = ROOT / "configs" / "sine_gordon_kink.ini"

NAMES = ("sg_wave", "frac_relax", "chain_fit", "newton_pulse")

# Sizes only; every value a seed may change is drawn in draw_params.
SIZES = {
    "full": {
        "sg_wave": {"n_points": 1024, "n_steps": 40000},
        "frac_relax": {"n_points": 128, "n_steps": 3000},
        "chain_fit": {"n_particles": 4096, "n_steps": 3000},
        "newton_pulse": {"n_points": 3072},
    },
    "tiny": {
        "sg_wave": {"n_points": 256, "n_steps": 2000},
        "frac_relax": {"n_points": 16, "n_steps": 200},
        "chain_fit": {"n_particles": 512, "n_steps": 600},
        "newton_pulse": {"n_points": 512},
    },
}

# Oracle limits.
KINK_SHAPE_TOL = 1e-2        # sup distance to the exact travelling pair
RESIDUAL_TOL = 1e-10         # linear model: the residual is rounding only
LATTICE_DEV_TOL = 5e-3       # fitted vs exact lattice mode rate
PULSE_PEAK = 1.539           # alpha = 1.5 pulse peak (the uniform root is 1)
PULSE_PEAK_TOL = 0.02
STATIONARY_TOL = 1e-10


class OracleError(Exception):
    """A workload's output failed its oracle."""


def draw_params(name, rng, size):
    """Seeded values of one sample; ``rng`` is a ``random.Random``."""
    p = dict(SIZES[size][name])
    if name == "sg_wave":
        p["velocity"] = rng.uniform(0.15, 0.25)
    elif name == "frac_relax":
        p["field_seed"] = rng.randrange(2 ** 32)
    elif name == "chain_fit":
        # three distinct modes with k dx between about 0.0125 and 0.1, the
        # shipped config's range; there the fitted rates stay within
        # LATTICE_DEV_TOL of the lattice rates (the L1 error grows with the rate)
        n = p["n_particles"]
        lo, hi = int(0.0125 * n / (2 * math.pi)), int(0.1 * n / (2 * math.pi))
        p["modes"] = sorted(rng.sample(range(max(lo, 2), hi + 1), 3))
    elif name == "newton_pulse":
        p["width"] = rng.uniform(0.9, 1.1)
    return p


def _write_ini(path, sections):
    cp = configparser.ConfigParser()
    for sec, body in sections.items():
        cp[sec] = {k: repr(v) if isinstance(v, float) else str(v)
                   for k, v in body.items()}
    with open(path, "w") as fh:
        cp.write(fh)


def write_inputs(name, p, sample_dir):
    """Write the config file of a CLI workload into ``sample_dir``."""
    cfg = sample_dir / "config.ini"
    if name == "sg_wave":
        # the shipped config, with the seeded velocity and the chosen size
        cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
        with open(SG_CONFIG) as fh:
            cp.read_file(fh)
        cp["sine_gordon"]["velocity"] = repr(p["velocity"])
        cp["grid"]["n_points"] = str(p["n_points"])
        cp["time"]["n_steps"] = str(p["n_steps"])
        cp["output"]["snapshot_every"] = str(p["n_steps"] // 10)
        with open(cfg, "w") as fh:
            cp.write(fh)
    elif name == "chain_fit":
        _write_ini(cfg, {
            "experiment": {"kind": "continuum_compare"},
            "chain": {"n_particles": p["n_particles"], "dx": 1.0, "alpha": 1.5,
                      "g0": -1.0, "beta": 0.9},
            "time": {"dt": 0.1, "n_steps": p["n_steps"]},
            "compare": {"modes": ",".join(map(str, p["modes"])),
                        "fit_horizon": 4.0},
            # the ~14 % lattice-to-continuum gap is expected, not a failure
            "tolerances": {"rate_deviation": 0.2},
        })
    elif name == "newton_pulse":
        _write_ini(cfg, {
            "experiment": {"kind": "stationary_fgle"},
            "grid": {"n_points": p["n_points"], "length": 120.0},
            "stationary": {"alpha": 1.5, "g": 1.0, "a": -1.0, "b": 1.0,
                           "tol": STATIONARY_TOL},
            "initial": {"kind": "pulse", "amplitude": 1.0,
                        "width": p["width"]},
        })


# ---------------------------------------------------------------- child side

def setup(name, p, sample_dir):
    """Build the inputs of the entry calls; returns the run context."""
    from fracdyn import cli, fields, grids
    ctx = {"name": name, "p": p, "outdir": sample_dir / "out"}
    if name == "frac_relax":
        import numpy as np
        grid = grids.GridSpec(p["n_points"], 2 * math.pi)
        time = grids.TimeGrid(p["n_steps"], 1e-3)
        ctx["model"] = fields.ModelSpec(g0=1.0, spatial_terms=((1.5, 0.5),))
        u0 = np.random.default_rng(p["field_seed"]).standard_normal(grid.n_points)
        ctx["state"] = fields.FieldState.from_initial(grid, time, u0)
    else:
        ctx["cfg"] = cli.load_config(sample_dir / "config.ini")
    return ctx


def run(ctx):
    """The workload's entry calls: the part timed as ``run_s``."""
    from fracdyn import cli, fields
    if ctx["name"] == "frac_relax":
        fields.evolve_field(ctx["model"], ctx["state"], 0.8)
        ctx["residual"] = fields.residual(ctx["model"], ctx["state"], 0.8)
    else:
        ctx["summary"] = cli.run(ctx["cfg"], ctx["outdir"])


def output_bytes(ctx):
    out = ctx["outdir"]
    return sum(f.stat().st_size for f in out.iterdir()) if out.is_dir() else 0


def check(ctx):
    """Output oracle; raises ``OracleError`` with the failed condition."""
    import json

    import numpy as np
    name, p = ctx["name"], ctx["p"]

    def need(cond, msg):
        if not cond:
            raise OracleError(f"{name}: {msg}")

    if name == "frac_relax":
        worst = float(np.max(np.abs(ctx["residual"][1:])))
        need(worst <= RESIDUAL_TOL, f"max |residual| {worst:.3e} > {RESIDUAL_TOL}")
        return {"max_residual": worst}

    summary = json.loads((ctx["outdir"] / "summary.json").read_text())
    if name == "sg_wave":
        tol = ctx["cfg"].section("tolerances")["energy_drift"]
        need(summary["energy_drift"] < tol,
             f"energy drift {summary['energy_drift']:.3e} >= {tol}")
        # last snapshot against the exact travelling kink-antikink pair
        data = np.loadtxt(ctx["outdir"] / "snapshots.csv", delimiter=",",
                          skiprows=1)
        t_end = data[-1, 0]
        last = data[data[:, 0] == t_end]
        need(len(last) == p["n_points"], "last snapshot is incomplete")
        need(abs(t_end - p["n_steps"] * ctx["cfg"].section("time")["dt"]) < 1e-9,
             f"last snapshot at t={t_end}, not the final time")
        L = ctx["cfg"].section("grid")["length"]
        v = p["velocity"]
        gam = 1.0 / math.sqrt(1.0 - v * v)
        xx = (last[:, 1] - v * t_end) % L - L / 2
        exact = (4 * np.arctan(np.exp(gam * (xx + L / 4)))
                 + 4 * np.arctan(np.exp(-gam * (xx - L / 4))) - 2 * np.pi)
        err = float(np.max(np.abs(last[:, 2] - exact)))
        need(err < KINK_SHAPE_TOL, f"kink shape error {err:.3e} >= {KINK_SHAPE_TOL}")
        return {"energy_drift": summary["energy_drift"], "kink_shape_error": err}

    if name == "chain_fit":
        report = json.loads((ctx["outdir"] / "report.json").read_text())
        need(report["modes"] == p["modes"], "report modes differ from the config")
        # exact lattice rates from the ring coupling, summed here directly
        n = p["n_particles"]
        d = np.arange(1, n // 2 + 1, dtype=float)
        mult = np.where(d == n / 2, 1.0, 2.0)  # antipode appears once
        for m, rate, rate_meas in zip(p["modes"], report["rate_lattice"],
                                      report["rate_measured"]):
            k = 2 * math.pi * m / n
            exact = float(np.sum(mult * (np.cos(k * d) - 1.0) / d ** 2.5))
            need(abs(rate - exact) <= 1e-9 * abs(exact),
                 f"mode {m}: lattice rate {rate} != {exact}")
            dev = abs(rate_meas - exact) / abs(exact)
            need(dev < LATTICE_DEV_TOL,
                 f"mode {m}: fitted rate deviates {dev:.3e} from the lattice")
        return {"max_deviation_vs_lattice": max(report["deviation_vs_lattice"])}

    # newton_pulse: residual recomputed here from solution.csv
    need(summary["converged"], "Newton solve did not converge")
    data = np.loadtxt(ctx["outdir"] / "solution.csv", delimiter=",", skiprows=1)
    u = data[:, 1]
    n = len(u)
    st = ctx["cfg"].section("stationary")
    length = ctx["cfg"].section("grid")["length"]
    k = 2 * math.pi * np.fft.rfftfreq(n, d=length / n)
    riesz = np.fft.irfft(-k ** st["alpha"] * np.fft.rfft(u), n=n)
    res = float(np.max(np.abs(st["g"] * riesz + st["a"] * u + st["b"] * u ** 3)))
    need(res <= st["tol"], f"stationary residual {res:.3e} > {st['tol']}")
    peak = float(np.max(u))
    need(abs(peak - PULSE_PEAK) < PULSE_PEAK_TOL,
         f"peak {peak:.4f} is not the pulse peak {PULSE_PEAK}")
    need(float(np.min(np.abs(u))) < 0.1, "solution is not a localised pulse")
    return {"residual": res, "peak": peak, "iterations": summary["iterations"]}
