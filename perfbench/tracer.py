"""Span tracing of fracdyn from outside the program.

The tracer wraps named fracdyn functions and replaces each one wherever a
caller looks it up: in every ``fracdyn`` module namespace that holds it
(``cli`` imports ``evolve_sine_gordon`` by name, ``fracops`` imports
``l1_apply``, ``chain`` imports ``mittag_leffler``), or on its class for a
method.  ``remove`` puts the originals back.  The program itself carries no
instrumentation.

Every call of a wrapped function records a span ``(name, start, end,
parent)``.  Spans stay in memory; ``write`` saves them once, at the end.  A
span's self time is its duration minus the durations of its direct
children.
"""

import json
import sys
from time import perf_counter

# span name -> (module, qualified name of the function in that module)
TARGETS = {
    "cli.load_config": ("fracdyn.cli", "load_config"),
    "cli.write_csv": ("fracdyn.cli", "write_csv"),
    "cli.write_json": ("fracdyn.cli", "write_json"),
    "fields.evolve_field": ("fracdyn.fields", "evolve_field"),
    "fields.guard": ("fracdyn.fields", "_guard"),
    "fields.explicit_terms": ("fracdyn.fields", "_explicit_terms"),
    "fields.residual": ("fracdyn.fields", "residual"),
    "fields.stationary_fgle_solve": ("fracdyn.fields", "stationary_fgle_solve"),
    "fields.stationary_residual": ("fracdyn.fields", "stationary_residual"),
    "fracops.l1_weights": ("fracdyn.fracops", "l1_weights"),
    "fracops.caputo_left_l1": ("fracdyn.fracops", "caputo_left_l1"),
    "fracops.l1_apply": ("fracdyn.fracops", "l1_apply"),
    "fracops.mittag_leffler": ("fracdyn.fracops", "mittag_leffler"),
    "chain.continuum_limit_compare": ("fracdyn.chain", "continuum_limit_compare"),
    "chain.evolve_chain": ("fracdyn.chain", "evolve_chain"),
    "chain.chain_guard": ("fracdyn.chain", "_chain_guard"),
    "chain.fit_mode_rate": ("fracdyn.chain", "_fit_mode_rate"),
    "kernels.ring_kernel": ("fracdyn.kernels", "LatticeCoupling.ring_kernel"),
    "kernels.renormalized_constant": ("fracdyn.kernels", "renormalized_constant"),
}

ROOT_SPAN = "run"


class Tracer:
    def __init__(self):
        self.names = [ROOT_SPAN, *TARGETS]
        self.spans = []          # (name index, start, end, parent index or -1)
        self.stack = [-1]
        self.history_bytes = 0
        self.newton_iters = 0
        self._patches = []       # (owner, attribute, original)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, name_idx, fn):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid] = (name_idx, t0, t1, parent)
        return traced

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self):
        """Wrap every target where its callers look it up.

        Returns the span names whose function no longer exists; they are
        reported as zero.
        """
        from fracdyn import fields
        modules = [m for n, m in sys.modules.items()
                   if n == "fracdyn" or n.startswith("fracdyn.")]

        def patch_everywhere(orig, new):
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, new)

        missing = []
        for idx, (name, (module, qualname)) in enumerate(TARGETS.items(), start=1):
            owner = sys.modules[module]
            *cls, attr = qualname.split(".")
            if cls:
                owner = getattr(owner, cls[0], None)
            orig = getattr(owner, attr, None)
            if not callable(orig):
                missing.append(name)
            elif cls:
                self._patch(owner, attr, self._wrap(idx, owner.__dict__[attr]))
            else:
                patch_everywhere(orig, self._wrap(idx, orig))

        # counters read from results, without a span of their own
        from_initial = fields.FieldState.__dict__["from_initial"].__func__

        def counted_from_initial(cls, *args, **kwargs):
            state = from_initial(cls, *args, **kwargs)
            self.history_bytes += state.history.nbytes
            return state
        self._patch(fields.FieldState, "from_initial",
                    classmethod(counted_from_initial))

        if "fields.stationary_fgle_solve" not in missing:
            solve = fields.stationary_fgle_solve   # the traced wrapper

            def counted_solve(*args, **kwargs):
                result = solve(*args, **kwargs)
                self.newton_iters += result.n_iter
                return result
            patch_everywhere(solve, counted_solve)
        return missing

    def remove(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def root(self, fn, *args):
        """Call ``fn(*args)`` inside the root span."""
        return self._wrap(0, fn)(*args)

    # ------------------------------------------------------------ analysis

    def totals(self):
        """Per-name self time, call count, and the root's duration.

        Raises ``ValueError`` if a span's children cover more than the span
        itself or the self times inside the root do not add up to its
        duration, either of which would mean time counted twice.
        """
        n = len(self.spans)
        child = [0.0] * n
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_s = dict.fromkeys(self.names, 0.0)
        calls = dict.fromkeys(self.names, 0)
        roots = []
        in_root = [False] * n
        root_self_sum = 0.0
        for sid, (idx, t0, t1, parent) in enumerate(self.spans):
            dur = t1 - t0
            if child[sid] > dur * (1 + 1e-9) + 1e-9:
                raise ValueError(f"children of {self.names[idx]} cover "
                                 f"{child[sid]:.6f} s of {dur:.6f} s")
            name = self.names[idx]
            self_s[name] += dur - child[sid]
            calls[name] += 1
            if idx == 0:
                roots.append(dur)
            in_root[sid] = idx == 0 or (parent >= 0 and in_root[parent])
            if in_root[sid]:
                root_self_sum += dur - child[sid]
        if len(roots) != 1:
            raise ValueError(f"expected one root span, found {len(roots)}")
        if abs(root_self_sum - roots[0]) > 1e-6 * roots[0] + 1e-9:
            raise ValueError(f"self times add up to {root_self_sum:.6f} s, "
                             f"not the traced run's {roots[0]:.6f} s")
        return self_s, calls, roots[0]

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"],
                       "names": self.names, "spans": self.spans}, fh)
