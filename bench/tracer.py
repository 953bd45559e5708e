"""Spans and counts at the module boundaries of wulff_lab, recorded from outside.

`Tracer.installed()` replaces the public functions of sphere_grid,
minkowski, hypersurface, iamcf, stability and cli with timing wrappers.  A
function is patched in its defining module and under every other name that
callers resolve at call time (for example `iamcf.geometry` and
`stability.wulff_profile_about`); methods are patched on the class that
defines them.  Everything is restored on exit, so untraced rounds run the
library untouched.

A span's self time is its duration minus the time covered by its child
spans.  `monotonicity_report` and the CSV writers are not wrapped: their
time counts as the CLI's own work.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
from collections import Counter
from time import perf_counter

import numpy as np

# Wrapped names per layer: module-level functions and (class, methods).
_FUNCTIONS = {
    "sphere_grid": ("make_grid",),
    "minkowski": ("norm_from_spec", "make_wulff", "verify_duality"),
    "hypersurface": ("geometry", "volume", "flux_volume", "aniso_perimeter",
                     "weighted_momentum", "q_functional", "wulff_q_value",
                     "surface_from_spec", "fourier_surface", "sphere_surface",
                     "wulff_surface"),
    "iamcf": ("radial_speed", "stable_dt", "step", "run_flow"),
    "stability": ("deficit_thm11", "deficit_pmomentum", "pmomentum_chain",
                  "wulff_profile_about", "asymmetry_index",
                  "hausdorff_to_wulff", "gap_integral", "quantitative_wulff",
                  "moduli", "full_deficit_report", "stability_sweep"),
    "cli": ("run",),
}
_GRID_METHODS = ("angle_derivatives", "latlon_derivatives", "gradient",
                 "laplacian", "spectral_filter")
_NORM_METHODS = ("value", "grad", "hess", "dual_value", "dual_grad",
                 "wulff_radius")
_NORM_CLASSES = ("MinkowskiNorm", "EuclideanNorm", "EllipsoidNorm",
                 "PerturbedNorm")
_DUAL = ("minkowski.dual_value", "minkowski.dual_grad")


def _rows_none(args):
    return 0


def _rows_grid_field(args):
    return args[0].n_nodes


def _rows_norm(args):
    return np.size(args[1]) // args[0].ambient_dim


def _rows_surface(args):
    return args[0].grid.n_nodes


class Tracer:
    """Per-function call counts, rows, total and self time, plus spans."""

    def __init__(self):
        self.stats = {}          # key -> [calls, rows, total_s, self_s]
        self.spans = []          # (id, parent, item, key, start, end)
        self.item = None
        self.geometry_in_flow = 0
        self.dual_repeat_rows = 0
        self.asymmetry = []      # (method, converged) per asymmetry_index call
        self._stack = []         # [span id, child time] per open span
        self._active = Counter()
        self._prev_dual = None
        self._next_id = 0

    # ------------------------------------------------------------ recording

    def _call(self, key, fn, rows_of, args, kwargs):
        if key in _DUAL:
            x = np.asarray(args[1])
            prev = self._prev_dual
            if prev is not None and prev.shape == x.shape and np.array_equal(prev, x):
                self.dual_repeat_rows += _rows_norm(args)
            self._prev_dual = x.copy()
        elif key == "hypersurface.geometry" and self._active["iamcf.run_flow"]:
            self.geometry_in_flow += 1
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        self._active[key] += 1
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self._active[key] -= 1
            dur = t1 - t0
            if self._stack:
                self._stack[-1][1] += dur
            st = self.stats.setdefault(key, [0, 0, 0.0, 0.0])
            st[0] += 1
            st[1] += rows_of(args)
            st[2] += dur
            st[3] += dur - frame[1]
            self.spans.append((sid, parent, self.item, key, t0, t1))
        if key == "stability.asymmetry_index":
            self.asymmetry.append((result.method, bool(result.converged)))
        return result

    def _wrapper(self, key, fn, rows_of):
        call = self._call

        def wrapper(*args, **kwargs):
            return call(key, fn, rows_of, args, kwargs)

        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # ------------------------------------------------------------- patching

    @contextlib.contextmanager
    def installed(self):
        """Patch every wrapped name for the duration of the block."""
        undo = []
        try:
            modules = [m for name, m in list(sys.modules.items())
                       if name == "wulff_lab" or name.startswith("wulff_lab.")]
            for layer, names in _FUNCTIONS.items():
                mod = importlib.import_module(f"wulff_lab.{layer}")
                for name in names:
                    fn = getattr(mod, name)
                    key = f"{layer}.{name}"
                    rows_of = (_rows_surface if key == "hypersurface.geometry"
                               else _rows_none)
                    wrapped = self._wrapper(key, fn, rows_of)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is fn:
                                undo.append((m, attr, fn))
                                setattr(m, attr, wrapped)
            grid_mod = importlib.import_module("wulff_lab.sphere_grid")
            mink = importlib.import_module("wulff_lab.minkowski")
            classes = [(grid_mod.SphereGrid, _GRID_METHODS, "sphere_grid",
                        _rows_grid_field)]
            classes += [(getattr(mink, c), _NORM_METHODS, "minkowski", _rows_norm)
                        for c in _NORM_CLASSES]
            for cls, methods, layer, rows_of in classes:
                for name in methods:
                    fn = cls.__dict__.get(name)
                    if fn is None:
                        continue
                    undo.append((cls, name, fn))
                    setattr(cls, name,
                            self._wrapper(f"{layer}.{name}", fn, rows_of))
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    # -------------------------------------------------------------- output

    def write_spans(self, path):
        """Write spans as CSV: id, parent id, item, name, start/end in us."""
        t_ref = min((s[4] for s in self.spans), default=0.0)
        with open(path, "w") as fh:
            fh.write("id,parent,item,name,start_us,end_us\n")
            for sid, parent, item, key, t0, t1 in sorted(self.spans):
                fh.write(f"{sid},{parent},{item},{key},"
                         f"{(t0 - t_ref) * 1e6:.1f},{(t1 - t_ref) * 1e6:.1f}\n")


# --------------------------------------------------------------------------
# Layer metrics and reconciliation
# --------------------------------------------------------------------------

_DERIV = ("sphere_grid.angle_derivatives", "sphere_grid.latlon_derivatives",
          "sphere_grid.gradient")
_FUNCTIONALS = ("hypersurface.volume", "hypersurface.q_functional",
                "hypersurface.weighted_momentum", "hypersurface.aniso_perimeter")
_DEFICIT = ("stability.deficit_thm11", "stability.deficit_pmomentum",
            "stability.pmomentum_chain")

# Counts that must repeat exactly between traced rounds of one run.
COUNT_METRICS = (
    "sphere_grid.deriv_calls", "sphere_grid.filter_calls",
    "minkowski.hess_rows", "minkowski.dual_calls", "minkowski.dual_rows",
    "minkowski.dual_repeat_frac", "hypersurface.geometry_calls",
    "iamcf.steps", "iamcf.geometry_per_step", "stability.objective_evals",
    "stability.asymmetry_mc_frac", "stability.asymmetry_unconverged",
    "cli.items", "cli.bytes_written",
)


def layer_metrics(tracer, flow_time, bytes_written):
    """Per-layer counts and self times of one traced round."""
    st = tracer.stats

    def calls(*keys):
        return sum(st[k][0] for k in keys if k in st)

    def rows(*keys):
        return sum(st[k][1] for k in keys if k in st)

    def total(*keys):
        return sum((st[k][2] for k in keys if k in st), 0.0)

    def self_s(*keys):
        return sum((st[k][3] for k in keys if k in st), 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    steps = calls("iamcf.step")
    dual_rows = rows(*_DUAL)
    asym = tracer.asymmetry
    return {
        "sphere_grid.deriv_calls": calls(*_DERIV),
        "sphere_grid.deriv_self_s": self_s(*_DERIV),
        "sphere_grid.filter_calls": calls("sphere_grid.spectral_filter"),
        "sphere_grid.filter_self_s": self_s("sphere_grid.spectral_filter"),
        "minkowski.primal_self_s": self_s("minkowski.value", "minkowski.grad"),
        "minkowski.hess_rows": rows("minkowski.hess"),
        "minkowski.hess_self_s": self_s("minkowski.hess"),
        "minkowski.dual_calls": calls(*_DUAL),
        "minkowski.dual_rows": dual_rows,
        "minkowski.dual_self_s": self_s(*_DUAL),
        "minkowski.dual_us_per_row": 1e6 * ratio(self_s(*_DUAL), dual_rows),
        "minkowski.dual_repeat_frac": ratio(tracer.dual_repeat_rows, dual_rows),
        "hypersurface.geometry_calls": calls("hypersurface.geometry"),
        "hypersurface.geometry_self_s": self_s("hypersurface.geometry"),
        "hypersurface.geometry_us_per_node": 1e6 * ratio(
            total("hypersurface.geometry"), rows("hypersurface.geometry")),
        "hypersurface.functional_self_s": self_s(*_FUNCTIONALS),
        "iamcf.steps": steps,
        "iamcf.steps_per_flow_time": ratio(steps, flow_time),
        # run_flow makes one geometry call before its first step
        "iamcf.geometry_per_step": ratio(
            tracer.geometry_in_flow - calls("iamcf.run_flow"), steps),
        "iamcf.step_self_s": self_s("iamcf.step"),
        "iamcf.stable_dt_self_s": self_s("iamcf.stable_dt"),
        "iamcf.run_flow_self_s": self_s("iamcf.run_flow"),
        "stability.asymmetry_self_s": self_s("stability.asymmetry_index",
                                             "stability.wulff_profile_about"),
        "stability.objective_evals": calls("stability.wulff_profile_about"),
        "stability.asymmetry_mc_frac": ratio(
            sum(m == "monte-carlo" for m, _ in asym), len(asym)),
        "stability.asymmetry_unconverged": sum(not c for _, c in asym),
        "stability.hausdorff_self_s": self_s("stability.hausdorff_to_wulff"),
        "stability.gap_self_s": self_s("stability.gap_integral"),
        "stability.deficit_self_s": self_s(*_DEFICIT),
        "cli.items": calls("cli.run"),
        "cli.self_s": self_s("cli.run"),
        "cli.bytes_written": bytes_written,
    }


def function_table(tracer):
    """calls, rows, total and self seconds per wrapped function."""
    return {k: {"calls": v[0], "rows": v[1], "total_s": v[2], "self_s": v[3]}
            for k, v in sorted(tracer.stats.items())}


def table_delta(before, after):
    """The part of function table `after` recorded since `before`."""
    zero = {"calls": 0, "rows": 0, "total_s": 0.0, "self_s": 0.0}
    delta = {k: {f: v[f] - before.get(k, zero)[f] for f in zero}
             for k, v in after.items()}
    return {k: v for k, v in delta.items() if v["calls"]}


def reconcile(item, summary, counts, asymmetry):
    """Traced counts of one item against facts its summary.json reports.

    Identities, from the code paths the CLI runs:
    - flow: run_flow calls geometry once before the loop and twice per step
      (the Heun stage and the accepted surface); monotonicity_report adds one
      for the dQ/dt formula.  spectral_filter runs on the initial field and
      twice per step; step and stable_dt run once per step.
    - stability-sweep: make_wulff calls geometry once; each row calls it for
      the deficits and again in quantitative_wulff's perimeter.
    - deficits: make_wulff, the report's own cache and quantitative_wulff's
      perimeter each call geometry once; the traced asymmetry result matches
      the reported method and convergence.
    """
    def n(key):
        return counts.get(key, 0)

    expect = {}
    results = summary["results"]
    if item.task == "flow":
        steps = results["trace_summary"]["steps"]
        expect = {"iamcf.run_flow": 1, "iamcf.step": steps,
                  "iamcf.stable_dt": steps,
                  "hypersurface.geometry": 2 * steps + 2,
                  "sphere_grid.spectral_filter": 2 * steps + 1}
    elif item.task == "stability-sweep":
        n_rows = len(results["rows"])
        expect = {"iamcf.step": 0, "stability.asymmetry_index": n_rows,
                  "stability.hausdorff_to_wulff": n_rows,
                  "hypersurface.geometry": 2 * n_rows + 1}
    elif item.task == "deficits":
        expect = {"iamcf.step": 0, "stability.asymmetry_index": 1,
                  "stability.hausdorff_to_wulff": 1,
                  "stability.gap_integral": 1, "hypersurface.geometry": 3}
    misses = [f"{k}: traced {n(k)} != expected {v}"
              for k, v in expect.items() if n(k) != v]
    if item.task == "deficits":
        d = results["deficits"]
        reported = [(d["asymmetry_method"], bool(d["asymmetry_converged"]))]
        if asymmetry != reported:
            misses.append(f"asymmetry traced {asymmetry} != reported {reported}")
    return misses
