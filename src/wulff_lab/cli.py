"""Batch command-line interface.

Usage: wulff-lab <task> --config <path> [--out <dir>] [--seed <int>]

Tasks: verify-identities, flow, deficits, stability-sweep, convergence.
Each run reads a JSON configuration, checks every key of it against one
schema, writes a summary JSON (plus a trace or sweep CSV where applicable)
into the output directory, and exits 0 when all enabled checks pass, 2 on a
check failure, 1 on input or runtime errors.
Identical configuration and seed produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import numbers
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .hypersurface import (
    HARMONIC_KEYS,
    MeanConvexityError,
    geometry,
    surface_from_spec,
    wulff_surface,
)
from .iamcf import FlowConfig, monotonicity_report, run_flow
from .minkowski import make_wulff, norm_from_spec, verify_duality
from .sphere_grid import make_grid
from .stability import (
    full_deficit_report,
    stability_sweep,
    write_sweep_csv,
)

SCHEMA_VERSION = 2

TASKS = ("verify-identities", "flow", "deficits", "stability-sweep",
         "convergence")

_DEFAULT_TOLERANCES = {
    "duality_closed_form": 1e-10,
    "duality_perturbed": 1e-6,
    "wulff_identity": 1e-6,
    "deficit_negativity": 1e-8,
    "monotonicity": 1e-8,
    "perimeter_conservation": 1e-3,
    "convergence_residual": 1e-8,
}

_FLOW_DEFAULTS = {"t_end": 1.0, "cfl": 0.8, "max_steps": 500_000,
                  "cadence": 0.05}
_GRID_DEFAULTS = {"dim": 1, "resolution": 256}


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _settings(cfg, key, defaults):
    """The defaults overridden by the config's `key` section."""
    return {**defaults, **cfg.get(key, {})}


def _section(cfg, key):
    """A section the task cannot run without."""
    if key not in cfg:
        raise ValueError(f"missing section {key!r}")
    return cfg[key]


def _real(value):
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def _finite_real(value):
    return _real(value) and math.isfinite(value)


def _integer(value):
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


def _reals(low=-math.inf):
    """Test for a non-empty list of finite numbers, each >= low."""
    return lambda v: (isinstance(v, list) and v != []
                      and all(_finite_real(x) and x >= low for x in v))


def _tagged(tag, variants):
    """The schema of an object whose keys depend on the value of one of
    them, its tag: `variants` maps each tag value to the other keys of that
    variant, with None for an object that leaves the tag out."""
    def variant(value, path):
        name = value.get(tag)
        if (name is None or isinstance(name, str)) and name in variants:
            return {tag: _STRING, **variants[name]} if name else variants[name]
        names = ", ".join(repr(n) for n in variants if n is not None)
        raise ValueError(f"{path}.{tag} must be one of {names}, got {name!r}")
    return variant


# The config schema.  A key maps to a (description, test) leaf, to the schema
# of a nested object, to a one-element list: the schema of every entry of a
# list of objects, or to a `_tagged` object, which takes only the keys its
# family or kind reads.
_INTEGER = ("an integer", _integer)
_REAL = ("a finite number", _finite_real)
_REALS = ("a non-empty list of finite numbers", _reals())
_STRING = ("a string", lambda v: isinstance(v, str))
_DIM = ("1 or 2", lambda v: _integer(v) and v in (1, 2))
_SEED = ("a non-negative integer", lambda v: _integer(v) and v >= 0)
# a non-finite matrix passes here; EllipsoidNorm names it
_MATRIX = ("a square list of lists of numbers",
           lambda m: isinstance(m, list) and m != [] and all(
               isinstance(row, list) and len(row) == len(m)
               and all(map(_real, row)) for row in m))
_K = {"k": _INTEGER, "degree": _INTEGER, "delta": _REAL}
# a harmonic without a kind is a circle harmonic or the sphere's sectoral
# default; `run` then checks its keys against the grid dimension
_HARMONIC = _tagged("kind", {None: {**_K, "phase": _REAL}, "sectoral": _K,
                             "zonal": _K, "product": {"delta": _REAL}})
_SCHEMA = {
    "task": _STRING,
    "seed": _SEED,
    "output_dir": _STRING,
    "tolerances": dict.fromkeys(_DEFAULT_TOLERANCES, _REAL),
    "grid": {"dim": _DIM, "resolution": (
        "an integer >= 8", lambda v: _integer(v) and v >= 8)},
    # an ellipsoid's dimension is its matrix's
    "norm": _tagged("family", {
        "euclidean": {"dim": _DIM},
        "ellipsoid": {"matrix": _MATRIX},
        # without a kind, the harmonic is the dimension's default
        "perturbed": {"dim": _DIM, "epsilon": _REAL,
                      "harmonic": _tagged("kind", dict.fromkeys(
                          (None, "sectoral", "product"),
                          {"degree": _INTEGER}))}}),
    "surface": _tagged("kind", {
        "sphere": {"radius": _REAL, "center": _REALS},
        "wulff": {"scale": _REAL, "center": _REALS},
        "radial-fourier": {"r0": _REAL, "harmonics": [_HARMONIC],
                           "center": _REALS}}),
    "flow": {k: _INTEGER if isinstance(v, int) else _REAL
             for k, v in _FLOW_DEFAULTS.items()},
    "family": {"deltas": _REALS, "r0": _REAL, "harmonics": [_HARMONIC]},
    "center": _REALS,
    "p_exponents": ("a non-empty list of finite numbers >= 1", _reals(1.0)),
    # an order fit needs two points
    "resolutions": ("a list of at least two distinct integers >= 8",
                    lambda v: (isinstance(v, list)
                               and all(_integer(r) and r >= 8 for r in v)
                               and len(set(v)) >= 2)),
    "samples": ("a positive integer", lambda v: _integer(v) and v > 0),
}


def _validate(value, schema, path):
    """Check `value` against `schema` at every depth; an error names the
    key path of the offending value, for example `surface.harmonics[0].k`."""
    if callable(schema) and isinstance(value, dict):
        schema = schema(value, path)
    if isinstance(schema, tuple):
        description, test = schema
        if not test(value):
            raise ValueError(f"{path} must be {description}, got {value!r}")
    elif isinstance(schema, list):
        if not isinstance(value, list):
            raise ValueError(f"{path} must be a list, got {value!r}")
        for i, entry in enumerate(value):
            _validate(entry, schema[0], f"{path}[{i}]")
    elif not isinstance(value, dict):
        raise ValueError(f"{path or 'config'} must be a JSON object, "
                         f"got {value!r}")
    else:
        for key, entry in value.items():
            name = f"{path}.{key}" if path else key
            if key not in schema:
                raise ValueError(f"unknown key {name}")
            _validate(entry, schema[key], name)


def _write_summary(out_dir, task, cfg, seed, results, checks):
    status = "pass" if all(c["passed"] for c in checks.values()) else "fail"
    summary = {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "task": task,
        "seed": seed,
        "config": cfg,
        "results": results,
        "checks": checks,
        "status": status,
    }
    path = Path(out_dir) / "summary.json"
    with open(path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return status


def _check(value, tol):
    return {"value": float(value), "tolerance": float(tol),
            "passed": bool(value <= tol)}


# -------------------------------------------------------------------- tasks


def _task_verify_identities(cfg, norm, grid, tol, out_dir, seed):
    rng = np.random.default_rng(seed)
    n_samples = cfg.get("samples", 1000)
    report = verify_duality(norm, n_samples, rng)
    wulff = make_wulff(norm, grid)
    dual_tol = (tol["duality_perturbed"] if norm.family == "perturbed"
                else tol["duality_closed_form"])
    checks = {
        "duality_residuals": _check(report.max_residual, dual_tol),
        "wulff_identity": _check(wulff.identity_residual, tol["wulff_identity"]),
    }
    results = {
        "duality": asdict(report),
        "wulff": {"volume": wulff.volume, "perimeter": wulff.perimeter,
                  "identity_residual": wulff.identity_residual},
        "norm_positivity": float(norm.positivity),
    }
    return results, checks


def _task_flow(cfg, norm, surface, tol, out_dir, seed):
    flow_cfg = _settings(cfg, "flow", _FLOW_DEFAULTS)
    config = FlowConfig(
        norm=norm, surface=surface,
        t_end=float(flow_cfg["t_end"]),
        cfl=float(flow_cfg["cfl"]),
        max_steps=int(flow_cfg["max_steps"]),
        center=cfg.get("center"),
        cadence=float(flow_cfg["cadence"]))
    trace, final = run_flow(config)
    trace.write_csv(Path(out_dir) / "trace.csv")
    mono = monotonicity_report(trace)
    summary = trace.summary()
    checks = {
        "monotonicity": _check(mono.max_increment, tol["monotonicity"]),
        "rescaled_perimeter": _check(summary["rescaled_perimeter_residual"],
                                     tol["perimeter_conservation"]),
        "barrier_preserved": {"value": summary["barrier_preserved"],
                              "tolerance": True,
                              "passed": bool(summary["barrier_preserved"])},
    }
    results = {"trace_summary": summary, "monotonicity": asdict(mono),
               "final_radial_range": [float(np.min(final.r)),
                                      float(np.max(final.r))]}
    return results, checks


def _task_deficits(cfg, norm, surface, tol, out_dir, seed):
    p_list = [float(p) for p in cfg.get("p_exponents", [2.0])]
    report = full_deficit_report(surface, norm, cfg.get("center"), p_list)
    worst_p = min(report.eps_p.values()) if report.eps_p else 0.0
    checks = {
        "eps1_nonnegative": _check(-report.eps1, tol["deficit_negativity"]),
        "eps_p_nonnegative": _check(-worst_p, tol["deficit_negativity"]),
        "gap_nonnegative": _check(-report.gap, tol["deficit_negativity"]),
        "qw_deficit_nonnegative": _check(-report.qw_deficit,
                                         tol["deficit_negativity"]),
    }
    return {"deficits": asdict(report)}, checks


def _task_stability_sweep(cfg, norm, grid, tol, out_dir, seed):
    family = cfg.get("family", {"deltas": [0.05, 0.1, 0.2, 0.4]})
    p = float(cfg.get("p_exponents", [2.0])[0])
    rows = stability_sweep(family, norm, grid, p, cfg.get("center"))
    write_sweep_csv(rows, Path(out_dir) / "sweep.csv")
    finite = np.all(np.isfinite([(r["ratio_alpha_f1"], r["ratio_dist_f2"])
                                 for r in rows if not r["zero_over_zero"]]))
    worst_eps = min(min(r["eps1"], r["eps_p"]) for r in rows)
    checks = {
        "ratios_finite": {"value": bool(finite), "tolerance": True,
                          "passed": bool(finite)},
        "deficits_nonnegative": _check(-worst_eps, tol["deficit_negativity"]),
    }
    return {"rows": rows}, checks


def _task_convergence(cfg, norm, dim, tol, out_dir, seed):
    resolutions = cfg.get(
        "resolutions", [32, 64, 128, 256] if dim == 1 else [12, 16, 24, 32])
    rows = []
    for res in resolutions:
        grid = make_grid(dim, res)
        wulff = make_wulff(norm, grid)
        surf = wulff_surface(norm, grid)
        cache = geometry(surf, norm)
        hf_err = float(np.max(np.abs(cache.aniso_mean_curv - grid.dim)))
        e = np.zeros(grid.dim + 1)
        e[-1] = 1.0
        lin = grid.nodes @ e
        grad = grid.gradient(lin)
        exact = e[None, :] - lin[:, None] * grid.nodes
        grad_err = float(np.max(np.linalg.norm(grad - exact, axis=1)))
        rows.append({"resolution": res,
                     "wulff_identity": wulff.identity_residual,
                     "mean_curvature_error": hf_err,
                     "gradient_error": grad_err})
    errors = ("wulff_identity", "mean_curvature_error", "gradient_error")
    with open(Path(out_dir) / "convergence.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(("resolution",) + errors)
        for row in rows:
            writer.writerow([row["resolution"]]
                            + [repr(float(row[k])) for k in errors])

    def order(key):
        errs = np.array([max(r[key], 1e-16) for r in rows], dtype=float)
        hs = 1.0 / np.array(resolutions, dtype=float)
        if errs[-1] < tol["convergence_residual"]:
            return float("inf")  # saturated at roundoff
        fit = np.polyfit(np.log(hs), np.log(errs), 1)
        return float(fit[0])

    orders = {key: order(key) for key in errors}
    ok = all(o >= 2.0 for o in orders.values())
    reported = {k: (None if np.isinf(v) else v) for k, v in orders.items()}
    checks = {"orders_at_least_two": {"value": reported, "tolerance": 2.0,
                                      "passed": bool(ok)}}
    return {"rows": rows, "orders": reported}, checks


# each task and what it acts on, built by `run` before anything is written:
# the config's grid, its surface on that grid, or only the grid dimension
# (convergence builds one grid per resolution)
_TASK_FN = {
    "verify-identities": (_task_verify_identities, "grid"),
    "flow": (_task_flow, "surface"),
    "deficits": (_task_deficits, "surface"),
    "stability-sweep": (_task_stability_sweep, "grid"),
    "convergence": (_task_convergence, "dim"),
}


def run(task, config_path, out_dir=None, seed=None):
    """Execute one task; returns the process exit code."""
    try:
        cfg = _load_config(config_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        # the whole config is checked, and the norm, grid and surface
        # built, before anything is written; center's length, the norm's
        # dimension, family.deltas and the keys of a harmonic span fields
        _validate(cfg, _SCHEMA, "")
        if cfg.get("task", task) != task:
            raise ValueError(f"config task {cfg['task']!r} does not match "
                             f"{task!r}")
        center = cfg.get("center")
        grid_cfg = _settings(cfg, "grid", _GRID_DEFAULTS)
        dim = grid_cfg["dim"]
        size = dim + 1
        if center is not None and len(center) != size:
            raise ValueError(f"center must be a list of {size} finite "
                             f"numbers, got {center!r}")
        if "deltas" not in cfg.get("family", {"deltas": None}):
            raise ValueError("family.deltas is required")
        for section in ("surface", "family"):
            for i, h in enumerate(cfg.get(section, {}).get("harmonics", [])):
                wrong = [key for key in h if key not in HARMONIC_KEYS[dim]]
                if wrong:
                    raise ValueError(f"{section}.harmonics[{i}].{wrong[0]} "
                                     f"is not a key of a dim-{dim} harmonic")
                if "k" in h and "degree" in h:
                    raise ValueError(f"{section}.harmonics[{i}].degree is "
                                     "another name for k: give one of them")
        if task == "stability-sweep" and len(cfg.get("p_exponents", [])) > 1:
            raise ValueError("p_exponents must hold one exponent for "
                             "stability-sweep, got "
                             f"{cfg['p_exponents']!r}")
        seed = cfg.get("seed", 0) if seed is None else seed
        _validate(seed, _SEED, "seed")
        seed = int(seed)
        out_dir = Path(cfg.get("output_dir", ".") if out_dir is None
                       else out_dir)
        norm = norm_from_spec(_section(cfg, "norm"))
        if norm.ambient_dim != size:
            raise ValueError(f"norm acts on dimension {norm.ambient_dim}, "
                             f"the grid needs {size}")
        task_fn, acts_on = _TASK_FN[task]
        target = dim
        if acts_on != "dim":
            target = make_grid(**grid_cfg)
        if acts_on == "surface":
            target = surface_from_spec(_section(cfg, "surface"), target, norm)
        out_dir.mkdir(parents=True, exist_ok=True)
        results, checks = task_fn(
            cfg, norm, target,
            _settings(cfg, "tolerances", _DEFAULT_TOLERANCES), out_dir, seed)
    except (KeyError, ValueError, MeanConvexityError, RuntimeError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    status = _write_summary(out_dir, task, cfg, seed, results, checks)
    for name, check in checks.items():
        tag = "PASS" if check["passed"] else "FAIL"
        print(f"[{tag}] {name}: {check['value']}")
    return 0 if status == "pass" else 2


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="wulff-lab",
        description="anisotropic flow and isoperimetric inequality checks")
    parser.add_argument("task", choices=TASKS)
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed (overrides the config)")
    args = parser.parse_args(argv)
    sys.exit(run(args.task, args.config, args.out, args.seed))


if __name__ == "__main__":
    main()
