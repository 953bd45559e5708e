"""Batch command-line interface.

Usage: wulff-lab <task> --config <path> [--out <dir>] [--seed <int>]

Tasks: verify-identities, flow, deficits, stability-sweep, convergence.
Each run reads a JSON configuration, writes a summary JSON (plus a trace or
sweep CSV where applicable) into the output directory, and exits 0 when all
enabled checks pass, 2 on a check failure, 1 on input or runtime errors.
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


def _load_config(path):
    with open(path) as fh:
        return json.load(fh)


def _build_grid(cfg):
    grid_cfg = cfg.get("grid", {})
    return make_grid(int(grid_cfg.get("dim", 1)),
                     int(grid_cfg.get("resolution", 256)))


def _finite_real(value):
    return (not isinstance(value, bool) and isinstance(value, numbers.Real)
            and math.isfinite(value))


def _integer(value):
    return not isinstance(value, bool) and isinstance(value, numbers.Integral)


_INTEGER, _REAL = "an integer", "a finite number"
_TYPE_TESTS = {_INTEGER: _integer, _REAL: _finite_real,
               "a string": lambda v: isinstance(v, str)}
# the keys a surface or family harmonic may hold, and their types
_HARMONIC_KEYS = {"k": _INTEGER, "degree": _INTEGER, "delta": _REAL,
                  "phase": _REAL, "kind": "a string"}


def _object(section, key, path=""):
    """`section[key]` ({} when absent), which must be a JSON object; `path`
    prefixes the key in the error message."""
    value = section.get(key, {})
    if not isinstance(value, dict):
        raise ValueError(f"{path}{key} must be an object, got {value!r}")
    return value


def _check_keys(section, types, path):
    """Every key of the object `section` must be one of `types`, its value
    of that type; `path` names the object in the error message."""
    for key, value in section.items():
        if key not in types:
            raise ValueError(f"unknown key {path}.{key}")
        if not _TYPE_TESTS[types[key]](value):
            raise ValueError(f"{path}.{key} must be {types[key]}, "
                             f"got {value!r}")


def _settings(cfg, key, defaults):
    """The defaults overridden by the config's `key` section, whose keys
    must be those of the defaults, each of the default's type."""
    given = _object(cfg, key)
    _check_keys(given, {k: _INTEGER if isinstance(v, int) else _REAL
                        for k, v in defaults.items()}, key)
    return {**defaults, **given}


def _check_harmonics(harmonics, path):
    if not (isinstance(harmonics, list)
            and all(isinstance(h, dict) for h in harmonics)):
        raise ValueError(f"{path} must be a list of objects, "
                         f"got {harmonics!r}")
    for i, h in enumerate(harmonics):
        _check_keys(h, _HARMONIC_KEYS, f"{path}[{i}]")


def _check_reals(values, path, low=-math.inf):
    """`values` must be a non-empty list of finite numbers, each >= low."""
    if not (isinstance(values, list) and values
            and all(_finite_real(v) and v >= low for v in values)):
        bound = "" if low == -math.inf else f" >= {low:g}"
        raise ValueError(f"{path} must be a non-empty list of finite "
                         f"numbers{bound}, got {values!r}")


def _check_sections(cfg):
    """Type-check the grid, norm, surface, flow and family sections, the
    momentum exponents, the center and the task-specific sizes."""
    grid = _object(cfg, "grid")
    for key, value in grid.items():
        if key in ("dim", "resolution") and not _integer(value):
            raise ValueError(f"grid.{key} must be an integer, got {value!r}")
    center = cfg.get("center")
    size = grid.get("dim", 1) + 1
    if center is not None and not (
            isinstance(center, list) and len(center) == size
            and all(_finite_real(v) for v in center)):
        raise ValueError(f"center must be a list of {size} finite numbers, "
                         f"got {center!r}")
    if "resolutions" in cfg:
        res = cfg["resolutions"]
        # an order fit needs two points
        if not (isinstance(res, list) and all(_integer(r) for r in res)
                and len(set(res)) >= 2):
            raise ValueError(f"resolutions must be a list of at least two "
                             f"distinct integers, got {res!r}")
    if "samples" in cfg and not (_integer(cfg["samples"])
                                 and cfg["samples"] > 0):
        raise ValueError(f"samples must be a positive integer, "
                         f"got {cfg['samples']!r}")
    _object(_object(cfg, "norm"), "harmonic", "norm.")
    _check_harmonics(_object(cfg, "surface").get("harmonics", []),
                     "surface.harmonics")
    _settings(cfg, "flow", _FLOW_DEFAULTS)
    if "p_exponents" in cfg:
        _check_reals(cfg["p_exponents"], "p_exponents", low=1.0)
    if "family" in cfg:
        family = _object(cfg, "family")
        _check_reals(family.get("deltas"), "family.deltas")
        if not _finite_real(family.get("r0", 1.0)):
            raise ValueError(f"family.r0 must be a finite number, "
                             f"got {family['r0']!r}")
        _check_harmonics(family.get("harmonics", []), "family.harmonics")


def _center(cfg, grid):
    c = cfg.get("center")
    return np.zeros(grid.dim + 1) if c is None else np.asarray(c, dtype=float)


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


def _check(value, tol, mode="abs"):
    passed = bool(value <= tol) if mode == "abs" else bool(value >= tol)
    return {"value": float(value), "tolerance": float(tol), "passed": passed}


# -------------------------------------------------------------------- tasks


def _task_verify_identities(cfg, tol, out_dir, seed):
    norm = norm_from_spec(cfg["norm"])
    grid = _build_grid(cfg)
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
        "duality": report.to_dict(),
        "wulff": {"volume": wulff.volume, "perimeter": wulff.perimeter,
                  "identity_residual": wulff.identity_residual},
        "norm_positivity": float(norm.positivity),
    }
    return results, checks


def _task_flow(cfg, tol, out_dir, seed):
    norm = norm_from_spec(cfg["norm"])
    grid = _build_grid(cfg)
    surface = surface_from_spec(cfg["surface"], grid, norm)
    flow_cfg = _settings(cfg, "flow", _FLOW_DEFAULTS)
    config = FlowConfig(
        norm=norm, surface=surface,
        t_end=float(flow_cfg["t_end"]),
        cfl=float(flow_cfg["cfl"]),
        max_steps=int(flow_cfg["max_steps"]),
        center=_center(cfg, grid),
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


def _task_deficits(cfg, tol, out_dir, seed):
    norm = norm_from_spec(cfg["norm"])
    grid = _build_grid(cfg)
    surface = surface_from_spec(cfg["surface"], grid, norm)
    center = _center(cfg, grid)
    p_list = [float(p) for p in cfg.get("p_exponents", [2.0])]
    report = full_deficit_report(surface, norm, center, p_list)
    worst_p = min(report.eps_p.values()) if report.eps_p else 0.0
    checks = {
        "eps1_nonnegative": _check(-report.eps1, tol["deficit_negativity"]),
        "eps_p_nonnegative": _check(-worst_p, tol["deficit_negativity"]),
        "gap_nonnegative": _check(-report.gap, tol["deficit_negativity"]),
        "qw_deficit_nonnegative": _check(-report.qw_deficit,
                                         tol["deficit_negativity"]),
    }
    return {"deficits": report.to_dict()}, checks


def _task_stability_sweep(cfg, tol, out_dir, seed):
    norm = norm_from_spec(cfg["norm"])
    grid = _build_grid(cfg)
    family = cfg.get("family", {"deltas": [0.05, 0.1, 0.2, 0.4]})
    p = float(cfg.get("p_exponents", [2.0])[0])
    rows = stability_sweep(family, norm, grid, p, _center(cfg, grid))
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


def _task_convergence(cfg, tol, out_dir, seed):
    norm = norm_from_spec(cfg["norm"])
    dim = int(cfg.get("grid", {}).get("dim", 1))
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


_TASK_FN = {
    "verify-identities": _task_verify_identities,
    "flow": _task_flow,
    "deficits": _task_deficits,
    "stability-sweep": _task_stability_sweep,
    "convergence": _task_convergence,
}


def _seed(seed):
    if (isinstance(seed, bool) or not isinstance(seed, numbers.Integral)
            or seed < 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return int(seed)


def run(task, config_path, out_dir=None, seed=None):
    """Execute one task; returns the process exit code."""
    try:
        cfg = _load_config(config_path)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        if not isinstance(cfg, dict):
            raise ValueError("config must be a JSON object")
        cfg_task = cfg.get("task")
        if cfg_task is not None and cfg_task != task:
            raise ValueError(f"config task {cfg_task!r} does not match {task!r}")
        seed = _seed(cfg.get("seed", 0) if seed is None else seed)
        if out_dir is None:
            out_dir = cfg.get("output_dir", ".")
            if not isinstance(out_dir, str):
                raise ValueError(f"output_dir must be a string, got {out_dir!r}")
        out_dir = Path(out_dir)
        tol = _settings(cfg, "tolerances", _DEFAULT_TOLERANCES)
        _check_sections(cfg)
        out_dir.mkdir(parents=True, exist_ok=True)
        results, checks = _TASK_FN[task](cfg, tol, out_dir, seed)
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
