"""Workload items: CLI configs generated from a seed, and their acceptance gates.

Each workload is a fixed list of item kinds.  The seed draws the phases and
amplitudes of each item inside fixed ranges, so every seed gives the same
kind of load; the program only ever sees the generated JSON configs.

Why these workloads:

- flow-curve: the acceptance flow suite's five curve shapes under the
  euclidean, ellipsoid diag(4,1) and perturbed sectoral-2 (eps 0.08) norms on
  the 64-node circle.  Cost is step count times per-step overhead; no
  stability work runs and the dual path runs only at records.
- flow-sphere: the round sphere at res 48 (oracle r0*exp(t/2)) and a zonal
  surface under ellipsoid diag(4,2.25,1) at res 32.  Steps are dominated by
  the latitude stencils, the polar filter and per-node small-matrix work.
- deficits: the circle stability sweep at N=512 and sphere deficit reports
  at res 16 under the perturbed xyz norm (with the ellipsoid norm as the
  closed-form contrast).  Zero flow steps: the bypass case for flow changes,
  and the dual Newton path of the perturbed norm dominates.

Ranges are narrow where the cost is chaotic in the input: the Nelder-Mead
search of the asymmetry index took 104 to 168 evaluations for zonal
amplitudes drawn from [0.07, 0.09] x [0.04, 0.05], but 147 to 164 inside
[0.080, 0.0805] x [0.0450, 0.0452], and each evaluation costs the same.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("flow-curve", "flow-sphere", "deficits")

# Acceptance tolerances (the same values the acceptance suite enforces).
Q_INCREMENT_TOL = 1e-8
PERIMETER_TOL = 1e-3
SPHERE_RADIUS_TOL = 1e-4
DEFICIT_TOL = -1e-8
SWEEP_SPREAD_TOL = 100.0

# Acceptance flow suite curves: harmonic list per shape (k, delta, phase).
_CURVES = {
    "tilt": [(1, 0.3, 0.0)],
    "two-lobe": [(1, 0.25, 1.0)],
    "oval": [(2, 0.08, 0.0)],
    "tri": [(3, 0.03, 0.0), (1, 0.1, 0.5)],
    "mixed": [(2, 0.06, 0.0), (1, 0.15, 4.0)],
}
_CURVE_NORMS = {
    "euclid": {"family": "euclidean", "dim": 1},
    "ellipse": {"family": "ellipsoid", "matrix": [[4.0, 0.0], [0.0, 1.0]]},
    "perturbed": {"family": "perturbed", "dim": 1, "epsilon": 0.08,
                  "harmonic": {"kind": "sectoral", "degree": 2}},
}
_ELLIPSOID3 = {"family": "ellipsoid",
               "matrix": [[4.0, 0.0, 0.0], [0.0, 2.25, 0.0], [0.0, 0.0, 1.0]]}
_PERTURBED_XYZ = {"family": "perturbed", "dim": 2, "epsilon": 0.1,
                  "harmonic": {"kind": "product"}}

CURVE_T_END = 0.5
SPHERE_T_END = 0.1


@dataclass(frozen=True)
class Item:
    """One CLI invocation: task name, JSON config, and what its gate needs."""

    name: str
    task: str
    config: dict
    sphere_r0: float | None = None   # round-sphere oracle radius, if any

    @property
    def flow_time(self):
        return self.config["flow"]["t_end"] if self.task == "flow" else 0.0


def _flow_curve(rng):
    items = []
    for cname, harmonics in _CURVES.items():
        drawn = [{"k": k, "delta": delta * rng.uniform(0.98, 1.02),
                  "phase": phase + rng.uniform(-0.05, 0.05)}
                 for k, delta, phase in harmonics]
        for nname, norm in _CURVE_NORMS.items():
            items.append(Item(f"{cname}-{nname}", "flow", {
                "task": "flow", "norm": norm,
                "grid": {"dim": 1, "resolution": 64},
                "surface": {"kind": "radial-fourier", "r0": 1.0,
                            "harmonics": drawn},
                "flow": {"t_end": CURVE_T_END, "cfl": 1.0, "cadence": 0.25},
            }))
    return items


def _flow_sphere(rng):
    r0 = rng.uniform(0.9, 1.1)
    cadence = SPHERE_T_END / 2.0
    round_sphere = Item("sphere-euclid-48", "flow", {
        "task": "flow", "norm": {"family": "euclidean", "dim": 2},
        "grid": {"dim": 2, "resolution": 48},
        "surface": {"kind": "sphere", "radius": r0},
        "flow": {"t_end": SPHERE_T_END, "cfl": 0.8, "cadence": cadence},
    }, sphere_r0=r0)
    zonal = Item("zonal-ellipsoid-32", "flow", {
        "task": "flow", "norm": _ELLIPSOID3,
        "grid": {"dim": 2, "resolution": 32},
        "surface": {"kind": "radial-fourier", "r0": 1.0, "harmonics": [
            {"kind": "zonal", "k": 2, "delta": rng.uniform(0.095, 0.105)}]},
        "flow": {"t_end": SPHERE_T_END, "cfl": 0.8, "cadence": cadence},
    })
    return [round_sphere, zonal]


def _deficits(rng):
    scale = rng.uniform(0.98, 1.02)
    sweep = Item("sweep-euclid-512", "stability-sweep", {
        "task": "stability-sweep", "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 512},
        "family": {"deltas": [scale * d for d in (0.05, 0.1, 0.2, 0.4)],
                   "harmonics": [{"k": 1, "delta": 1.0,
                                  "phase": rng.uniform(0.0, 2.0 * math.pi)}]},
        "p_exponents": [2.0],
    })
    surface = {"kind": "radial-fourier", "r0": 1.0, "harmonics": [
        {"kind": "zonal", "k": 2, "delta": rng.uniform(0.080, 0.0805)},
        {"kind": "zonal", "k": 3, "delta": rng.uniform(0.0450, 0.0452)}]}
    reports = [Item(f"zonal23-{name}-16", "deficits", {
        "task": "deficits", "norm": norm, "grid": {"dim": 2, "resolution": 16},
        "surface": surface, "p_exponents": [1.0, 2.0],
    }) for name, norm in (("perturbed", _PERTURBED_XYZ),
                          ("ellipsoid", _ELLIPSOID3))]
    return [sweep] + reports


_GENERATORS = {"flow-curve": _flow_curve, "flow-sphere": _flow_sphere,
             "deficits": _deficits}


def build_items(workload, seed):
    """The workload's item list; the same seed gives the same configs."""
    return _GENERATORS[workload](random.Random(seed))


# ------------------------------------------------------------------ gates


def sphere_rel_err(item, summary):
    """Relative gap of the rescaled final sphere to its initial radius."""
    lo, hi = summary["results"]["final_radial_range"]
    return max(abs(lo - item.sphere_r0), abs(hi - item.sphere_r0)) / item.sphere_r0


def perimeter_residual(summary):
    ts = summary["results"]["trace_summary"]
    return max(ts["perimeter_growth_residual"],
               ts["rescaled_perimeter_residual"])


def _gate_flow(item, summary):
    res = summary["results"]
    misses = []
    inc = res["monotonicity"]["max_increment"]
    if not inc <= Q_INCREMENT_TOL:
        misses.append(f"Q increment {inc:.3e} > {Q_INCREMENT_TOL:g}")
    per = perimeter_residual(summary)
    if not per <= PERIMETER_TOL:
        misses.append(f"perimeter residual {per:.3e} > {PERIMETER_TOL:g}")
    if item.sphere_r0 is not None:
        err = sphere_rel_err(item, summary)
        if not err <= SPHERE_RADIUS_TOL:
            misses.append(f"sphere radius error {err:.3e} > {SPHERE_RADIUS_TOL:g}")
    return misses


def _gate_deficits(item, summary):
    d = summary["results"]["deficits"]
    values = {"eps1": d["eps1"], "gap": d["gap"], "qw_deficit": d["qw_deficit"]}
    values.update({f"eps_p[{p}]": v for p, v in d["eps_p"].items()})
    return [f"{k} = {v:.3e} < {DEFICIT_TOL:g}" for k, v in values.items()
            if not v >= DEFICIT_TOL]


def _gate_sweep(item, summary):
    rows = sorted(summary["results"]["rows"], key=lambda r: r["delta"])
    misses = []
    for key in ("ratio_alpha_f1", "ratio_dist_f2"):
        vals = [r[key] for r in rows]
        if not (all(math.isfinite(v) and v > 0.0 for v in vals)
                and max(vals) / min(vals) < SWEEP_SPREAD_TOL):
            misses.append(f"{key} spread out of range: {vals}")
    for key in ("alpha", "hausdorff", "f1_eps1", "f2_eps1"):
        vals = [r[key] for r in rows]
        if not all(b > a for a, b in zip(vals, vals[1:])):
            misses.append(f"{key} column not increasing: {vals}")
    worst = min(min(r["eps1"], r["eps_p"]) for r in rows)
    if not worst >= DEFICIT_TOL:
        misses.append(f"sweep deficit {worst:.3e} < {DEFICIT_TOL:g}")
    return misses


_GATES = {"flow": _gate_flow, "deficits": _gate_deficits,
          "stability-sweep": _gate_sweep}


def gate(item, summary):
    """Acceptance misses of one finished item (empty when it passes)."""
    return _GATES[item.task](item, summary)
