import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wulff_lab.cli import run


def _write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_verify_identities_euclidean(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "task": "verify-identities",
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 128},
        "seed": 1,
    })
    out = tmp_path / "out"
    assert run("verify-identities", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "pass"
    assert summary["results"]["duality"]["max_residual"] < 1e-12
    assert summary["schema_version"] == 2
    assert summary["config"]["norm"]["family"] == "euclidean"


def test_flow_task_perimeter_law(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 128},
        "surface": {"kind": "sphere", "radius": 1.0},
        "flow": {"t_end": 1.0, "cfl": 0.8, "cadence": 0.25},
    })
    out = tmp_path / "out"
    assert run("flow", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["results"]["trace_summary"]["perimeter_growth_residual"] < 1e-3
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,dt,Q,perimeter_F,volume,minHF,supDistToWulff"
    last = trace[-1].split(",")
    assert float(last[3]) == pytest.approx(2 * np.pi * np.e, rel=1e-3)


def test_deficits_task_on_wulff(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "ellipsoid", "matrix": [[4.0, 0.0], [0.0, 1.0]]},
        "grid": {"dim": 1, "resolution": 256},
        "surface": {"kind": "wulff", "scale": 1.5},
        "p_exponents": [1.0, 2.0],
    })
    out = tmp_path / "out"
    assert run("deficits", cfg, out) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert abs(summary["results"]["deficits"]["eps1"]) < 1e-8
    assert summary["checks"]["eps1_nonnegative"]["passed"]


def test_stability_sweep_task(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 256},
        "family": {"deltas": [0.1, 0.2], "harmonics": [{"k": 1, "delta": 1.0}]},
    })
    out = tmp_path / "out"
    assert run("stability-sweep", cfg, out) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0].startswith("delta,eps1,eps_p,alpha,hausdorff")
    assert len(lines) == 3


def test_convergence_task(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "ellipsoid", "matrix": [[4.0, 0.0], [0.0, 1.0]]},
        "grid": {"dim": 1},
        "resolutions": [32, 64, 128],
    })
    out = tmp_path / "out"
    assert run("convergence", cfg, out) == 0
    assert (out / "convergence.csv").exists()


def test_determinism_byte_identical(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "perturbed", "dim": 1, "epsilon": 0.1},
        "grid": {"dim": 1, "resolution": 96},
        "surface": {"kind": "radial-fourier", "r0": 1.0,
                    "harmonics": [{"k": 1, "delta": 0.2}]},
        "flow": {"t_end": 0.2, "cfl": 0.8, "cadence": 0.05},
        "seed": 42,
    })
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run("flow", cfg, out) == 0
        outs.append((out / "summary.json").read_bytes()
                    + (out / "trace.csv").read_bytes())
    assert outs[0] == outs[1]


def test_malformed_config_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("flow", str(bad), tmp_path / "out") == 1
    missing = _write_config(tmp_path, "missing.json", {"task": "flow"})
    assert run("flow", missing, tmp_path / "out2") == 1


def test_task_mismatch_is_input_error(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "task": "deficits",
        "norm": {"family": "euclidean", "dim": 1},
    })
    assert run("flow", cfg, tmp_path / "out") == 1


def test_inadmissible_flow_surface_is_input_error(tmp_path):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 128},
        "surface": {"kind": "radial-fourier", "r0": 1.0,
                    "harmonics": [{"k": 2, "delta": 0.45}]},
        "flow": {"t_end": 0.5},
    })
    assert run("flow", cfg, tmp_path / "out") == 1


def test_check_failure_exit_code(tmp_path):
    # an impossible tolerance turns a healthy run into a reported failure
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 128},
        "surface": {"kind": "sphere"},
        "flow": {"t_end": 0.1, "cadence": 0.05},
        "tolerances": {"perimeter_conservation": 1e-18},
    })
    out = tmp_path / "out"
    assert run("flow", cfg, out) == 2
    summary = json.loads((out / "summary.json").read_text())
    assert summary["status"] == "fail"


def test_cli_main_entry(tmp_path, capsys):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 96},
        "seed": 3,
    })
    from wulff_lab.cli import main
    with pytest.raises(SystemExit) as exc:
        main(["verify-identities", "--config", cfg,
              "--out", str(tmp_path / "out"), "--seed", "7"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert "PASS" in captured.out


@pytest.mark.parametrize("tolerances, key", [
    ({"monotonicity": "1e-8"}, "tolerances.monotonicity"),
    ({"monotonicity": True}, "tolerances.monotonicity"),
    ({"perimeter_conservation": float("nan")}, "tolerances.perimeter_conservation"),
    ({"wulff_identity": None}, "tolerances.wulff_identity"),
    ({"monotonicty": 1e-8}, "tolerances.monotonicty"),
])
def test_bad_tolerance_is_input_error_before_compute(tmp_path, capsys,
                                                     tolerances, key):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 1},
        "grid": {"dim": 1, "resolution": 128},
        "surface": {"kind": "sphere"},
        "flow": {"t_end": 0.1, "cadence": 0.05},
        "tolerances": tolerances,
    })
    out = tmp_path / "out"
    out.mkdir()
    assert run("flow", cfg, out) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and key in err[0]
    assert not any(out.iterdir())


def test_non_finite_ellipsoid_matrix_is_input_error(tmp_path, capsys):
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "ellipsoid",
                 "matrix": [[4.0, float("nan")], [0.0, 1.0]]},
        "grid": {"dim": 1, "resolution": 64},
    })
    assert run("verify-identities", cfg, tmp_path / "out") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: matrix must be finite"]


_BASE = {"norm": {"family": "euclidean", "dim": 1},
         "grid": {"dim": 1, "resolution": 64}}
_FLOW = {**_BASE, "surface": {"kind": "sphere"},
         "flow": {"t_end": 0.1, "cadence": 0.05}}
_FOURIER = {"kind": "radial-fourier", "r0": 1.0, "harmonics": 3}
_SPHERE = {"norm": {"family": "euclidean", "dim": 2},
           "grid": {"dim": 2, "resolution": 8}}


def _fourier(*harmonics):
    return {**_FLOW, "surface": {"kind": "radial-fourier",
                                 "harmonics": list(harmonics)}}


def _family(**family):
    return {**_BASE, "family": family}


@pytest.mark.parametrize("task, cfg, use_out, key", [
    ("verify-identities", {**_BASE, "seed": "abc"}, True, "seed"),
    ("verify-identities", {**_BASE, "seed": True}, True, "seed"),
    ("verify-identities", {**_BASE, "seed": 2.5}, True, "seed"),
    ("verify-identities", {**_BASE, "seed": -1}, True, "seed"),
    ("verify-identities", [_BASE], True, "JSON object"),
    ("verify-identities", {**_BASE, "output_dir": 5}, False, "output_dir"),
    ("deficits", {**_FLOW, "grid": 5}, True, "grid"),
    ("deficits", {**_FLOW, "grid": {"dim": [1]}}, True, "grid.dim"),
    ("deficits", {**_FLOW, "norm": "euclid"}, True, "norm"),
    ("flow", {**_FLOW, "norm": {"family": "perturbed", "harmonic": 3}},
     True, "norm.harmonic"),
    ("deficits", {**_FLOW, "surface": _FOURIER}, True, "surface.harmonics"),
    ("flow", {**_FLOW, "flow": [1]}, True, "flow"),
    ("flow", {**_FLOW, "flow": {"t_ends": 0.1}}, True, "flow.t_ends"),
    ("flow", {**_FLOW, "flow": {"t_end": "0.1"}}, True, "flow.t_end"),
    ("flow", {**_FLOW, "flow": {"max_steps": 10.5}}, True, "flow.max_steps"),
    ("deficits", _fourier({"k": [1]}), True, "surface.harmonics[0].k"),
    ("deficits", _fourier({"k": True}), True, "surface.harmonics[0].k"),
    ("flow", _fourier({"k": 2}, {"degree": 2.0}), True,
     "surface.harmonics[1].degree"),
    ("flow", _fourier({"k": 2, "delta": "0.1"}), True,
     "surface.harmonics[0].delta"),
    ("flow", _fourier({"k": 2, "phase": float("inf")}), True,
     "surface.harmonics[0].phase"),
    ("deficits", _fourier({"kind": 3}), True, "surface.harmonics[0].kind"),
    ("flow", _fourier({"k": 2, "dleta": 0.1}), True,
     "surface.harmonics[0].dleta"),
    ("stability-sweep", {**_BASE, "family": 5}, True, "family"),
    ("stability-sweep", _family(deltas=0.1), True, "family.deltas"),
    ("stability-sweep", _family(deltas=[]), True, "family.deltas"),
    ("stability-sweep", _family(harmonics=[]), True, "family.deltas"),
    ("stability-sweep", _family(deltas=[0.1, None]), True, "family.deltas"),
    ("stability-sweep", _family(deltas=[0.1], r0="1"), True, "family.r0"),
    ("stability-sweep", _family(deltas=[0.1], harmonics=[3]), True,
     "family.harmonics"),
    ("stability-sweep", _family(deltas=[0.1], harmonics=[{"k": 1.5}]), True,
     "family.harmonics[0].k"),
    ("deficits", {**_FLOW, "p_exponents": 2}, True, "p_exponents"),
    ("stability-sweep", {**_BASE, "p_exponents": []}, True, "p_exponents"),
    ("deficits", {**_FLOW, "p_exponents": [0.5]}, True, "p_exponents"),
    ("deficits", {**_FLOW, "p_exponents": ["a"]}, True, "p_exponents"),
    ("stability-sweep", {**_BASE, "p_exponents": [1.0, 3.0]}, True,
     "p_exponents"),
    ("deficits", _fourier({"kind": "zonal", "k": 2, "delta": 0.1}), True,
     "surface.harmonics[0].kind"),
    ("stability-sweep", _family(deltas=[0.1], harmonics=[
        {"k": 1}, {"kind": "sectoral", "k": 2}]), True,
     "family.harmonics[1].kind"),
    ("deficits", {**_SPHERE, "surface": {"kind": "radial-fourier",
                                         "harmonics": [{"k": 2, "phase": 0.5}]}},
     True, "surface.harmonics[0].phase"),
    ("stability-sweep", {**_SPHERE, "family": {"deltas": [0.1], "harmonics": [
        {"kind": "zonal", "k": 2, "phase": 0.5}]}}, True,
     "family.harmonics[0].phase"),
    ("convergence", {**_BASE, "resolutions": 5}, True, "resolutions"),
    ("convergence", {**_BASE, "resolutions": [32.5, 64]}, True,
     "resolutions"),
    ("convergence", {**_BASE, "resolutions": [32]}, True, "resolutions"),
    ("convergence", {**_BASE, "resolutions": [32, 32]}, True, "resolutions"),
    ("convergence", {**_BASE, "resolutions": [True, 64]}, True,
     "resolutions"),
    ("verify-identities", {**_BASE, "samples": [3]}, True, "samples"),
    ("verify-identities", {**_BASE, "samples": 0}, True, "samples"),
    ("verify-identities", {**_BASE, "samples": -5}, True, "samples"),
    ("verify-identities", {**_BASE, "samples": 10.0}, True, "samples"),
    ("flow", {**_FLOW, "center": [float("nan"), 0.0]}, True, "center"),
    ("deficits", {**_FLOW, "center": "abc"}, True, "center"),
    ("deficits", {**_FLOW, "center": [0.0, "a"]}, True, "center"),
    ("flow", {**_FLOW, "center": [0.0, 0.0, 0.0]}, True, "center"),
    ("verify-identities", {**_BASE, "grid": {"dim": 1, "resolutoin": 64}},
     True, "grid.resolutoin"),
    ("verify-identities", {**_BASE, "grid": {"dim": 1, "resolution": 4}},
     True, "grid.resolution"),
    ("verify-identities", {**_BASE, "grid": {"dim": 3, "resolution": 16}},
     True, "grid.dim"),
    ("flow", {**_FLOW, "surface": {"kind": "sphere", "radis": 2.0}}, True,
     "surface.radis"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "euclidean", "dim": 1, "degre": 3}}, True, "norm.degre"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "perturbed", "dim": 1,
        "harmonic": {"kind": "sectoral", "degre": 2}}}, True,
     "norm.harmonic.degre"),
    ("stability-sweep", _family(deltas=[0.1], r00=1.0), True, "family.r00"),
    ("deficits", {**_FLOW, "p_exponent": [2.0]}, True, "p_exponent"),
    ("convergence", {**_BASE, "resolutions": [4, 64]}, True, "resolutions"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "ellipsoid", "matrix": [[1.0, 2.0], [2.0, 1.0]]}}, True,
     "matrix"),
    ("flow", {**_FLOW, "surface": {"kind": "cube"}}, True, "cube"),
    ("flow", {**_FLOW, "surface": {"kind": "sphere",
                                   "center": [0.0, 0.0, 0.0]}}, True,
     "center"),
    ("flow", {**_BASE, "flow": _FLOW["flow"]}, True,
     "missing section 'surface'"),
    ("deficits", _BASE, True, "missing section 'surface'"),
    ("verify-identities", {"grid": _BASE["grid"]}, True,
     "missing section 'norm'"),
    ("flow", {k: v for k, v in _FLOW.items() if k != "norm"}, True,
     "missing section 'norm'"),
    ("flow", {**_FLOW, "norm": {"family": "euclidean", "dim": 2}}, True,
     "norm acts on dimension 3"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "ellipsoid", "matrix": np.diag([4.0, 2.0, 1.0]).tolist()}},
     True, "norm acts on dimension 3"),
    ("verify-identities", {**_BASE, "norm": {"family": "ellipsoid"}}, True,
     "norm.matrix"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "ellipsoid", "matrix": [[1, 0], [0]]}}, True,
     "norm.matrix"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "euclidean", "dim": 1, "epsilon": 0.3}}, True,
     "unknown key norm.epsilon"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "euclidean", "dim": 1,
        "harmonic": {"kind": "sectoral", "degree": 5}}}, True,
     "unknown key norm.harmonic"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "ellipsoid", "dim": 1, "matrix": [[4, 0], [0, 1]]}}, True,
     "unknown key norm.dim"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "ellipsoid", "matrix": [[4, 0], [0, 1]],
        "harmonic": {"kind": "sectoral", "degree": 5}}}, True,
     "unknown key norm.harmonic"),
    ("verify-identities", {**_BASE, "norm": {"family": "crystalline"}}, True,
     "norm.family must be one of 'euclidean', 'ellipsoid', 'perturbed'"),
    ("verify-identities", {**_SPHERE, "norm": {
        "family": "perturbed", "dim": 2,
        "harmonic": {"kind": "product", "degree": 5}}}, True,
     "norm.harmonic.degree"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "perturbed", "dim": 1, "harmonic": {"kind": "product"}}},
     True, "norm.dim 2"),
    ("verify-identities", {**_BASE, "norm": {
        "family": "perturbed", "dim": 1, "harmonic": {"kind": "cubic"}}},
     True, "norm.harmonic.kind must be one of 'sectoral', 'product'"),
    ("flow", {**_FLOW, "surface": {"kind": "sphere", "r0": 1.0}}, True,
     "unknown key surface.r0"),
    ("flow", {**_FLOW, "surface": {"kind": "sphere", "harmonics": []}}, True,
     "unknown key surface.harmonics"),
    ("flow", {**_FLOW, "surface": {"kind": "sphere", "scale": 2.0}}, True,
     "unknown key surface.scale"),
    ("deficits", {**_SPHERE, "surface": {"kind": "radial-fourier",
                                         "harmonics": [{"kind": "product",
                                                        "k": 5,
                                                        "delta": 0.1}]}},
     True, "unknown key surface.harmonics[0].k"),
    ("deficits", {**_SPHERE, "surface": {"kind": "radial-fourier",
                                         "harmonics": [{"kind": "cubic",
                                                        "delta": 0.1}]}},
     True, "surface.harmonics[0].kind must be one of"),
    ("flow", _fourier({"k": 2, "degree": 3, "delta": 0.1}), True,
     "surface.harmonics[0].degree"),
    ("stability-sweep", {**_SPHERE, "family": {"deltas": [0.1], "harmonics": [
        {"kind": "zonal", "k": 2, "degree": 3}]}}, True,
     "family.harmonics[0].degree"),
], ids=["seed-string", "seed-bool", "seed-float", "seed-negative",
        "top-level-array", "output-dir-int", "grid-int", "grid-dim-list",
        "norm-string", "norm-harmonic-int", "harmonics-int", "flow-list",
        "flow-unknown-key", "flow-string-value", "flow-max-steps-float",
        "harmonic-k-list", "harmonic-k-bool", "harmonic-degree-float",
        "harmonic-delta-string", "harmonic-phase-inf", "harmonic-kind-int",
        "harmonic-unknown-key", "family-int", "family-deltas-float",
        "family-deltas-empty", "family-deltas-missing", "family-deltas-null",
        "family-r0-string", "family-harmonics-int", "family-harmonic-k-float",
        "p-exponents-int", "p-exponents-empty", "p-exponents-below-one",
        "p-exponents-string", "sweep-p-exponents-two",
        "circle-harmonic-kind", "circle-family-harmonic-kind",
        "sphere-harmonic-phase", "sphere-family-harmonic-phase", "resolutions-int", "resolutions-float",
        "resolutions-one", "resolutions-repeated", "resolutions-bool",
        "samples-list", "samples-zero", "samples-negative", "samples-float",
        "center-nan", "center-string", "center-entry-string",
        "center-wrong-length", "grid-unknown-key", "grid-resolution-4",
        "grid-dim-3", "surface-unknown-key", "norm-unknown-key",
        "norm-harmonic-unknown-key", "family-unknown-key",
        "top-level-unknown-key", "resolutions-below-8",
        "matrix-not-positive-definite", "surface-kind-unknown",
        "surface-center-wrong-length", "flow-surface-missing",
        "deficits-surface-missing", "norm-missing", "flow-norm-missing",
        "norm-dim-mismatch", "matrix-dim-mismatch", "matrix-missing",
        "matrix-ragged", "euclidean-epsilon", "euclidean-harmonic",
        "ellipsoid-dim", "ellipsoid-harmonic", "norm-family-unknown",
        "product-norm-degree", "product-norm-dim",
        "norm-harmonic-kind-unknown", "sphere-r0",
        "sphere-harmonics", "sphere-scale", "sphere-product-harmonic-k",
        "sphere-harmonic-kind-unknown", "harmonic-k-and-degree",
        "family-harmonic-k-and-degree"])
def test_bad_run_setting_is_input_error_before_compute(tmp_path, capsys,
                                                       monkeypatch, task,
                                                       cfg, use_out, key):
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run(task, path, out if use_out else None) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_circle_harmonic_degree_is_k(tmp_path):
    # `degree` names the wavenumber on the circle as on the sphere: a k = 3
    # bump is far from every translate of the disk, a k = 1 one is not
    summaries = []
    for key in ("degree", "k"):
        cfg = _write_config(tmp_path, f"{key}.json", {**_BASE, "surface": {
            "kind": "radial-fourier", "harmonics": [{key: 3, "delta": 0.05}]}})
        assert run("deficits", cfg, tmp_path / key) == 0
        summaries.append(json.loads((tmp_path / key / "summary.json")
                                    .read_text())["results"])
    assert summaries[0] == summaries[1]
    assert summaries[0]["deficits"]["alpha"] > 0.05


def test_negative_zonal_degree_is_input_error(tmp_path, capsys):
    # an integer k passes the type check; the harmonic itself rejects it
    cfg = _write_config(tmp_path, "cfg.json", {
        "norm": {"family": "euclidean", "dim": 2},
        "grid": {"dim": 2, "resolution": 8},
        "surface": {"kind": "radial-fourier", "harmonics": [
            {"kind": "zonal", "k": -1, "delta": 0.1}]}})
    out = tmp_path / "out"
    assert run("deficits", cfg, out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: zonal harmonic degree must be >= 0, got -1"]
    assert not (out / "summary.json").exists()


_NOT_STAR = {**_BASE, "grid": {"dim": 1, "resolution": 128}}


@pytest.mark.parametrize("task, cfg", [
    ("deficits", {**_NOT_STAR, "surface": {
        "kind": "radial-fourier", "harmonics": [{"k": 3, "delta": 0.3}]},
        "center": [0.9, 0.0]}),
    ("deficits", {**_NOT_STAR, "surface": {"kind": "sphere"},
                  "center": [2.0, 0.0]}),
    ("stability-sweep", {**_NOT_STAR, "family": {
        "deltas": [0.3], "harmonics": [{"k": 3, "delta": 1.0}]},
        "center": [0.9, 0.0]}),
    ("stability-sweep", {**_NOT_STAR, "center": [2.0, 0.0]}),
], ids=["deficits-outside-kernel", "deficits-outside", "sweep-outside-kernel",
        "sweep-outside"])
def test_center_not_star_is_input_error(tmp_path, capsys, task, cfg):
    # the gap integral needs the surface star-shaped about the weight
    # center; (0.9, 0) lies inside r = 1 + 0.3 cos 3t but outside its kernel
    out = tmp_path / "out"
    assert run(task, _write_config(tmp_path, "cfg.json", cfg), out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: surface is not star-shaped about the weight center"]
    assert not (out / "summary.json").exists()


_IMPORT_PROBE = """
import json, sys
from wulff_lab import cli
tasks = json.loads(sys.argv[1])
heavy = ("scipy.linalg", "scipy.optimize", "scipy.spatial", "scipy.interpolate")
loaded = [[m for m in heavy if m in sys.modules]]
for task, config, out in tasks:
    assert cli.run(task, config, out) == 0, task
    loaded.append([m for m in heavy if m in sys.modules])
print(json.dumps(loaded))
"""


def test_each_task_imports_only_the_scipy_modules_it_calls(tmp_path):
    # a fresh interpreter: this one has loaded scipy already. The tasks run
    # in order in one process, so each row lists what is loaded so far.
    base = {"norm": {"family": "euclidean", "dim": 2},
            "grid": {"dim": 2, "resolution": 8},
            # a weight center off the star center re-graphs each surface
            # through the interpolated radial field
            "center": [0.1, 0.0, 0.0]}
    sphere = {**base, "surface": {"kind": "sphere"}}
    tasks = [("flow", _FLOW), ("verify-identities", {**_BASE, "samples": 20}),
             ("convergence", {**_BASE, "resolutions": [16, 32]}),
             ("flow", {**sphere, "flow": {"t_end": 0.1, "cadence": 0.05}}),
             ("deficits", sphere),
             ("stability-sweep", {**base, "family": {
                 "deltas": [0.05, 0.1],
                 "harmonics": [{"kind": "zonal", "k": 2, "delta": 1.0}]}})]
    args = [(task, _write_config(tmp_path, f"cfg{i}.json", cfg),
             str(tmp_path / f"out{i}")) for i, (task, cfg) in enumerate(tasks)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    probe = subprocess.run([sys.executable, "-c", _IMPORT_PROBE,
                            json.dumps(args)], env=env, capture_output=True,
                           text=True, timeout=120, check=True)
    loaded = json.loads(probe.stdout.splitlines()[-1])
    # import, the dim-1 tasks and the dim-2 flow, whose transforms are numpy
    assert loaded[:5] == [[], [], [], [], []]
    # the asymmetry search and the KD-tree (both load scipy.linalg), but no
    # spline on the sphere
    assert loaded[5] == loaded[6] == ["scipy.linalg", "scipy.optimize",
                                      "scipy.spatial"]
