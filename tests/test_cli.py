import json

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
], ids=["seed-string", "seed-bool", "seed-float", "seed-negative",
        "top-level-array", "output-dir-int", "grid-int", "grid-dim-list",
        "norm-string", "norm-harmonic-int", "harmonics-int", "flow-list",
        "flow-unknown-key", "flow-string-value", "flow-max-steps-float",
        "harmonic-k-list", "harmonic-k-bool", "harmonic-degree-float",
        "harmonic-delta-string", "harmonic-phase-inf", "harmonic-kind-int",
        "harmonic-unknown-key", "family-int", "family-deltas-float",
        "family-deltas-empty", "family-deltas-missing", "family-deltas-null",
        "family-r0-string", "family-harmonics-int", "family-harmonic-k-float"])
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
