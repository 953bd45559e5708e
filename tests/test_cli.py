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


@pytest.mark.parametrize("cfg, use_out, key", [
    ({**_BASE, "seed": "abc"}, True, "seed"),
    ({**_BASE, "seed": True}, True, "seed"),
    ({**_BASE, "seed": 2.5}, True, "seed"),
    ({**_BASE, "seed": -1}, True, "seed"),
    ([_BASE], True, "JSON object"),
    ({**_BASE, "output_dir": 5}, False, "output_dir"),
], ids=["seed-string", "seed-bool", "seed-float", "seed-negative",
        "top-level-array", "output-dir-int"])
def test_bad_run_setting_is_input_error_before_compute(tmp_path, capsys,
                                                       monkeypatch, cfg,
                                                       use_out, key):
    monkeypatch.chdir(tmp_path)
    path = _write_config(tmp_path, "cfg.json", cfg)
    out = tmp_path / "out"
    assert run("verify-identities", path, out if use_out else None) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and key in err[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]
