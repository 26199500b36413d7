import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bvqlab
from bvqlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_REGIME,
    EXIT_UNKNOWN_FIELD,
    main,
)


def write_config(tmp_path: Path, name: str, **overrides) -> Path:
    cfg = {
        "experiment": "jump-verify",
        "field": {"kind": "step-1d", "params": {"position": 0.0}},
        "grid": {"lo": [-1.0], "hi": [1.0], "n": [2048]},
        "q": 2.0,
        "eps_ladder": {"start_cells": 128, "ratio": 0.5, "count": 4},
        "tolerance": 0.03,
        "out_dir": str(tmp_path / "out"),
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_run_jump_verify_artifacts(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json")
    assert main(["run", str(cfg)]) == EXIT_OK
    out = tmp_path / "out"
    for artifact in ("manifest.json", "sweep.csv", "report.json", "plot_sweep.dat"):
        assert (out / artifact).exists()
    report = json.loads((out / "report.json").read_text())
    assert report[0]["passed"] is True
    csv = (out / "sweep.csv").read_text().splitlines()
    assert csv[0] == "eps,value"
    assert len(csv) == 5
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["experiment"] == "jump-verify"
    assert "numpy" in manifest["versions"]


def test_constants_experiment(tmp_path):
    cfg = write_config(
        tmp_path, "c.json", experiment="constants",
        out_dir=str(tmp_path / "out_c"),
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "out_c" / "sweep.csv").read_text().splitlines()
    assert rows[0] == "N,quadrature,closed_form,abs_diff"
    assert len(rows) == 4


def test_exit_codes(tmp_path):
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert main(["run", str(bad_json)]) == EXIT_CONFIG

    unknown = write_config(tmp_path, "unknown.json", field={"kind": "nope"})
    assert main(["run", str(unknown)]) == EXIT_UNKNOWN_FIELD

    malformed = write_config(
        tmp_path, "ladder.json", eps_ladder={"start_cells": 64, "ratio": 2.0, "count": 3}
    )
    assert main(["run", str(malformed)]) == EXIT_CONFIG

    empty_ladder = write_config(
        tmp_path, "empty.json", eps_ladder={"start_cells": 4, "ratio": 0.5, "count": 2}
    )
    assert main(["run", str(empty_ladder)]) == EXIT_CONFIG

    # eps reaching the domain diameter trips the regime guard
    regime = write_config(
        tmp_path, "regime.json",
        grid={"lo": [-1.0], "hi": [1.0], "n": [64]},
        eps_ladder={"start_cells": 64, "ratio": 0.5, "count": 3},
        experiment="bbm-sweep", fit_model="constant",
    )
    assert main(["run", str(regime)]) == EXIT_REGIME


def test_failed_check_exit(tmp_path):
    # impossible tolerance forces a failed identity
    cfg = write_config(tmp_path, "tight.json", tolerance=1e-9,
                       experiment="q1-bv", q=1.0,
                       field={"kind": "sine-1d", "params": {}},
                       grid={"lo": [0.0], "hi": [1.0], "n": [2048]},
                       eps_ladder={"start_cells": 64, "ratio": 0.7, "count": 4})
    code = main(["run", str(cfg)])
    assert code == EXIT_CHECK_FAILED


def test_report_aggregation(tmp_path, capsys):
    cfg = write_config(tmp_path, "cfg.json")
    main(["run", str(cfg)])
    capsys.readouterr()
    rc = main(["report", str(tmp_path / "out" / "report.json")])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "PASS" in out
    assert main(["report"]) == EXIT_CONFIG
    assert main(["report", str(tmp_path / "missing.json")]) == EXIT_CONFIG


def test_list_fields_and_constants_commands(capsys):
    assert main(["list-fields"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "step-1d" in out and "pyramid-eikonal" in out
    assert main(["constants"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[1].startswith("1,2,")


def test_worker_override_bit_identical(tmp_path):
    cfg = write_config(
        tmp_path, "w.json", experiment="two-sided",
        field={"kind": "block-random", "params": {"seed": 5, "dim": 2}},
        grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [96, 96]},
        eps_ladder={"start_cells": 16, "ratio": 0.5, "count": 2},
        out_dir=str(tmp_path / "out_w1"),
    )
    assert main(["run", str(cfg), "--workers", "1"]) == EXIT_OK
    assert main(["run", str(cfg), "--workers", "8", "--out", str(tmp_path / "out_w8")]) == EXIT_OK
    a = (tmp_path / "out_w1" / "sweep.csv").read_bytes()
    b = (tmp_path / "out_w8" / "sweep.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize("experiment,field,grid,extra", [
    ("bbm-sweep", {"kind": "step-1d", "params": {"position": 0.0}},
     {"lo": [-1.0], "hi": [1.0], "n": [1024]}, {}),
    ("q1-bv", {"kind": "sine-1d", "params": {}},
     {"lo": [0.0], "hi": [1.0], "n": [2048]}, {"q": 1.0, "fit_model": "linear-in-eps"}),
    ("besov", {"kind": "step-1d", "params": {"position": 0.0}},
     {"lo": [-1.0], "hi": [1.0], "n": [1024]}, {}),
    ("gagliardo", {"kind": "hoelder", "params": {"s": 0.75}},
     {"lo": [0.0], "hi": [1.0], "n": [1024]}, {}),
    ("vq", {"kind": "piecewise-constant-multi", "params": {}},
     {"lo": [-1.0], "hi": [1.0], "n": [512]}, {}),
    ("b-space", {"kind": "step-1d", "params": {"position": 0.0}},
     {"lo": [-1.0], "hi": [1.0], "n": [512]}, {}),
    ("ag-chain", {"kind": "pyramid-eikonal", "params": {"lo": [-1.0], "hi": [1.0]}},
     {"lo": [-1.0], "hi": [1.0], "n": [512]}, {}),
])
def test_every_experiment_kind_runs(tmp_path, experiment, field, grid, extra):
    cfg = write_config(
        tmp_path, "e.json", experiment=experiment, field=field, grid=grid,
        eps_ladder={"start_cells": 32, "ratio": 0.5, "count": 3},
        out_dir=str(tmp_path / "out_e"), **extra,
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out_e" / "report.json").exists()


def test_ag_upper_experiment(tmp_path):
    cfg = write_config(
        tmp_path, "ag.json", experiment="ag-upper",
        field={"kind": "pyramid-eikonal", "params": {}},
        grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [96, 96]},
        eps_ladder={"start_cells": 24, "ratio": 0.6, "count": 3},
        q=3.0, p=3.0,
        out_dir=str(tmp_path / "out_ag"),
    )
    assert main(["run", str(cfg)]) == EXIT_OK


def test_repeated_runs_bit_identical_across_processes(tmp_path):
    import subprocess
    import sys

    cfg = write_config(
        tmp_path, "rep.json", experiment="bbm-sweep",
        field={"kind": "hoelder", "params": {"s": 0.75}},
        grid={"lo": [0.0], "hi": [1.0], "n": [2048]},
        eps_ladder={"start_cells": 64, "ratio": 0.5, "count": 3},
        fit_model="constant",
        out_dir=str(tmp_path / "r1"),
    )
    for out in ("r1", "r2"):
        res = subprocess.run(
            [sys.executable, "-m", "bvqlab.cli", "run", str(cfg), "--out", str(tmp_path / out)],
            capture_output=True,
        )
        assert res.returncode == 0, res.stderr
    a = (tmp_path / "r1" / "sweep.csv").read_bytes()
    b = (tmp_path / "r2" / "sweep.csv").read_bytes()
    assert a == b


def test_report_aggregation_failure_exit(tmp_path, capsys):
    bad = tmp_path / "bad_report.json"
    bad.write_text(json.dumps([
        {"passed": True, "provenance": "fine"},
        {"passed": False, "provenance": "broken identity"},
    ]))
    rc = main(["report", str(bad)])
    out = capsys.readouterr().out
    assert rc == EXIT_CHECK_FAILED
    assert "FAIL" in out and "broken identity" in out

    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text("{oops")
    assert main(["report", str(corrupt)]) == EXIT_CONFIG


@pytest.mark.parametrize("override", [
    {"field": "x"},
    {"field": {"kind": "step-1d", "params": "x"}},
    {"grid": "x"},
    {"eps_ladder": "x"},
    {"mollifier": "x"},
    {"fit_model": "quadratic"},
    {"directions": 0},
    {"directions": 2.5},
], ids=["field", "field-params", "grid", "eps-ladder", "mollifier", "fit-model",
        "directions-zero", "directions-float"])
def test_malformed_config_is_config_error(tmp_path, capsys, override):
    cfg = write_config(tmp_path, "malformed.json", **override)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("config error: ")
    # rejected while loading, before the experiment creates its output directory
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload", [
    json.dumps({"a": 1}).encode(),
    json.dumps([1, 2]).encode(),
    json.dumps([{"passed": True}, "x"]).encode(),
    json.dumps("text").encode(),
    b"\xff\xfe[]",
])
def test_report_wrong_json_shape_is_config_error(tmp_path, capsys, payload):
    bad = tmp_path / "shape.json"
    bad.write_bytes(payload)
    assert main(["report", str(bad)]) == EXIT_CONFIG
    assert f"corrupt report file: {bad}" in capsys.readouterr().err


def _run_python(code: str, cwd: Path | None = None) -> str:
    src = str(Path(bvqlab.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src}, cwd=cwd,
    )
    return out.stdout.strip()


def test_cli_import_does_not_load_scipy_signal():
    # importing scipy.special about doubled the start-up of every CLI run;
    # no scipy module at all may load on import
    code = "import sys, bvqlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run_python(code) == "[]"


@pytest.mark.parametrize("experiment", ["bbm-sweep", "constants"])
def test_run_without_mollifier_does_not_load_scipy_special(tmp_path, experiment):
    # scipy.special loads only when a mollifier quadrature runs
    cfg = write_config(
        tmp_path, "cold.json", experiment=experiment,
        grid={"lo": [-1.0], "hi": [1.0], "n": [512]},
        eps_ladder={"start_cells": 32, "ratio": 0.5, "count": 3},
        fit_model="constant", out_dir=str(tmp_path / "out_cold"),
    )
    code = (
        "import sys; from bvqlab.cli import main; "
        f"rc = main(['run', {str(cfg)!r}]); "
        "print(rc, 'scipy.special' in sys.modules)"
    )
    assert _run_python(code, cwd=tmp_path).splitlines()[-1] == f"{EXIT_OK} False"
    assert (tmp_path / "out_cold" / "report.json").exists()


@pytest.mark.parametrize("ladder,fit_model,code,message", [
    # two rungs are too few for the linear fit of the gradient sweep
    ({"start_cells": 32, "ratio": 0.5, "count": 2}, "linear-in-eps", EXIT_CONFIG,
     "config error: linear-in-eps extrapolation needs >= 3 eps values"),
    # the largest rung erodes the whole domain
    ({"start_cells": 512, "ratio": 0.5, "count": 3}, "constant", EXIT_REGIME,
     "regime guard: erosion by 2.0 emptied the mask"),
], ids=["short-for-fit", "at-diameter"])
def test_ag_chain_bad_ladder_exit_code(tmp_path, capsys, ladder, fit_model, code, message):
    cfg = write_config(
        tmp_path, "bad_chain.json", experiment="ag-chain",
        field={"kind": "pyramid-eikonal", "params": {"lo": [-1.0], "hi": [1.0]}},
        grid={"lo": [-1.0], "hi": [1.0], "n": [512]},
        eps_ladder=ladder, fit_model=fit_model, out_dir=str(tmp_path / "out_bad"),
    )
    assert main(["run", str(cfg)]) == code
    assert capsys.readouterr().err.strip() == message
