import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bvqlab
from bvqlab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_REGIME,
    EXIT_UNKNOWN_FIELD,
    EXPERIMENTS,
    load_config,
    main,
)
from bvqlab.fields import make_field


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

    # q < 1 is refused by the two-sided check as by every kernel sum
    low_q = write_config(
        tmp_path, "low_q.json", experiment="two-sided", q=0.5,
        field={"kind": "ball-indicator", "params": {}},
        grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
        eps_ladder={"start_cells": 8, "ratio": 0.5, "count": 1},
    )
    assert main(["run", str(low_q)]) == EXIT_CONFIG


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
    # a worker count is no longer an option: the run is single-path
    with pytest.raises(SystemExit) as exc:
        main(["run", str(cfg), "--workers", "8"])
    assert exc.value.code == EXIT_CONFIG
    assert main(["run", str(cfg)]) == EXIT_OK
    assert main(["run", str(cfg), "--out", str(tmp_path / "out_w2")]) == EXIT_OK
    a = (tmp_path / "out_w1" / "sweep.csv").read_bytes()
    b = (tmp_path / "out_w2" / "sweep.csv").read_bytes()
    assert a == b


def test_every_experiment_runs_without_lapack(tmp_path):
    # no LAPACK at run time: with numpy.polynomial blocked and numpy's
    # eigen-solvers, least squares, solves, inverses and polyfit made to
    # raise, one small config of each experiment kind runs to exit 0 (an
    # internal error is exit 5), among them every linear-in-eps fit, the 2D
    # sphere constant, a sine mass by quadrature (a non-integer count of half
    # periods) and the mollifier's Gauss-Jacobi rules; so does a 3D ball rule
    ladder = {"start_cells": 32, "ratio": 0.5, "count": 3}
    configs = [
        dict(experiment=experiment, field=field, grid=grid, eps_ladder=ladder, **extra)
        for experiment, field, grid, extra in KIND_CASES
    ] + [
        dict(experiment="jump-verify"),
        dict(experiment="constants"),
        dict(experiment="q1-bv", field={"kind": "sine-1d", "params": {"cycles": 3}},
             grid={"lo": [0.0], "hi": [0.9], "n": [2048]}, eps_ladder=ladder,
             fit_model="linear-in-eps", tolerance=0.1),
        dict(experiment="two-sided",
             field={"kind": "block-random", "params": {"seed": 4, "dim": 2}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [40, 40]},
             eps_ladder={"start_cells": 9, "ratio": 0.9, "count": 2}),
        dict(experiment="ag-upper",
             field={"kind": "cone-eikonal", "params": {}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
             eps_ladder={"start_cells": 16, "ratio": 0.75, "count": 3}, q=3.0, p=4.0),
        dict(experiment="ag-chain",
             field={"kind": "pyramid-eikonal", "params": {}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
             eps_ladder={"start_cells": 16, "ratio": 0.75, "count": 3}),
    ]
    assert sorted({c["experiment"] for c in configs}) == sorted(EXPERIMENTS)
    paths = [
        str(write_config(tmp_path, f"c{i}.json", out_dir=str(tmp_path / f"out{i}"), **c))
        for i, c in enumerate(configs)
    ]
    code = (
        "import sys; sys.modules['numpy.polynomial'] = None\n"
        "import numpy\n"
        "def refuse(name):\n"
        "    def call(*args, **kwargs):\n"
        "        raise AssertionError(name + ' called')\n"
        "    return call\n"
        "for name in ('eigvalsh', 'eigh', 'eigvals', 'eig', 'lstsq', 'svd', 'solve', 'inv'):\n"
        "    setattr(numpy.linalg, name, refuse('numpy.linalg.' + name))\n"
        "numpy.polyfit = refuse('numpy.polyfit')\n"
        "from bvqlab import build_mollifier\n"
        "from bvqlab.cli import main\n"
        f"print([main(['run', p]) for p in {paths!r}])\n"
        "print(len(build_mollifier('polynomial-bump', 3).ball_rule()[1]))\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.startswith('numpy.polynomial') and mod))\n"
    )
    codes, ball_nodes, loaded = _run_python(code, cwd=tmp_path).splitlines()[-3:]
    assert codes == str([EXIT_OK] * len(configs))
    assert ball_nodes == str(64 * 64 * 64)
    assert loaded == "[]"


KIND_CASES = [
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
]


@pytest.mark.parametrize("experiment,field,grid,extra", KIND_CASES)
def test_every_experiment_kind_runs(tmp_path, experiment, field, grid, extra):
    cfg = write_config(
        tmp_path, "e.json", experiment=experiment, field=field, grid=grid,
        eps_ladder={"start_cells": 32, "ratio": 0.5, "count": 3},
        out_dir=str(tmp_path / "out_e"), **extra,
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    assert (tmp_path / "out_e" / "report.json").exists()


# Every optional key a KIND_CASES config can spell, at its documented
# default (the direction count is the 1D one: every KIND_CASES grid is 1D).
# The base configs below spell each of them, most at this value.
DEFAULTS = {
    ("q",): 2.0, ("p",): 3.0, ("kappa",): 8, ("tolerance",): 0.05,
    ("fit_model",): "linear-in-eps", ("directions",): 2, ("out_dir",): "out",
    ("eps_ladder", "ratio"): 0.5, ("eps_ladder", "count"): 4, ("field", "params"): {},
    ("mollifier", "profile"): "polynomial-bump", ("mollifier", "k"): 2,
}
OUT_OF_RANGE = {
    ("experiment",): "jump-sweep", ("fit_model",): "quadratic", ("kappa",): 0,
    ("tolerance",): -0.03, ("directions",): 0, ("grid", "n"): [0],
    ("eps_ladder", "start_cells"): 0, ("eps_ladder", "ratio"): 1.0, ("eps_ladder", "count"): 0,
    ("mollifier", "profile"): "gaussian-bump", ("mollifier", "k"): 1,
}
_OUTCOMES: dict[str, tuple] = {}
_DROP = object()


def _kind_config(experiment, field, grid, extra) -> dict:
    return {
        "experiment": experiment, "field": field, "grid": grid, "q": 2.0, "p": 3.0,
        "eps_ladder": {"start_cells": 32, "ratio": 0.5, "count": 3}, "kappa": 8,
        "tolerance": 0.03, "directions": 2, "out_dir": "out",
        "mollifier": {"profile": "polynomial-bump", "k": 2}, **extra,
    }


def _leaves(cfg: dict, prefix=()) -> list[tuple]:
    out = []
    for key, value in cfg.items():
        if isinstance(value, dict) and value:
            out += _leaves(value, prefix + (key,))
        else:
            out.append(prefix + (key,))
    return out


def _set(cfg: dict, path: tuple, value) -> dict:
    cfg = json.loads(json.dumps(cfg))
    obj = cfg
    for key in path[:-1]:
        obj = obj[key]
    if value is _DROP:
        del obj[path[-1]]
    else:
        obj[path[-1]] = value
    return cfg


def _outcome(root: Path, cfg: dict) -> tuple:
    """(exit code, stderr, output bytes) of one in-process run, memoized."""
    text = json.dumps(cfg, sort_keys=True)
    if text not in _OUTCOMES:
        run = root / str(len(_OUTCOMES))
        run.mkdir()
        (run / "cfg.json").write_text(text)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", str(run / "cfg.json"), "--out", str(run / "out")])
        files = ("sweep.csv", "report.json")
        data = [(run / "out" / f).read_bytes() for f in files] if code == EXIT_OK else None
        _OUTCOMES[text] = (code, err.getvalue(), data)
    return _OUTCOMES[text]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_config_runs_as_spelled_or_is_refused_by_key(tmp_path_factory, data):
    experiment, field, grid, extra = data.draw(st.sampled_from(KIND_CASES))
    base = _kind_config(experiment, field, grid, extra)
    path = data.draw(st.sampled_from(_leaves(base)))
    mutations = ["drop", "retype", "bool"] + (["range"] if path in OUT_OF_RANGE else [])
    mutation = data.draw(st.sampled_from(mutations))
    value = base
    for key in path:
        value = value[key]

    reference = None  # the config that spells the mutant's values exactly
    if mutation == "drop":
        mutant = _set(base, path, _DROP)
        if path in DEFAULTS:
            reference = _set(base, path, DEFAULTS[path])
        elif path[:2] == ("field", "params"):
            default = getattr(make_field(field["kind"]), path[2])
            reference = _set(base, path, json.loads(json.dumps(default)))
    elif mutation == "retype":
        if isinstance(value, int):
            mutant = float(value)  # the same number, spelled as a float
        elif isinstance(value, float) and value.is_integer():
            mutant = int(value)
        elif isinstance(value, str):
            mutant = len(value)
        elif isinstance(value, list):
            mutant = value[0]
        else:
            mutant = str(value)
        if type(mutant) in (int, float) and mutant == value:
            reference = base  # unless the key's type refuses the spelling
        mutant = _set(base, path, mutant)
    else:
        mutant = _set(base, path, True if mutation == "bool" else OUT_OF_RANGE[path])

    root = tmp_path_factory.mktemp("mutant")
    code, err, out = _outcome(root, mutant)
    assert code in (EXIT_OK, EXIT_CONFIG), (mutant, err)
    assert "Traceback" not in err
    if reference is None or mutation == "retype" and code == EXIT_CONFIG:
        named = repr(path[2]) if path[:2] == ("field", "params") and path[2:] else ".".join(path)
        assert code == EXIT_CONFIG and named in err, (mutant, err)
    else:
        assert (code, err, out) == _outcome(root, reference), (mutant, reference)


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


@pytest.mark.parametrize("experiment,grid,ladder,reports", [
    # a 1D pyramid has gradient jumps, so ag-chain also runs the ridge check
    ("ag-chain", {"lo": [-1.0], "hi": [1.0], "n": [512]}, (32, 0.5, 3), 2),
    ("ag-upper", {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]}, (16, 0.75, 3), 1),
])
def test_ag_runs_sample_the_gradient_once(tmp_path, monkeypatch, experiment, grid, ladder, reports):
    from bvqlab import fields

    calls = {"sample_gradient": [], "sample_analytic": []}
    for fn, seen in calls.items():
        real = getattr(fields, fn)

        def counted(*args, real=real, seen=seen, **kwargs):
            seen.append(args)
            return real(*args, **kwargs)

        # every module that holds the function by name
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "bvqlab" and getattr(mod, fn, None) is real:
                monkeypatch.setattr(mod, fn, counted)
    start, ratio, count = ladder
    cfg = write_config(
        tmp_path, "ag.json", experiment=experiment,
        field={"kind": "pyramid-eikonal", "params": {"lo": grid["lo"], "hi": grid["hi"]}},
        grid=grid, eps_ladder={"start_cells": start, "ratio": ratio, "count": count},
        q=3.0, p=3.0, out_dir=str(tmp_path / "out_ag"),
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    assert len(json.loads((tmp_path / "out_ag" / "report.json").read_text())) == reports
    assert len(calls["sample_gradient"]) == 1
    assert calls["sample_analytic"] == []  # the energies never read psi itself


def test_vq_run_computes_the_q_variation_once(tmp_path, monkeypatch):
    from bvqlab import variation

    real = variation.q_variation_pow
    values = []

    def counted(*args, **kwargs):
        values.append(real(*args, **kwargs))
        return values[-1]

    monkeypatch.setattr(variation, "q_variation_pow", counted)
    cfg = write_config(
        tmp_path, "vq.json", experiment="vq",
        field={"kind": "block-random", "params": {"seed": 3, "dim": 1, "blocks": 16}},
        grid={"lo": [0.0], "hi": [1.0], "n": [256]},
        eps_ladder={"start_cells": 16, "ratio": 0.5, "count": 2}, q=2.5,
        out_dir=str(tmp_path / "out_vq"),
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    row = (tmp_path / "out_vq" / "sweep.csv").read_text().splitlines()[1].split(",")
    assert len(values) == 1
    assert float(row[0]) == values[0] and float(row[2]) == 4.0 * values[0]


@pytest.mark.parametrize("grid", [
    {"lo": [0.0], "hi": [1.0], "n": [2048]},  # the block-vq benchmark grid
    {"lo": [-1.0], "hi": [2.0], "n": [300]},
    {"lo": [0.1], "hi": [0.8], "n": [1000]},
    # a grid rebuilt from its float cell centres was an ulp short here
    {"lo": [0.0], "hi": [3.0], "n": [200]},
])
def test_vq_sweeps_the_config_grid(tmp_path, grid):
    # the check sweeps the sampled field on the config grid itself, so every
    # swept eps is the config ladder's length bit for bit
    from bvqlab import Grid, GridRadius

    cfg = write_config(
        tmp_path, "vq.json", experiment="vq",
        field={"kind": "block-random", "params": {"seed": 1, "dim": 1, "blocks": 16}},
        grid=grid, eps_ladder={"start_cells": 64, "ratio": 0.5, "count": 4},
        out_dir=str(tmp_path / "out_vq"),
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    swept = json.loads((tmp_path / "out_vq" / "report.json").read_text())[0]["details"]["sweep_eps"]
    h = Grid.for_box(grid["lo"], grid["hi"], grid["n"]).spacing
    expect = [GridRadius.from_cells(m).length(h) for m in (64, 32, 16, 8)]
    assert swept == expect
    if grid["n"] == [2048]:
        assert swept == [0.03125, 0.015625, 0.0078125, 0.00390625]


@pytest.mark.parametrize("grid, slope, message", [
    # the q = 2 variation (8191 * slope)^2 is inf, where the swept pair sums
    # stay finite
    ({"lo": [0.0], "hi": [8192.0], "n": [8192]}, 1e151, "the q-variation overflows float64"),
    # the variation is finite and the bound 4 V_q is inf
    ({"lo": [0.0], "hi": [8192.0], "n": [8192]}, 1e150,
     "the q-variation bound 4 V_q overflows float64"),
    ({"lo": [0.0], "hi": [64.0], "n": [64]}, 1.23e152,
     "the q-variation bound 4 V_q overflows float64"),
])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_vq_refuses_an_infinite_q_variation_or_bound(tmp_path, capsys, grid, slope, message):
    # each passed with an inf bound and exit 0, the first after a numpy warning
    cfg = write_config(
        tmp_path, "vq.json", experiment="vq",
        field={"kind": "linear", "params": {"slope": [slope]}}, grid=grid,
        eps_ladder={"start_cells": 8, "ratio": 0.5, "count": 1},
        out_dir=str(tmp_path / "out_vq"),
    )
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out_vq").exists()


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


def test_report_of_a_directory_is_config_error(tmp_path, capsys):
    # reading it was an IsADirectoryError traceback with exit 1
    assert main(["report", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"unreadable report file: {tmp_path}") and "Traceback" not in err


@pytest.mark.parametrize("out", ["taken", "taken/sub", "taken/sub/deeper"])
def test_out_dir_that_cannot_be_made_is_config_error(tmp_path, capsys, monkeypatch, out):
    # an existing file, or a path under one, was a FileExistsError or
    # NotADirectoryError traceback with exit 5, and then a refusal that came
    # only after the whole experiment had run
    def body(cfg):
        raise AssertionError("the experiment ran")

    monkeypatch.setitem(EXPERIMENTS, "jump-verify", body)
    (tmp_path / "taken").write_text("a file")
    cfg = write_config(tmp_path, "cfg.json")
    assert main(["run", str(cfg), "--out", str(tmp_path / out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == (
        f"config error: cannot create out_dir {tmp_path / out}: "
        f"{tmp_path / 'taken'} is not a directory\n"
    )


@pytest.mark.parametrize("override,key", [
    ({"field": "x"}, "field"),
    ({"field": {"kind": "step-1d", "params": "x"}}, "field.params"),
    ({"grid": "x"}, "grid"),
    ({"eps_ladder": "x"}, "eps_ladder"),
    ({"mollifier": "x"}, "mollifier"),
    ({"fit_model": "quadratic"}, "fit_model"),
    ({"directions": 0}, "directions"),
    ({"directions": 2.5}, "directions"),
    ({"field": {"kind": "step-1d", "params": {"bogus": 1}}}, "'bogus'"),
    # the library, not the config schema, refuses 3 directions in 2D
    ({"experiment": "besov", "field": {"kind": "pyramid-eikonal", "params": {}},
      "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [32, 32]},
      "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1}, "directions": 3}, "directions"),
    # values that loaded coerced or ignored before the schema: 2 rungs, a
    # 1-cell regime guard, q = 3.0, n = 1024, and the default tolerance
    ({"eps_ladder": {"start_cells": 128, "ratio": 0.5, "count": 2.5}}, "eps_ladder.count"),
    ({"kappa": True}, "kappa"),
    ({"q": "3"}, "q"),
    ({"grid": {"lo": [-1.0], "hi": [1.0], "n": [1024.7]}}, "grid.n"),
    ({"tolerence": 1e-9}, "'tolerence'"),
    # a start in domain units is no longer a spelling of the ladder
    ({"eps_ladder": {"start": 0.125, "ratio": 0.5, "count": 4}}, "'start'"),
    ({"field": {"kind": "step-1d", "params": {"kind": "ramp"}}}, "'kind'"),
    ({"field": {"params": {"position": 0.0}}}, "field.kind"),
    # a radius whose square overflows was an OverflowError traceback (exit 5)
    ({"experiment": "two-sided", "field": {"kind": "ball-indicator", "params": {"radius": 1e300}},
      "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
      "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1}}, "radius"),
    # a block-random high - low that overflows was numpy's OverflowError at
    # sampling (exit 5); a negative seed was refused without naming it
    *(({"experiment": "bbm-sweep", "field": field, "grid": {"lo": [0.0], "hi": [1.0], "n": [256]},
        "eps_ladder": {"start_cells": 32, "ratio": 0.5, "count": 3}}, key)
      for field, key in [
          ({"kind": "block-random", "params": {"dim": 1, "low": -1e308, "high": 1e308}}, "high"),
          ({"kind": "block-random", "params": {"dim": 1, "low": 1.0, "high": 0.0}}, "high"),
          ({"kind": "block-random", "params": {"dim": 1, "seed": -1}}, "seed"),
          ({"kind": "hoelder", "params": {"seed": -1}}, "seed"),
      ]),
    # pair and shift sums that overflow float64 were written out as passing
    # results: inf rows and a nan limit, PASS on inf, an inf directional sup
    ({"experiment": "bbm-sweep", "field": {"kind": "linear", "params": {"slope": [1e300]}},
      "grid": {"lo": [0.0], "hi": [1.0], "n": [1024]},
      "eps_ladder": {"start_cells": 64, "ratio": 0.5, "count": 4}}, "a pair sum overflows float64"),
    ({"experiment": "two-sided", "field": {"kind": "block-random", "params": {"dim": 2, "high": 1e200}},
      "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
      "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1}}, "a pair sum overflows float64"),
    ({"experiment": "besov", "field": {"kind": "linear", "params": {"slope": [1e300, 0.0]}},
      "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
      "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1}}, "a shift sum overflows float64"),
    # finite pair sums whose fsum overflows were an OverflowError traceback
    # (exit 5), and a pair sum over |v| h that overflows a numpy warning first
    *(({"experiment": experiment, "field": {"kind": "linear", "params": {"slope": [slope]}},
        "grid": {"lo": [0.0], "hi": [1.0], "n": [n]}, "fit_model": "constant",
        "eps_ladder": {"start_cells": 64, "ratio": 0.5, "count": 4}}, "a kernel sum overflows float64")
      for experiment, slope, n in [("bbm-sweep", 1e153, 8192), ("gagliardo", 1e152, 8192),
                                   ("bbm-sweep", 2.5e153, 1024), ("gagliardo", 6e152, 1024)]),
    ({"experiment": "vq", "field": {"kind": "pyramid-eikonal", "params": {}},
      "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [32, 32]},
      "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1}}, "needs a 1D field"),
    # a ball that leaves the box had a jump measure of 2 pi r
    ({"experiment": "jump-verify", "field": {"kind": "ball-indicator", "params": {"center": [0.5, 0.5], "radius": 0.6}},
      "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
      "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1}}, "ball must lie inside the grid box"),
    # a kind of fixed dimension took a dim that only a later check refused
    *(({"field": {"kind": kind, "params": {"dim": 1}}}, f"field {kind} takes no parameter 'dim'")
      for kind in ("step-1d", "piecewise-constant-multi", "half-plane-indicator",
                   "polygon-indicator", "hoelder", "ramp", "sine-1d")),
    # admitted Aviles-Giga values whose mollifier normalization or moment
    # coefficient overflows were an OverflowError traceback (exit 5)
    *(({"experiment": experiment, "field": {"kind": kind, "params": {}},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
        "eps_ladder": {"start_cells": 16, "ratio": 0.75, "count": 3}, **values}, key)
      for experiment, kind, values, key in [
          ("ag-chain", "pyramid-eikonal", {"mollifier": {"k": 170}}, "k = 170"),
          ("ag-upper", "cone-eikonal", {"q": 3.0, "p": 2.001}, "p = 2.001"),
          ("ag-upper", "cone-eikonal", {"q": 1.0001}, "q = 1.0001"),
      ]),
    # hoelder terms: -1 sampled an all-zero field (exit 0), -5 was numpy's
    # "negative dimensions", 1023 a RuntimeWarning and a non-finite field,
    # 1024 an OverflowError (exit 5), and 1021 overflows on [0, 8]
    *(({"experiment": "bbm-sweep", "field": {"kind": "hoelder", "params": {"terms": terms}},
        "grid": {"lo": [0.0], "hi": [hi], "n": [256]},
        "eps_ladder": {"start_cells": 32, "ratio": 0.5, "count": 3}}, "terms")
      for terms, hi in [(-1, 1.0), (-5, 1.0), (1023, 1.0), (1024, 1.0), (1021, 8.0)]),
    # one direction in 1D evaluated +-e1 anyway
    ({"experiment": "besov", "field": {"kind": "step-1d", "params": {"position": 0.0}},
      "eps_ladder": {"start_cells": 32, "ratio": 0.5, "count": 2}, "directions": 1}, "directions"),
], ids=["field", "field-params", "grid", "eps-ladder", "mollifier", "fit-model",
        "directions-zero", "directions-float", "field-param-unknown", "directions-below-2d",
        "count-float", "kappa-bool", "q-string", "n-float", "key-unknown", "ladder-start",
        "field-param-kind", "field-kind-missing", "ball-radius-overflow",
        "block-random-range-overflow", "block-random-range-negative", "block-random-seed",
        "hoelder-seed", "pair-sum-overflow", "two-sided-overflow", "shift-sum-overflow",
        "kernel-sum-overflow", "gagliardo-sum-overflow", "kernel-term-overflow",
        "gagliardo-term-overflow", "vq-2d",
        "ball-leaves-box", "step-1d-dim", "piecewise-constant-multi-dim",
        "half-plane-indicator-dim", "polygon-indicator-dim", "hoelder-dim", "ramp-dim",
        "sine-1d-dim", "ag-chain-k-overflow", "ag-upper-p-overflow", "ag-upper-q-overflow",
        "hoelder-terms-minus-1", "hoelder-terms-minus-5", "hoelder-terms-1023",
        "hoelder-terms-1024", "hoelder-terms-1021-wide-box", "besov-1d-one-direction"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_malformed_config_is_config_error(tmp_path, capsys, override, key):
    cfg = write_config(tmp_path, "malformed.json", **override)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert "Traceback" not in err
    # the output directory is created only after the experiment succeeds
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("fit_model, slope", [("linear-in-eps", 1e152), ("constant", 1e151)])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_of_values_near_the_float_limit_runs(tmp_path, fit_model, slope):
    # the fit's unread residual was an OverflowError traceback (exit 5), or a
    # numpy overflow warning
    import math

    cfg = write_config(
        tmp_path, "big.json", experiment="bbm-sweep", fit_model=fit_model,
        field={"kind": "linear", "params": {"slope": [slope]}},
        grid={"lo": [0.0], "hi": [1.0], "n": [8192]},
        eps_ladder={"start_cells": 64, "ratio": 0.5, "count": 4},
    )
    assert main(["run", str(cfg)]) == EXIT_OK
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert len(rows) == 5 and all(math.isfinite(float(v)) for r in rows for v in r.split(","))


@pytest.mark.parametrize("field", [
    {"kind": "step-1d", "params": {"position": 5.0}},
    {"kind": "piecewise-constant-multi", "params": {"positions": [-3.0, 4.0], "levels": [0.0, 1.0, 2.0]}},
])
def test_jump_outside_the_box_is_jump_free(tmp_path, capsys, field):
    # a constant field on the box: lhs 0, and now rhs 0 (it was 2 for the step)
    cfg = write_config(tmp_path, "outside.json", field=field)
    with pytest.warns(UserWarning, match="no jump pieces"):
        assert main(["run", str(cfg)]) == EXIT_OK
    (rep,) = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["lhs"] == 0.0 and rep["rhs"] == 0.0 and rep["passed"]
    assert capsys.readouterr().out.startswith("PASS jump-energy identity")


def test_jump_verify_runs_on_a_jump_below_1e_8(tmp_path):
    cfg = write_config(tmp_path, "tiny.json", field={"kind": "step-1d", "params": {"position": 0.0, "high": 1e-9}})
    assert main(["run", str(cfg)]) == EXIT_OK
    (rep,) = json.loads((tmp_path / "out" / "report.json").read_text())
    assert rep["rhs"] > 0.0 and rep["passed"]


def test_jump_verify_refuses_equal_step_levels_naming_the_traces(tmp_path, capsys):
    cfg = write_config(tmp_path, "flat.json", field={"kind": "step-1d", "params": {"position": 0.0, "high": 0.0}})
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "plus and minus must differ" in err
    assert "Traceback" not in err


def test_integer_spelling_of_a_real_gives_the_same_bytes(tmp_path):
    outputs = []
    for q in (3, 3.0):
        cfg = write_config(tmp_path, "q.json", q=q, out_dir=str(tmp_path / f"out{q!r}"))
        assert main(["run", str(cfg)]) == EXIT_OK
        outputs.append([(tmp_path / f"out{q!r}" / f).read_bytes() for f in ("sweep.csv", "report.json")])
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("error", [TypeError, KeyError])
def test_internal_error_is_exit_5_with_traceback(tmp_path, capsys, monkeypatch, error):
    def broken(cfg):
        raise error("bug in an experiment body")

    monkeypatch.setitem(EXPERIMENTS, "jump-verify", broken)
    assert main(["run", str(write_config(tmp_path, "cfg.json"))]) == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and error.__name__ in err


@pytest.mark.parametrize("mollifier,key", [
    ({"profile": "gaussian-bump"}, "mollifier.profile"),
    ({"k": 2.5}, "mollifier.k"),
    ({"k": "3"}, "mollifier.k"),
    ({"k": True}, "mollifier.k"),
    ({"k": 1}, "mollifier.k"),
    ({"profile": "exponential-bump", "k": 2}, "mollifier.k"),
    # the radial node count is a module constant, no longer a config key
    ({"resolution": 64}, "mollifier key 'resolution'"),
    ({"resolutoin": 128}, "mollifier key 'resolutoin'"),
], ids=["profile-unknown", "k-float", "k-string", "k-bool", "k-below-2", "k-for-exponential",
        "resolution-removed", "key-unknown"])
def test_mollifier_config_rejected_at_load(tmp_path, capsys, mollifier, key):
    # jump-verify builds no mollifier, so only load_config can refuse these
    cfg = write_config(tmp_path, "moll.json", mollifier=mollifier)
    assert main(["run", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and key in err
    assert not (tmp_path / "out").exists()


def test_mollifier_config_accepted(tmp_path):
    # the config holds the resolved values build_mollifier takes
    for mollifier, resolved in (
        ({"profile": "exponential-bump"}, {"profile": "exponential-bump", "k": None}),
        ({"profile": "polynomial-bump", "k": 3}, {"profile": "polynomial-bump", "k": 3}),
        ({}, {"profile": "polynomial-bump", "k": 2}),
    ):
        cfg = load_config(write_config(tmp_path, "moll.json", mollifier=mollifier))
        assert cfg.mollifier == resolved


@pytest.mark.parametrize("payload", [
    json.dumps({"a": 1}).encode(),
    json.dumps([1, 2]).encode(),
    json.dumps([{"passed": True}, "x"]).encode(),
    json.dumps([{"passed": "false"}]).encode(),
    json.dumps([{"passed": 0}]).encode(),
    json.dumps([{"provenance": "p"}]).encode(),
    json.dumps("text").encode(),
    b"\xff\xfe[]",
])
def test_report_wrong_json_shape_is_config_error(tmp_path, capsys, payload):
    bad = tmp_path / "shape.json"
    bad.write_bytes(payload)
    assert main(["report", str(bad)]) == EXIT_CONFIG
    assert f"corrupt report file: {bad}" in capsys.readouterr().err


def _run_python(code: str, cwd: Path | None = None, **env) -> str:
    """stdout of ``python -c code``; each ``env`` entry set, or unset when None."""
    src = str(Path(bvqlab.__file__).resolve().parents[1])
    environ = {**os.environ, "PYTHONPATH": src, **env}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={k: v for k, v in environ.items() if v is not None}, cwd=cwd,
    )
    return out.stdout.strip()


@pytest.mark.parametrize("user, threads", [(None, "1"), ("2", "2")])
def test_openblas_threads_are_capped_unless_the_user_set_them(user, threads):
    # importing bvqlab sets the cap before numpy loads; a user's value wins
    code = "import os, bvqlab, numpy; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert _run_python(code, OPENBLAS_NUM_THREADS=user) == threads


def test_cli_import_does_not_load_scipy_signal():
    # importing scipy.special about doubled the start-up of every CLI run;
    # no scipy module at all may load on import
    code = "import sys, bvqlab.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _run_python(code) == "[]"


def test_cli_import_compiles_no_generated_code():
    # generating record classes compiled 163 strings on every start-up;
    # the only sources compiled on import now are module files
    code = (
        "import sys, numpy\n"
        "names = []\n"
        "sys.addaudithook(lambda event, args: event == 'compile' and names.append(str(args[1])))\n"
        "import bvqlab.cli\n"
        "print(sorted({n for n in names if not n.endswith('.py')}))\n"
    )
    assert _run_python(code) == "[]"


@pytest.mark.parametrize("experiment", ["bbm-sweep", "constants"])
def test_run_without_mollifier_does_not_load_scipy_special(tmp_path, experiment):
    # a run that builds no mollifier loads no scipy module at all
    cfg = write_config(
        tmp_path, "cold.json", experiment=experiment,
        grid={"lo": [-1.0], "hi": [1.0], "n": [512]},
        eps_ladder={"start_cells": 32, "ratio": 0.5, "count": 3},
        fit_model="constant", out_dir=str(tmp_path / "out_cold"),
    )
    code = (
        "import sys; from bvqlab.cli import main; "
        f"rc = main(['run', {str(cfg)!r}]); "
        "print(rc, 'scipy.special' in sys.modules, any(m.split('.')[0] == 'scipy' for m in sys.modules))"
    )
    assert _run_python(code, cwd=tmp_path).splitlines()[-1] == f"{EXIT_OK} False False"
    assert (tmp_path / "out_cold" / "report.json").exists()


def test_every_experiment_runs_without_scipy(tmp_path):
    # the runtime is numpy-only: with every scipy import blocked, one small
    # config of each experiment kind runs to exit 0, and so does erosion of
    # a disc mask (the exact integer erosion test) with a mollifier built on
    # the library side
    ladder = {"start_cells": 32, "ratio": 0.5, "count": 3}
    configs = [
        dict(experiment=experiment, field=field, grid=grid, eps_ladder=ladder, **extra)
        for experiment, field, grid, extra in KIND_CASES
    ] + [
        dict(experiment="jump-verify"),
        dict(experiment="constants"),
        dict(experiment="two-sided",
             field={"kind": "block-random", "params": {"seed": 4, "dim": 2}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [40, 40]},
             eps_ladder={"start_cells": 9, "ratio": 0.9, "count": 2}),
        dict(experiment="ag-upper",
             field={"kind": "cone-eikonal", "params": {}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
             eps_ladder={"start_cells": 16, "ratio": 0.75, "count": 3}, q=3.0, p=4.0),
    ]
    assert sorted({c["experiment"] for c in configs}) == sorted(EXPERIMENTS)
    paths = [
        str(write_config(tmp_path, f"c{i}.json", out_dir=str(tmp_path / f"out{i}"), **c))
        for i, c in enumerate(configs)
    ]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from bvqlab import DomainMask, Grid, GridRadius, build_mollifier\n"
        "from bvqlab.cli import main\n"
        f"print([main(['run', p]) for p in {paths!r}])\n"
        "g = Grid.for_box([-1.0, -1.0], [1.0, 1.0], [96, 96])\n"
        "disc = DomainMask.from_predicate(g, lambda p: (p * p).sum(axis=1) < 0.8)\n"
        "build_mollifier('exponential-bump', 2)\n"
        "print(disc.erode(GridRadius.from_cells(5).length(g.spacing)).count)\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.split('.')[0] == 'scipy' and mod))\n"
    )
    codes, eroded, loaded = _run_python(code, cwd=tmp_path).splitlines()[-3:]
    assert codes == str([EXIT_OK] * len(configs))
    assert eroded == "4548"
    assert loaded == "[]"


def test_every_experiment_runs_without_numpy_random(tmp_path):
    # seeded fields draw from bvqlab._rng: with numpy.random blocked, one
    # small config of each experiment kind runs to exit 0, every seeded
    # field kind among them, and no numpy.random module loads
    ladder = {"start_cells": 32, "ratio": 0.5, "count": 3}
    hoelder = {"kind": "hoelder", "params": {"s": 0.75, "seed": 11}}
    blocks = {"kind": "block-random", "params": {"seed": 4, "dim": 1, "blocks": 16}}
    seeded = {"bbm-sweep": hoelder, "gagliardo": hoelder, "vq": blocks, "b-space": blocks}
    configs = [
        dict(experiment=experiment, field=seeded.get(experiment, field), grid=grid,
             eps_ladder=ladder, **extra)
        for experiment, field, grid, extra in KIND_CASES
    ] + [
        dict(experiment="jump-verify"),
        dict(experiment="constants"),
        dict(experiment="two-sided",
             field={"kind": "block-random", "params": {"seed": 4, "dim": 2}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [40, 40]},
             eps_ladder={"start_cells": 9, "ratio": 0.9, "count": 2}),
        dict(experiment="ag-upper",
             field={"kind": "cone-eikonal", "params": {}},
             grid={"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [64, 64]},
             eps_ladder={"start_cells": 16, "ratio": 0.75, "count": 3}, q=3.0, p=4.0),
    ]
    assert sorted({c["experiment"] for c in configs}) == sorted(EXPERIMENTS)
    paths = [
        str(write_config(tmp_path, f"c{i}.json", out_dir=str(tmp_path / f"out{i}"), **c))
        for i, c in enumerate(configs)
    ]
    code = (
        "import sys; sys.modules['numpy.random'] = None\n"
        "from bvqlab.cli import main\n"
        f"print([main(['run', p]) for p in {paths!r}])\n"
        "print(sorted(m for m, mod in sys.modules.items() if m.startswith('numpy.random') and mod))\n"
    )
    codes, loaded = _run_python(code, cwd=tmp_path).splitlines()[-2:]
    assert codes == str([EXIT_OK] * len(configs))
    assert loaded == "[]"


@pytest.mark.parametrize("params,ladder,fit_model,code,message", [
    # two rungs are too few for the linear fit of the gradient sweep
    ({"lo": [-1.0], "hi": [1.0]}, {"start_cells": 32, "ratio": 0.5, "count": 2}, "linear-in-eps",
     EXIT_CONFIG, "config error: linear-in-eps extrapolation needs >= 3 eps values"),
    # the largest rung erodes the whole domain
    ({"lo": [-1.0], "hi": [1.0]}, {"start_cells": 512, "ratio": 0.5, "count": 3}, "constant",
     EXIT_REGIME, "regime guard: erosion by 2.0 emptied the mask"),
    # a 2D pyramid on the 1D grid: the gradient sampling names both dimensions
    ({}, {"start_cells": 32, "ratio": 0.5, "count": 3}, "linear-in-eps",
     EXIT_CONFIG, "config error: field dimension 2 does not match grid dimension 1"),
], ids=["short-for-fit", "at-diameter", "field-dimension"])
def test_ag_chain_bad_ladder_exit_code(tmp_path, capsys, params, ladder, fit_model, code, message):
    cfg = write_config(
        tmp_path, "bad_chain.json", experiment="ag-chain",
        field={"kind": "pyramid-eikonal", "params": params},
        grid={"lo": [-1.0], "hi": [1.0], "n": [512]},
        eps_ladder=ladder, fit_model=fit_model, out_dir=str(tmp_path / "out_bad"),
    )
    assert main(["run", str(cfg)]) == code
    assert capsys.readouterr().err.strip() == message
