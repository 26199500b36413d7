"""Self-test of the benchmark's tracer and correctness gate on tiny configs.

    PYTHONPATH=src python3 -m pytest -q bench/tests
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import bvqlab  # noqa: E402
from bvqlab.cli import main as cli_main  # noqa: E402
from tracer import Tracer, cubes_inside, pair_counts  # noqa: E402
from workloads import check_output  # noqa: E402

TINY = {
    "two-sided": {
        "experiment": "two-sided",
        "field": {"kind": "block-random", "params": {"seed": 4, "dim": 2}},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [40, 40]},
        "eps_ladder": {"start_cells": 9, "ratio": 0.9, "count": 2},
    },
    "b-space": {
        "experiment": "b-space",
        "field": {"kind": "ball-indicator", "params": {}},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [32, 32]},
        "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1},
    },
    "besov": {
        "experiment": "besov",
        "field": {"kind": "polygon-indicator", "params": {}},
        "grid": {"lo": [0.0, 0.0], "hi": [1.0, 1.0], "n": [32, 32]},
        "eps_ladder": {"start_cells": 8, "ratio": 0.5, "count": 1},
        "directions": 6,
    },
    "jump-verify": {
        "experiment": "jump-verify",
        "field": {"kind": "step-1d", "params": {"position": 0.0}},
        "grid": {"lo": [-1.0], "hi": [1.0], "n": [1024]},
        "eps_ladder": {"start_cells": 32, "ratio": 0.5, "count": 2},
        "q": 2.0,
        "tolerance": 0.05,
    },
}


def _run(tmp_path: Path, name: str, tag: str, tracer: Tracer | None = None) -> Path:
    cfg_path = tmp_path / f"{name}.json"
    cfg_path.write_text(json.dumps(TINY[name]))
    out = tmp_path / f"{name}-{tag}"
    if tracer is not None:
        tracer.install()
    try:
        assert cli_main(["run", str(cfg_path), "--out", str(out)]) == 0
    finally:
        if tracer is not None:
            tracer.restore()
    return out


def _attributes() -> dict:
    snap = {}
    for name, mod in sys.modules.items():
        if name == "bvqlab" or name.startswith("bvqlab."):
            snap.update({(name, k): v for k, v in vars(mod).items()})
    classes = [bvqlab.DomainMask] + [
        c for c in vars(bvqlab.fields).values()
        if inspect.isclass(c) and issubclass(c, bvqlab.AnalyticField)
    ]
    for cls in classes:
        snap.update({(cls.__qualname__, k): v for k, v in vars(cls).items()})
    return snap


def test_wrappers_cover_every_name_and_restore_it():
    before = _attributes()
    original = bvqlab.kernels.bbm_value
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = bvqlab.kernels.bbm_value
        assert wrapped is not original
        for mod in (bvqlab, bvqlab.aviles, bvqlab.cubes, bvqlab.variation):
            assert mod.bbm_value is wrapped
        assert bvqlab.jumps.pair_power_sums is bvqlab.kernels.pair_power_sums
        assert bvqlab.jumps.pair_power_sums.__wrapped__ is not None
        assert "evaluate_with_gradient" in vars(bvqlab.fields.PyramidField)
        assert bvqlab.fields.PyramidField.evaluate_with_gradient.__wrapped__ is not None
    finally:
        tracer.restore()
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_counters_repeat_and_tracing_changes_no_byte(tmp_path):
    for name in ("two-sided", "b-space", "besov"):
        plain = _run(tmp_path, name, "plain")
        runs = []
        for tag in ("t1", "t2"):
            tr = Tracer()
            out = _run(tmp_path, name, tag, tr)
            for f in ("sweep.csv", "report.json"):
                assert (out / f).read_bytes() == (plain / f).read_bytes(), (name, f)
            runs.append((dict(tr.calls), dict(tr.counters)))
        assert runs[0] == runs[1], name
    calls, counters = runs[0]
    assert calls["kernels.directional_value"] == 12
    assert counters["kernels.directional_value.samples"] > 0


def test_pair_counters_match_enumeration(tmp_path):
    tr = Tracer()
    _run(tmp_path, "two-sided", "count", tr)
    c = tr.counters
    # two x-masks (eroded by 2 eps and eps) per rung, ladder 9 and 8 cells
    offs = [(i, j) for i in range(-9, 10) for j in range(-9, 10) if 0 < i * i + j * j <= 81]
    offs8 = [o for o in offs if o[0] ** 2 + o[1] ** 2 <= 64]
    terms = sum(2 * (40 - abs(i)) * (40 - abs(j)) for i, j in offs + offs8)
    assert c["kernels.pair_power_sums.offsets"] == 2 * (len(offs) + len(offs8))
    assert c["kernels.pair_power_sums.terms"] == terms
    assert 0 < c["kernels.pair_power_sums.useful_terms"] < terms
    assert c["kernels.pair_power_sums.distinct_offsets"] == c["kernels.pair_power_sums.offsets"]


def test_pair_counts_and_cube_candidates_brute_force():
    rng = np.random.default_rng(0)
    x_in = rng.random((7, 9)) < 0.6
    y_in = rng.random((7, 9)) < 0.7
    counts = pair_counts(x_in, y_in)
    for v0 in range(-6, 7):
        for v1 in range(-8, 9):
            brute = sum(
                1
                for a in range(7)
                for b in range(9)
                if x_in[a, b] and 0 <= a + v0 < 7 and 0 <= b + v1 < 9 and y_in[a + v0, b + v1]
            )
            assert counts[v0 + 6, v1 + 8] == brute
    inside = rng.random((12, 10)) < 0.9
    for side, stride in ((2, 1), (3, 2), (4, 3)):
        brute = sum(
            1
            for a in range(0, 12 - side + 1, stride)
            for b in range(0, 10 - side + 1, stride)
            if inside[a : a + side, b : b + side].all()
        )
        assert cubes_inside(inside, side, stride) == brute


def test_gate_fails_a_run_outside_the_reference(tmp_path):
    out = _run(tmp_path, "jump-verify", "gate")
    cfg = TINY["jump-verify"]
    assert check_output(cfg, out) == []
    reports = json.loads((out / "report.json").read_text())
    reports[0]["lhs"] = 2.0 * (1.0 + 2 * cfg["tolerance"])
    (out / "report.json").write_text(json.dumps(reports))
    assert any("not within" in p for p in check_output(cfg, out))
    (out / "sweep.csv").unlink()
    assert check_output(cfg, out) == ["missing artifact sweep.csv"]


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
