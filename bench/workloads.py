"""Benchmark workloads: experiment configs per workload and their output checks.

Each workload is a batch of ``bvqlab run`` configs, mostly at
acceptance-criterion sizes.  The workload seed only picks the ``seed`` parameter of the
``hoelder`` and ``block-random`` fields; every check on those configs is an
untoleranced inequality that holds for any seed.  Configs with an analytic
headline value are checked against the references kept here, not against
the right-hand side the program reports.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Analytic references: C_N, the step/half-plane jump energy, the q=1 sine
# gradient mass times C_1, and the pyramid ridge energy.
DIMENSIONAL_CONSTANTS = {1: 2.0, 2: 2.0, 3: 2.0 * math.pi / 3.0}
CONSTANTS_TOL = 1e-10
JUMP_ENERGY = 2.0
SINE_Q1_LIMIT = 4.0
RIDGE_ENERGY = 8.0 / 3.0

ARTIFACTS = ("manifest.json", "sweep.csv", "report.json", "plot_sweep.dat")

UNIT_1D = {"lo": [0.0], "hi": [1.0]}
UNIT_2D = {"lo": [0.0, 0.0], "hi": [1.0, 1.0]}


def _ladder(start_cells: int, ratio: float, count: int) -> dict:
    return {"start_cells": start_cells, "ratio": ratio, "count": count}


def _cfg(experiment, field, grid, n, ladder, **extra) -> dict:
    cfg = {
        "experiment": experiment,
        "grid": dict(grid, n=n),
        "eps_ladder": ladder,
    }
    if field is not None:
        cfg["field"] = {"kind": field[0], "params": field[1]}
    cfg.update(extra)
    return cfg


def kernel_sweeps(seed: int) -> list[tuple[str, dict]]:
    seed %= 2**32  # numpy generators take non-negative seeds
    return [
        ("step-jump", _cfg(
            "jump-verify", ("step-1d", {"position": 0.0}),
            {"lo": [-1.0], "hi": [1.0]}, [8192], _ladder(256, 0.5, 4),
            q=3.0, tolerance=0.03)),
        ("hoelder-sweep", _cfg(
            "bbm-sweep", ("hoelder", {"s": 0.75, "seed": seed}),
            UNIT_1D, [8192], _ladder(2048, 0.5, 9),
            q=2.0, fit_model="linear-in-eps")),
        ("hoelder-gagliardo", _cfg(
            "gagliardo", ("hoelder", {"s": 0.75, "seed": seed}),
            UNIT_1D, [8192], _ladder(2048, 0.5, 4), q=2.0)),
        ("sine-q1", _cfg(
            "q1-bv", ("sine-1d", {}),
            UNIT_1D, [4096], _ladder(64, 0.75, 5), tolerance=0.03)),
        ("half-plane-jump", _cfg(
            "jump-verify",
            ("half-plane-indicator", {"normal": [1.0, 0.0], "offset": 0.50243}),
            UNIT_2D, [512, 512], _ladder(32, 0.75, 3),
            q=2.0, tolerance=0.05, fit_model="constant")),
        ("block-vq", _cfg(
            "vq", ("block-random", {"seed": seed, "dim": 1, "blocks": 16}),
            UNIT_1D, [2048], _ladder(64, 0.5, 4), q=2.0)),
        ("constants", _cfg("constants", None, UNIT_1D, [64], _ladder(16, 0.5, 1))),
    ]


def eikonal_chain(seed: int) -> list[tuple[str, dict]]:
    # 64^2 keeps a batch near 7 s, so a run holds several; every check passes
    # here, while at 80^2 the ridge limit falls outside 5% of 8/3.
    del seed  # the eikonal profiles are not seeded
    return [
        ("pyramid-chain", _cfg(
            "ag-chain", ("pyramid-eikonal", {}),
            UNIT_2D, [64, 64], _ladder(16, 0.75, 3), tolerance=0.05)),
        ("cone-upper", _cfg(
            "ag-upper", ("cone-eikonal", {}),
            UNIT_2D, [64, 64], _ladder(16, 0.75, 3), q=3.0, p=4.0)),
    ]


def packing_directional(seed: int) -> list[tuple[str, dict]]:
    seed %= 2**32
    return [
        ("block-packing", _cfg(
            "b-space", ("block-random", {"seed": seed, "blocks": 12, "dim": 2}),
            UNIT_2D, [256, 256], _ladder(16, 0.75, 3), q=2.0)),
        ("polygon-besov", _cfg(
            "besov", ("polygon-indicator", {}),
            UNIT_2D, [256, 256], _ladder(32, 0.75, 4), q=2.0, directions=64)),
        ("ball-two-sided", _cfg(
            "two-sided", ("ball-indicator", {}),
            UNIT_2D, [192, 192], _ladder(16, 0.75, 3), q=2.0)),
    ]


WORKLOADS = {
    "kernel-sweeps": kernel_sweeps,
    "eikonal-chain": eikonal_chain,
    "packing-directional": packing_directional,
}


def _within(value: float, ref: float, tol: float) -> bool:
    return abs(value - ref) <= tol * max(abs(value), abs(ref))


def _rows(out: Path) -> list[list[float]]:
    with open(out / "sweep.csv", newline="") as fh:
        return [[float(v) for v in row] for row in list(csv.reader(fh))[1:]]


def check_output(cfg: dict, out: Path) -> list[str]:
    """Problems found in one experiment's artifacts; empty when it is correct."""
    missing = [name for name in ARTIFACTS if not (out / name).is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing]
    problems = []
    reports = json.loads((out / "report.json").read_text())
    problems += [f"FAIL verdict: {r['provenance']}" for r in reports if not r["passed"]]
    rows = _rows(out)
    if not rows or not all(math.isfinite(v) for row in rows for v in row):
        problems.append("sweep.csv is empty or holds a non-finite value")
        return problems
    exp = cfg["experiment"]
    tol = cfg.get("tolerance")
    if exp == "constants":
        for row in rows:
            n, quad = int(row[0]), row[1]
            if abs(quad - DIMENSIONAL_CONSTANTS[n]) > CONSTANTS_TOL:
                problems.append(f"C_{n} = {quad!r} off the reference")
    elif exp == "jump-verify":
        if not _within(reports[0]["lhs"], JUMP_ENERGY, tol):
            problems.append(f"jump limit {reports[0]['lhs']!r} not within {tol} of 2")
    elif exp == "q1-bv":
        if not _within(reports[0]["lhs"], SINE_Q1_LIMIT, tol):
            problems.append(f"q=1 limit {reports[0]['lhs']!r} not within {tol} of 4")
    elif exp == "ag-chain":
        ridge = [r for r in reports if r["provenance"].startswith("ridge energy")]
        if not ridge or abs(ridge[0]["lhs"] - RIDGE_ENERGY) > 1e-12:
            problems.append("ridge energy missing or not 8/3")
        elif not _within(ridge[0]["rhs"], RIDGE_ENERGY, tol):
            problems.append(f"ridge kernel limit {ridge[0]['rhs']!r} not within {tol} of 8/3")
    elif exp == "bbm-sweep":
        if len(rows) != cfg["eps_ladder"]["count"] + 1 or min(r[1] for r in rows) < 0:
            problems.append("bbm sweep rows missing or negative")
    elif exp == "besov":
        if rows[-1][1] != max(r[1] for r in rows[:-1]):
            problems.append("besov value is not the max of the directional sups")
    return problems
