"""Configuration-driven experiment runner.

Experiments are described by a JSON config file:

    {
      "experiment": "jump-verify",            # see EXPERIMENTS below
      "field": {"kind": "step-1d", "params": {"position": 0.0}},
      "grid": {"lo": [-1.0], "hi": [1.0], "n": [8192]},
      "q": 2.0,                                # and "p" for the ag checks
      "eps_ladder": {"start_cells": 256, "ratio": 0.5, "count": 4},
      "kappa": 8,
      "tolerance": null,                       # null -> defaults table
      "fit_model": "constant",
      "mollifier": {"profile": "polynomial-bump", "k": 2},
      "out_dir": "out/step"
    }

Every key, with its JSON type, range and default, is a row of ``_SCHEMA``;
``load_config`` reads each once, refuses unknown keys at every level, and
returns one record of the undotted keys and the objects built from the rest.
The eps ladder is geometric, its rungs ``start_cells * ratio**i`` rounded to
whole cells, so pair-inclusion radii stay exact.  ``run`` writes a
manifest (config echo + versions), a CSV sweep table at full double
precision, a JSON report of every comparison, and two-column plot data.
Exit codes: 0 ok, 1 failed check, 2 config error, 3 regime guard,
4 unknown field, 5 internal error (with its traceback).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import defaults
from .cubes import check_b_bound
from .errors import ConfigError, EmptyMaskError, RegimeError, UnknownFieldError
from .fields import (
    list_fields, make_field, sample_analytic, sample_gradient, typed_value,
)
from .grid import DomainMask, Grid
from .jumps import (
    dimensional_constant,
    dimensional_constant_closed_form,
    verify_jump_formula,
    verify_q1_full_bv,
    verify_two_sided,
)
from .kernels import (
    FIT_MODELS,
    GridRadius,
    bbm_sweep,
    besov_seminorm_pow,
    directional_sup,
    gagliardo_dominates_bbm,
)
from .mollifier import PROFILES, build_mollifier
from .aviles import ag_chain_reports, check_ag_upper_bound
from .reports import ComparisonReport, equal_within
from .variation import check_vq_embedding

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_UNKNOWN_FIELD = 4
EXIT_INTERNAL = 5

_FMT = "%.17g"


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


# --------------------------------------------------------------------------
# Artifact writers.
# --------------------------------------------------------------------------


def _write_manifest(cfg: SimpleNamespace, out: Path):
    from . import __version__

    manifest = {
        "config": cfg.raw,
        "versions": {
            "bvqlab": __version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "seed": getattr(cfg.field, "seed", None),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))


def _write_csv(out: Path, name: str, header: list[str], rows: list[tuple]):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_FMT % v if isinstance(v, float) else str(v) for v in row))
    (out / name).write_text("\n".join(lines) + "\n")


def _write_plot(out: Path, name: str, xs, ys):
    lines = [f"{_FMT % x} {_FMT % y}" for x, y in zip(xs, ys)]
    (out / name).write_text("\n".join(lines) + "\n")


def _write_reports(out: Path, reports: list[ComparisonReport]):
    payload = [r.to_dict() for r in reports]
    (out / "report.json").write_text(json.dumps(payload, indent=2, sort_keys=True))


# --------------------------------------------------------------------------
# Experiment bodies: each returns (csv header, csv rows, reports).
# --------------------------------------------------------------------------


def _sample(cfg: SimpleNamespace):
    return sample_analytic(cfg.field, DomainMask.full(cfg.grid))


def _exp_constants(cfg):
    rows, reports = [], []
    for n in (1, 2, 3):
        quad = dimensional_constant(n)
        closed = dimensional_constant_closed_form(n)
        rows.append((n, quad, closed, abs(quad - closed)))
        reports.append(
            equal_within(quad, closed, 1e-10, f"dimensional constant (N={n})")
        )
    return ["N", "quadrature", "closed_form", "abs_diff"], rows, reports


def _exp_bbm_sweep(cfg):
    u = _sample(cfg)
    sweep = bbm_sweep(u, cfg.q, cfg.ladder, cfg.fit_model, kappa=cfg.kappa)
    rows = list(zip(sweep.eps, sweep.values))
    rows.append((0.0, sweep.limit))
    reports = []
    if not sweep.monotone:
        # the underlying limit is a limsup; a non-monotone sweep is worth a
        # flag in the report but is not a failure
        reports.append(
            ComparisonReport(
                min(sweep.values), max(sweep.values), "leq", 0.0, True,
                "non-monotone sweep flag (limsup vs liminf undecided)",
                details={"values": list(sweep.values)},
            )
        )
    return ["eps", "value"], rows, reports


def _exp_jump_verify(cfg):
    return _sweep_rows(verify_jump_formula(
        cfg.field, DomainMask.full(cfg.grid), cfg.q, cfg.ladder, fit_model=cfg.fit_model,
        tolerance=cfg.tolerance, kappa=cfg.kappa,
    ))


def _exp_q1_bv(cfg):
    return _sweep_rows(verify_q1_full_bv(
        cfg.field, DomainMask.full(cfg.grid), cfg.ladder, fit_model=cfg.fit_model,
        tolerance=cfg.tolerance, kappa=cfg.kappa,
    ))


def _sweep_rows(rep):
    rows = list(zip(rep.details["sweep_eps"], rep.details["sweep_values"]))
    return ["eps", "value"], rows, [rep]


def _exp_two_sided(cfg):
    u = _sample(cfg)
    h = u.grid.spacing
    rows, reports = [], []
    for eps in cfg.ladder:
        rep = verify_two_sided(u, cfg.q, eps, kappa=cfg.kappa)
        rows.append((eps.length(h), rep.lhs, rep.mid, rep.rhs))
        reports.append(rep)
    return ["eps", "lower", "directional_sup", "upper"], rows, reports


def _exp_besov(cfg):
    u = _sample(cfg)
    rows = []
    for eps in cfg.ladder:
        rows.append(
            (eps.length(u.grid.spacing),
             directional_sup(u, cfg.q, eps, cfg.directions, kappa=cfg.kappa))
        )
    value = besov_seminorm_pow(u, cfg.q, cfg.ladder, cfg.directions, kappa=cfg.kappa)
    rows.append((0.0, value))
    return ["rho", "directional_sup"], rows, []


def _exp_gagliardo(cfg):
    u = _sample(cfg)
    rows, reports = [], []
    triples = gagliardo_dominates_bbm(u, cfg.q, cfg.ladder, kappa=cfg.kappa)
    for eps, (bbm, gag, ok) in zip(cfg.ladder, triples):
        rows.append((eps.length(u.grid.spacing), bbm, gag))
        reports.append(
            ComparisonReport(
                bbm, gag, "leq", 0.0, ok,
                f"kernel sum dominated by fractional seminorm (eps={eps.length(u.grid.spacing):g})",
            )
        )
    return ["eps", "bbm", "gagliardo"], rows, reports


def _exp_vq(cfg):
    u = _sample(cfg)
    rep = check_vq_embedding(u, cfg.q, cfg.ladder, kappa=cfg.kappa)
    # rep.rhs is 4 * q_variation_pow(u.values, q), finite, so this is that float
    rows = [(rep.rhs / 4.0, rep.lhs, rep.rhs)]
    return ["q_variation_pow", "kernel_sup", "bound"], rows, [rep]


def _exp_b_space(cfg):
    u = _sample(cfg)
    reports = check_b_bound(u, cfg.q, cfg.ladder, kappa=cfg.kappa)
    rows = [
        (eps.length(u.grid.spacing), rep.lhs, rep.rhs, rep.details["cubes"])
        for eps, rep in zip(cfg.ladder, reports)
    ]
    return ["eps", "cube_value", "bound", "cubes"], rows, reports


def _gradient_and_mollifier(cfg: SimpleNamespace):
    grad = sample_gradient(cfg.field, DomainMask.full(cfg.grid))
    return grad, build_mollifier(dim=cfg.grid.dim, **cfg.mollifier)


def _exp_ag_upper(cfg):
    grad, eta = _gradient_and_mollifier(cfg)
    rep = check_ag_upper_bound(
        grad, eta, cfg.q, cfg.p, cfg.ladder, kappa=cfg.kappa, fit_model=cfg.fit_model,
    )
    rows = list(zip(rep.details["eps"], rep.details["lhs_values"]))
    return ["eps", "lhs_energy"], rows, [rep]


def _exp_ag_chain(cfg):
    grad, eta = _gradient_and_mollifier(cfg)
    # the chain's masked sweep and the ridge energy's unmasked one share a pass
    reports = ag_chain_reports(
        grad, eta, cfg.ladder, cfg.field.jump_spec(cfg.grid), cfg.tolerance,
        kappa=cfg.kappa, fit_model=cfg.fit_model,
    )
    d = reports[0].details
    rows = list(zip(d["eps"], d["young_lhs"], d["middle_energy"], d["matched_bounds"]))
    return ["eps", "young_lhs", "middle", "bound"], rows, reports


EXPERIMENTS = {
    "constants": _exp_constants,
    "bbm-sweep": _exp_bbm_sweep,
    "jump-verify": _exp_jump_verify,
    "q1-bv": _exp_q1_bv,
    "two-sided": _exp_two_sided,
    "besov": _exp_besov,
    "gagliardo": _exp_gagliardo,
    "vq": _exp_vq,
    "b-space": _exp_b_space,
    "ag-upper": _exp_ag_upper,
    "ag-chain": _exp_ag_chain,
}


# --------------------------------------------------------------------------
# The config schema: every settable key, read and checked once.
# --------------------------------------------------------------------------

_REQUIRED = object()


def _one_of(names) -> tuple:
    return (lambda v: v in names), "one of " + ", ".join(names)


# key -> (type, range as (test, wording) or None, default).  Types are read
# by fields.typed_value: "int" is a JSON integer, "float" any finite JSON
# number, and a bool is neither.  A dotted key lives in the object named by
# its prefix.  A default may be a function of the keys above it; _REQUIRED
# marks a key without one.  A key given as null reads as absent.  The
# library checks the ranges of q, p and directions, and a ladder too short
# for its fit, itself.
_SCHEMA = {
    "experiment": ("str", _one_of(EXPERIMENTS), _REQUIRED),
    "field.kind": ("str", None, None),
    "field.params": ("dict", None, {}),  # checked by make_field
    "grid.lo": ("tuple[float, ...]", None, _REQUIRED),
    "grid.hi": ("tuple[float, ...]", None, _REQUIRED),
    "grid.n": ("tuple[int, ...]", (lambda v: min(v) >= 1, "each >= 1"), _REQUIRED),
    "q": ("float", None, 2.0),
    "p": ("float", None, 3.0),
    "eps_ladder.start_cells": ("float", (lambda v: 0 < v <= 2**53, "in (0, 2**53]"), _REQUIRED),
    "eps_ladder.ratio": ("float", (lambda v: 0 < v < 1, "in (0, 1)"), 0.5),
    "eps_ladder.count": ("int", (lambda v: v >= 1, ">= 1"), 4),
    "kappa": ("float", (lambda v: v > 0, "> 0"), defaults.KAPPA),
    "tolerance": ("float", (lambda v: v >= 0, ">= 0"), defaults.TOLERANCE),
    "fit_model": ("str", _one_of(FIT_MODELS),
                  lambda v: "constant" if v["experiment"] == "jump-verify" else "linear-in-eps"),
    "directions": ("int", (lambda v: v >= 1, ">= 1"), None),
    "mollifier.profile": ("str", _one_of(PROFILES), "polynomial-bump"),
    "mollifier.k": ("int", (lambda v: v >= 2, ">= 2"),
                    lambda v: 2 if v["mollifier.profile"] == "polynomial-bump" else None),
    "out_dir": ("str", None, "out"),
}


def _read(raw: dict) -> dict:
    """Every ``_SCHEMA`` key of a parsed config, checked, typed and defaulted;
    unknown keys are refused at every level."""
    flat, objects = {}, {key.partition(".")[0] for key in _SCHEMA if "." in key}
    for name, value in raw.items():
        if name in objects:
            _require(value is None or isinstance(value, dict), f"{name} must be a JSON object")
            for inner, item in (value or {}).items():
                _require(f"{name}.{inner}" in _SCHEMA, f"unknown {name} key {inner!r}")
                flat[f"{name}.{inner}"] = item
        else:
            _require(name in _SCHEMA, f"unknown config key {name!r}")
            flat[name] = value
    values = {}
    for key, (annotation, bounds, default) in _SCHEMA.items():
        value = flat.get(key)
        if value is None:
            _require(default is not _REQUIRED, f"{key} is required")
            value = default(values) if callable(default) else default
        values[key] = None if value is None else typed_value(value, annotation, key)
        if bounds is not None and value is not None:
            _require(bounds[0](values[key]), f"{key} must be {bounds[1]}, got {value!r}")
    return values


def load_config(path: str | Path) -> SimpleNamespace:
    """The checked config: ``_read``'s undotted keys, plus the derived
    ``field``, ``grid``, ``ladder``, ``mollifier`` (build_mollifier's profile
    and k), ``out_dir`` as a ``Path`` and ``raw``, the parsed JSON."""
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    v = _read(raw)
    try:
        grid = Grid.for_box(v["grid.lo"], v["grid.hi"], v["grid.n"])
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc
    profile, k = v["mollifier.profile"], v["mollifier.k"]
    _require(profile == "polynomial-bump" or k is None, f"mollifier.k is not taken by {profile}")

    ladder = []
    for i in range(v["eps_ladder.count"]):
        m = round(v["eps_ladder.start_cells"] * v["eps_ladder.ratio"] ** i)
        if m < v["kappa"]:
            break  # the rungs only shrink from here
        if not ladder or m * m < ladder[-1].m2:
            ladder.append(GridRadius.from_cells(m))
    _require(bool(ladder), "eps ladder is empty after snapping to the grid")

    kind = v["field.kind"]
    _require(kind is not None or v["experiment"] == "constants", "field.kind is required")
    undotted = {key: value for key, value in v.items() if "." not in key}
    return SimpleNamespace(**undotted | dict(
        field=None if kind is None else make_field(kind, **v["field.params"]),
        grid=grid,
        ladder=ladder,
        mollifier={"profile": profile, "k": k},
        out_dir=Path(v["out_dir"]),
        raw=raw,
    ))


def run_experiment(cfg: SimpleNamespace) -> int:
    out = cfg.out_dir
    # a file where out_dir or an ancestor should be is refused before the run
    for path in (out, *out.parents):
        if os.path.exists(path):
            _require(os.path.isdir(path), f"cannot create out_dir {out}: {path} is not a directory")
            break
    header, rows, reports = EXPERIMENTS[cfg.experiment](cfg)
    # made only now, so a config rejected by the run leaves no directory
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create out_dir {out}: {exc.strerror}") from None
    _write_manifest(cfg, out)
    _write_csv(out, "sweep.csv", header, rows)
    if rows and len(rows[0]) >= 2:
        _write_plot(out, "plot_sweep.dat", [r[0] for r in rows], [r[1] for r in rows])
    _write_reports(out, reports)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.provenance}: lhs={r.lhs:.6g} rhs={r.rhs:.6g}")
    return EXIT_CHECK_FAILED if failed else EXIT_OK


def report_command(paths: list[str]) -> int:
    if not paths:
        print("usage: bvqlab report REPORT.json [REPORT.json ...]", file=sys.stderr)
        return EXIT_CONFIG
    any_fail = False
    summary = []
    for p in paths:
        path = Path(p)
        if not path.exists():
            print(f"missing report file: {p}", file=sys.stderr)
            return EXIT_CONFIG
        try:
            entries = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError):
            entries = None
        except OSError as exc:
            print(f"unreadable report file: {p}: {exc.strerror}", file=sys.stderr)
            return EXIT_CONFIG
        # a verdict is a JSON boolean: "false" or 0 is no verdict, and neither passes
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("passed"), bool) for e in entries
        ):
            print(f"corrupt report file: {p}", file=sys.stderr)
            return EXIT_CONFIG
        for e in entries:
            ok = e["passed"]
            any_fail = any_fail or not ok
            line = f"{'PASS' if ok else 'FAIL'} [{path}] {e.get('provenance')}"
            summary.append({"file": str(path), "passed": ok, "provenance": e.get("provenance")})
            print(line)
    print(json.dumps({"total": len(summary), "failed": sum(not s["passed"] for s in summary)}))
    return EXIT_CHECK_FAILED if any_fail else EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="bvqlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run one experiment from a JSON config")
    p_run.add_argument("config")
    p_run.add_argument("--out", help="override output directory")
    p_rep = sub.add_parser("report", help="aggregate report.json files")
    p_rep.add_argument("paths", nargs="*")
    sub.add_parser("constants", help="print the dimensional constants table")
    sub.add_parser("list-fields", help="print the field catalog")
    args = parser.parse_args(argv)

    if args.command == "constants":
        print("N,quadrature,closed_form")
        for n, quad, closed, _ in _exp_constants(None)[1]:
            print(f"{n},{_FMT % quad},{_FMT % closed}")
        return EXIT_OK
    if args.command == "list-fields":
        for name, params in sorted(list_fields().items()):
            print(f"{name}: {', '.join(params) if params else '(no parameters)'}")
        return EXIT_OK
    if args.command == "report":
        return report_command(args.paths)

    try:
        cfg = load_config(args.config)
        if args.out:
            cfg.out_dir = Path(args.out)
        return run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except UnknownFieldError as exc:
        print(f"unknown field: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_FIELD
    except (RegimeError, EmptyMaskError) as exc:
        print(f"regime guard: {exc}", file=sys.stderr)
        return EXIT_REGIME
    except ValueError as exc:
        # a library check refusing a value the config chose (q, p, a ladder
        # too short for the fit, the direction count)
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception:
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
