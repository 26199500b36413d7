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
      "mollifier": {"profile": "polynomial-bump", "k": 2, "resolution": 64},
      "out_dir": "out/step"
    }

The eps ladder is geometric, snapped to whole multiples of the grid spacing
(``start_cells`` counts cells directly; ``start`` in domain units is also
accepted and snapped), so pair-inclusion radii stay exact.  ``run`` writes a
manifest (config echo + versions), a CSV sweep table at full double
precision, a JSON report of every comparison, and two-column plot data.
Exit codes: 0 ok, 1 failed check, 2 config error, 3 regime guard,
4 unknown field.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import defaults
from .cubes import check_b_bound
from .errors import ConfigError, EmptyMaskError, RegimeError, UnknownFieldError
from .fields import list_fields, make_field, sample_analytic, sample_gradient
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
from .aviles import check_ag_chain, check_ag_upper_bound, verify_gamma_consistency
from .reports import ComparisonReport, equal_within
from .variation import Signal1D, check_vq_embedding, q_variation_pow

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_REGIME = 3
EXIT_UNKNOWN_FIELD = 4

_FMT = "%.17g"


@dataclass
class ExperimentConfig:
    experiment: str
    field_kind: str | None
    field_params: dict
    grid_lo: tuple
    grid_hi: tuple
    grid_n: tuple
    q: float
    p: float
    ladder_cells: tuple[int, ...]
    kappa: float
    tolerance: float
    fit_model: str
    mollifier: dict
    directions: int | None
    out_dir: Path
    raw: dict = field(default_factory=dict)

    def make_grid(self) -> Grid:
        return Grid.for_box(self.grid_lo, self.grid_hi, self.grid_n)

    def make_mask(self) -> DomainMask:
        return DomainMask.full(self.make_grid())

    def ladder(self) -> list[GridRadius]:
        return [GridRadius.from_cells(m) for m in self.ladder_cells]


def _require(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _object(raw: dict, key: str, where: str = "") -> dict:
    """``raw[key]`` when it is a JSON object, {} when absent or null."""
    value = raw.get(key)
    if value is None:
        return {}
    _require(isinstance(value, dict), f"{where}{key} must be a JSON object")
    return value


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _mollifier_config(raw: dict) -> dict:
    """The mollifier entry, checked key by key so no setting is silently changed."""
    moll = dict(_object(raw, "mollifier") or {"profile": "polynomial-bump", "k": 2})
    for key in moll:
        _require(key in ("profile", "k", "resolution"), f"unknown mollifier key {key!r}")
    profile = moll.get("profile", "polynomial-bump")
    _require(profile in PROFILES, f"unknown mollifier.profile {profile!r}")
    k = moll.get("k")
    if profile == "exponential-bump":
        _require(k is None, "mollifier.k is not taken by exponential-bump")
    else:
        _require(k is None or (_is_int(k) and k >= 2), "mollifier.k must be an integer >= 2")
    res = moll.get("resolution", defaults.MOLLIFIER_RESOLUTION)
    _require(_is_int(res) and res >= 64, "mollifier.resolution must be an integer >= 64")
    return moll


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    _require(isinstance(raw, dict), "config must be a JSON object")
    exp = raw.get("experiment")
    _require(exp in EXPERIMENTS, f"unknown experiment {exp!r}")
    fld = _object(raw, "field")
    field_params = _object(fld, "params", "field.")
    grid = _object(raw, "grid")
    _require("lo" in grid and "hi" in grid and "n" in grid, "grid needs lo/hi/n")
    lo, hi, n = grid["lo"], grid["hi"], grid["n"]
    _require(len(lo) == len(hi) == len(n), "grid lo/hi/n lengths differ")
    try:
        g = Grid.for_box(lo, hi, n)
    except ValueError as exc:
        raise ConfigError(f"bad grid: {exc}") from exc

    ladder_raw = _object(raw, "eps_ladder")
    kappa = float(raw.get("kappa", defaults.KAPPA))
    count = int(ladder_raw.get("count", 4))
    ratio = float(ladder_raw.get("ratio", 0.5))
    _require(count >= 1, "eps ladder needs count >= 1")
    _require(0.0 < ratio < 1.0, "eps ladder ratio must lie in (0, 1)")
    if "start_cells" in ladder_raw:
        start_cells = float(ladder_raw["start_cells"])
    elif "start" in ladder_raw:
        start_cells = float(ladder_raw["start"]) / g.spacing
    else:
        raise ConfigError("eps ladder needs start or start_cells")
    cells = []
    for i in range(count):
        m = int(round(start_cells * ratio**i))
        if m >= kappa and (not cells or m < cells[-1]):
            cells.append(m)
    _require(bool(cells), "eps ladder is empty after snapping to the grid")

    fit_model = str(raw.get("fit_model", "linear-in-eps"))
    _require(fit_model in FIT_MODELS, f"unknown fit model {fit_model!r}")
    directions = raw.get("directions")
    _require(
        directions is None or (_is_int(directions) and directions >= 1),
        "directions must be an integer >= 1",
    )
    tol = raw.get("tolerance")
    cfg = ExperimentConfig(
        experiment=exp,
        field_kind=fld.get("kind"),
        field_params=dict(field_params),
        grid_lo=tuple(lo),
        grid_hi=tuple(hi),
        grid_n=tuple(n),
        q=float(raw.get("q", 2.0)),
        p=float(raw.get("p", 3.0)),
        ladder_cells=tuple(cells),
        kappa=kappa,
        tolerance=float(tol) if tol is not None else defaults.TOLERANCE,
        fit_model=fit_model,
        mollifier=_mollifier_config(raw),
        directions=directions,
        out_dir=Path(raw.get("out_dir", "out")),
        raw=raw,
    )
    return cfg


# --------------------------------------------------------------------------
# Artifact writers.
# --------------------------------------------------------------------------


def _write_manifest(cfg: ExperimentConfig, out: Path):
    from importlib.metadata import PackageNotFoundError, version

    try:
        pkg_version = version("bvqlab")
    except PackageNotFoundError:
        pkg_version = "unknown"
    manifest = {
        "config": cfg.raw,
        "versions": {
            "bvqlab": pkg_version,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "seed": cfg.field_params.get("seed"),
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


def _field(cfg: ExperimentConfig):
    _require(cfg.field_kind is not None, "experiment needs a field")
    return make_field(cfg.field_kind, **cfg.field_params), cfg.make_mask()


def _sample(cfg: ExperimentConfig):
    spec, mask = _field(cfg)
    return spec, mask, sample_analytic(spec, mask)


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
    spec, mask, u = _sample(cfg)
    ladder = cfg.ladder()
    sweep = bbm_sweep(u, cfg.q, ladder, cfg.fit_model, kappa=cfg.kappa)
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
    spec, mask = _field(cfg)
    ladder = cfg.ladder()
    fit = cfg.fit_model if "fit_model" in cfg.raw else "constant"
    rep = verify_jump_formula(
        spec, mask, cfg.q, ladder, fit_model=fit,
        tolerance=cfg.tolerance, kappa=cfg.kappa,
    )
    rows = list(zip(rep.details["sweep_eps"], rep.details["sweep_values"]))
    return ["eps", "value"], rows, [rep]


def _exp_q1_bv(cfg):
    spec, mask = _field(cfg)
    ladder = cfg.ladder()
    rep = verify_q1_full_bv(
        spec, mask, ladder, fit_model=cfg.fit_model,
        tolerance=cfg.tolerance, kappa=cfg.kappa,
    )
    rows = list(zip(rep.details["sweep_eps"], rep.details["sweep_values"]))
    return ["eps", "value"], rows, [rep]


def _exp_two_sided(cfg):
    spec, mask, u = _sample(cfg)
    h = mask.grid.spacing
    rows, reports = [], []
    for eps in cfg.ladder():
        rep = verify_two_sided(u, cfg.q, eps, kappa=cfg.kappa)
        rows.append((eps.length(h), rep.lhs, rep.mid, rep.rhs))
        reports.append(rep)
    return ["eps", "lower", "directional_sup", "upper"], rows, reports


def _exp_besov(cfg):
    spec, mask, u = _sample(cfg)
    ladder = cfg.ladder()
    rows = []
    for eps in ladder:
        rows.append(
            (eps.length(mask.grid.spacing),
             directional_sup(u, cfg.q, eps, cfg.directions, kappa=cfg.kappa))
        )
    value = besov_seminorm_pow(u, cfg.q, ladder, cfg.directions, kappa=cfg.kappa)
    rows.append((0.0, value))
    return ["rho", "directional_sup"], rows, []


def _exp_gagliardo(cfg):
    spec, mask, u = _sample(cfg)
    rows, reports = [], []
    ladder = cfg.ladder()
    triples = gagliardo_dominates_bbm(u, cfg.q, ladder, kappa=cfg.kappa)
    for eps, (bbm, gag, ok) in zip(ladder, triples):
        rows.append((eps.length(mask.grid.spacing), bbm, gag))
        reports.append(
            ComparisonReport(
                bbm, gag, "leq", 0.0, ok,
                f"kernel sum dominated by fractional seminorm (eps={eps.length(mask.grid.spacing):g})",
            )
        )
    return ["eps", "bbm", "gagliardo"], rows, reports


def _exp_vq(cfg):
    spec, mask, u = _sample(cfg)
    _require(mask.grid.dim == 1, "vq experiment needs a 1D field")
    sig = Signal1D(mask.grid.axis_centers(0), u.values[:, 0])
    vq = q_variation_pow(sig, cfg.q)
    rep = check_vq_embedding(sig, cfg.q, cfg.ladder(), kappa=cfg.kappa)
    rows = [(vq, rep.lhs, rep.rhs)]
    return ["q_variation_pow", "kernel_sup", "bound"], rows, [rep]


def _exp_b_space(cfg):
    spec, mask, u = _sample(cfg)
    ladder = cfg.ladder()
    reports = check_b_bound(u, cfg.q, ladder, kappa=cfg.kappa)
    rows = [
        (eps.length(mask.grid.spacing), rep.lhs, rep.rhs, rep.details["cubes"])
        for eps, rep in zip(ladder, reports)
    ]
    return ["eps", "cube_value", "bound", "cubes"], rows, reports


def _make_mollifier(cfg, dim):
    m = cfg.mollifier
    return build_mollifier(
        m.get("profile", "polynomial-bump"),
        dim,
        resolution=m.get("resolution", defaults.MOLLIFIER_RESOLUTION),
        k=m.get("k"),
    )


def _exp_ag_upper(cfg):
    spec, mask, u = _sample(cfg)
    eta = _make_mollifier(cfg, mask.grid.dim)
    rep = check_ag_upper_bound(
        u, sample_gradient(spec, mask), eta, cfg.q, cfg.p, cfg.ladder(),
        kappa=cfg.kappa, fit_model=cfg.fit_model,
    )
    rows = list(zip(rep.details["eps"], rep.details["lhs_values"]))
    return ["eps", "lhs_energy"], rows, [rep]


def _exp_ag_chain(cfg):
    spec, mask, u = _sample(cfg)
    grad = sample_gradient(spec, mask)
    eta = _make_mollifier(cfg, mask.grid.dim)
    ladder = cfg.ladder()
    rep = check_ag_chain(u, grad, eta, ladder, kappa=cfg.kappa, fit_model=cfg.fit_model)
    reports = [rep]
    d = rep.details
    rows = list(zip(d["eps"], d["young_lhs"], d["middle_energy"], d["matched_bounds"]))
    jump = spec.jump_spec(mask.grid)
    if jump is not None:
        reports.append(
            verify_gamma_consistency(
                grad, jump, ladder, cfg.tolerance, kappa=cfg.kappa, fit_model=cfg.fit_model,
            )
        )
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


def run_experiment(cfg: ExperimentConfig) -> int:
    header, rows, reports = EXPERIMENTS[cfg.experiment](cfg)
    out = cfg.out_dir  # made only now, so a config rejected by the run leaves no directory
    out.mkdir(parents=True, exist_ok=True)
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
        if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
            print(f"corrupt report file: {p}", file=sys.stderr)
            return EXIT_CONFIG
        for e in entries:
            ok = bool(e.get("passed"))
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
        for n in (1, 2, 3):
            print(f"{n},{_FMT % dimensional_constant(n)},{_FMT % dimensional_constant_closed_form(n)}")
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
    except (TypeError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
