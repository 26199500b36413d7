"""bvqlab benchmark: run one workload as users do and report its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/bvqlab``.  A workload is a
batch of experiment configs (see ``workloads.py``); each config runs as its
own ``python -m bvqlab.cli run CONFIG --out DIR`` process, one at a time,
and every output is checked.  Batches repeat until ``--seconds`` is spent.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
median batch wall time, median set-up time (interpreter start plus
``import bvqlab.cli``, measured in separate processes), median batch CPU
time and peak RSS of the experiment processes (from ``os.wait4``).  With
``--trace 1`` untraced batches alternate with batches whose processes run
``tracer.py``, which wraps the bvqlab layers from outside; the last line
then reports per-layer self time and work counters, and the run fails if
tracing changed a byte of ``sweep.csv`` or ``report.json``.

The line before the last is a JSON object with details: wall-time
quartiles and sample count, failed/attempted config runs, output hashes
per config, and run metadata.  All timings come from this process and its
children; no machine-wide tracing is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from workloads import WORKLOADS, check_output  # noqa: E402

SETUP_SAMPLES = 12  # spread over the run: up to SETUP_PER_BATCH before each batch
SETUP_PER_BATCH = 3
MIN_BATCHES = 3  # so the median can set aside one stalled batch
HASHED = ("sweep.csv", "report.json")
SETUP_CMD = [sys.executable, "-c", "import bvqlab.cli"]

# Per-layer metrics reported with --trace 1: self time and call count of
# span labels, work counters, and ratios of two counters.
LAYER_SPANS = (
    "kernels.pair_power_sums", "kernels.lattice_offsets", "kernels.bbm_value",
    "kernels.sweep_functional", "kernels.gagliardo_dominates_bbm",
    "kernels.directional_value", "jumps.verify_two_sided",
    "cubes.cube_functional", "cubes.cube_score", "aviles.mollify",
    "fields.evaluate_with_gradient", "aviles.check_ag_chain",
    "mollifier.build_mollifier", "mollifier.energy_bound_coefficients",
    "fields.sample_analytic", "fields.sample_gradient", "grid.erode",
    "variation.q_variation_pow", "jumps.dimensional_constant",
    "cli.load_config", "cli.run_experiment",
)
LAYER_CALLS = (
    "kernels.pair_power_sums", "kernels.bbm_value", "kernels.directional_value",
    "cubes.cube_functional", "cubes.cube_score", "aviles.mollify", "grid.erode",
)
LAYER_COUNTERS = (
    "kernels.pair_power_sums.offsets", "kernels.pair_power_sums.terms",
    "kernels.pair_power_sums.bytes_computed", "kernels.directional_value.samples",
    "cubes.cube_functional.candidates", "aviles.mollify.quad_points",
    "fields.evaluate_with_gradient.points",
)
LAYER_RATIOS = {
    "kernels.pair_power_sums.distinct_ratio": (
        "kernels.pair_power_sums.distinct_offsets", "kernels.pair_power_sums.offsets"),
    "kernels.pair_power_sums.useful_ratio": (
        "kernels.pair_power_sums.useful_terms", "kernels.pair_power_sums.terms"),
}


class BenchError(Exception):
    """The benchmark cannot run here (no program to measure)."""


def _env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _spawn_wait(cmd: list[str], root: Path, log: Path):
    """Run one child to completion; (exit code, wall s, rusage)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=_env(root), stdout=fh, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not Popen
    return proc.returncode, wall, usage


def _sha256(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def measure_setup(root: Path, tmp: Path, count: int) -> list[float]:
    """Wall times of ``count`` processes that only start and import bvqlab.cli."""
    samples = []
    for _ in range(count):
        code, wall, _ = _spawn_wait(SETUP_CMD, root, tmp / "setup.log")
        if code != 0:
            raise BenchError("cannot import bvqlab.cli:\n" + (tmp / "setup.log").read_text())
        samples.append(wall)
    return samples


def run_batch(configs, root: Path, tmp: Path, index: int, traced: bool) -> dict:
    """Run every config once, one process at a time, then check the outputs."""
    batch = tmp / f"batch{index}"
    batch.mkdir()
    children = []
    t0 = time.perf_counter()
    for name, cfg, cfg_path in configs:
        out = batch / name
        if traced:
            cmd = [sys.executable, str(BENCH_DIR / "tracer.py"), str(cfg_path), str(out),
                   str(batch / f"{name}.stats.json")]
        else:
            cmd = [sys.executable, "-m", "bvqlab.cli", "run", str(cfg_path), "--out", str(out)]
        code, _, usage = _spawn_wait(cmd, root, batch / f"{name}.log")
        children.append((name, cfg, out, code, usage))
    wall = time.perf_counter() - t0
    results = {}
    stats = []
    for name, cfg, out, code, usage in children:
        problems = [f"exit code {code}"] if code != 0 else []
        try:
            problems += check_output(cfg, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems.append(f"malformed artifact: {exc!r}")
        results[name] = {
            "problems": problems,
            "hashes": {f: _sha256(out / f) for f in HASHED},
        }
        if traced and (batch / f"{name}.stats.json").is_file():
            stats.append(json.loads((batch / f"{name}.stats.json").read_text()))
    shutil.rmtree(batch)
    return {
        "wall_s": wall,
        "cpu_s": sum(u.ru_utime + u.ru_stime for *_, u in children),
        "peak_rss_mb": max(u.ru_maxrss for *_, u in children) / 1024.0,
        "configs": results,
        "stats": stats,
        "traced": traced,
    }


def _quartiles(values: list[float]) -> dict:
    vals = sorted(values)
    out = {"median": statistics.median(vals), "samples": len(vals)}
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out.update(q1=q1, q3=q3)
    # highest percentile with at least ten samples beyond it
    if len(vals) > 10:
        k = len(vals) - 10
        out[f"p{100.0 * k / len(vals):.1f}"] = vals[k - 1]
    return out


def _layer_metrics(batches: list[dict], untraced_wall: float) -> dict:
    traced = [b for b in batches if b["traced"]]

    def total(batch, section, key):
        return sum(s[section].get(key, 0) for s in batch["stats"])

    m = {}
    for label in LAYER_SPANS:
        m[f"{label}.self_s"] = (
            float(statistics.median(total(b, "self_s", label) for b in traced)), "s")
    for label in LAYER_CALLS:
        m[f"{label}.calls"] = (total(traced[0], "calls", label), "count")
    for key in LAYER_COUNTERS:
        unit = "bytes" if key.endswith("bytes_computed") else "count"
        m[key] = (total(traced[0], "counters", key), unit)
    for name, (num, den) in LAYER_RATIOS.items():
        d = total(traced[0], "counters", den)
        m[name] = (total(traced[0], "counters", num) / d if d else 0.0, "ratio")
    traced_wall = statistics.median(b["wall_s"] for b in traced)
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def _consistency_problems(batches: list[dict]) -> list[str]:
    """Outputs must repeat exactly across batches (traced or not), and the
    work counters across traced batches."""
    problems = []
    first = batches[0]["configs"]
    for b in batches[1:]:
        for name, res in b["configs"].items():
            if res["hashes"] != first[name]["hashes"]:
                kind = "traced" if b["traced"] else "untraced"
                problems.append(f"{name}: {kind} output differs from the first batch")
    traced = [b for b in batches if b["traced"]]
    counts = [
        [(s["calls"], s["counters"]) for s in b["stats"]] for b in traced
    ]
    if any(c != counts[0] for c in counts[1:]):
        problems.append("work counters differ between traced batches")
    if traced and any(len(b["stats"]) != len(b["configs"]) for b in traced):
        problems.append("a traced process wrote no stats")
    return problems


def run_metadata() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, check=False).stdout
        for line in out.splitlines():
            key, _, value = line.partition(":")
            if "cache" in key.lower() or key.strip() == "Model name":
                caches[key.strip()] = value.strip()
    except OSError:
        pass
    workers = os.environ.get("BVQLAB_WORKERS")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "lscpu": caches,
        "BVQLAB_WORKERS": workers if workers else f"unset (program default os.cpu_count() = {os.cpu_count()})",
        "timing_source": "perf_counter and os.wait4 rusage of this process and its "
                         "children only; no machine-wide tracing",
    }


def run(workload: str, seed: int, seconds: float, trace: bool, root: Path) -> tuple[dict, dict]:
    if not (root / "src" / "bvqlab" / "cli.py").is_file():
        raise BenchError(f"no bvqlab sources under {root / 'src'}")
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=work))
    try:
        configs = []
        for name, cfg in WORKLOADS[workload](seed):
            path = tmp / f"{name}.json"
            path.write_text(json.dumps(cfg, indent=2))
            configs.append((name, cfg, path))
        measure_setup(root, tmp, 1)  # fills the bytecode cache
        setup, batches = [], []
        start = time.perf_counter()
        while True:
            setup += measure_setup(root, tmp, min(SETUP_PER_BATCH, SETUP_SAMPLES - len(setup)))
            traced = trace and len(batches) % 2 == 1
            batches.append(run_batch(configs, root, tmp, len(batches), traced))
            elapsed = time.perf_counter() - start
            longest = max(b["wall_s"] for b in batches)
            if len(batches) >= MIN_BATCHES and elapsed + longest > seconds:
                break
        setup += measure_setup(root, tmp, SETUP_SAMPLES - len(setup))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    attempted = sum(len(b["configs"]) for b in batches)
    failed_runs = [
        f"batch {i} {name}: {'; '.join(res['problems'])}"
        for i, b in enumerate(batches)
        for name, res in b["configs"].items()
        if res["problems"]
    ]
    consistency = _consistency_problems(batches)
    untraced = [b for b in batches if not b["traced"]]
    wall = [b["wall_s"] for b in untraced]
    if trace:
        metrics = _layer_metrics(batches, statistics.median(wall))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "cpu_s": {"value": statistics.median(b["cpu_s"] for b in untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(b["peak_rss_mb"] for b in untraced), "unit": "MB"},
        }
    details = {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "batches": len(batches),
        "configs": [name for name, _, _ in configs],
        "wall_s": _quartiles(wall),
        "setup_s": _quartiles(setup),
        "failed_ratio": len(failed_runs) / attempted,
        "failures": failed_runs,
        "consistency_problems": consistency,
        "hashes": {
            name: res["hashes"] for name, res in batches[0]["configs"].items()
        },
        "metadata": run_metadata(),
    }
    result = {
        "correct": not failed_runs and not consistency,
        "attempted": attempted,
        "failed": len(failed_runs),
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated benchmark still kills and reaps its running child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result, details = run(args.workload, args.seed, args.seconds, bool(args.trace), Path.cwd())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
