"""Outside-in layer tracing of bvqlab, kept in the benchmark's own code.

``Tracer.install`` wraps every public function of the bvqlab modules, plus
``DomainMask.erode`` and each ``evaluate_with_gradient`` of the field
catalog, under every module attribute that holds it (``bbm_value`` is also
imported by name into ``aviles``, ``cubes`` and ``variation``, for example).
``Tracer.restore`` puts the originals back.  Each wrapper records a span:
self time is the span's duration minus the full duration of the wrapped
calls it made.  Work counters are computed after the call returns, from the
arguments (grid extents, offsets, masks) and the public parts of the
result, and the time spent computing them is charged to no span.

Run as a script it is the traced experiment process:

    PYTHONPATH=src python3 bench/tracer.py CONFIG OUT_DIR STATS_JSON

which runs ``bvqlab run CONFIG --out OUT_DIR`` in-process with the wrappers
installed and writes the per-layer totals to STATS_JSON.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

MODULES = (
    "grid", "fields", "mollifier", "kernels", "jumps", "variation",
    "cubes", "aviles", "reports", "defaults", "cli",
)


def _digest(arr: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


def pair_counts(x_inside: np.ndarray, y_inside: np.ndarray) -> np.ndarray:
    """counts[v + extents - 1] = #{x : x_inside[x] and y_inside[x + v]}.

    One FFT cross-correlation of the two boolean masks gives the count for
    every lattice offset v at once; the counts are integers well below
    2**53, so rounding recovers them exactly.
    """
    shape = [2 * e - 1 for e in x_inside.shape]
    axes = list(range(x_inside.ndim))
    flipped = x_inside[(slice(None, None, -1),) * x_inside.ndim]
    spectrum = np.fft.rfftn(y_inside, shape, axes) * np.fft.rfftn(flipped, shape, axes)
    c = np.fft.irfftn(spectrum, shape, axes)
    return np.rint(c).astype(np.int64)


def cubes_inside(inside: np.ndarray, side: int, stride: int) -> int:
    """Number of stride-lattice origins whose side^N cube lies inside the mask."""
    sat = np.pad(inside.astype(np.int64), [(1, 0)] * inside.ndim)
    for axis in range(inside.ndim):
        sat = sat.cumsum(axis=axis)
    ranges = [np.arange(0, e - side + 1, stride) for e in inside.shape]
    if any(len(r) == 0 for r in ranges):
        return 0
    total = 0
    for corner in np.ndindex(*([2] * inside.ndim)):
        idx = np.ix_(*[r + side * c for r, c in zip(ranges, corner)])
        sign = -1 if (inside.ndim - sum(corner)) % 2 else 1
        total = total + sign * sat[idx]
    return int((total == side**inside.ndim).sum())


class Tracer:
    """Spans and work counters per layer label, e.g. ``kernels.bbm_value``."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []
        self._pair_keys: set = set()
        self._resolve_radius = None

    # -- installing and restoring -----------------------------------------

    def targets(self):
        """(label, owner, attribute) for every callable the tracer wraps."""
        import bvqlab.cli  # noqa: F401  (imports every module)

        out = []
        for short in MODULES:
            mod = sys.modules[f"bvqlab.{short}"]
            for name, obj in vars(mod).items():
                if name.startswith("_") or inspect.isclass(obj) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) == mod.__name__:
                    out.append((f"{short}.{name}", mod, name))
        grid = sys.modules["bvqlab.grid"]
        fields = sys.modules["bvqlab.fields"]
        out.append(("grid.erode", grid.DomainMask, "erode"))
        for cls in vars(fields).values():
            if (
                inspect.isclass(cls)
                and issubclass(cls, fields.AnalyticField)
                and "evaluate_with_gradient" in vars(cls)
            ):
                out.append(("fields.evaluate_with_gradient", cls, "evaluate_with_gradient"))
        return out

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        targets = self.targets()
        self._resolve_radius = sys.modules["bvqlab.kernels"].resolve_radius
        for label, owner, attr in targets:
            original = vars(owner)[attr]
            wrappers[id(original)] = (original, self._wrap(label, original))
            if inspect.isclass(owner):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrappers[id(original)][1])
        for name, mod in list(sys.modules.items()):
            if name != "bvqlab" and not name.startswith("bvqlab."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- spans --------------------------------------------------------------

    def _wrap(self, label: str, fn):
        counter = COUNTERS.get(label)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.calls[label] += 1
                self.self_s[label] += (t1 - t0) - stack.pop()
                if stack:
                    stack[-1] += t1 - t0
            if counter is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counter(self, bound.arguments, result)
                if stack:
                    stack[-1] += time.perf_counter() - t1
            return result

        return wrapper

    # -- helpers for the counters -------------------------------------------

    def eps_length(self, eps, h: float) -> tuple[int, float]:
        return self._resolve_radius(eps, h)

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counters": dict(self.counters),
        }


# -- work counters, one function per layer that has them ----------------------


def _count_pair_power_sums(tr: Tracer, a: dict, result) -> None:
    field, x_mask = a["field"], a["x_mask"]
    offs = np.asarray(a["offsets"], dtype=np.int64).reshape(-1, field.grid.dim)
    ext = np.asarray(field.grid.extents, dtype=np.int64)
    windows = np.clip(ext - np.abs(offs), 0, None).prod(axis=1)
    terms = int(windows.sum())
    c = tr.counters
    c["kernels.pair_power_sums.offsets"] += len(offs)
    c["kernels.pair_power_sums.terms"] += terms
    # operand bytes the kernel computes on: the x and y windows of a d-vector
    # float64 field, per offset (computed from the arguments, not measured)
    c["kernels.pair_power_sums.bytes_computed"] += terms * field.d * 8 * 2
    inside = field.mask.inside
    if x_mask is None and bool(inside.all()):
        useful = terms
    else:
        x_inside = inside if x_mask is None else x_mask.inside
        counts = pair_counts(x_inside, inside)
        reach = offs[(np.abs(offs) < ext).all(axis=1)]  # others pair nothing
        useful = int(counts[tuple((reach + (ext - 1)).T)].sum())
    c["kernels.pair_power_sums.useful_terms"] += useful
    key = (
        _digest(field.values), _digest(inside), float(a["q"]),
        None if x_mask is None else _digest(x_mask.inside),
    )
    before = len(tr._pair_keys)
    tr._pair_keys.update((key, row.tobytes()) for row in offs)
    c["kernels.pair_power_sums.distinct_offsets"] += len(tr._pair_keys) - before


def _count_directional_value(tr: Tracer, a: dict, result) -> None:
    u = a["u"]
    h = u.grid.spacing
    _, eps_len = tr.eps_length(a["eps"], h)
    t = eps_len * np.asarray(a["k"], dtype=float).reshape(-1) / h
    r = np.rint(t)
    widths = np.abs(r) if np.max(np.abs(t - r)) < 1e-9 else np.ceil(np.abs(t))
    ext = np.asarray(u.grid.extents)
    tr.counters["kernels.directional_value.samples"] += int(
        np.clip(ext - widths.astype(np.int64), 0, None).prod()
    )


def _count_cube_functional(tr: Tracer, a: dict, result) -> None:
    from bvqlab import defaults

    u = a["u"]
    m2, _ = tr.eps_length(a["eps"], u.grid.spacing)
    side = math.isqrt(m2)
    stride = a["stride_cells"] or max(1, side // defaults.CUBE_STRIDE_DIVISOR)
    tr.counters["cubes.cube_functional.candidates"] += cubes_inside(u.mask.inside, side, stride)


def _count_mollify(tr: Tracer, a: dict, result) -> None:
    inner = a["inner"] if a["inner"] is not None else result.inner
    nodes, _ = a["eta"].ball_rule()
    tr.counters["aviles.mollify.quad_points"] += inner.count * len(nodes)


def _count_evaluate_with_gradient(tr: Tracer, a: dict, result) -> None:
    tr.counters["fields.evaluate_with_gradient.points"] += (
        np.asarray(a["pts"]).size // a["self"].dim
    )


COUNTERS = {
    "kernels.pair_power_sums": _count_pair_power_sums,
    "kernels.directional_value": _count_directional_value,
    "cubes.cube_functional": _count_cube_functional,
    "aviles.mollify": _count_mollify,
    "fields.evaluate_with_gradient": _count_evaluate_with_gradient,
}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: tracer.py CONFIG OUT_DIR STATS_JSON", file=sys.stderr)
        return 2
    config, out, stats_path = argv
    import bvqlab.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = bvqlab.cli.main(["run", config, "--out", out])
    finally:
        tracer.restore()
    Path(stats_path).write_text(json.dumps(tracer.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
