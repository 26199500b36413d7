"""Check that a change leaves the benchmark outputs byte-identical.

    python3 .github/byte_identity.py BASE_ROOT HEAD_ROOT

Runs the 12 configs of ``bench/workloads.py`` (read from HEAD_ROOT) at
seeds 1 and 7 under both checkouts, one ``python -m bvqlab.cli run`` process
per config with ``PYTHONPATH`` set to that checkout's ``src``, and compares
the sha256 of every ``sweep.csv`` and ``report.json``.  It fails when a
config's outputs differ, or are missing on either side, unless the config is
named in ``EXPECTED_CHANGES`` (space-separated ``workload/config`` names, as
printed); a named config whose outputs do not move fails too, so the list
never outlives the change that declared it.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (1, 7)
HASHED = ("sweep.csv", "report.json")


def run_outputs(root: Path, configs, tmp: Path) -> dict[str, dict]:
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    hashes = {}
    for key, cfg in configs:
        path = tmp / (key.replace("/", "__") + ".json")
        path.write_text(json.dumps(cfg))
        out = tmp / key.replace("/", "__")
        cmd = [sys.executable, "-m", "bvqlab.cli", "run", str(path), "--out", str(out)]
        subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        hashes[key] = {
            f: hashlib.sha256((out / f).read_bytes()).hexdigest() if (out / f).is_file() else None
            for f in HASHED
        }
    return hashes


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(head / "bench"))
    from workloads import WORKLOADS

    configs = [
        (f"{workload}/{name}@{seed}", cfg)
        for seed in SEEDS
        for workload, make in WORKLOADS.items()
        for name, cfg in make(seed)
    ]
    expected = set(os.environ.get("EXPECTED_CHANGES", "").split())
    with tempfile.TemporaryDirectory() as tmp:
        outs = []
        for side, root in (("base", base), ("head", head)):
            (Path(tmp) / side).mkdir()
            outs.append(run_outputs(root, configs, Path(tmp) / side))
    moved = set()
    problems = []
    for key, _ in configs:
        name = key.split("@")[0]
        a, b = outs[0][key], outs[1][key]
        if None in a.values() or None in b.values():
            problems.append(f"{key}: outputs missing (base {a}, head {b})")
        elif a != b:
            moved.add(name)
            if name not in expected:
                changed = [f for f in HASHED if a[f] != b[f]]
                problems.append(f"{key}: {', '.join(changed)} differ from the base")
    problems += [f"{name}: listed in EXPECTED_CHANGES but unchanged" for name in sorted(expected - moved)]
    print(f"{len(configs)} config runs per side; moved: {sorted(moved) or 'none'}")
    for p in problems:
        print(p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
