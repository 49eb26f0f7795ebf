"""Recompute the benchmark's expected outputs.

From the repository root::

    python3 perfbench/make_goldens.py [--scale full|tiny] [--out PATH]

The default writes ``perfbench/goldens.json`` for every seed in each
workload's pool.  Regenerate it only for a change that is meant to alter
the program's outputs: the benchmark counts every output that differs
from these goldens as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, ROOT, reap_children, refuse_selectors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--out", type=Path, default=HERE / "goldens.json")
    args = parser.parse_args(argv)
    refuse_selectors()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="goldens-", dir=scratch))
    scales = workloads.SCALES[args.scale]
    goldens = {"scale": args.scale, "evaluate": {}, "sweep": {}, "fleet": {}}
    try:
        for name, workload_cls in workloads.WORKLOADS.items():
            for seed in range(scales[name]["pool"]):
                # A run's first input is pool entry ``seed``.
                workload = workload_cls(args.scale, seed, {}, tmp)
                key = workload.golden_keys()[0]
                start = time.perf_counter()
                goldens[name][key] = workload.golden_entry()
                print(f"{name} seed {key}: "
                      f"{time.perf_counter() - start:.2f} s", file=sys.stderr)
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    args.out.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
