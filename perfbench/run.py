"""Run one workload of the repository benchmark and print its metrics.

From the repository root::

    python3 perfbench/run.py --workload {evaluate,sweep,fleet} \
        --seed N --seconds S --trace {0,1}

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` its per-layer metrics (a separate run, so tracing never
slows the end-to-end numbers).  The lines before the last one are a
readable table and the run envelope; the last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh interpreters started per run to measure ``setup_s``.
SETUP_PROBES = 5

#: How long to wait for a worker process to exit before killing it.
REAP_TIMEOUT_S = 60.0


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("evaluate", "sweep", "fleet")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny only exercises the code paths (the self-test)",
    )
    parser.add_argument(
        "--goldens", type=Path, default=HERE / "goldens.json",
        help="expected outputs to check against",
    )
    parser.add_argument(
        "--setup-probe", action="store_true",
        help="stop before the first timed call (used to time set-up)",
    )
    return parser.parse_args(argv)


def refuse_selectors() -> None:
    """Exit if any ``REPRO_*`` variable would steer the program.

    The benchmark measures the path users run by default; engine, queueing,
    trace-backend, cache, store, jobs and code-salt selectors (and the
    directory overrides) would silently change what is measured or where
    files are written.
    """
    selectors = sorted(n for n in os.environ if n.startswith("REPRO_"))
    if selectors:
        sys.exit(
            "perfbench: refusing to run with " + ", ".join(selectors)
            + " set; unset them to measure the default path"
        )


def reap_children() -> None:
    """Wait for every worker process this run started to exit."""
    for child in multiprocessing.active_children():
        child.join(REAP_TIMEOUT_S)
        if child.is_alive():
            child.kill()
            child.join()


def git_revision() -> str:
    """The checkout's git revision, or ``unknown`` outside a git tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def time_setup(argv) -> float:
    """Median time from interpreter start to the first timed call.

    Each probe is a fresh interpreter that imports ``repro``, builds the
    workload inputs and reports ready (``--setup-probe``).
    """
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), *argv, "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {probe.returncode}")
        samples.append(elapsed)
    return statistics.median(samples)


def peak_rss_mb() -> tuple:
    """(driver, largest reaped worker) peak resident memory in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own, workers


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    refuse_selectors()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import repro  # the program under test
        import workloads
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program: {exc}")
    if Path(repro.__file__).resolve().parent.parent != ROOT / "src":
        sys.exit(f"perfbench: imported {repro.__file__}, not {ROOT}/src")

    goldens = json.loads(args.goldens.read_text())
    scratch = ROOT / ".perfbench-tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    tempfile.tempdir = str(tmp)
    try:
        workload = workloads.WORKLOADS[args.workload](
            args.scale, args.seed, goldens, tmp
        )
        known = goldens.get(args.workload, {})
        missing = [k for k in workload.golden_keys() if k not in known]
        if missing:
            sys.exit(f"perfbench: no {args.workload} goldens for {missing}")
        if args.setup_probe:
            print("ready", flush=True)
            return 0

        tally = workloads.Tally()
        if args.trace:
            table = spec["per_layer"]
            units = {m["name"]: m["unit"] for m in table}
            values = workload.traced(tally, units)
            reap_children()
        else:
            table = spec["end_to_end"]
            values = workload.timed(args.seconds, tally)
            reap_children()
            own_mb, worker_mb = peak_rss_mb()
            workload.envelope["driver_rss_mb"] = own_mb
            workload.envelope["worker_rss_mb"] = worker_mb
            values["peak_rss_mb"] = max(own_mb, worker_mb)
            values["setup_s"] = time_setup(
                [a for a in argv if a != "--setup-probe"]
            )
    finally:
        reap_children()
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()  # only once no other run is using it
        except OSError:
            pass

    names = [m["name"] for m in table]
    unknown = sorted(set(values) - set(names))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    # A layer this workload does not run reads 0.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
        for m in table
    }
    envelope = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "tracing": bool(args.trace),
        "params": workload.envelope,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "git_revision": git_revision(),
    }
    failure_rate = tally.failed / tally.attempted
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
    for name, value in workload.display(values).items():
        print(f"  {name:32s} {value:>14.6g} s")
    print(f"  {'failure_rate':32s} {failure_rate:>14.6g} fraction "
          f"({tally.failed}/{tally.attempted})")
    for problem in tally.problems[:20]:
        print(f"  problem: {problem}")
    print("envelope " + json.dumps(envelope, sort_keys=True))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
