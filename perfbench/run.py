"""The repository benchmark: the paper's workflow plus a per-layer ledger.

Run from the repository root::

    python3 perfbench/run.py --workload paper_apps --seed 1 --seconds 20 --trace 0

Workloads (all closed loop, one client; see ``perfbench/workloads.py``):
``paper_apps``, ``schema_churn`` and ``fleet``.  ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` alternates traced and untraced cycles and
reports the per-layer ledger.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines before
it are the run record (seed, scale, workers, backend, source identity, the
workload-specific figures under the names the ROADMAP uses).

The program under test is imported from ``src/`` of the current directory
and nowhere else: without it the benchmark exits non-zero and prints no
result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from multiprocessing import resource_tracker

#: set-up is measured this many times per run (fresh processes), median kept
SETUP_REPEATS = 5
#: per-run wall limit for one set-up probe
SETUP_TIMEOUT_S = 60
#: environment switches of the program that would change what is measured
_PROGRAM_ENV = ("REPRO_TRACE", "REPRO_PROVENANCE", "REPRO_FAULTS",
                "REPRO_DB_BACKEND", "REPRO_INTERP", "REPRO_MEMBERSHIP",
                "REPRO_SESSION_DEADLINE_S")

END_TO_END = {
    # name: (unit, op kind, percentile)
    "verify_ms_p50": ("ms", "verify", 50),
    "step_ms_p50": ("ms", "step", 50),
    "reference_ms_p50": ("ms", "reference", 50),
}



# ---------------------------------------------------------------------------
# the program under test
# ---------------------------------------------------------------------------

def import_program(root: str):
    """Put ``root/src`` (the program) and ``root`` (this benchmark) on the
    path and import both; exits with status 2 when the program is absent."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.stderr.write(f"perfbench: no program at {src}/repro; run from "
                         f"the repository root\n")
        raise SystemExit(2)
    for name in _PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path[:0] = [path for path in (src, root) if path not in sys.path]
    import repro

    if not os.path.abspath(repro.__file__).startswith(os.path.abspath(src)):
        sys.stderr.write(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {src}\n")
        raise SystemExit(2)
    from perfbench import workloads

    return workloads


def source_identity(root: str) -> dict:
    """The git commit when there is one, and a digest of ``src/`` always, so
    two runs can tell whether they measured the same code."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for folder, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()[:16]}


@contextlib.contextmanager
def reaped():
    """On every way out, stop and wait for the resource tracker that the
    program's spawn-mode pools start and never stop: it outlives their
    workers (which the workloads' ``close`` joins) and, left alone, exits
    only after this process has."""
    try:
        yield
    finally:
        resource_tracker._resource_tracker._stop()


# ---------------------------------------------------------------------------
# set-up time: fresh processes, from spawn to the first timed sample
# ---------------------------------------------------------------------------

def setup_probe(workload: str, seed: int) -> None:
    """Child side: set the workload up, print when it is ready, tear down."""
    workloads = import_program(os.getcwd())
    wl = workloads.WORKLOADS[workload](seed)
    try:
        wl.setup()
        print(json.dumps({"ready": time.perf_counter()}), flush=True)
    finally:
        wl.close()


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from process spawn to a workload ready for its first sample,
    once per fresh process (imports, first universe, worker spawn),
    normalized to the calibration kernel's reference speed."""
    from perfbench import calibrate

    samples = []
    for repeat in range(SETUP_REPEATS):
        command = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                   "--workload", workload, "--seed", str(seed + repeat)]
        speed = calibrate.kernel_ms()
        start = time.perf_counter()
        # in a process group of its own, so a probe that hangs is killed
        # together with the workers it spawned
        probe = subprocess.Popen(command, stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True,
                                 process_group=0)
        try:
            out, err = probe.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(probe.pid, signal.SIGKILL)
            probe.communicate()
            raise
        if probe.returncode != 0:
            raise subprocess.CalledProcessError(probe.returncode, command,
                                                out, err)
        ready = json.loads(out.strip().splitlines()[-1])["ready"]
        speed = (speed + calibrate.kernel_ms()) / 2
        samples.append((ready - start) * calibrate.REFERENCE_MS / speed)
    return samples


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------

def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def tail(values) -> tuple[str, float] | None:
    """The highest percentile with at least ten samples beyond it."""
    for pct in (99.9, 99, 90):
        if len(values) * (100 - pct) / 100 >= 10:
            return f"p{pct:g}", percentile(values, pct)
    return None


def run(workloads, workload: str, seed: int, seconds: float, trace: bool
        ) -> dict:
    """Set the workload up, run cycles for ``seconds`` (every other one
    traced when ``trace``), then measure set-up in fresh processes."""
    from repro import obs

    from perfbench.ledger import Ledger, install_wrappers, per_layer_metrics

    wl = workloads.WORKLOADS[workload](seed)
    book = Ledger()
    with contextlib.ExitStack() as stack:
        if trace:
            stack.enter_context(install_wrappers())
        stack.callback(wl.close)
        wl.setup()
        obs.disable()
        obs.reset()
        before = obs.metrics_snapshot()
        deadline = time.perf_counter() + seconds
        index = 0
        while True:
            wl.tracing = trace and index % 2 == 1
            wl.cycle(index)
            if wl.tracing:
                events = obs.drain(0)
                book.fold(events)
                wl.traced_cycle(events)
            wl.tracing = False
            index += 1
            if index == wl.rss_cycles:
                # after a fixed amount of work, so a faster machine that runs
                # more cycles (and fills more of the program's caches) reads
                # the same
                self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if time.perf_counter() >= deadline and index >= wl.rss_cycles:
                break
        counters = obs.metrics_diff(before, obs.metrics_snapshot())
    # the largest reaped child (a fleet worker; none elsewhere), read before
    # the set-up probes add children of their own
    peak_kb = self_kb + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    result = {"workload": wl, "cycles": index,
              "setup": measure_setup(workload, seed),
              "peak_rss_mb": peak_kb / 1024.0}
    if trace:
        result["per_layer"] = per_layer_metrics(wl, book, counters)
        result["unmapped_spans"] = sorted(book.unmapped)
    return result


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def end_to_end_metrics(result: dict) -> dict:
    wl = result["workload"]
    metrics = {"setup_s": {"value": statistics.median(result["setup"]),
                           "unit": "s"},
               "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"}}
    for name, (unit, kind, pct) in END_TO_END.items():
        values = wl.plain.get(kind) or [0.0]
        value = (statistics.median(values) if pct == 50
                 else percentile(values, pct))
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def print_record(args, result: dict, root: str) -> None:
    from perfbench import ledger

    wl = result["workload"]
    names = wl.op_names
    record = {
        "workload": wl.name, "why": wl.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": wl.scale,
        "workers": wl.workers, "nproc": os.cpu_count(),
        "backend": wl.backend, "cycles": result["cycles"],
        **source_identity(root),
        "setup_s_samples": [round(s, 4) for s in result["setup"]],
        "failed_ops_frac": wl.failed / wl.attempted if wl.attempted else 0.0,
    }
    print("perfbench run record")
    for key, value in record.items():
        print(f"  {key}: {value}")
    for kind in ("verify", "step", "reference"):
        values = wl.plain.get(kind) or []
        if not values:
            continue
        line = (f"  {names[kind]}_ms_p50: {statistics.median(values):.3f} "
                f"(n={len(values)}, wall "
                f"{statistics.median(wl.wall[kind]):.3f})")
        tail_value = tail(values)
        if tail_value is not None:
            line += f"  {names[kind]}_ms_{tail_value[0]}: {tail_value[1]:.3f}"
        print(line)
    for key, value in wl.record().items():
        if isinstance(value, list):
            print(f"  {key}:")
            for row in value:
                print(f"    {row}")
        else:
            print(f"  {key}: {value}")
    for failure, count in wl.failures.most_common(5):
        print(f"  FAILED x{count}: {failure}")
    if "per_layer" in result:
        print("  per-layer ledger (per traced cycle):")
        for name, value in result["per_layer"].items():
            print(f"    {name:<42} {value:12.4f} {ledger.PER_LAYER[name]}")
        if result["unmapped_spans"]:
            print(f"  unmapped spans: {result['unmapped_spans']}")


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--workload", required=True)
    cli.add_argument("--seed", type=int, default=1)
    cli.add_argument("--seconds", type=float, default=10.0)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    cli.add_argument("--setup-probe", action="store_true",
                     help=argparse.SUPPRESS)
    args = cli.parse_args(argv)
    root = os.getcwd()
    if args.setup_probe:
        with reaped():
            setup_probe(args.workload, args.seed)
        return 0
    workloads = import_program(root)
    if args.workload not in workloads.WORKLOADS:
        cli.error(f"unknown workload {args.workload!r} (choose from "
                  f"{', '.join(workloads.WORKLOADS)})")
    with reaped():
        result = run(workloads, args.workload, args.seed, args.seconds,
                     bool(args.trace))
    wl = result["workload"]
    print_record(args, result, root)
    if args.trace:
        from perfbench import ledger


        metrics = {name: {"value": value, "unit": ledger.PER_LAYER[name]}
                   for name, value in result["per_layer"].items()}
    else:
        metrics = end_to_end_metrics(result)
    print(json.dumps({"correct": wl.failed == 0 and wl.attempted > 0,
                      "attempted": wl.attempted, "failed": wl.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
