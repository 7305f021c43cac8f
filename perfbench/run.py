"""Benchmark harness for the diamond-entropy pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 times fresh workload processes for about S seconds (at least
one) and prints the end-to-end metrics. --trace 1 runs the workload
in-process once with spans and once without, each in a fresh process, and
prints the per-layer metrics. Every workload output is checked against
`references.json`. The last line on stdout is one JSON object with the keys
correct, attempted, failed and metrics. The environment, every sample and
the span trace are written to perfbench/results/.

Every process runs the package from the checkout's src/ with one BLAS
thread and without DIAMOND_ENTROPY_JOBS, so no workload starts more
threads than its explicit --jobs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

from workloads import BENCH_DIR, Workload, load_workloads, parse_output

ROOT = BENCH_DIR.parent
RESULTS = BENCH_DIR / "results"
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0  # the whole run must end within 180 s

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "discretization.grid_s": "s",
    "discretization.spectrum_s": "s",
    "discretization.eigensolve_s": "s",
    "kernel_eval.fill_s": "s",
    "entropy_pipeline.ladder_s": "s",
    "entropy_pipeline.rungs": "count",
    "entropy_pipeline.bulk_s": "s",
    "entropy_pipeline.eta_trace_s": "s",
    "asymptotics.point_max_s": "s",
    "asymptotics.point_sum_s": "s",
    "asymptotics.sweep_s.kappa-1": "s",
    "asymptotics.sweep_s.kappa-2": "s",
    "asymptotics.sweep_s.kappa-0.5": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

ENV_PROBE = """
import json, numpy, scipy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas['name']} {blas['version']}"
except (AttributeError, KeyError, TypeError):  # older numpy has no mode="dicts"
    blas = "unknown"
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__, "blas": blas}))
"""


@dataclass
class Sample:
    """One finished process: its wall time and the rusage of its tree."""

    role: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int | None  # None: killed at the time limit
    steal_s: float | None  # machine-wide CPU steal during the sample, if known
    stdout: str = field(repr=False)
    stderr: str = field(repr=False)
    failures: list = field(default_factory=list)


def pinned_env() -> dict:
    env = dict(os.environ)
    env.pop("DIAMOND_ENTROPY_JOBS", None)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # imports use byte-code caches, as installed
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", PYTHONPATH=str(ROOT / "src"))
    return env


def machine_steal_s() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            fields = stat.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_process(role: str, cmd: list[str], timeout: float) -> Sample:
    """Run cmd to completion; wait4 gives CPU time and peak RSS of its tree.

    The tree includes pool workers, because the process reaps them before it
    exits. At the time limit the whole process group is killed.
    """
    with tempfile.TemporaryFile(dir=RESULTS) as out, tempfile.TemporaryFile(dir=RESULTS) as err:
        steal = machine_steal_s()
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=pinned_env(), stdout=out, stderr=err,
                                start_new_session=True)
        killed = threading.Event()

        def kill() -> None:
            killed.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        timer = threading.Timer(max(timeout, 1.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        steal_end = machine_steal_s()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Sample(
            role=role,
            wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime,
            peak_rss_mb=usage.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            returncode=None if killed.is_set() else proc.returncode,
            steal_s=None if steal is None or steal_end is None else steal_end - steal,
            stdout=out.read().decode(errors="replace"),
            stderr=err.read().decode(errors="replace"),
        )


def exit_failures(sample: Sample) -> list[str]:
    if sample.returncode is None:
        return ["timed out"]
    if sample.returncode != 0:
        tail = sample.stderr.strip().splitlines()[-1:] or [""]
        return [f"exit code {sample.returncode}: {tail[0]}"]
    return []


def check_rep(workload: Workload, sample: Sample) -> list[str]:
    failures = exit_failures(sample)
    if failures:
        return failures
    try:
        output = parse_output(workload.kind, workload.spec, sample.stdout)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]
    return workload.check(output)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def log_sample(sample: Sample) -> None:
    status = "ok" if not sample.failures else "FAILED " + "; ".join(sample.failures[:3])
    steal = "?" if sample.steal_s is None else f"{sample.steal_s:.2f}"
    log(f"  {sample.role:<9} wall {sample.wall_s:8.3f} s  cpu {sample.cpu_s:8.3f} s  "
        f"rss {sample.peak_rss_mb:7.1f} MB  steal {steal} s  {status}")


def run_timed(workload: Workload, seed: int, seconds: float, deadline: float):
    """Rounds of one workload rep and one setup probe, in seeded order.

    An unmeasured setup probe comes first, so byte-code compilation and the
    file cache are warm; then rounds run until `seconds` have passed, and
    setup probes are topped up to MIN_SETUPS.
    """
    rng = random.Random(seed)
    samples: list[Sample] = []

    def step(role: str) -> None:
        cmd = workload.command() if role == "rep" else workload.setup_command()
        sample = run_process(role, cmd, deadline - time.perf_counter())
        sample.failures = check_rep(workload, sample) if role == "rep" else exit_failures(sample)
        samples.append(sample)
        log_sample(sample)

    def taken(role: str) -> list[Sample]:
        return [s for s in samples if s.role == role]

    step("warm-up")
    start = time.perf_counter()
    while True:
        for role in rng.sample(["rep", "setup"], 2):
            step(role)
        longest = max(s.wall_s for s in taken("rep"))
        if (time.perf_counter() - start >= seconds
                or deadline - time.perf_counter() < 1.5 * longest + 10.0):
            break
    while len(taken("setup")) < MIN_SETUPS and deadline - time.perf_counter() > 10.0:
        step("setup")

    reps = taken("rep")
    metrics = {
        "wall_s": statistics.median(s.wall_s for s in reps),
        "cpu_s": statistics.median(s.cpu_s for s in reps),
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in reps),
        "setup_s": statistics.median(s.wall_s for s in taken("setup")),
    }
    return metrics, samples


def run_traced(workload: Workload, seed: int, deadline: float):
    """The in-process workload with and without spans, in seeded order."""
    job = json.dumps({"kind": workload.kind, "spec": workload.spec})
    trace_out = RESULTS / f"trace-{workload.name}-seed{seed}.jsonl"
    script = str(BENCH_DIR / "traced.py")
    variants = [("untraced", [sys.executable, script, job]),
                ("traced", [sys.executable, script, job, "--spans", "--trace-out", str(trace_out)])]
    random.Random(seed).shuffle(variants)
    results = {}
    samples = []
    for role, cmd in variants:
        sample = run_process(role, cmd, deadline - time.perf_counter())
        sample.failures = exit_failures(sample)
        if not sample.failures:
            try:
                results[role] = json.loads(sample.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError) as exc:
                sample.failures = [f"unreadable output: {exc!r}"]
        if role in results:
            result = results[role]
            sample.failures = workload.check(result["output"])
            if "serial_points" in result:
                sample.failures += workload.check({**result["output"],
                                                   "points": result["serial_points"]})
        samples.append(sample)
        log_sample(sample)

    metrics = {}
    if "traced" in results and "untraced" in results:
        metrics = dict(results["traced"]["metrics"])
        metrics["trace.overhead_s"] = (results["traced"]["workload_s"]
                                       - results["untraced"]["workload_s"])
    return metrics, samples


def environment() -> dict:
    probe = run_process("env", [sys.executable, "-c", ENV_PROBE], 60.0)
    try:
        libs = json.loads(probe.stdout)
    except ValueError:
        libs = {"error": probe.stderr.strip()[-200:]}
    commit = None
    if (ROOT / ".git").exists():  # a benchmark checkout need not be a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        **libs,
        "blas_threads": 1,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description="diamond-entropy benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "diamond_entropy" / "__init__.py").is_file():
        log(f"error: no package source at {ROOT / 'src' / 'diamond_entropy'}; "
            "run from a full checkout")
        return 2
    result, record = measure(workloads[args.workload], args.seed, args.seconds, args.trace)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"args": vars(args), **record}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def measure(workload: Workload, seed: int, seconds: float, trace: int):
    """One benchmark run; returns the result line and the full record."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    RESULTS.mkdir(exist_ok=True)
    env = environment()
    log(f"{workload.name} seed {seed} trace {trace}: " + json.dumps(env))
    if trace:
        metrics, samples = run_traced(workload, seed, deadline)
        units = PER_LAYER_UNITS
    else:
        metrics, samples = run_timed(workload, seed, seconds, deadline)
        units = END_TO_END_UNITS
    failed = sum(1 for s in samples if s.failures)
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }
    record = {
        "workload": workload.name,
        "environment": env,
        "samples": [{k: v for k, v in asdict(s).items() if k not in ("stdout", "stderr")}
                    for s in samples],
        "result": result,
    }
    return result, record


if __name__ == "__main__":
    raise SystemExit(main())
