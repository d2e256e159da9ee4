"""Run one workload for a fixed time and report its metrics.

Load model: a closed loop with one client. Each job is a fresh child
process (``child.py``) that imports fairrec and runs the workload's
``fairrec run`` calls; jobs run one at a time and the parent only waits
while a child runs, so peak RSS is per job. Inputs are generated before
the clock starts and are not part of any metric.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from . import check, layers, stats
from .spans import Span
from .workloads import DEFAULT_SEED, WORKLOADS, Workload, synthetic_triples, write_ratings_file

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
REFERENCE_DIR = BENCH_DIR / "reference"
CHILD = Path(__file__).resolve().parent / "child.py"

BLAS_THREADS = 1  # the pipeline is single-threaded Python around small BLAS calls
SETUP_PROBES = 3  # import-only children before each job, spreading set-up samples over the run
MIN_JOBS = 2  # the determinism check needs a repeat
HARD_LIMIT_S = 170.0  # a run must end within 180 s


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def git_commit(root: Path) -> str:
    # the ceiling keeps git from reporting an enclosing repository's commit
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(root.resolve().parent)}
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return "unknown"
    return lines[1]


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "commit": git_commit(root),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(BENCH_DIR)])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def prepare_inputs(workload: Workload, seed: int, run_dir: Path) -> dict:
    """Generate the ratings file and one config file per call."""
    started = monotonic()
    triples = synthetic_triples(workload.shape, seed)
    data = run_dir / "ratings.data"
    sha = write_ratings_file(triples, data)
    configs = []
    for index, call in enumerate(workload.calls, start=1):
        path = run_dir / f"call{index}.cfg"
        path.write_text("".join(f"{k} = {v}\n" for k, v in {**call, "data": data}.items()))
        configs.append(str(path))
    n_users = int(np.unique(triples[:, 0]).size)
    n_items = int(np.unique(triples[:, 1]).size)
    grid = sum(len(c.get("theta" if c["post"] == "greedy" else "ell", "").split(","))
               for c in workload.calls)
    return {
        "files": {data.name: sha},
        "users": n_users,
        "items": n_items,
        "ratings": int(len(triples)),
        "candidate_pairs": n_users * n_items - int(len(triples)),
        "grid_points": grid,
        "generated_s": monotonic() - started,
        "configs": configs,
    }


class Runner:
    def __init__(self, root: Path, run_dir: Path):
        self.root = root
        self.run_dir = run_dir
        self.env = child_env(root)
        self.expected_fairrec = (root / "src" / "fairrec" / "__init__.py").resolve()

    def spawn(self, job: str, calls: list[list[str]] | None, trace: bool, out: Path | None,
              timeout: float) -> dict:
        """Run one child; return its result with setup_s, or an ``error`` entry.

        With no calls the child only imports fairrec: a set-up probe.
        """
        spec_path = self.run_dir / f"{job}.json"
        result_path = self.run_dir / f"{job}.result.json"
        spec = {"job": job, "calls": calls, "trace": trace, "result": str(result_path),
                "out": str(out) if out else None}
        spec_path.write_text(json.dumps(spec))
        log_path = self.run_dir / f"{job}.log"
        started = monotonic()
        with open(log_path, "wb") as log:
            proc = subprocess.Popen([sys.executable, str(CHILD), str(spec_path)],
                                    stdout=log, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=self.run_dir)
            try:
                code = proc.wait(timeout=max(timeout, 1.0))
            except subprocess.TimeoutExpired:
                return {"job": job, "error": f"timed out after {timeout:.0f} s"}
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if code != 0 or not result_path.is_file():
            tail = log_path.read_text(errors="replace").strip().splitlines()[-1:]
            return {"job": job, "error": f"exit code {code}: {' '.join(tail)}"}
        result = json.loads(result_path.read_text())
        if Path(result["fairrec"]).resolve() != self.expected_fairrec:
            raise HarnessError(f"child imported {result['fairrec']}, not {self.expected_fairrec}")
        result["job"] = job
        result["setup_s"] = result["imported"] - started
        return result


def check_job(result: dict, workload: Workload, seed: int, n_items: int,
              first: dict | None) -> list[str]:
    """Every problem with one job's outputs; empty when the job passed."""
    if "error" in result:
        return [result["error"]]
    problems = [f"call {i}: fairrec exit code {c}"
                for i, c in enumerate(result["codes"], start=1) if c != 0]
    for index, texts in enumerate(result["texts"], start=1):
        problems += [f"call {index}: {p}"
                     for p in check.check_invariants(texts.get("results.csv", ""), n_items)]
        ref_dir = REFERENCE_DIR / workload.name / f"call{index}"
        if seed == DEFAULT_SEED and ref_dir.is_dir():
            problems += [f"call {index}: {p}" for p in check.compare_to_reference(texts, ref_dir)]
    if first is not None:
        problems += check.compare_hashes(result["hashes"], first["hashes"])
    return problems


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            runner: Runner, inputs: dict, deadline: float) -> tuple[list[dict], list[dict]]:
    """Rounds of set-up probes and a job until the time is up (at least MIN_JOBS jobs)."""
    warm = runner.spawn("warmup", None, False, None, timeout=60)  # fills the bytecode and page caches
    if "error" in warm:
        raise HarnessError(f"cannot import fairrec from {runner.root / 'src'}: {warm['error']}")
    start = monotonic()
    probes: list[dict] = []
    jobs: list[dict] = []
    first = None
    while True:
        now = monotonic()
        typical = statistics.median(j["wall_s"] for j in jobs) if jobs else 0.0
        if len(jobs) >= MIN_JOBS and (now + typical > start + seconds
                                      or now + typical > deadline):
            break
        for _ in range(SETUP_PROBES):
            probes.append(runner.spawn(f"probe{len(probes) + 1}", None, False, None, timeout=60))
        job = f"job{len(jobs) + 1}"
        out = runner.run_dir / f"{job}-out"
        calls = [["run", "--config", cfg, "--out", str(out)] for cfg in inputs["configs"]]
        traced = trace and len(jobs) % 2 == 0
        result = runner.spawn(job, calls, traced, out, timeout=deadline + 5 - monotonic())
        result["wall_s"] = monotonic() - now  # with the probes, to predict the next round
        result["traced"] = traced
        result["problems"] = check_job(result, workload, seed, inputs["items"], first)
        if first is None and not result["problems"]:
            first = result
        shutil.rmtree(out, ignore_errors=True)
        jobs.append(result)
    return probes, jobs


def report(workload: Workload, seed: int, trace: bool, inputs: dict, env: dict,
           probes: list[dict], jobs: list[dict]) -> tuple[dict, dict]:
    """Print the human-readable report; return the result object and, for a
    traced run, the workload's per-function figures."""
    failed = [j for j in jobs if j["problems"]]
    timed = [j for j in jobs if "sweep_s" in j]
    if not timed:
        raise HarnessError("no job produced timings: " + "; ".join(jobs[0]["problems"]))

    print(f"workload {workload.name}, seed {seed}: {workload.why}")
    print(f"inputs: {inputs['users']} users, {inputs['items']} items, {inputs['ratings']} ratings, "
          f"{inputs['candidate_pairs']} candidate pairs, {inputs['grid_points']} grid points; "
          f"generated in {inputs['generated_s']:.2f} s (not measured)")
    for name, sha in inputs["files"].items():
        print(f"input {name} sha256 {sha}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    print("load: closed loop, 1 client, one job per fresh child process, jobs run one at a time")
    for j in jobs:
        figures = (f"sweep_s={j['sweep_s']:.4f} setup_s={j['setup_s']:.4f} "
                   f"peak_rss_mb={j['peak_rss_mb']:.1f}" if "sweep_s" in j else "")
        status = "FAILED: " + "; ".join(j["problems"][:3]) if j["problems"] else "ok"
        print(f"{j['job']}{' traced' if j['traced'] else ''}: {figures} {status}")

    untraced = [j for j in timed if not j["traced"]] or timed
    sweep = [j["sweep_s"] for j in untraced]
    setup = [c["setup_s"] for c in probes + timed if "setup_s" in c]
    peak = [j["peak_rss_mb"] for j in untraced]
    print(f"sweep_s      {stats.describe(sweep, 's')}")
    print(f"setup_s      {stats.describe(setup, 's')}")
    print(f"peak_rss_mb  {stats.describe(peak, 'MB')}")
    print(f"failed_share {len(failed) / len(jobs):.4f}  ({len(failed)} of {len(jobs)} jobs)")
    metrics = {
        "sweep_s": {"value": statistics.median(sweep), "unit": "s"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mb": {"value": statistics.median(peak), "unit": "MB"},
    }
    figures: dict = {}
    if trace:
        metrics, figures = trace_metrics(workload, seed, timed, untraced)
    return {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
            "metrics": metrics}, figures


def trace_metrics(workload: Workload, seed: int, timed: list[dict],
                  untraced: list[dict]) -> tuple[dict, dict]:
    """Per-layer medians over the traced jobs, and the workload's per-function
    figures; prints the table of the functions the workload calls."""
    traced = [j for j in timed if j["traced"]]
    if not traced:
        raise HarnessError("no traced job produced spans")
    per_job = []
    missing: set[str] = set()
    for j in traced:
        spans = [Span(**s) for s in j["trace"]["spans"]]
        figures = layers.summarize(spans, j["trace"]["counts"])
        figures["trace.traced_sweep_s"] = j["sweep_s"]
        per_job.append(figures)
        missing |= {f for f in workload.expected if not figures[f"{f}.calls"]}
        for note in j["trace"]["notes"]:
            print(f"trace note: {note}")
    med = {k: statistics.median(f[k] for f in per_job) for k in per_job[0]}
    untraced_sweep_s = statistics.median(j["sweep_s"] for j in untraced)
    med["trace.overhead_s"] = med["trace.traced_sweep_s"] - untraced_sweep_s

    called = [f for f in layers.FUNCTIONS if f in workload.expected or med[f + ".calls"]]
    print(f"trace: {len(traced)} traced job(s); medians of the functions this workload calls")
    print(f"{'function':34} {'busy_s':>9} {'self_s':>9} {'calls':>6} {'rss_rise_mb':>11}")
    with_rss = (*layers.RSS_FUNCTIONS, *layers.ROLES)
    for f in [*called, *layers.ROLES]:
        rss = f"{med[f + '.rss_rise_mb']:11.1f}" if f in with_rss else ""
        print(f"{f:34} {med[f + '.busy_s']:9.4f} {med[f + '.self_s']:9.4f} "
              f"{med[f + '.calls']:6.0f} {rss}")
    for f in layers.FUNCTIONS:
        if med[f + ".errors"]:
            print(f"errors: {f} raised in {med[f + '.errors']:.0f} call(s)")
    for m in layers.MODULES:
        print(f"layer {m:10} self_s {med[m + '.self_s']:.4f}")
    print(f"top-level self times sum to {med['trace.self_sum_s']:.4f} s of traced sweep_s "
          f"{med['trace.traced_sweep_s']:.4f} s; untraced sweep_s {untraced_sweep_s:.4f} s; "
          f"tracing overhead {med['trace.overhead_s']:+.4f} s (difference of medians of "
          f"{len(traced)} traced and {len(untraced)} untraced job(s))")
    counts = {"ratings_per_s": med["dataset.load_ratings.ratings_per_s"],
              "pairs_scored": med["predictors.pairs_scored"]}
    per_workload = layers.workload_metrics(workload.expected)
    counts.update({k.rsplit(".", 1)[1]: med[k] for k in per_workload
                   if not k.endswith(("_s", ".calls", "_mb"))})
    print("counts: " + ", ".join(f"{k} {v:.0f}" if v == int(v) else f"{k} {v:.4f}"
                                 for k, v in counts.items()))
    print("missing spans: " + (", ".join(sorted(missing)) or "none"))

    trace_dir = ROOT / ".bench_work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    path = trace_dir / f"{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({"workload": workload.name, "seed": seed,
                                "missing": sorted(missing),
                                "jobs": [{"job": j["job"], **j["trace"]} for j in traced]}))
    print(f"spans written to {path.relative_to(ROOT)}")
    metrics = {name: {"value": med[name], "unit": unit}
               for name, unit in layers.reported_metrics().items()}
    return metrics, {name: {"value": med[name], "unit": unit}
                     for name, unit in per_workload.items()}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        record: Path | None = None) -> int:
    began = monotonic()
    workload = WORKLOADS[workload_name]
    if not (ROOT / "src" / "fairrec" / "__init__.py").is_file():
        raise HarnessError(f"no fairrec package under {ROOT / 'src'}")
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        inputs = prepare_inputs(workload, seed, run_dir)
        runner = Runner(ROOT, run_dir)
        probes, jobs = measure(workload, seed, seconds, trace, runner, inputs,
                               deadline=began + HARD_LIMIT_S)
        env = environment(ROOT)
        result, figures = report(workload, seed, trace, inputs, env, probes, jobs)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if record is not None:
        size = {k: v for k, v in inputs.items() if k not in ("configs", "generated_s")}
        entry = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
                 **result, "env": env, "inputs": size}
        if figures:
            entry["functions"] = figures
        with open(record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry) + "\n")
    print(json.dumps(result))
    return 0
