"""Layered benchmark of the mtcalc command line.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload ffa --seed 1 --seconds 35 --trace 0

One process, no worker threads.  Each workload is a closed loop with one
client calling ``mtcalc.cli_io.run_suite``; every report is checked against
``perfbench/reference.json``.  Times are scaled to a reference machine speed
measured by a calibration kernel around every job (see README.md).
``--trace 0`` prints the end-to-end metrics,
``--trace 1`` alternates plain and traced passes and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; details and
provenance also go to ``.perfbench/`` at the repository root.
``--write-reference`` captures the reference from the current code.
"""

import os
import sys

# Pinned before numpy is imported, so BLAS starts no worker threads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
# No __pycache__ is left in the tree.  ``main`` also points the bytecode
# cache at an empty directory, so .pyc files already in the tree (left by a
# test run, say) are never read and every set-up compiles mtcalc from source.
sys.dont_write_bytecode = True

import argparse
import gc
import importlib
import json
import platform
import random
import resource
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Time of ``calibrate`` that defines the reference speed, near its faster
# readings on the 2-core Xeon box of the baselines; reported times are
# scaled to this speed (see README.md).
CAL_REF_S = 0.0125


class SetupError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# set-up and passes


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter and small-numpy work that
    does not touch mtcalc; it tracks how fast the machine runs right now."""
    t0 = time.perf_counter()
    acc = {}
    m = np.eye(3, dtype=complex)
    for i in range(18000):
        key = (i % 7, i % 11)
        acc[key] = acc.get(key, 0) + i
        if i % 8 == 0:
            m = m @ m + 0.0
    return time.perf_counter() - t0


def speed_scale(before: float, after: float) -> float:
    """Factor that turns a wall time measured between two calibration
    samples into seconds at the reference speed."""
    return CAL_REF_S / ((before + after) / 2)


def setup(workload: str, workdir: Path) -> tuple:
    """Import mtcalc, write the generated inputs and validate them.

    Returns (wall seconds, normalized seconds, the cli_io module,
    {input name: (path, sha256)}).  The machine speed is sampled between
    the steps, so each step is scaled by the speed around it.
    """
    for name in [m for m in sys.modules if m == "mtcalc" or m.startswith("mtcalc.")]:
        del sys.modules[name]
    cal = [calibrate()]
    seconds = [0.0, 0.0]

    def step(fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        wall = time.perf_counter() - t0
        cal.append(calibrate())
        seconds[0] += wall
        seconds[1] += wall * speed_scale(cal[-2], cal[-1])
        return out

    def load():
        cli = importlib.import_module("mtcalc.cli_io")
        fusion_data = importlib.import_module("mtcalc.fusion_data")
        return cli, workloads.write_inputs(fusion_data, workload, workdir)

    cli, inputs = step(load)
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SetupError(f"mtcalc was imported from {cli.__file__}, not {SRC}")
    for name, (path, _) in inputs.items():
        status, _ = step(cli.run_suite, ["verify-category", str(path)])
        if status != 0:
            raise SetupError(f"generated input {name} fails verify-category "
                             f"(exit {status})")
    return seconds[0], seconds[1], cli, inputs


def fits(start: float, seconds: float, done: list) -> bool:
    """Whether another pass (of the median length so far) ends in time.

    The first pass always runs, so every run measures at least one.
    """
    if not done:
        return True
    return time.perf_counter() - start + statistics.median(done) <= seconds


def run_pass(cli, units: list, rng: random.Random, tracer=None) -> tuple:
    """One pass over the jobs in a seeded order.

    Returns (results, calibration samples); a result is (job, wall seconds,
    speed scale, status, output).  The machine speed is sampled before the
    first job and after every job, outside the jobs' timings.
    """
    order = list(units)
    rng.shuffle(order)
    jobs = [job for unit in order for job in unit]
    gc.collect()
    results = []
    cal = [calibrate()]
    for job in jobs:
        if tracer is not None:
            tracer.begin_job(job.key)
        t0 = time.perf_counter()
        try:
            status, output = cli.run_suite(list(job.argv))
        except Exception as exc:  # a job that raises counts as failed
            status, output = exc, ""
        job_s = time.perf_counter() - t0
        cal.append(calibrate())
        results.append((job, job_s, speed_scale(cal[-2], cal[-1]), status, output))
    return results, cal


class Runs:
    """Pass times, per-suite sums and output checks of one benchmark run.

    ``pass_s``, ``suite_s`` and ``split_s`` are normalized seconds;
    ``pass_wall_s`` is the plain wall time of each pass.
    """

    def __init__(self, ref: dict):
        self.ref = ref
        self.pass_s = []
        self.pass_wall_s = []
        self.cal = []
        self.suite_s = defaultdict(list)     # metric -> per-pass sums
        self.split_s = defaultdict(list)     # "metric[source]" -> per-pass sums
        self.attempted = 0
        self.failures = []

    def add(self, results: list, cal: list) -> None:
        self.cal.extend(cal)
        wall, sums, splits = 0.0, defaultdict(float), defaultdict(float)
        for job, job_s, scale, status, output in results:
            wall += job_s
            sums[job.metric] += job_s * scale
            splits[f"{job.metric}[{job.source}]"] += job_s * scale
            self.attempted += 1
            problem = reference.check(self.ref, job.key, status, output)
            if problem is not None:
                self.failures.append({"job": job.key, "problem": problem})
        self.pass_wall_s.append(wall)
        self.pass_s.append(sum(sums.values()))
        for key, value in sums.items():
            self.suite_s[key].append(value)
        for key, value in splits.items():
            self.split_s[key].append(value)


# ---------------------------------------------------------------------------
# reporting


def describe(values: list) -> dict:
    """Median, maximum (p100, the highest percentile a run's few samples
    support) and the sample count."""
    return {"median": statistics.median(values), "p100": max(values),
            "n": len(values)}


def show(name: str, unit: str, stats: dict) -> None:
    extra = "".join(
        f"  {k}={v:.6g}" for k, v in stats.items() if k not in ("median", "n")
    )
    print(f"  {name:<34} median={stats['median']:.6g} {unit}{extra}  n={stats['n']}")


def git_commit():
    """Commit of the checkout from .git, or None when it is not a git tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(args, inputs: dict) -> dict:
    mtcalc = sys.modules["mtcalc"]
    return {
        "mtcalc": mtcalc.__version__,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "inputs_sha256": {name: digest for name, (_, digest) in inputs.items()},
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def measure(args, workdir: Path, ref: dict) -> tuple:
    """End-to-end run: set-up repeated, then passes for ``args.seconds``.

    Returns (jobs attempted, failures, end-to-end metrics, details).
    """
    setups = [setup(args.workload, workdir) for _ in range(SETUP_REPEATS)]
    _, _, cli, inputs = setups[-1]
    units = workloads.job_units(args.workload, inputs, workdir, args.seed)
    rng = random.Random(args.seed)
    runs = Runs(ref)
    rounds = []
    start = time.perf_counter()
    while fits(start, args.seconds, rounds):
        t_round = time.perf_counter()
        runs.add(*run_pass(cli, units, rng))
        rounds.append(time.perf_counter() - t_round)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    stats = {
        "setup_s": describe([s[1] for s in setups]),
        "pass_s": describe(runs.pass_s),
        **{metric: describe(values) for metric, values in runs.suite_s.items()},
        "setup_wall_s": describe([s[0] for s in setups]),
        "pass_wall_s": describe(runs.pass_wall_s),
    }
    split = {key: describe(values) for key, values in sorted(runs.split_s.items())}
    failed_frac = len(runs.failures) / runs.attempted
    cal = statistics.median(runs.cal)

    print(f"end-to-end metrics, workload {args.workload}, seed {args.seed}, "
          f"closed loop with one client, {len(runs.pass_s)} passes "
          f"(times in s at the reference speed, *_wall_s as measured):")
    for name, value in stats.items():
        show(name, "s", value)
    print(f"  {'failed_frac':<34} value={failed_frac:.6g} ratio"
          f"  ({len(runs.failures)} of {runs.attempted} jobs)")
    print(f"  {'peak_rss_mb':<34} value={peak_rss_mb:.6g} MB")
    print(f"  {'calibration_s':<34} median={cal:.6g} s  reference={CAL_REF_S} s"
          f"  n={len(runs.cal)}")
    print("per-category split of the suite times:")
    for key, value in split.items():
        show(key, "s", value)

    metrics = {
        "setup_s": {"value": stats["setup_s"]["median"], "unit": "s"},
        "pass_s": {"value": stats["pass_s"]["median"], "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "provenance": provenance(args, inputs),
        "setup_s": [s[1] for s in setups],
        "setup_wall_s": [s[0] for s in setups],
        "pass_s": runs.pass_s,
        "pass_wall_s": runs.pass_wall_s,
        "calibration_s": runs.cal,
        "suite_s": dict(runs.suite_s),
        "split_s": dict(runs.split_s),
        "stats": stats,
        "split": split,
        "failed_frac": failed_frac,
        "failures": runs.failures,
        "peak_rss_mb": peak_rss_mb,
    }
    return runs.attempted, runs.failures, metrics, detail


def traced(args, workdir: Path, ref: dict) -> tuple:
    """Traced run: plain and traced passes alternate for ``args.seconds``.

    Returns (jobs attempted, failures, per-layer metrics, details).
    """
    _, _, cli, inputs = setup(args.workload, workdir)
    units = workloads.job_units(args.workload, inputs, workdir, args.seed)
    rng = random.Random(args.seed)
    plain, traced_runs = Runs(ref), Runs(ref)
    tracer = spans.Tracer()
    summaries = []
    rounds = []
    start = time.perf_counter()
    while fits(start, args.seconds, rounds):
        t_round = time.perf_counter()
        plain.add(*run_pass(cli, units, rng))
        tracer.reset()
        tracer.install()
        try:
            results, cal = run_pass(cli, units, rng, tracer)
        finally:
            tracer.uninstall()
        traced_runs.add(results, cal)
        summaries.append(tracer.summary())
        rounds.append(time.perf_counter() - t_round)
    span_file = OUT / f"spans-{args.workload}.npz"
    tracer.write(span_file)

    per_pass = [spans.layer_values(s) for s in summaries]
    units_ = {**spans.layer_units(), "trace.overhead_ratio": "ratio"}
    values = {
        name: statistics.median(p[name] for p in per_pass)
        for name in units_ if name != "trace.overhead_ratio"
    }
    plain_s = statistics.median(plain.pass_s)
    traced_s = statistics.median(traced_runs.pass_s)
    values["trace.overhead_ratio"] = traced_s / plain_s
    traced_wall = statistics.median(traced_runs.pass_wall_s)

    print(f"per-layer metrics, workload {args.workload}, seed {args.seed}, "
          f"median of {len(summaries)} traced passes (times as measured):")
    for name, unit in units_.items():
        value = values[name]
        text = f"{value:.6g}" if unit in ("s", "ratio") else f"{value:.0f}"
        print(f"  {name:<48} {text} {unit}")
    frob = values["diagonal_frobenius.verify_frobenius.incl_s"]
    print(f"tracing overhead: traced pass_s {traced_s:.4g} s over plain pass_s "
          f"{plain_s:.4g} s = {values['trace.overhead_ratio']:.3f}")
    print(f"verify_frobenius inclusive time: {frob:.4g} s of a traced pass of "
          f"{traced_wall:.4g} s wall ({frob / traced_wall:.1%})")
    print(f"spans of the last traced pass written to {span_file.relative_to(ROOT)}")

    failures = plain.failures + traced_runs.failures
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units_.items()}
    detail = {
        "provenance": provenance(args, inputs),
        "plain_pass_s": plain.pass_s,
        "traced_pass_s": traced_runs.pass_s,
        "traced_pass_wall_s": traced_runs.pass_wall_s,
        "per_pass": per_pass,
        "trees_hit_ratio_per_job": summaries[-1]["trees_hit_ratio_per_job"],
        "failures": failures,
    }
    return plain.attempted + traced_runs.attempted, failures, metrics, detail


def write_reference(workdir: Path) -> None:
    """Capture every job's reference entry from the current code."""
    jobs = {}
    for workload in workloads.WORKLOADS:
        _, _, cli, inputs = setup(workload, workdir)
        for unit in workloads.job_units(workload, inputs, workdir, seed=0):
            for job in unit:
                status, output = cli.run_suite(list(job.argv))
                jobs[job.key] = reference.summarize(job.key, status, output)[0]
    doc = {"commit": git_commit(), "jobs": jobs}
    reference.REFERENCE_PATH.write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {len(jobs)} reference entries to {reference.REFERENCE_PATH}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "mtcalc" / "__init__.py").is_file():
        print(f"error: no mtcalc sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    sys.pycache_prefix = str(workdir / "no-pycache")
    try:
        if args.write_reference:
            write_reference(workdir)
            return 0
        ref = reference.load()
        run = traced if args.trace else measure
        attempted, failures, metrics, detail = run(args, workdir, ref)
    except SetupError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures[:20]:
        print(f"FAILED {failure['job']}: {failure['problem']}")
    detail_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail_file.write_text(json.dumps(detail, indent=1) + "\n", encoding="utf-8")
    print(f"provenance: {json.dumps(detail['provenance'], sort_keys=True)}")
    print(f"details written to {detail_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
