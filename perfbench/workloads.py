"""Inputs and job lists of the three benchmark workloads.

Every workload is a closed loop with one client: the jobs of a pass run one
after another through ``mtcalc.cli_io.run_suite``, each waiting for the
previous one.  The workload seed orders the jobs of each pass and derives the
``operad-check --seed`` values; the program itself only ever receives CLI
arguments and file paths.
"""

from __future__ import annotations

import cmath
import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("ffa", "coherence", "operad")

# Generated Z_N categories each workload reads from files.  Z_5 is left out
# of ``ffa`` on purpose: its verify-ffa alone takes about 18 s.
GENERATED = {"ffa": (3,), "coherence": (7, 9), "operad": ()}

BUILTINS = ("trivial", "z2_semion", "fibonacci", "ising")
COHERENCE_COMMANDS = ("verify-category", "rigidity", "fusing-symmetries")
OPERAD_FLOAT_TRIALS = 1000
OPERAD_EXACT_TRIALS = 150

# suite-time metric of each CLI subcommand
COMMAND_METRIC = {
    "verify-category": "verify_category_s",
    "rigidity": "rigidity_s",
    "fusing-symmetries": "fusing_symmetries_s",
    "build-ffa": "build_ffa_s",
    "verify-ffa": "verify_ffa_s",
    "operad-check": "operad_check_s",
    "operad-check --exact": "operad_check_exact_s",
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation.

    ``key`` names the job independently of where its files live; it is the
    job's entry in the reference.  ``source`` is the category (or operad
    mode) the per-category split of the suite times is keyed on.
    """

    key: str
    argv: tuple
    metric: str
    source: str


def zn_category(fusion_data, n: int):
    """Pointed Z_n category: trivial F, R = w^(ab), twist w^(a^2), n odd.

    All vertex gauges are trivial, so every F entry is 1.
    """
    if n % 2 == 0:
        raise ValueError("Z_n with trivial F needs n odd")
    w = cmath.exp(2j * cmath.pi / n)
    labels = tuple(fusion_data.Label(a, f"g{a}") for a in range(n))
    fusion = {(a, b, (a + b) % n): 1 for a in range(n) for b in range(n)}
    ring = fusion_data.FusionRing(
        labels, 0, tuple((-a) % n for a in range(n)), fusion
    )
    F = {
        (a, b, c, (a + b + c) % n, (b + c) % n, (a + b) % n, 0, 0, 0, 0): 1 + 0j
        for a in range(n) for b in range(n) for c in range(n)
    }
    R = {(a, b, (a + b) % n, 0, 0): w ** (a * b) for a in range(n) for b in range(n)}
    twist = [w ** (a * a) for a in range(n)]
    return fusion_data.CategoryData(ring, F, R, twist)


def write_inputs(fusion_data, workload: str, workdir: Path) -> dict:
    """Write the workload's generated category files; name -> (path, sha256)."""
    out = {}
    for n in GENERATED[workload]:
        text = fusion_data.emit_category(zn_category(fusion_data, n))
        path = workdir / f"z{n}.json"
        path.write_text(text, encoding="utf-8")
        out[f"z{n}"] = (path, hashlib.sha256(text.encode("utf-8")).hexdigest())
    return out


def job_units(workload: str, inputs: dict, workdir: Path, seed: int) -> list:
    """Jobs of one pass, grouped into units whose order must be kept."""

    def source_arg(name):
        return name if name.startswith("builtin:") else str(inputs[name][0])

    def category_job(command, name, *extra):
        label = name.split(":", 1)[-1]
        return Job(
            f"{command} {name if name.startswith('builtin:') else 'gen:' + name}",
            (command, source_arg(name)) + extra,
            COMMAND_METRIC[command],
            label,
        )

    if workload == "ffa":
        algebra = str(workdir / "z3_algebra.json")
        z3_pair = [
            category_job("build-ffa", "z3", "--out", algebra),
            Job("verify-ffa gen:z3_algebra", ("verify-ffa", algebra),
                COMMAND_METRIC["verify-ffa"], "z3"),
        ]
        return [
            [category_job("verify-ffa", "builtin:fibonacci")],
            [category_job("verify-ffa", "builtin:ising")],
            z3_pair,
        ]
    if workload == "coherence":
        names = [f"builtin:{b}" for b in BUILTINS] + [f"z{n}" for n in GENERATED[workload]]
        return [
            [category_job(command, name)]
            for name in names for command in COHERENCE_COMMANDS
        ]
    if workload == "operad":
        rng = random.Random(seed)
        float_seed, exact_seed = rng.randrange(2 ** 31), rng.randrange(2 ** 31)
        return [
            [Job("operad-check float",
                 ("operad-check", "--trials", str(OPERAD_FLOAT_TRIALS),
                  "--seed", str(float_seed)),
                 COMMAND_METRIC["operad-check"], "float")],
            [Job("operad-check exact",
                 ("operad-check", "--trials", str(OPERAD_EXACT_TRIALS),
                  "--seed", str(exact_seed), "--exact"),
                 COMMAND_METRIC["operad-check --exact"], "exact")],
        ]
    raise ValueError(f"unknown workload {workload!r}")
