"""Command-line surface: verification subcommands and report emission.

Exit codes: 0 all checks passed, 1 usage error, 2 unreadable or invalid
input, 3 verification failure.  Reports are emitted as stable-keyed JSON
(byte-identical across runs with equal flags and seed) or as plain text.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import fusion_data, graphcalc, diagonal_frobenius, sewing_operad
from .fusion_data import CategoryDataError
from .report import Report, emit_report

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INPUT = 2
EXIT_VERIFY = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The one parser of every call: ``parse_args`` keeps no state between calls."""
    parser = _Parser(prog="mtcalc", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")

    def add(name, help_, needs_input=True):
        p = sub.add_parser(name, help=help_)
        if needs_input:
            p.add_argument(
                "input",
                help="category source: builtin:NAME or a category file path",
            )
        p.add_argument("--tol", type=float, default=fusion_data.DEFAULT_TOL)
        p.add_argument("--out", default=None, help="write output here instead of stdout")
        p.add_argument("--format", choices=("json", "text"), default="json")
        return p

    add("verify-category", "pentagon/hexagon/twist coherence of category data")
    add("rigidity", "the four duality zigzag identities, both routes")
    add("fusing-symmetries", "conjugation symmetries and phase identities")
    add("build-ffa", "emit the diagonal algebra of a category as JSON")
    p = add("verify-ffa", "verify the diagonal algebra axioms and its form")
    op = add("operad-check", "randomized sewing axioms suite", needs_input=False)
    op.add_argument("--trials", type=int, default=100)
    op.add_argument("--seed", type=int, default=42)
    op.add_argument("--exact", action="store_true",
                    help="Gaussian-rational arithmetic, exact comparisons")
    return parser


def _load_input(spec: str):
    """Resolve builtin:NAME or a file path to category or algebra data."""
    if spec.startswith("builtin:"):
        return fusion_data.builtin_category(spec[len("builtin:"):]), None
    try:
        with open(spec, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CategoryDataError(f"cannot read {spec}: {exc}") from exc
    try:
        doc = json.loads(text)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        # not a JSON object: loads_category names what is wrong with it
        return fusion_data.loads_category(text), None
    if "category" in doc:
        alg = diagonal_frobenius.loads_algebra(doc)
        return alg.data, alg
    return fusion_data.loads_category(doc), None


def run_suite(argv) -> tuple:
    """Execute one CLI invocation; returns (exit_status, output_text)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return EXIT_USAGE, f"usage error: {exc}\n"
    if args.command is None:
        return EXIT_USAGE, parser.format_usage()
    if not (math.isfinite(args.tol) and args.tol > 0):
        return EXIT_USAGE, f"usage error: --tol must be finite and positive, got {args.tol}\n"

    try:
        if args.command == "operad-check":
            if args.trials < 1:
                msg = f"--trials must be at least 1, got {args.trials}"
                return EXIT_USAGE, f"usage error: {msg}\n"
            if args.seed < 0:
                msg = f"--seed must be non-negative, got {args.seed}"
                return EXIT_USAGE, f"usage error: {msg}\n"
            report = sewing_operad.verify_operad_axioms(
                trials=args.trials, seed=args.seed, tol=args.tol,
                exact=args.exact,
            )
            return _finish(report, args)

        data, alg = _load_input(args.input)

        if args.command == "verify-category":
            report = fusion_data.verify_coherence(data, args.tol)
        elif args.command == "rigidity":
            report = graphcalc.verify_rigidity(data, args.tol)
        elif args.command == "fusing-symmetries":
            report = graphcalc.verify_fusing_symmetries(data, args.tol)
        elif args.command == "build-ffa":
            coherent = fusion_data.verify_coherence(data, args.tol)
            if not coherent.passed:
                return _finish(coherent, args)
            alg = diagonal_frobenius.build_diagonal_algebra(data)
            text = diagonal_frobenius.emit_algebra(alg)
            _write(args.out, text)
            return EXIT_OK, "" if args.out else text
        elif args.command == "verify-ffa":
            report = Report(suite="verify-ffa", tol=args.tol)
            if alg is None:
                coherent = fusion_data.verify_coherence(data, args.tol)
                report.extend(coherent)
                if not coherent.passed:
                    return _finish(report, args)
                alg = diagonal_frobenius.build_diagonal_algebra(data)
            for sub in (
                diagonal_frobenius.verify_algebra_axioms(alg, args.tol),
                diagonal_frobenius.verify_frobenius(alg, args.tol),
                diagonal_frobenius.verify_invariant_form(alg, args.tol),
            ):
                report.extend(sub)
        else:  # pragma: no cover - argparse guards the choices
            return EXIT_USAGE, f"unknown command {args.command}\n"
        return _finish(report, args)
    except (CategoryDataError, ValueError, OSError) as exc:
        return EXIT_INPUT, f"input error: {exc}\n"


def _finish(report: Report, args) -> tuple:
    text = emit_report(report, args.format)
    _write(args.out, text)
    status = EXIT_OK if report.passed else EXIT_VERIFY
    return status, "" if args.out else text


def _write(path, text):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def main(argv=None) -> int:
    # a non-finite residual is reported in the records, not warned about
    with np.errstate(all="ignore"):
        status, output = run_suite(sys.argv[1:] if argv is None else argv)
    if output:
        stream = sys.stdout if status in (EXIT_OK, EXIT_VERIFY) else sys.stderr
        stream.write(output)
    return status


if __name__ == "__main__":
    sys.exit(main())
