import copy
import itertools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mtcalc
from mtcalc import fusion_data as fd
from mtcalc.cli_io import EXIT_INPUT, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, run_suite

from conftest import edited, entries


def test_verify_category_builtin_ok():
    status, out = run_suite(["verify-category", "builtin:fibonacci", "--tol", "1e-9"])
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["pass"] is True
    assert doc["suite"] == "verify-category"


def test_verify_ffa_trivial_all_zero():
    status, out = run_suite(["verify-ffa", "builtin:trivial"])
    assert status == EXIT_OK
    doc = json.loads(out)
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_residual"] == 0.0


def test_verify_ffa_text_shows_the_suites_wall_time():
    # the report sums the wall times of the suites it is made of; on Ising
    # they take well over a millisecond
    status, out = run_suite(["verify-ffa", "builtin:ising", "--format", "text"])
    assert status == EXIT_OK
    wall = float(re.search(r"wall_time=(\S+)s\n$", out).group(1))
    assert wall > 0.0


@pytest.mark.parametrize(
    "cmd", ["verify-category", "rigidity", "fusing-symmetries", "verify-ffa"]
)
@pytest.mark.parametrize("name", fd.BUILTIN_NAMES)
def test_all_suites_pass_on_builtins(cmd, name):
    status, out = run_suite([cmd, f"builtin:{name}"])
    assert status == EXIT_OK, out


GOLDEN = Path(__file__).parent / "data" / "golden"


# operad-check reports depend on every sampling decision (the sewability
# test, and in exact mode every Gaussian-rational operation), so they are
# compared byte for byte
OPERAD_GOLDEN_ARGS = {
    "float": ("--trials", "50", "--seed", "42"),
    "exact": ("--trials", "25", "--seed", "7", "--exact"),
}

GOLDEN_CASES = [
    (name, cmd) for name in fd.BUILTIN_NAMES
    for cmd in ("fusing-symmetries", "rigidity", "verify-category", "verify-ffa")
] + [("z3", "build-ffa"), ("z3", "verify-ffa")] + [
    (name, "operad-check") for name in OPERAD_GOLDEN_ARGS
] + [
    # the only inputs with fusion multiplicities
    ("rep_a4_random", "rigidity"), ("rep_a4_random", "fusing-symmetries"),
    ("near_group_random", "rigidity"), ("near_group_random", "fusing-symmetries"),
    ("near_group_random", "verify-category"),
]


@pytest.mark.parametrize("name, cmd", GOLDEN_CASES)
def test_reports_match_golden(request, tmp_path, pointed_category, name, cmd):
    # golden reports were captured before the generators were rebuilt on one
    # tree-window routine; records must not change, residuals only by round-off.
    # z3 is the pointed Z_3 category, whose labels 1 and 2 are not self-dual;
    # the random-table inputs are the conftest fixtures of their names.
    text = (GOLDEN / f"{cmd}__{name}.json").read_text()
    if cmd == "operad-check":
        assert run_suite([cmd, *OPERAD_GOLDEN_ARGS[name]]) == (EXIT_OK, text)
        return
    want = json.loads(text)
    source = f"builtin:{name}"
    if name not in fd.BUILTIN_NAMES:
        data = pointed_category(3) if name == "z3" else request.getfixturevalue(name)
        source = tmp_path / f"{name}.json"
        source.write_text(fd.emit_category(data))
    status, out = run_suite([cmd, str(source)])
    got = json.loads(out)
    if cmd == "build-ffa":
        assert status == EXIT_OK
        _assert_algebra_close(got, want)
        return
    assert status == (EXIT_OK if want["summary"]["pass"] else EXIT_VERIFY)

    def flags(doc):
        return [(r["id"], r["instance"], r["pass"]) for r in doc["records"]]

    assert flags(got) == flags(want)
    drift = max(
        (abs(g["residual"] - w["residual"])
         for g, w in zip(got["records"], want["records"])),
        default=0.0,
    )
    assert drift <= 1e-12


# text reports, compared byte for byte but for the wall time: the records'
# order and spelling, the FAIL marks and the per-check-id digest; verify-ffa
# joins its sub-reports by Report.extend
TEXT_GOLDEN_ARGS = {
    "verify-category__ising": ("verify-category", "builtin:ising"),
    "fusing-symmetries__rep_a4_random": ("fusing-symmetries", "rep_a4_random"),
    "verify-ffa__fibonacci": ("verify-ffa", "builtin:fibonacci"),
    "operad-check__float": ("operad-check", "--trials", "60", "--seed", "3"),
    "operad-check__exact": ("operad-check", "--trials", "20", "--seed", "4", "--exact"),
}


def _masked_wall_time(text: str) -> str:
    return re.sub(r"wall_time=\S+s\n$", "wall_time=...s\n", text)


@pytest.mark.parametrize("name", TEXT_GOLDEN_ARGS)
def test_text_reports_match_golden(request, tmp_path, name):
    cmd, *args = TEXT_GOLDEN_ARGS[name]
    if args == ["rep_a4_random"]:
        args = [tmp_path / "rep_a4_random.json"]
        args[0].write_text(fd.emit_category(request.getfixturevalue("rep_a4_random")))
    status, out = run_suite([cmd, *map(str, args), "--format", "text"])
    want = (GOLDEN / f"{name}.txt").read_text()
    assert status == (EXIT_VERIFY if "[FAIL]" in want else EXIT_OK)
    assert _masked_wall_time(out) == _masked_wall_time(want)


def _assert_algebra_close(got, want):
    """Equal build-ffa documents up to round-off in the numeric values."""
    assert got["category"] == want["category"]
    assert got["summands"] == want["summands"]
    for key in ("mult", "phi"):
        assert [row[:-2] for row in got[key]] == [row[:-2] for row in want[key]]
        drift = max(
            abs(complex(*g[-2:]) - complex(*w[-2:]))
            for g, w in zip(got[key], want[key])
        )
        assert drift <= 1e-12, key


def test_rigidity_record_count():
    # per label: four zigzags, three records each, plus completeness grid
    status, out = run_suite(["rigidity", "builtin:fibonacci"])
    doc = json.loads(out)
    zig = [r for r in doc["records"] if r["id"].startswith("zigzag")]
    assert len(zig) == 2 * 4 * 3


def test_corrupt_file_verification_fails(tmp_path):
    data = fd.builtin_category("fibonacci")
    bad = edited(data, R={(1, 1, 0, 0, 0): lambda v: -v})
    path = tmp_path / "corrupt.json"
    path.write_text(fd.emit_category(bad))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_VERIFY
    doc = json.loads(out)
    hex_fail = [
        r for r in doc["records"] if r["id"] == "hexagon" and not r["pass"]
    ]
    assert hex_fail


def test_unparseable_file_is_input_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT
    assert out.startswith("input error: not valid JSON")


@pytest.mark.parametrize("cmd", ["verify-category", "verify-ffa"])
def test_input_file_parsed_once(tmp_path, monkeypatch, fibonacci_algebra_doc, cmd):
    # the loaders take the dict _load_input parsed, the embedded category too
    doc = fibonacci_algebra_doc if cmd == "verify-ffa" else fibonacci_algebra_doc["category"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda *a, **k: calls.append(a) or loads(*a, **k))
    status, out = run_suite([cmd, str(path)])
    monkeypatch.undo()
    assert status == EXIT_OK, out
    assert len(calls) == 1


@pytest.mark.parametrize("row", [[1, 1, 1, 1], [1, 1, 1, 0]], ids=["same", "zero"])
def test_repeated_fusion_row_is_input_error(tmp_path, row):
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    doc["fusion"].append(row)
    path = tmp_path / "fib_repeated_row.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT
    assert out.startswith("input error:") and "duplicate fusion row (1, 1, 1)" in out


def _vec_s3_text():
    """Vec_S3 with trivial F-symbols: a fusion category whose fusion rules
    are not commutative, with R = 1 on the commuting pairs only."""
    perms = list(itertools.permutations(range(3)))
    index = {g: i for i, g in enumerate(perms)}

    def mul(a, b):
        return index[tuple(perms[a][perms[b][t]] for t in range(3))]

    labels = range(len(perms))
    one = [1.0, 0.0]
    doc = {
        "labels": ["".join(map(str, g)) for g in perms],
        "unit": 0,
        "dual": [next(b for b in labels if mul(a, b) == 0) for a in labels],
        "fusion": [[a, b, mul(a, b), 1] for a in labels for b in labels],
        "F": [
            {"labels": [a, b, c, mul(mul(a, b), c), mul(b, c), mul(a, b)],
             "mult": [0, 0, 0, 0], "value": one}
            for a in labels for b in labels for c in labels
        ],
        "R": [
            {"labels": [a, b, mul(a, b)], "mult": [0, 0], "value": one}
            for a in labels for b in labels if mul(a, b) == mul(b, a)
        ],
        "twist": [one for _ in labels],
    }
    return json.dumps(doc)


@pytest.mark.parametrize(
    "cmd",
    ["verify-category", "rigidity", "fusing-symmetries", "build-ffa", "verify-ffa"],
)
def test_noncommutative_fusion_rules_are_input_error(tmp_path, cmd):
    path = tmp_path / "vec_s3.json"
    path.write_text(_vec_s3_text())
    status, out = run_suite([cmd, str(path)])
    assert status == EXIT_INPUT
    assert out.startswith("input error: fusion rules not commutative at (1, 2, ")


# Pointed Z_3 with one block set to zero, the block named as the error
# names it, and the hexagons that invert it: F(b, c, a, tot) for every
# sense, and R(x, a, tot) for the negative sense only.
SINGULAR_BLOCKS = {
    "F": ((1, 1, 1, 0), {("+", 1, 1, 1, 0), ("-", 1, 1, 1, 0)}),
    "R": ((1, 2, 0), {
        ("-", 2, 0, 1, 0), ("-", 2, 1, 0, 0), ("-", 2, 1, 1, 1),
        ("-", 2, 1, 2, 2), ("-", 2, 2, 1, 2), ("-", 2, 2, 2, 0),
    }),
}


@pytest.mark.parametrize("table", ["F", "R"])
def test_singular_block(tmp_path, pointed_category, table):
    block, inverted_by = SINGULAR_BLOCKS[table]
    coherent = tmp_path / "z3.json"
    coherent.write_text(fd.emit_category(pointed_category(3)))
    doc = json.loads(coherent.read_text())
    for entry in doc[table]:
        if tuple(entry["labels"][:len(block)]) == block:
            entry["value"] = [0.0, 0.0]
    path = tmp_path / "z3_singular.json"
    path.write_text(json.dumps(doc))

    # a verification failure: the hexagons that need the inverse read inf
    status, report = run_suite(["verify-category", str(path)])
    assert status == EXIT_VERIFY
    records = json.loads(report)["records"]
    infinite = {
        (r["id"], *r["instance"]) for r in records if r["residual"] == float("inf")
    }
    assert infinite == {("hexagon", *inst) for inst in inverted_by}
    if table == "F":
        assert [
            (r["pass"], r["residual"]) for r in records
            if r["id"] == "f_invertible" and tuple(r["instance"]) == block
        ] == [(False, 1.0)]
    # build-ffa and verify-ffa stop at that report
    assert run_suite(["build-ffa", str(path)]) == (EXIT_VERIFY, report)
    status, out = run_suite(["verify-ffa", str(path)])
    assert status == EXIT_VERIFY and json.loads(out)["records"] == records
    # the zigzags and the completeness sums invert neither block
    assert run_suite(["rigidity", str(path)])[0] == EXIT_OK
    # the suites that invert the block without a coherence gate name it
    message = f"input error: {table} block {block} is singular\n"
    assert run_suite(["fusing-symmetries", str(path)]) == (EXIT_INPUT, message)
    algebra = json.loads(run_suite(["build-ffa", str(coherent)])[1])
    algebra["category"] = doc
    alg_path = tmp_path / "z3_singular_ffa.json"
    alg_path.write_text(json.dumps(algebra))
    assert run_suite(["verify-ffa", str(alg_path)]) == (EXIT_INPUT, message)


def test_fusing_symmetries_names_a_singular_block_its_images_invert(
    tmp_path, pointed_category
):
    # no per-label record of Z_5 reads the R-block (1, 1, 2); the swapped
    # images of the word stage invert it, and they are all formed before
    # any fusing matrix is, so the error names the block
    data = pointed_category(5)
    R = {k: 0j for k in entries(data)[1] if k[:3] == (1, 1, 2)}
    path = tmp_path / "z5_singular_r.json"
    path.write_text(fd.emit_category(edited(data, R=R)))
    assert run_suite(["fusing-symmetries", str(path)]) == (
        EXIT_INPUT, "input error: R block (1, 1, 2) is singular\n"
    )


def test_fusing_symmetries_names_a_word_whose_fusing_matrix_is_singular(
    tmp_path, pointed_category
):
    # every block stays invertible but F(1, 2, 1, 4), whose zero entry is
    # the braid fusing matrix of that word; verify-category reports it as a
    # verification failure, fusing-symmetries cannot form the inverse
    data = pointed_category(5)
    F = {k: 0j for k in entries(data)[0] if k[:4] == (1, 2, 1, 4)}
    path = tmp_path / "z5_singular_word.json"
    path.write_text(fd.emit_category(edited(data, F=F)))
    assert run_suite(["fusing-symmetries", str(path)]) == (
        EXIT_INPUT,
        "input error: braid fusing matrix of word (1, 2, 1, 4) is singular\n",
    )
    assert run_suite(["verify-category", str(path)])[0] == EXIT_VERIFY


def test_category_file_is_not_read_as_algebra_by_its_labels(tmp_path):
    # the F entries of every category file carry a "mult" key; a label named
    # "category" must not make the file look like a build-ffa document
    doc = json.loads(fd.emit_category(fd.builtin_category("z2_semion")))
    doc["labels"] = ["category", "mult"]
    path = tmp_path / "semion_named.json"
    path.write_text(json.dumps(doc))
    for cmd in ("verify-category", "verify-ffa"):
        status, out = run_suite([cmd, str(path)])
        assert status == EXIT_OK, out


def test_missing_file_is_input_error():
    status, _ = run_suite(["verify-category", "/no/such/file.json"])
    assert status == EXIT_INPUT


def test_unknown_builtin_is_input_error():
    status, _ = run_suite(["verify-category", "builtin:unobtainium"])
    assert status == EXIT_INPUT


def test_bad_usage():
    status, _ = run_suite(["frobulate"])
    assert status == EXIT_USAGE
    status, _ = run_suite([])
    assert status == EXIT_USAGE
    status, _ = run_suite(["operad-check", "--trials", "few"])
    assert status == EXIT_USAGE


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_operad_trials_below_one_is_usage_error(trials):
    status, out = run_suite(["operad-check", "--trials", trials])
    assert status == EXIT_USAGE
    assert out.startswith("usage error: --trials must be at least 1")


@pytest.mark.parametrize("seed", ["-1", "-42"])
def test_operad_negative_seed_is_usage_error(seed):
    status, out = run_suite(["operad-check", "--trials", "1", "--seed", seed])
    assert status == EXIT_USAGE
    assert out == f"usage error: --seed must be non-negative, got {seed}\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-9"])
def test_tol_not_finite_positive_is_usage_error(tol):
    status, out = run_suite(["verify-category", "builtin:trivial", f"--tol={tol}"])
    assert status == EXIT_USAGE
    assert out.startswith("usage error: --tol must be finite and positive")


@pytest.mark.parametrize("argv", [
    ["verify-category", "builtin:trivial"],
    ["rigidity", "builtin:trivial"],
    ["fusing-symmetries", "builtin:trivial"],
    ["verify-ffa", "builtin:trivial"],
    ["build-ffa", "builtin:trivial"],
    ["operad-check", "--trials", "1"],
], ids=lambda argv: argv[0])
def test_unwritable_out_is_input_error(tmp_path, argv):
    out_path = tmp_path / "missing-dir" / "report.json"
    status, out = run_suite(argv + ["--out", str(out_path)])
    assert status == EXIT_INPUT
    assert out.startswith("input error:")
    assert not out_path.exists()


@pytest.mark.parametrize(
    "cmd",
    ["verify-category", "rigidity", "fusing-symmetries", "build-ffa", "verify-ffa"],
)
def test_off_unit_gauge_file_is_input_error(tmp_path, off_unit_gauge_text, cmd):
    path = tmp_path / "z3_gauged.json"
    path.write_text(off_unit_gauge_text)
    status, out = run_suite([cmd, str(path)])
    assert status == EXIT_INPUT
    assert out.startswith("input error:") and "unit label" in out


def test_build_ffa_then_verify_file(tmp_path):
    path = tmp_path / "fib_ffa.json"
    status, _ = run_suite(["build-ffa", "builtin:fibonacci", "--out", str(path)])
    assert status == EXIT_OK
    doc = json.loads(path.read_text())
    assert [list(p) for p in doc["summands"]] == [[0, 0], [1, 1]]
    status, out = run_suite(["verify-ffa", str(path)])
    assert status == EXIT_OK, out


def test_reports_byte_identical():
    args = ["operad-check", "--trials", "25", "--seed", "9"]
    out1 = run_suite(args)
    out2 = run_suite(args)
    assert out1 == out2
    args = ["verify-ffa", "builtin:ising"]
    assert run_suite(args) == run_suite(args)


def test_exact_flag_bitwise_reports():
    args = ["operad-check", "--trials", "10", "--seed", "4", "--exact"]
    assert run_suite(args) == run_suite(args)


def test_text_format():
    status, out = run_suite(["verify-category", "builtin:trivial", "--format", "text"])
    assert status == EXIT_OK
    assert "pass=True" in out and "suite: verify-category" in out


def test_out_flag_writes_file(tmp_path):
    path = tmp_path / "report.json"
    status, out = run_suite(
        ["verify-category", "builtin:ising", "--out", str(path)]
    )
    assert status == EXIT_OK and out == ""
    assert json.loads(path.read_text())["summary"]["pass"] is True


def _run_module(*args):
    """``python -m *args`` in a child process that imports the ``mtcalc``
    package this process imported, also when only pytest's own path
    setting put it on ``sys.path``."""
    root = str(Path(mtcalc.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_console_entry_point():
    proc = _run_module("mtcalc.cli_io", "verify-category", "builtin:trivial")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["pass"] is True


def test_package_runs_as_module():
    run = lambda *args: _run_module("mtcalc", *args)
    proc = run("verify-ffa", "builtin:trivial")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert json.loads(proc.stdout)["summary"]["pass"] is True
    proc = run("frobulate")
    assert proc.returncode == EXIT_USAGE
    assert proc.stderr.startswith("usage error:")


def test_calls_in_one_process_match_fresh_processes():
    # one parser serves every call of a process: no call may see the
    # arguments, defaults or errors of an earlier one (the text report's
    # wall time is the one part that differs between runs)
    def result(status, text):
        return status, re.sub(r"wall_time=\S+", "wall_time=", text)

    calls = [
        ["operad-check", "--trials", "few"],
        ["verify-category", "builtin:fibonacci", "--format", "text", "--tol", "1e-9"],
        ["rigidity", "builtin:trivial"],
        [],
        ["operad-check", "--trials", "2", "--exact"],
        ["verify-category", "builtin:fibonacci"],
    ]
    for argv in calls:
        proc = _run_module("mtcalc", *argv)
        want = result(proc.returncode, proc.stdout + proc.stderr)
        assert result(*run_suite(argv)) == want, argv


# -- malformed algebra and category files -------------------------------------


def _drop_phi(doc):
    del doc["phi"]


def _short_phi(doc):
    doc["phi"] = doc["phi"][:1]


def _zero_phi(doc):
    doc["phi"][1][1:] = [0.0, 0.0]


def _nan_phi(doc):
    doc["phi"][1][1] = float("nan")


def _inf_phi(doc):
    doc["phi"][1][2] = float("inf")


def _mult_label_out_of_range(doc):
    doc["mult"][0][0] = 7


def _mult_index_out_of_range(doc):
    doc["mult"][0][3] = 5


def _duplicate_mult_entry(doc):
    doc["mult"].append(doc["mult"][-1][:5] + [0.5, 0.0])


def _summands_not_diagonal(doc):
    doc["summands"] = [[0, 0]]


def _summands_off_diagonal(doc):
    doc["summands"] = [[0, 0], [1, 0]]


def _category_as_text(doc):
    doc["category"] = json.dumps(doc["category"])


@pytest.fixture(scope="module")
def fibonacci_algebra_doc():
    status, text = run_suite(["build-ffa", "builtin:fibonacci"])
    assert status == EXIT_OK
    return json.loads(text)


@pytest.mark.parametrize("corrupt", [
    _drop_phi, _short_phi, _zero_phi, _nan_phi, _inf_phi,
    _mult_label_out_of_range, _mult_index_out_of_range, _duplicate_mult_entry,
    _summands_not_diagonal, _summands_off_diagonal, _category_as_text,
])
def test_malformed_algebra_file_is_input_error(tmp_path, fibonacci_algebra_doc, corrupt):
    doc = copy.deepcopy(fibonacci_algebra_doc)
    corrupt(doc)
    path = tmp_path / "fib_ffa.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-ffa", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith("input error:")


def _left_index_out_of_range(doc):
    doc["mult"][0][3] = 1


def _right_index_out_of_range(doc):
    doc["mult"][0][4] = 1


def _infinite_mult_entry(doc):
    doc["mult"][0][5] = float("inf")


# The loader's message for each malformed Fibonacci algebra file.  Its mult
# rows are sorted: the first is (0, 0, 0, 0, 0), the last (1, 1, 1, 0, 0).
ALGEBRA_MESSAGES = {
    "unknown_index": (_mult_label_out_of_range,
                      "mult entry (7, 0, 0, 0, 0) has an unknown label"),
    "left_multiplicity": (_left_index_out_of_range,
                          "mult entry (0, 0, 0, 1, 0) outside multiplicity range"),
    "right_multiplicity": (_right_index_out_of_range,
                           "mult entry (0, 0, 0, 0, 1) outside multiplicity range"),
    "duplicate_row": (_duplicate_mult_entry, "duplicate mult entry (1, 1, 1, 0, 0)"),
    "non_finite": (_infinite_mult_entry, "mult entry (0, 0, 0, 0, 0) is not finite"),
    "phi_misses_summand": (_short_phi, "phi must give exactly one coefficient per label"),
    "zero_phi": (_zero_phi, "phi of label 1 must be finite and nonzero"),
}


@pytest.mark.parametrize("case", ALGEBRA_MESSAGES)
def test_malformed_algebra_messages(tmp_path, fibonacci_algebra_doc, case):
    corrupt, message = ALGEBRA_MESSAGES[case]
    doc = copy.deepcopy(fibonacci_algebra_doc)
    corrupt(doc)
    path = tmp_path / "fib_ffa.json"
    path.write_text(json.dumps(doc))
    assert run_suite(["verify-ffa", str(path)]) == (EXIT_INPUT, f"input error: {message}\n")


def _fractional_mult_label(doc):
    doc["mult"][0][0] = 0.9


def _fractional_phi_label(doc):
    doc["phi"][1][0] = 1.5


def _boolean_summand_label(doc):
    doc["summands"][1][0] = True


@pytest.mark.parametrize("corrupt", [
    _fractional_mult_label, _fractional_phi_label, _boolean_summand_label,
])
def test_non_integer_algebra_label_is_input_error(tmp_path, fibonacci_algebra_doc, corrupt):
    # int() would read each of these as the label it truncates to (0, 1, 1),
    # and the file would verify
    doc = copy.deepcopy(fibonacci_algebra_doc)
    corrupt(doc)
    path = tmp_path / "fib_ffa.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-ffa", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith("input error: malformed algebra document"), out


@pytest.mark.parametrize("table", ["F", "R"])
@pytest.mark.parametrize("field", ["labels", "mult", "value"])
def test_category_entry_missing_field_is_input_error(tmp_path, table, field):
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    del doc[table][-1][field]
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith(f"input error: malformed {table} entry")


@pytest.mark.parametrize("table", ["F", "R"])
def test_duplicate_category_entry_is_input_error(tmp_path, table):
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    doc[table].append({**doc[table][-1], "value": [0.5, 0.0]})
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith(f"input error: duplicate {table} entry")


@pytest.mark.parametrize("table", ["F", "R", "twist"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_category_entry_is_input_error(tmp_path, table, value):
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    if table == "twist":
        doc["twist"][-1] = [value, 0.0]
    else:
        doc[table][-1]["value"] = [value, 0.0]
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith("input error:")


CATEGORY_COMMANDS = [
    "verify-category", "rigidity", "fusing-symmetries", "build-ffa", "verify-ffa",
]


def _write_doc(tmp_path, fibonacci_algebra_doc, kind, corrupt):
    """Fibonacci as a category or an algebra file, its category corrupted."""
    doc = copy.deepcopy(fibonacci_algebra_doc)
    corrupt(doc["category"])
    path = tmp_path / f"fib_{kind}.json"
    path.write_text(json.dumps(doc if kind == "algebra" else doc["category"]))
    return path


@pytest.mark.parametrize("kind", ["category", "algebra"])
@pytest.mark.parametrize("table", ["F", "R"])
@pytest.mark.parametrize("value", [None, 5, 3.5, True], ids=["null", "int", "float", "bool"])
def test_entry_table_not_a_list_is_input_error(
    tmp_path, fibonacci_algebra_doc, kind, table, value
):
    path = _write_doc(tmp_path, fibonacci_algebra_doc, kind,
                      lambda cat: cat.update({table: value}))
    for cmd in CATEGORY_COMMANDS:
        status, out = run_suite([cmd, str(path)])
        assert status == EXIT_INPUT, (cmd, out)
        assert out == f"input error: {table} table must be a list of entries\n"


@pytest.mark.parametrize("kind", ["category", "algebra"])
@pytest.mark.parametrize("row", [
    [1, 1, 1, 1.9], [1, 1, 1, True], [1, 1, 1, "1"], [1.0, 1, 1, 1], [1, 1, 1],
], ids=["fraction", "bool", "string", "float-label", "short"])
def test_fusion_row_not_integers_is_input_error(tmp_path, fibonacci_algebra_doc, kind, row):
    def corrupt(cat):
        cat["fusion"] = [r for r in cat["fusion"] if r[:3] != [1, 1, 1]] + [row]

    path = _write_doc(tmp_path, fibonacci_algebra_doc, kind, corrupt)
    for cmd in CATEGORY_COMMANDS:
        status, out = run_suite([cmd, str(path)])
        assert status == EXIT_INPUT, (cmd, out)
        assert out.startswith(f"input error: malformed fusion row {row!r}"), out


@pytest.mark.parametrize("kind", ["category", "algebra"])
@pytest.mark.parametrize("mult", [2 ** 31, 2 ** 63, 10 ** 30], ids=["2^31", "2^63", "10^30"])
def test_huge_fusion_multiplicity_is_input_error(tmp_path, fibonacci_algebra_doc, kind, mult):
    # the ring stays associative, but the packed int64 keys of the tables
    # would overflow
    def corrupt(cat):
        cat["fusion"] = [r for r in cat["fusion"] if r[:3] != [1, 1, 1]] + [[1, 1, 1, mult]]

    path = _write_doc(tmp_path, fibonacci_algebra_doc, kind, corrupt)
    for cmd in CATEGORY_COMMANDS:
        status, out = run_suite([cmd, str(path)])
        assert (status, out) == (
            EXIT_INPUT, f"input error: fusion multiplicity {mult} is too large for 2 labels\n"
        ), cmd


@pytest.mark.parametrize("kind", ["category", "algebra"])
@pytest.mark.parametrize("labels", ["1t", {"1": 0, "t": 1}, [1, None]],
                         ids=["string", "object", "not-strings"])
def test_labels_not_an_array_of_strings_is_input_error(
    tmp_path, fibonacci_algebra_doc, kind, labels
):
    # a string would load as one label per character, an object as its keys
    # and [1, null] as the names "1" and "None"
    path = _write_doc(tmp_path, fibonacci_algebra_doc, kind,
                      lambda cat: cat.update(labels=labels))
    for cmd in CATEGORY_COMMANDS:
        status, out = run_suite([cmd, str(path)])
        assert status == EXIT_INPUT, (cmd, out)
        assert out == (
            "input error: malformed category document: "
            f"labels {labels!r} is not an array of strings\n"
        ), cmd


@pytest.mark.parametrize("table", ["F", "R"])
def test_overflowing_entry_fails_without_warnings(tmp_path, table):
    # the inf and NaN residuals of the records report the fault; numpy's
    # overflow warnings would print mtcalc's source lines on stderr
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    doc[table][-1]["value"] = [1e308, 0]
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    for cmd in ("verify-category", "fusing-symmetries", "build-ffa", "verify-ffa"):
        proc = _run_module("mtcalc", cmd, str(path))
        assert (proc.returncode, proc.stderr) == (EXIT_VERIFY, ""), cmd


def test_empty_report_summary():
    from mtcalc.report import Report, emit_report
    import json as _json

    rep = Report(suite="empty", tol=1e-9)
    doc = _json.loads(emit_report(rep, "json"))
    assert doc["summary"]["checks"] == 0
    assert doc["summary"]["pass"] is True
    assert doc["summary"]["max_residual"] == 0.0


def _first_entry(rows, value_of, want):
    """The first row whose value ``value_of(row)`` equals ``want``."""
    return next(row for row in rows if value_of(row) == want)


@pytest.mark.parametrize("site", ["F", "R", "twist"])
@pytest.mark.parametrize("number", [True, 10 ** 400], ids=["bool", "huge-int"])
def test_category_number_not_a_float_is_input_error(tmp_path, site, number):
    # [true, false] would read as 1 + 0i, the value it replaces, and the file
    # would verify; an integer beyond the float range would not convert
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    if site == "twist":
        pair = _first_entry(doc["twist"], lambda p: p, [1.0, 0.0])
    else:
        pair = _first_entry(doc[site], lambda e: e["value"], [1.0, 0.0])["value"]
    pair[:] = [number, False] if number is True else [number, 0.0]
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith("input error: malformed"), out


@pytest.mark.parametrize("site", ["mult", "phi"])
def test_algebra_number_not_a_float_is_input_error(tmp_path, fibonacci_algebra_doc, site):
    # an imaginary part of 0.0 spelled false reads as the same value
    doc = copy.deepcopy(fibonacci_algebra_doc)
    row = _first_entry(doc[site], lambda r: r[-1], 0.0)
    row[-1] = False
    path = tmp_path / "fib_ffa.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-ffa", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith("input error: malformed algebra document"), out


@pytest.mark.parametrize("table", ["F", "R"])
def test_negative_multiplicity_index_is_input_error(tmp_path, table):
    # an index below 0 names no basis vector, and no block would read the
    # entry
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    extra = copy.deepcopy(doc[table][0])
    extra["mult"][0] = -1
    doc[table].append(extra)
    path = tmp_path / "fib.json"
    path.write_text(json.dumps(doc))
    status, out = run_suite(["verify-category", str(path)])
    assert status == EXIT_INPUT, out
    assert out.startswith(f"input error: {table} entry") and "outside multiplicity range" in out


# Category files with F or R entries left out, as (source, the label and
# multiplicity prefixes of the entries removed from each table, loader
# message).  The loader checks R before F and names the first incomplete
# block in lexicographic order.
INCOMPLETE = {
    "ising_f_entry": ("ising", {"F": [(1, 1, 1, 1, 2, 2)]},
                      "missing F entry for block (1, 1, 1, 1)"),
    "ising_f_row": ("ising", {"F": [(1, 1, 1, 1, 0)]},
                    "missing F entry for block (1, 1, 1, 1)"),
    "ising_two_f_blocks": ("ising", {"F": [(2, 2, 2, 2), (1, 1, 1, 1, 2, 2)]},
                           "missing F entry for block (1, 1, 1, 1)"),
    "rep_a4_f_entry": ("rep_a4_random", {"F": [(3, 3, 3, 3, 3, 3, 1, 0, 1, 1)]},
                       "missing F entry for block (3, 3, 3, 3)"),
    "rep_a4_r_entry": ("rep_a4_random", {"R": [(3, 3, 3, 1, 0)]},
                       "missing R entry for channel (3, 3, 3)"),
    "rep_a4_two_r_channels": ("rep_a4_random", {"R": [(3, 3, 3, 0, 1), (1, 3, 3)]},
                              "missing R entry for channel (1, 3, 3)"),
    "rep_a4_r_before_f": ("rep_a4_random", {"F": [(1, 3, 3, 3)], "R": [(3, 3, 3, 1, 1)]},
                          "missing R entry for channel (3, 3, 3)"),
    "fibonacci_no_r": ("fibonacci", {"R": [()]},
                       "missing R entry for channel (0, 0, 0)"),
}


@pytest.mark.parametrize("case", INCOMPLETE)
def test_incomplete_table_is_input_error(tmp_path, rep_a4_random, case):
    source, dropped, message = INCOMPLETE[case]
    data = rep_a4_random if source == "rep_a4_random" else fd.builtin_category(source)
    doc = json.loads(fd.emit_category(data))
    for table, prefixes in dropped.items():
        kept = [
            e for e in doc[table]
            if not any(tuple(e["labels"] + e["mult"])[:len(p)] == p for p in prefixes)
        ]
        assert len(kept) < len(doc[table])
        doc[table] = kept
    with pytest.raises(fd.CategoryDataError) as exc:
        fd.loads_category(doc)
    assert str(exc.value) == message
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    for cmd in ("verify-category", "rigidity", "fusing-symmetries", "build-ffa", "verify-ffa"):
        assert run_suite([cmd, str(path)]) == (EXIT_INPUT, f"input error: {message}\n")
