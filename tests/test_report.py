"""emit_report writes a report from its blocks; ``json.dumps`` on the
report's records as a dict, and the text written record by record, are the
oracles it must match byte for byte."""

import json
import math

import numpy as np
import pytest

from mtcalc import deligne_double as dd
from mtcalc import diagonal_frobenius as df
from mtcalc import fusion_data as fd
from mtcalc import graphcalc as gc
from mtcalc import sewing_operad as so
from mtcalc import report as report_module
from mtcalc.report import CheckRecord, Report, emit_report

import double_braiding as db


def _record_dict(r: CheckRecord) -> dict:
    return {
        "id": r.id,
        "instance": list(r.instance),
        "residual": r.residual,
        "pass": r.ok,
    }


def _severity(record: CheckRecord) -> tuple:
    # NaN ranks above every number, so no NaN residual is hidden by max()
    return (math.isnan(record.residual), record.residual)


def _report_dict(rep: Report) -> dict:
    records = rep.records
    worst = max(records, key=_severity, default=None)
    return {
        "suite": rep.suite,
        "tol": rep.tol,
        "records": [_record_dict(r) for r in records],
        "summary": {
            "checks": len(records),
            "max_residual": 0.0 if worst is None else worst.residual,
            "pass": all(r.ok for r in records),
        },
    }


def oracle(rep: Report) -> str:
    return json.dumps(_report_dict(rep), sort_keys=True, indent=2) + "\n"


def text_oracle(rep: Report) -> str:
    """The text report written record by record from ``rep.records``."""
    records = rep.records
    lines = [f"suite: {rep.suite}  (tol={rep.tol:g})"]
    by_id = {}  # check id -> its records, in order of first appearance
    for r in records:
        mark = "ok  " if r.ok else "FAIL"
        inst = ",".join(str(x) for x in r.instance)
        lines.append(f"  [{mark}] {r.id}({inst})  residual={r.residual:.3e}")
        by_id.setdefault(r.id, []).append(r)
    lines.append("per check id:")
    for check_id, group in by_id.items():
        worst = max(group, key=_severity)
        mark = "ok  " if all(r.ok for r in group) else "FAIL"
        inst = ",".join(str(x) for x in worst.instance)
        lines.append(
            f"  [{mark}] {check_id}: checks={len(group)}"
            f"  max_residual={worst.residual:.3e}  worst=({inst})"
        )
    worst = max(records, key=_severity, default=None)
    lines.append(
        f"checks={len(records)}"
        f"  max_residual={0.0 if worst is None else worst.residual:.3e}"
        f"  pass={all(r.ok for r in records)}  wall_time={rep.wall_time:.3f}s"
    )
    return "\n".join(lines) + "\n"


def _check_both_formats(rep: Report):
    assert emit_report(rep, "json") == oracle(rep)
    assert emit_report(rep, "text") == text_oracle(rep)


def _suite_reports(data):
    yield fd.verify_coherence(data)
    yield gc.verify_rigidity(data)
    yield gc.verify_fusing_symmetries(data)
    alg = df.build_diagonal_algebra(data)
    yield df.verify_algebra_axioms(alg)
    yield df.verify_frobenius(alg)
    yield df.verify_invariant_form(alg)


@pytest.mark.parametrize("name", fd.BUILTIN_NAMES + ("z3", "z5"))
def test_suite_reports_match_oracle(categories, pointed_category, name):
    data = pointed_category(int(name[1:])) if name in ("z3", "z5") else categories[name]
    for rep in _suite_reports(data):
        assert rep.records
        assert emit_report(rep, "json") == oracle(rep), rep.suite
        assert emit_report(rep, "text") == text_oracle(rep), rep.suite


def test_double_braiding_report_matches_oracle(categories):
    # its instances are strings of label names
    data = categories["z2_semion"]
    objs = [dd.DoubleObject(((a, b),)) for a in range(2) for b in range(2)]
    rep = db.verify_double_braiding(data, objs, 1e-9)
    assert isinstance(rep.records[0].instance[0], str)
    assert emit_report(rep, "json") == oracle(rep)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
def test_operad_reports_match_oracle(exact):
    rep = so.verify_operad_axioms(trials=40, seed=3, exact=exact)
    assert emit_report(rep, "json") == oracle(rep)


def test_empty_report_matches_oracle():
    rep = Report(suite="empty", tol=1e-9)
    assert emit_report(rep, "json") == oracle(rep)
    assert '"records": [],' in emit_report(rep, "json")


def test_edge_records_match_oracle():
    rep = Report(suite='odd "suite" \\ \x01\té→\U0001f600', tol=1e-9)
    for residual in (math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e300, 0.0):
        rep.add("residual", (), residual)
    for check_id in ('q"uote', "back\\slash", "ctl\x00\x1f\n\r\b\f\x7f",
                     "θ é ⊕ \U0001d53c", ""):
        rep.add(check_id, (1,), 0.5)
    rep.add("elements", ("s", "", 'a"b', "é", True, False, -3, 0,
                         10 ** 40, -(10 ** 40), 0.1, -2.5, math.nan, math.inf,
                         -math.inf, -0.0), 0.0)
    got = emit_report(rep, "json")
    assert got == oracle(rep)
    assert got.isascii()
    assert '"max_residual": NaN' in got


def test_edge_tol_matches_oracle():
    for tol in (1, 0.1, 1e-300, math.inf):
        rep = Report(suite="t", tol=tol)
        rep.add("x", (2,), 0.05)
        assert emit_report(rep, "json") == oracle(rep)


def test_numpy_instance_element_raises_like_oracle():
    rep = Report(suite="np", tol=1e-9)
    rep.add("x", (np.int64(3),), 0.0)
    with pytest.raises(TypeError):
        oracle(rep)
    with pytest.raises(TypeError, match="int64"):
        emit_report(rep, "json")


def test_records_are_added_after_a_failed_write_whose_error_is_kept():
    # the error's traceback keeps the writer's frames, and what they read of
    # the report, alive; the report must still take records
    rep = Report(suite="np", tol=1.0)
    rep.add("x", (np.int64(3),), 0.0)
    with pytest.raises(TypeError) as err:
        emit_report(rep, "json")
    rep.add("x", (4,), 0.5)
    rep.add_many("x", (np.array([5]),), [0.25])
    assert err.value.__traceback__ is not None
    assert [r.instance for r in rep.records] == [(np.int64(3),), (4,), (5,)]


@pytest.mark.parametrize("residuals", [(0.1, math.nan), (math.nan, 0.1)])
def test_max_residual_nan_in_any_position(residuals):
    rep = Report(suite="nan", tol=1.0)
    for res in residuals:
        rep.add("x", (), res)
    assert math.isnan(rep.max_residual)
    assert not rep.passed
    assert math.isnan(json.loads(emit_report(rep, "json"))["summary"]["max_residual"])


def test_text_digest_per_check_id():
    rep = Report(suite="digest", tol=1e-3)
    rep.add("alpha", (0, 1), 1e-6)
    rep.add("beta", (2,), 1e-5)
    rep.add("alpha", (1, 1), 5e-5)
    rep.add("beta", (3,), 0.25)
    rep.add("beta", (4,), 0.125)
    text = emit_report(rep, "text")
    lines = text.splitlines()
    digest = lines[lines.index("per check id:") + 1:-1]
    assert digest == [
        "  [ok  ] alpha: checks=2  max_residual=5.000e-05  worst=(1,1)",
        "  [FAIL] beta: checks=3  max_residual=2.500e-01  worst=(3)",
    ]
    assert lines[-1].startswith("checks=5  max_residual=2.500e-01  pass=False")
    assert emit_report(rep, "json") == oracle(rep)


# -- columnar blocks ----------------------------------------------------------

# residuals and float instance elements, with the edge cases of the spelling
_FLOATS = (0.0, -0.0, 0.5, 1e-12, 2.5e-7, 5e-324, 2.2250738585072014e-308,
           1e300, 1.7976931348623157e308, -3.25, math.nan, math.inf, -math.inf)
_STRS = ("", "s", 'q"uote', "back\\slash", "é→", "\x00\n", "%s", "50%", "%%d")
_IDS = ("pentagon", "hexagon", "x", "%s id", 'q"', "θ", "")


def _random_column(rng, n):
    kind = rng.integers(7)
    if kind == 0:  # an integer array; its elements become Python ints
        return rng.integers(-5, 2 ** 40, n, dtype=np.int64)
    if kind == 1:
        return np.array([_FLOATS[i] for i in rng.integers(len(_FLOATS), size=n)])
    if kind == 2:
        return rng.integers(2, size=n).astype(bool)
    if kind == 3:
        return [_STRS[i] for i in rng.integers(len(_STRS), size=n)]
    if kind == 4:  # Python ints beyond int64
        return [int(x) * 10 ** 30 for x in rng.integers(-9, 9, n)]
    if kind == 5:
        return np.array(rng.integers(0, 9, n), dtype=np.uint8)
    pool = (True, False, 0, -1, 10 ** 40, 0.1, math.nan, -math.inf, "s", "%")
    return [pool[i] for i in rng.integers(len(pool), size=n)]


def _random_residuals(rng, shape):
    res = 10.0 ** rng.uniform(-14, 2, shape)
    special = rng.random(shape) < 0.15
    res[special] = [_FLOATS[i] for i in rng.integers(len(_FLOATS), size=special.sum())]
    return res


def _random_single(rng, rep, check_id, width) -> None:
    """Add one record of ``check_id`` with ``width`` random instance elements."""
    inst = tuple(_random_column(rng, 1)[0] for _ in range(width))
    inst = tuple(x.item() if isinstance(x, np.generic) else x for x in inst)
    rep.add(check_id, inst, _random_residuals(rng, 1)[0])


def _random_report(rng, depth=0, tol=None) -> Report:
    """A random report; an extended sub-report takes its parent's ``tol``."""
    suite = _STRS[rng.integers(len(_STRS))]
    drawn = (1e-9, 1.0, 0.5, math.inf)[rng.integers(4)]
    rep = Report(suite=suite, tol=drawn if tol is None else tol)
    for _ in range(rng.integers(1, 7)):
        step = rng.integers(6 if depth == 0 else 5)
        if step == 0:
            _random_single(rng, rep, _IDS[rng.integers(len(_IDS))], rng.integers(4))
        elif step == 5:
            rep.extend(_random_report(rng, depth + 1, rep.tol))
        else:
            n, m, k = rng.integers(0, 6), rng.integers(1, 4), rng.integers(0, 4)
            ids = [_IDS[i] for i in rng.integers(len(_IDS), size=m)]
            if m == 1 and rng.integers(2):
                # a single record ahead of the block, in the block's layout
                _random_single(rng, rep, ids[0], k)
            flat = m == 1 and rng.integers(2)  # 1-d residuals of one id
            residuals = _random_residuals(rng, n if flat else (n, m))
            rep.add_many(ids if m > 1 or rng.integers(2) else ids[0],
                         [_random_column(rng, n) for _ in range(k)], residuals)
    return rep


@pytest.mark.parametrize("seed", range(60))
def test_columnar_blocks_match_oracle(seed):
    """Random columnar blocks, single records and extended reports write
    what the record-by-record oracles write, in both formats, and the
    summary reductions agree with the records."""
    rep = _random_report(np.random.default_rng(seed))
    _check_both_formats(rep)
    summary = _report_dict(rep)["summary"]
    assert rep.passed is summary["pass"]
    assert repr(rep.max_residual) == repr(summary["max_residual"])


def _walked_digest(rep: Report) -> dict:
    """The per-check-id digest walked record by record, the oracle of
    ``report._digest``: count, worst residual (the first of greatest
    severity), its instance, and whether every record passes."""
    by_id = {}  # check id -> [count, its worst record, all pass]
    for r in rep.records:
        entry = by_id.get(r.id)
        if entry is None:
            by_id[r.id] = [1, r, r.ok]
            continue
        entry[0] += 1
        entry[2] = entry[2] and r.ok
        if _severity(r) > _severity(entry[1]):
            entry[1] = r
    return {
        check_id: [count, worst.residual, worst.instance, ok]
        for check_id, (count, worst, ok) in by_id.items()
    }


def _digest_values(digest) -> list:
    """A digest with residuals and instance elements by ``repr`` (NaN
    equals NaN), the elements with their types."""
    return [
        (check_id, count, repr(worst), [(type(x), repr(x)) for x in inst], ok)
        for check_id, (count, worst, inst, ok) in digest.items()
    ]


@pytest.mark.parametrize("seed", range(60))
def test_text_digest_matches_record_walk(seed):
    rep = _random_report(np.random.default_rng(seed))
    assert _digest_values(report_module._digest(rep)) == _digest_values(_walked_digest(rep))


def test_text_digest_of_an_id_in_two_columns_runs_row_by_row():
    # the id's records run (row 0, both columns), then row 1: the first of
    # the two 2.0 residuals is the row-0 one in the second column
    rep = Report(suite="twice", tol=1.0)
    rep.add_many(("a", "b", "a"), (np.array([10, 11]),), [[1.0, 0.0, 2.0], [2.0, 0.0, 1.0]])
    rep.add("a", (12,), 2.0)
    rep.add_many("a", (np.array([13]),), [math.nan])
    digest = report_module._digest(rep)
    assert _digest_values(digest) == _digest_values(_walked_digest(rep))
    assert _digest_values({"a": digest["a"]})[0][1:3] == (6, "nan")
    assert report_module._digest(Report(suite="twice", tol=1.0)) == {}


def test_text_digest_across_instance_widths_names_the_earlier_record():
    # one id with records of two instance lengths: the worst record is the
    # first in record order, whichever of its layouts was made first
    rep = Report(suite="widths", tol=1.0)
    rep.add("b", (1,), 0.1)
    rep.add("a", (1,), 0.5)
    rep.add_many(("b", "a"), (), [[0.1, 0.2], [3.0, math.nan]])  # made third
    rep.add_many("a", (np.array([2, 3]),), [0.0, math.nan])
    rep.add("b", (2,), 3.0)
    digest = report_module._digest(rep)
    assert _digest_values(digest) == _digest_values(_walked_digest(rep))
    # a's first NaN and b's first 3.0 are the records without instance
    assert _digest_values(digest) == [
        ("b", 4, "3.0", [], False), ("a", 5, "nan", [], False),
    ]
    _check_both_formats(rep)


def test_block_records_run_row_by_row_across_ids():
    rep = Report(suite="rows", tol=1.0)
    rep.add("single", (9,), 0.0)
    # the sense is an instance column like any other
    rep.add_many(("hexagon", "r_unitary"),
                 (["+", "-"], np.array([1, 2]), ["a", "b"]),
                 [[0.1, 2.0], [0.3, 0.4]])
    rep.add_many("empty", (np.array([], dtype=int),), np.zeros(0))
    rep.add("single", (), 0.5)
    assert [(r.id, r.instance, r.residual, r.ok) for r in rep.records] == [
        ("single", (9,), 0.0, True),
        ("hexagon", ("+", 1, "a"), 0.1, True),
        ("r_unitary", ("+", 1, "a"), 2.0, False),
        ("hexagon", ("-", 2, "b"), 0.3, True),
        ("r_unitary", ("-", 2, "b"), 0.4, True),
        ("single", (), 0.5, True),
    ]
    _check_both_formats(rep)


def test_blocks_of_one_layout_keep_their_element_types():
    # blocks and single records of one layout are written together; each
    # keeps its elements
    rep = Report(suite="layout", tol=1.0)
    for check_id, cols in (
        ("x", (np.array([True, False]), np.array([3, 4]), np.array([7], np.uint8))),
        ("y", (np.array([0.5, 2.0]), np.array([1, 2]))),
        ("z", (["s", 5], np.array([6]))),
    ):
        for col in cols:
            rep.add_many(check_id, (col,), np.linspace(0.0, 2.0, len(col)))
            rep.add("between", (), 0.0)
            rep.add(check_id, ("single",), 1.5)
    _check_both_formats(rep)
    assert [r.instance[0] for r in rep.records if r.id != "between"] == [
        True, False, "single", 3, 4, "single", 7, "single",
        0.5, 2.0, "single", 1, 2, "single",
        "s", 5, "single", 6, "single",
    ]
    types = [type(r.instance[0]) for r in rep.records if r.id == "x"]
    assert types == [bool, bool, str, int, int, str, int, str]
    assert [r.ok for r in rep.records if r.id == "x"] == [
        True, False, False, True, False, False, True, False
    ]


def test_block_shape_is_checked():
    rep = Report(suite="shape", tol=1.0)
    with pytest.raises(ValueError):
        rep.add_many(("a", "b"), (), np.zeros(3))
    with pytest.raises(ValueError):
        rep.add_many("a", ([1, 2],), np.zeros(3))
    assert rep.records == []


def test_numpy_element_in_a_column_list_raises_like_oracle():
    rep = Report(suite="np", tol=1e-9)
    rep.add_many("x", ([np.int64(3)],), [0.0])
    with pytest.raises(TypeError):
        oracle(rep)
    with pytest.raises(TypeError, match="int64"):
        emit_report(rep, "json")


def test_extend_copies_single_records():
    first, second = Report(suite="a", tol=1.0), Report(suite="b", tol=1.0)
    second.add("x", (1,), 1.5)
    first.extend(second)
    first.add("y", (), 0.0)
    second.add("z", (), 0.0)
    assert [(r.id, r.ok) for r in first.records] == [("x", False), ("y", True)]
    assert [r.id for r in second.records] == ["x", "z"]


def test_extend_adds_wall_time_and_keeps_one_tolerance():
    first = Report(suite="a", tol=1.0, wall_time=0.25)
    first.extend(Report(suite="b", tol=1.0, wall_time=0.5))
    assert first.wall_time == 0.75
    other = Report(suite="c", tol=1e-9, wall_time=1.0)
    other.add("x", (), 0.5)
    with pytest.raises(ValueError, match="tol"):
        first.extend(other)
    assert first.records == [] and first.wall_time == 0.75


@pytest.mark.parametrize("suite", [
    lambda make: fd.verify_coherence(make(7)),
    lambda make: gc.verify_fusing_symmetries(make(7)),
    lambda make: so.verify_operad_axioms(trials=50, seed=3),  # single records only
], ids=["verify-category", "fusing-symmetries", "operad-check"])
def test_suites_build_no_records_unless_read(pointed_category, monkeypatch, suite):
    """On Z_7, and on a small sewing run, the suite, both writers and the
    summary work on the blocks; ``CheckRecord`` objects are built only when
    ``records`` is read."""
    built = []

    class Counted(CheckRecord):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(report_module, "CheckRecord", Counted)
    rep = suite(pointed_category)
    emit_report(rep, "json"), emit_report(rep, "text"), rep.passed, rep.max_residual
    assert built == []
    assert len(rep.records) == len(built) > 7 ** 3
