"""emit_report writes JSON straight from the records; ``json.dumps`` on the
report's dict is the oracle it must match byte for byte."""

import json
import math

import numpy as np
import pytest

from mtcalc import deligne_double as dd
from mtcalc import diagonal_frobenius as df
from mtcalc import fusion_data as fd
from mtcalc import graphcalc as gc
from mtcalc import sewing_operad as so
from mtcalc.report import CheckRecord, Report, emit_report

import double_braiding as db


def _record_dict(r: CheckRecord) -> dict:
    return {
        "id": r.id,
        "instance": list(r.instance),
        "residual": r.residual,
        "pass": r.ok,
    }


def _report_dict(rep: Report) -> dict:
    return {
        "suite": rep.suite,
        "tol": rep.tol,
        "records": [_record_dict(r) for r in rep.records],
        "summary": {
            "checks": len(rep.records),
            "max_residual": rep.max_residual,
            "pass": rep.passed,
        },
    }


def oracle(rep: Report) -> str:
    return json.dumps(_report_dict(rep), sort_keys=True, indent=2) + "\n"


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
