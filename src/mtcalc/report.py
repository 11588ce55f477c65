"""Machine-readable result records shared by all verification suites."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of a single verified identity instance."""

    id: str
    instance: tuple
    residual: float
    ok: bool


@dataclass
class Report:
    """Result of one verification suite.

    ``passed`` holds iff every record's residual is below the run tolerance.
    Records keep deterministic order for fixed inputs and seed.
    """

    suite: str
    tol: float
    records: list[CheckRecord] = field(default_factory=list)
    wall_time: float = 0.0

    def add(self, check_id: str, instance: tuple, residual: float) -> None:
        residual = float(residual)
        self.records.append(
            CheckRecord(check_id, tuple(instance), residual, residual < self.tol)
        )

    def extend(self, other: "Report") -> None:
        self.records.extend(other.records)

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN if any residual is NaN, 0.0 if none."""
        worst = max(self.records, key=_severity, default=None)
        return 0.0 if worst is None else worst.residual

    @property
    def passed(self) -> bool:
        return all(r.ok for r in self.records)


def _severity(record: CheckRecord) -> tuple:
    # NaN ranks above every number, so no NaN residual is hidden by max()
    return (math.isnan(record.residual), record.residual)


def _scalar(x) -> str:
    """``x`` spelled as ``json.dumps`` spells it; TypeError if it would fail."""
    if isinstance(x, float):
        if x != x:
            return "NaN"
        if x == math.inf:
            return "Infinity"
        if x == -math.inf:
            return "-Infinity"
        return float.__repr__(x)
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


# exact types spelled by one call of a builtin; floats (NaN and infinities
# need a branch), subclasses and anything else go through _scalar
_SPELL = {
    int: int.__repr__,
    str: encode_basestring_ascii,
    bool: {True: "true", False: "false"}.__getitem__,
}

_RECORD_HEAD = '    {\n      "id": %s,\n      "instance": '
_RECORD_TAIL = '%s,\n      "pass": %s,\n      "residual": %s\n    }'
_ITEM_SEP = ",\n        "


def _json_report(report: Report) -> str:
    heads = {}  # check id -> the record's lines up to its instance
    spell = _SPELL.get
    parts = []
    for r in report.records:
        head = heads.get(r.id)
        if head is None:
            head = heads[r.id] = _RECORD_HEAD % _scalar(r.id)
        items = [spell(type(x), _scalar)(x) for x in r.instance]
        inst = f"[\n        {_ITEM_SEP.join(items)}\n      ]" if items else "[]"
        ok = spell(type(r.ok), _scalar)(r.ok)
        parts.append(head + _RECORD_TAIL % (inst, ok, _scalar(r.residual)))
    records = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
    return (
        f'{{\n  "records": {records},\n  "suite": {_scalar(report.suite)},\n'
        f'  "summary": {{\n    "checks": {len(report.records)},\n'
        f'    "max_residual": {_scalar(report.max_residual)},\n'
        f'    "pass": {_scalar(report.passed)}\n  }},\n'
        f'  "tol": {_scalar(report.tol)}\n}}\n'
    )


def _text_report(report: Report) -> str:
    lines = [f"suite: {report.suite}  (tol={report.tol:g})"]
    by_id = {}  # check id -> its records, in order of first appearance
    for r in report.records:
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
    lines.append(
        f"checks={len(report.records)}  max_residual={report.max_residual:.3e}"
        f"  pass={report.passed}  wall_time={report.wall_time:.3f}s"
    )
    return "\n".join(lines) + "\n"


def emit_report(report: Report, format: str = "json") -> str:
    """Serialize a report; ``json`` is stable-keyed, ``text`` is for humans.

    The JSON layout is fixed: 2-space indent, keys sorted (``records``,
    ``suite``, ``summary``, ``tol``; each record ``id``, ``instance``,
    ``pass``, ``residual``), every scalar spelled as ``json.dumps`` spells it,
    NaN and infinities included: byte for byte what ``json.dumps(...,
    sort_keys=True, indent=2)`` gives on the report as nested dicts and
    lists, written straight from the records.  An instance element that is
    not a str, int, bool or float raises TypeError.  ``wall_time`` is left
    out, so reports are byte-identical across repeated runs with the same
    flags and seed; the text format shows it, and after the records one
    line per check id with its count, max residual and worst instance.
    """
    if format == "json":
        return _json_report(report)
    if format == "text":
        return _text_report(report)
    raise ValueError(f"unknown report format: {format!r}")
