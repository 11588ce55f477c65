"""Machine-readable result records shared by all verification suites.

A report keeps its records in one store, by layout: the pair (check ids,
instance length).  Each layout holds the numbers of its rows in the report,
their residuals row by row (one per id) and its instance columns as Python
scalars.  ``Report.add`` appends one row of one id to its layout, and
``Report.add_many`` n rows of m ids at once, appended or placed at given row
numbers.  Each format has one writer, which fills one template per layout
and puts the rows in place by their numbers.  ``Report.records`` derives the
``CheckRecord`` list from the layouts when it is read.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np


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

    ``passed`` holds iff every record's residual is below ``tol``, the one
    tolerance every record is judged by.  Records keep deterministic order
    for fixed inputs and seed.
    """

    suite: str
    tol: float
    wall_time: float = 0.0
    # layout (check ids, instance length) -> (its row numbers, its residuals
    # row by row, its instance columns); the arrays are read through copies,
    # as one whose buffer a view still exports (say, from a kept traceback)
    # cannot grow
    _layouts: dict = field(default_factory=dict, init=False, repr=False)
    _rows: int = field(default=0, init=False, repr=False)

    def _layout(self, ids: tuple, width: int) -> tuple:
        layout = self._layouts.get((ids, width))
        if layout is None:
            layout = self._layouts[ids, width] = (
                array("q"), array("d"), [[] for _ in range(width)]
            )
        return layout

    def add(self, check_id: str, instance: tuple, residual: float) -> None:
        rows, res, cols = self._layout((check_id,), len(instance))
        rows.append(self._rows)
        self._rows += 1
        res.append(residual)
        for col, x in zip(cols, instance):
            col.append(x)

    def add_many(self, check_ids, instances, residuals, rows=None) -> None:
        """Add n rows of records of the m ids ``check_ids`` (one id may be
        given as a str): row i of id j has as instance row i of each column
        of ``instances``, and the residual ``residuals[i, j]``
        (``residuals`` may be 1-d when m is 1).  A column is an array, whose
        elements become Python scalars, or a sequence of instance elements.
        The records run row by row, and across the ids within a row; their
        row numbers in the report are ``rows``, increasing, or the next n."""
        ids = (check_ids,) if isinstance(check_ids, str) else tuple(check_ids)
        res = np.array(residuals, dtype=float)
        if res.ndim == 1:
            res = res[:, None]
        if res.shape[1:] != (len(ids),):
            raise ValueError("residuals need one column per check id")
        if not res.size:
            return
        cols = [col.tolist() if isinstance(col, np.ndarray) else list(col)
                for col in instances]
        if any(len(col) != len(res) for col in cols):
            raise ValueError("every instance column needs one element per row")
        rows = np.arange(self._rows, self._rows + len(res)) if rows is None else np.asarray(rows)
        if rows.shape != (len(res),) or rows.dtype.kind not in "iu":
            raise ValueError("rows need one integer row number per row")
        layout_rows, store, layout_cols = self._layout(ids, len(cols))
        layout_rows.frombytes(rows.astype(np.int64).tobytes())
        self._rows += len(res)
        store.frombytes(res.tobytes())
        for col, values in zip(layout_cols, cols):
            col += values

    def extend(self, other: "Report") -> None:
        """Append the records of ``other``, which must have the same
        tolerance, and add its wall time to this report's."""
        if other.tol != self.tol:
            raise ValueError(
                f"cannot extend a report of tol {self.tol!r} by one of tol {other.tol!r}"
            )
        start = self._rows
        for (ids, _), (rows, res, cols) in other._layouts.items():
            self.add_many(ids, cols, np.array(res).reshape(-1, len(ids)), np.array(rows) + start)
        self.wall_time += other.wall_time

    @property
    def records(self) -> list[CheckRecord]:
        """Every record, in order, built from the layouts on each read."""
        placed = [None] * self._rows
        for ((ids, _), (_, res, cols)), rows in zip(self._layouts.items(), _row_numbers(self)):
            values = np.array(res).reshape(-1, len(ids)).tolist()
            for row, inst, row_res in zip(rows, list(zip(*cols)) or [()] * len(rows), values):
                placed[row] = [CheckRecord(check_id, inst, r, r < self.tol)
                               for check_id, r in zip(ids, row_res)]
        return [record for row in placed for record in row]

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN if any residual is NaN, 0.0 if none.
        It is the first such record's, so -0.0 and 0.0 keep their sign."""
        firsts = []  # per layout: its first worst residual and its place
        for (ids, _), (rows, res, _) in self._layouts.items():
            res = np.array(res)
            at = int(np.argmax(res))  # row-major, as the records run
            firsts.append((float(res[at]), (rows[at // len(ids)], at % len(ids))))
        return _first_worst(firsts)[0] if firsts else 0.0

    @property
    def passed(self) -> bool:
        return all((np.array(res) < self.tol).all()
                   for _, res, _ in self._layouts.values())


def _row_numbers(report: Report) -> list:
    """Each layout's row numbers, as an array; ValueError unless they increase
    in each layout and number the report's rows 0, 1, ... once each."""
    rows = [np.array(rows) for rows, _, _ in report._layouts.values()]
    if rows and ((np.bincount(np.concatenate(rows)) != 1).any()
                 or any((np.diff(r) <= 0).any() for r in rows)):
        raise ValueError("row numbers must increase in each layout and number "
                         "the rows 0, 1, ... once each")
    return rows


def _first_worst(candidates):
    """The candidate (residual, place, ...) of greatest residual, NaN above
    every number, and of these the one of earliest place (row number,
    column): the first record of greatest residual in report order."""
    return min(candidates, key=lambda c: (c[0] == c[0], -c[0] if c[0] == c[0] else 0.0, c[1]))


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


_RECORD_HEAD = '    {\n      "id": %s,\n      "instance": '
_RECORD_TAIL = '%s,\n      "pass": %s,\n      "residual": %s\n    }'
_ITEM_SEP = ",\n        "
_JSON_PASS = ("false", "true")
_TEXT_MARK = ("FAIL", "ok  ")


def _written(report: Report, write_block) -> list:
    """The written rows, in report order.  The rows of each layout are
    written by one call of ``write_block`` with its ids, its instance
    columns, its residuals as an array of a row per row and a column per
    id, and the report's tolerance; each is put in place by its row
    number."""
    out = np.empty(report._rows, object)
    for ((ids, _), (_, res, cols)), rows in zip(report._layouts.items(), _row_numbers(report)):
        res = np.array(res).reshape(-1, len(ids))
        out[rows] = write_block(ids, cols, res, report.tol)
    return out.tolist()


def _json_column(values) -> list:
    """A column's elements for a ``%s`` slot: ints and finite floats as they
    are (``str`` spells them as ``json.dumps`` does), anything else spelled
    by ``_scalar``."""
    kinds = set(map(type, values))
    if kinds <= {int} or (kinds <= {float} and all(map(math.isfinite, values))):
        return values
    return list(map(_scalar, values))


def _json_block(ids, cols, res, tol) -> list:
    """The rows of a layout, each from one template with a record of each
    id; "true" is part of the template when every record passes ``tol``."""
    passed = res < tol
    all_pass = bool(passed.all())
    slots = ["%s"] * len(cols)
    inst = f"[\n        {_ITEM_SEP.join(slots)}\n      ]" if slots else "[]"
    tail = _RECORD_TAIL % (inst, "true" if all_pass else "%s", "%s")
    records = [
        (_RECORD_HEAD % _scalar(check_id)).replace("%", "%%") + tail
        for check_id in ids
    ]
    cols = [_json_column(col) for col in cols]
    finite = bool(np.isfinite(res).all())
    args = []
    for oks, r in zip(passed.T.tolist(), res.T.tolist()):
        args += cols
        if not all_pass:
            args.append([_JSON_PASS[ok] for ok in oks])
        args.append(r if finite else list(map(_scalar, r)))
    return list(map(",\n".join(records).__mod__, zip(*args)))


def _json_report(report: Report) -> str:
    parts = _written(report, _json_block)
    records = "[\n" + ",\n".join(parts) + "\n  ]" if parts else "[]"
    checks = sum(len(res) for _, res, _ in report._layouts.values())
    return (
        f'{{\n  "records": {records},\n  "suite": {_scalar(report.suite)},\n'
        f'  "summary": {{\n    "checks": {checks},\n'
        f'    "max_residual": {_scalar(report.max_residual)},\n'
        f'    "pass": {_scalar(report.passed)}\n  }},\n'
        f'  "tol": {_scalar(report.tol)}\n}}\n'
    )


def _text_block(ids, cols, res, tol) -> list:
    """The rows of a layout, each from one template with a line of each
    id, judged by ``tol``."""
    inst = ",".join(["%s"] * len(cols))
    passed = (res < tol).T.tolist()
    records, args = [], []
    for check_id, oks, id_res in zip(ids, passed, res.T.tolist()):
        records.append(f"  [%s] {check_id.replace('%', '%%')}({inst})  residual=%.3e")
        args.append([_TEXT_MARK[ok] for ok in oks])
        args += cols
        args.append(id_res)
    return list(map("\n".join(records).__mod__, zip(*args)))


def _digest(report: Report) -> dict:
    """Per check id, in the order the ids first appear: the number of its
    records, its worst residual (the first record's of greatest residual,
    NaN above every number) and that record's instance, and whether all its
    records pass.  Each id is reduced per layout with array reductions
    (``argmax`` takes the first NaN, else the first maximum, row by row as
    the records run); ties across layouts go to the earlier record.  The
    layouts run in the order of their first rows, so the ids come in the
    order of their first records."""
    by_id = {}  # check id -> [count, (worst residual, its place, its instance), all pass]
    for (ids, _), (rows, res, cols) in sorted(report._layouts.items(), key=lambda kv: kv[1][0][0]):
        res = np.array(res).reshape(-1, len(ids))
        for check_id in dict.fromkeys(ids):
            at = [j for j, other in enumerate(ids) if other == check_id]
            own = res[:, at]
            row, col = divmod(int(np.argmax(own)), len(at))
            worst = (float(own[row, col]), (rows[row], at[col]),
                     tuple(values[row] for values in cols))
            ok = bool((own < report.tol).all())
            entry = by_id.get(check_id)
            if entry is None:
                by_id[check_id] = [own.size, worst, ok]
                continue
            entry[0] += own.size
            entry[1] = _first_worst((entry[1], worst))
            entry[2] = entry[2] and ok
    return {
        check_id: (count, worst[0], worst[2], ok)
        for check_id, (count, worst, ok) in by_id.items()
    }


def _text_report(report: Report) -> str:
    lines = [f"suite: {report.suite}  (tol={report.tol:g})"]
    lines += _written(report, _text_block)
    lines.append("per check id:")
    digest = _digest(report)
    for check_id, (count, worst, inst, ok) in digest.items():
        inst = ",".join(str(x) for x in inst)
        lines.append(
            f"  [{_TEXT_MARK[ok]}] {check_id}: checks={count}"
            f"  max_residual={worst:.3e}  worst=({inst})"
        )
    checks = sum(count for count, *_ in digest.values())
    lines.append(
        f"checks={checks}  max_residual={report.max_residual:.3e}"
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
    lists.  Each format has one writer.  It fills one string template per
    layout of the report (check ids, instance length) from the layout's
    columns (ints and finite floats as ``str`` spells them, anything else
    through ``_scalar``) and puts the rows in place by their row numbers;
    no record is regrouped or built on the way.  An instance element that is not a str, int, bool or float raises
    TypeError.  ``wall_time`` is left out, so reports are byte-identical
    across repeated runs with the same flags and seed; the text format
    shows it, and after the records one line per check id with its count,
    max residual and worst instance.
    """
    if format == "json":
        return _json_report(report)
    if format == "text":
        return _text_report(report)
    raise ValueError(f"unknown report format: {format!r}")
