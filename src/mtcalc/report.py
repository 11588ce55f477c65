"""Machine-readable result records shared by all verification suites.

A report holds its records in blocks, in order.  ``Report.add_many`` adds
one columnar block: the instance columns and the residuals of many records
as arrays, with one column per instance element.  ``Report.add`` appends
single records to a block of rows.  Each format has one writer, which fills
one template per layout of records: its check ids and column count.
``Report.records`` derives the ``CheckRecord`` list from the blocks when it
is read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice
from json.encoder import encode_basestring_ascii

import numpy as np


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of a single verified identity instance."""

    id: str
    instance: tuple
    residual: float
    ok: bool


class _Rows(list):
    """Records added one at a time, as (id, instance, residual) tuples."""

    def residuals(self) -> np.ndarray:
        return np.fromiter((r for _, _, r in self), float, len(self))


class _Block:
    """n rows of m check ids: the record of row i and id j is (``ids[j]``,
    row i of every column of ``cols``, ``res[i, j]``).  Iterating gives the
    (id, instance, residual) records row by row, and across the ids within
    a row."""

    __slots__ = ("ids", "cols", "res")

    def __init__(self, ids, cols, res):
        self.ids, self.cols, self.res = ids, cols, res

    def __len__(self):
        return self.res.size

    def residuals(self) -> np.ndarray:
        return self.res.ravel()

    def __iter__(self):
        values = [_values(col) for col in self.cols]
        for i, res in enumerate(self.res.tolist()):
            inst = tuple(col[i] for col in values)
            for check_id, r in zip(self.ids, res):
                yield check_id, inst, r


def _values(col) -> list:
    """A column's elements as Python objects."""
    return col.tolist() if isinstance(col, np.ndarray) else col


def _severity(residual: float) -> tuple:
    # NaN ranks above every number, so no NaN residual is hidden by max()
    return (residual != residual, residual)


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
    _blocks: list = field(default_factory=list, init=False, repr=False)
    _rows: _Rows | None = field(default=None, init=False, repr=False)

    def add(self, check_id: str, instance: tuple, residual: float) -> None:
        rows = self._rows
        if rows is None:
            rows = self._rows = _Rows()
            self._blocks.append(rows)
        rows.append((check_id, tuple(instance), float(residual)))

    def add_many(self, check_ids, instances, residuals) -> None:
        """Add n rows of records of the m ids ``check_ids`` (one id may be
        given as a str): row i of id j has as instance row i of each column
        of ``instances``, and the residual ``residuals[i, j]``
        (``residuals`` may be 1-d when m is 1).  A column is an array, whose
        elements become Python scalars, or a sequence of instance elements.
        The records run row by row, and across the ids within a row."""
        ids = (check_ids,) if isinstance(check_ids, str) else tuple(check_ids)
        res = np.array(residuals, dtype=float)
        if res.ndim == 1:
            res = res[:, None]
        if res.shape[1:] != (len(ids),):
            raise ValueError("residuals need one column per check id")
        if not res.size:
            return
        cols = [np.array(col) if isinstance(col, np.ndarray) else list(col)
                for col in instances]
        if any(len(col) != len(res) for col in cols):
            raise ValueError("every instance column needs one element per row")
        self._blocks.append(_Block(ids, cols, res))
        self._rows = None

    def extend(self, other: "Report") -> None:
        """Append the records of ``other``, which must have the same
        tolerance, and add its wall time to this report's."""
        if other.tol != self.tol:
            raise ValueError(
                f"cannot extend a report of tol {self.tol!r} by one of tol {other.tol!r}"
            )
        # rows are copied, so that later single adds to either report stay
        # out of the other
        self._blocks.extend(
            _Rows(b) if isinstance(b, _Rows) else b for b in other._blocks
        )
        self._rows = None
        self.wall_time += other.wall_time

    @property
    def records(self) -> list[CheckRecord]:
        """Every record, in order, built from the blocks on each read."""
        return [
            CheckRecord(check_id, instance, residual, residual < self.tol)
            for b in self._blocks for check_id, instance, residual in b
        ]

    @property
    def max_residual(self) -> float:
        """The largest residual; NaN if any residual is NaN, 0.0 if none."""
        res = np.concatenate([b.residuals() for b in self._blocks] or [[0.0]])
        return float(res[np.argmax(res)])  # the first NaN, else the first maximum

    @property
    def passed(self) -> bool:
        return all((b.residuals() < self.tol).all() for b in self._blocks)


def _count(report: Report) -> int:
    return sum(map(len, report._blocks))


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
    """The written records, in report order.  Every record is a row of a
    layout (ids, column count): a columnar block's rows have the block's, a
    single record is a one-id row of ((id,), its length).  The rows of each
    layout are written by one call of ``write_block``, with the report's
    tolerance."""
    groups = {}  # layout -> [its index, its blocks and runs of single records]
    places = []  # per block: its layout index, or each of its rows' indices
    for b in report._blocks:
        if isinstance(b, _Block):
            layout = (b.ids, len(b.cols))
            group = groups.setdefault(layout, [len(groups)])
            group.append(b)
            places.append(group[0])
            continue
        runs = {}  # (id, length) -> its layout's group, ending in this block's run
        indices = []
        for row in b:
            key = row[0], len(row[1])
            group = runs.get(key)
            if group is None:
                layout = (row[0],), key[1]
                group = runs[key] = groups.setdefault(layout, [len(groups)])
                group.append(_Rows())
            group[-1].append(row)
            indices.append(group[0])
        places.append(indices)
    lines = [
        iter(write_block(_joined(layout, parts), report.tol))
        for layout, (_, *parts) in groups.items()
    ]
    out = []
    for b, at in zip(report._blocks, places):
        if isinstance(b, _Block):
            out += islice(lines[at], len(b.res))
        else:
            out += map(next, map(lines.__getitem__, at))
    return out


def _joined(layout, parts) -> _Block:
    """One block of the rows of ``parts``, which share ``layout``; a lone
    columnar block is itself, so it is written straight from its arrays."""
    if len(parts) == 1 and isinstance(parts[0], _Block):
        return parts[0]
    ids, width = layout
    cols = [[] for _ in range(width)]
    for part in parts:
        if isinstance(part, _Block):
            values = map(_values, part.cols)
        else:
            values = zip(*(inst for _, inst, _ in part))
        for col, part_values in zip(cols, values):
            col += part_values
    res = np.concatenate([part.residuals() for part in parts])
    return _Block(ids, cols, res.reshape(-1, len(ids)))


def _json_column(col) -> list:
    """A column's elements for a ``%s`` slot: ints and finite floats as they
    are (``str`` spells them as ``json.dumps`` does), anything else spelled
    by ``_scalar``."""
    values = _values(col)
    kinds = set(map(type, values))
    if kinds <= {int} or (kinds <= {float} and all(map(math.isfinite, values))):
        return values
    return list(map(_scalar, values))


def _json_block(block, tol) -> list:
    """The rows of a block, each from one template with a record of each
    id; "true" is part of the template when every record passes ``tol``."""
    res = block.res
    passed = res < tol
    all_pass = bool(passed.all())
    slots = ["%s"] * len(block.cols)
    inst = f"[\n        {_ITEM_SEP.join(slots)}\n      ]" if slots else "[]"
    tail = _RECORD_TAIL % (inst, "true" if all_pass else "%s", "%s")
    records = [
        (_RECORD_HEAD % _scalar(check_id)).replace("%", "%%") + tail
        for check_id in block.ids
    ]
    cols = [_json_column(col) for col in block.cols]
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
    return (
        f'{{\n  "records": {records},\n  "suite": {_scalar(report.suite)},\n'
        f'  "summary": {{\n    "checks": {_count(report)},\n'
        f'    "max_residual": {_scalar(report.max_residual)},\n'
        f'    "pass": {_scalar(report.passed)}\n  }},\n'
        f'  "tol": {_scalar(report.tol)}\n}}\n'
    )


def _text_block(block, tol) -> list:
    """The rows of a block, each from one template with a line of each
    id, judged by ``tol``."""
    cols = [_values(col) for col in block.cols]
    inst = ",".join(["%s"] * len(cols))
    passed = (block.res < tol).T.tolist()
    records, args = [], []
    for check_id, oks, res in zip(block.ids, passed, block.res.T.tolist()):
        records.append(f"  [%s] {check_id.replace('%', '%%')}({inst})  residual=%.3e")
        args.append([_TEXT_MARK[ok] for ok in oks])
        args += cols
        args.append(res)
    return list(map("\n".join(records).__mod__, zip(*args)))


def _digest(report: Report) -> dict:
    """Per check id, in the order the ids first appear: the number of its
    records, its worst residual (the first record of greatest
    ``_severity``) and that record's instance, and whether all its records
    pass.  A columnar block is reduced per id with array reductions, over
    its records in their order (``argmax`` takes the first NaN, else the
    first maximum); single records are read one at a time."""
    by_id = {}  # check id -> [count, worst residual, its instance, all pass]
    for b in report._blocks:
        parts = _block_digest(b, report.tol) if isinstance(b, _Block) else (
            (check_id, 1, res, inst, res < report.tol) for check_id, inst, res in b
        )
        for check_id, count, res, inst, ok in parts:
            entry = by_id.get(check_id)
            if entry is None:
                by_id[check_id] = [count, res, inst, ok]
                continue
            entry[0] += count
            entry[3] = entry[3] and ok
            if _severity(res) > _severity(entry[1]):
                entry[1], entry[2] = res, inst
    return by_id


def _block_digest(block, tol):
    """(id, count, worst residual, its instance, all pass) of each id of a
    columnar block, in the order of its ids; an id given in several
    columns is reduced over their records row by row."""
    ids = block.ids
    for check_id in dict.fromkeys(ids):
        cols = [j for j, other in enumerate(ids) if other == check_id]
        res = block.res[:, cols]
        at = int(np.argmax(res))  # row-major, as the records run
        row = at // len(cols)
        inst = tuple(_values(col[row:row + 1])[0] for col in block.cols)
        yield check_id, res.size, float(res.flat[at]), inst, bool((res < tol).all())


def _text_report(report: Report) -> str:
    lines = [f"suite: {report.suite}  (tol={report.tol:g})"]
    lines += _written(report, _text_block)
    lines.append("per check id:")
    for check_id, (count, worst, inst, ok) in _digest(report).items():
        inst = ",".join(str(x) for x in inst)
        lines.append(
            f"  [{_TEXT_MARK[ok]}] {check_id}: checks={count}"
            f"  max_residual={worst:.3e}  worst=({inst})"
        )
    lines.append(
        f"checks={_count(report)}  max_residual={report.max_residual:.3e}"
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
    lists.  Each format has one writer.  It groups the records by layout
    (check ids, column count), a single record being a one-id row of its
    own id and length, fills one string template per layout from the
    columns (ints and finite floats as ``str`` spells them, anything else
    through ``_scalar``), and puts the records back in report order.  A
    layout of one columnar block is filled straight from its arrays.  An
    instance element that is not a str, int, bool or float raises
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
