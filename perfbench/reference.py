"""Output check behind ``failed_frac``.

The reference holds, per job key, the exit status and a digest of the list
of (check id, instance, pass flag) the report contained when it was
captured.  Residual values are left out of the digest because they may drift
at round-off level; instead every passing record must keep its residual
within the report's tolerance.  ``operad-check`` seeds vary with the workload
seed, so those jobs are held to the exit status and the set of check ids.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def summarize(key: str, status: int, output: str) -> tuple:
    """(reference entry, records, tol) of one job's result."""
    entry = {"exit": status}
    if key.startswith("build-ffa"):
        entry["output_bytes"] = len(output)
        return entry, [], None
    doc = json.loads(output)
    records = doc["records"]
    ids = Counter(r["id"] for r in records)
    if key.startswith("operad-check"):
        entry["ids"] = sorted(ids)
        return entry, records, doc["tol"]
    flat = json.dumps(
        [[r["id"], r["instance"], r["pass"]] for r in records],
        separators=(",", ":"),
    )
    entry["records"] = len(records)
    entry["ids"] = dict(sorted(ids.items()))
    entry["digest"] = hashlib.sha256(flat.encode("utf-8")).hexdigest()
    return entry, records, doc["tol"]


def load() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))["jobs"]


def check(reference: dict, key: str, status, output: str):
    """None if the job's result matches the reference, else the reason.

    ``status`` is the exception instead when the job raised.
    """
    if isinstance(status, BaseException):
        return f"raised {type(status).__name__}: {status}"
    want = reference.get(key)
    if want is None:
        return "no reference entry"
    if status != want["exit"]:
        return f"exit {status}, reference {want['exit']}"
    try:
        got, records, tol = summarize(key, status, output)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable report: {exc}"
    for name, value in want.items():
        if got.get(name) != value:
            return f"{name} differs from the reference"
    worst = max((r["residual"] for r in records if r["pass"]), default=0.0)
    if tol is not None and not worst <= tol:
        return f"residual {worst:g} above tol {tol:g}"
    return None
