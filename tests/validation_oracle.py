"""The per-key route of ``CategoryData``'s entry checks, as the oracle of
its array checks.

``check_entries`` walks the mappings ``F`` and ``R`` key by key, with dict
lookups of the fusion multiplicities, and raises CategoryDataError for the
first bad item: a twist table of the wrong size or a twist that is not
unimodular; an F value, then an R value, that is not finite; an F key, in
input order, of another length or outside its multiplicity range;
non-commutative fusion rules, first in lexicographic order among the
nonzero N_ab^c; an R key likewise.  The multiplicities are looked up in
the ring's nonzero entries (``conftest.fusion``): a label outside the ring
has no fusion, so every index of its key is out of range.  The array
checks must name the same item with the same message.
"""

from __future__ import annotations

import cmath

from mtcalc.fusion_data import CategoryDataError

from conftest import fusion


def check_entries(ring, F: dict, R: dict, twist) -> None:
    twist = tuple(complex(t) for t in twist)
    if len(twist) != ring.size:
        raise CategoryDataError("twist table size mismatch")
    for a, t in enumerate(twist):
        if not abs(abs(t) - 1.0) <= 1e-12:  # also true for NaN
            raise CategoryDataError(f"twist of label {a} is not unimodular")
    for name, table in (("F", F), ("R", R)):
        for key, value in table.items():
            if not cmath.isfinite(value):
                raise CategoryDataError(f"{name} entry {key} is not finite")
    mult = fusion(ring).get
    for key in F:
        if len(key) != 10:
            raise CategoryDataError(f"malformed F key {key}")
        a, b, c, d, x, y, i, j, k, l = key
        if not (
            0 <= i < mult((a, x, d), 0)
            and 0 <= j < mult((b, c, x), 0)
            and 0 <= k < mult((y, c, d), 0)
            and 0 <= l < mult((a, b, y), 0)
        ):
            raise CategoryDataError(f"F entry {key} outside multiplicity range")
    for a, b, c in fusion(ring):
        if mult((a, b, c)) != mult((b, a, c), 0):
            raise CategoryDataError(f"fusion rules not commutative at {(a, b, c)}")
    for key in R:
        if len(key) != 5:
            raise CategoryDataError(f"malformed R key {key}")
        a, b, c, i, j = key
        if not (0 <= i < mult((b, a, c), 0) and 0 <= j < mult((a, b, c), 0)):
            raise CategoryDataError(f"R entry {key} outside multiplicity range")
