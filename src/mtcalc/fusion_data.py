"""Skeletal modular-tensor-category data: fusion ring, F/R-symbols, twists.

Conventions used throughout the package.  ``CategoryData`` takes the F- and
R-symbols as mappings {key: value}, its one input form, and keeps them only
as two ``table_arrays.Table``s, which lay each block out; ``f_block``,
``r_block`` and their inverses are read-only views of them.  Tree bases are
in the one order that ``table_arrays.Trees`` states.

* ``F[a, b, c, d]`` is the block relating the two ways of fusing the word
  ``(a, b, c)`` into ``d``; an entry's key is ``(a, b, c, d, x, y, i, j, k,
  l)``.  Rows are the right-tree triples ``(x, i, j)`` with ``j`` a vertex
  ``b (x) c -> x`` and ``i`` a vertex ``a (x) x -> d``; columns the left
  trees ``(y, l, k)`` with ``l`` a vertex ``a (x) b -> y`` and ``k`` a
  vertex ``y (x) c -> d``, so the columns are the word's trees in tree
  order.  The right-tree composite equals ``sum_(y,l,k) F[(x,i,j),(y,l,k)]
  *`` left-tree composite.
* ``R[a, b, c]`` is the block of the positive braiding ``a (x) b -> b (x) a``
  on fusion channel ``c``; rows index ``(b, a -> c)`` vertices, columns
  ``(a, b -> c)`` vertices.  The negative braiding is the inverse block of the
  arguments swapped.
* F-blocks with a unit label in any of the first three slots are the
  identity (unit gauge), so the unit vertices carry identity coefficients;
  data in another gauge is rejected on construction.
"""

from __future__ import annotations

import cmath
import itertools
import json
import math
import time
from dataclasses import InitVar, dataclass, field
from operator import add, itemgetter

import numpy as np

from .report import Report
from .table_arrays import Table, Trees, hexagon_batch, pentagon_batch, unitarity

__all__ = [
    "Label",
    "FusionRing",
    "CategoryData",
    "CategoryDataError",
    "BUILTIN_NAMES",
    "builtin_category",
    "load_category",
    "loads_category",
    "emit_category",
    "category_document",
    "quantum_dimension",
    "verify_coherence",
    "pentagon_residuals",
    "hexagon_residuals",
]

DEFAULT_TOL = 1e-9


class CategoryDataError(ValueError):
    """Structurally invalid category data (schema, unit, dual or ring errors)."""


@dataclass(frozen=True)
class Label:
    """A simple object: contiguous integer id plus display name."""

    id: int
    name: str

    def __str__(self):
        return self.name


@dataclass(frozen=True, eq=False)
class FusionRing:
    """Fusion multiplicities of a finite set of labels with unit and duals.

    ``N`` maps (a, b, c) to N_{ab}^c, absent meaning 0: the one input form.
    Validation keeps it only as ``array``, a dense (n, n, n) int64 array,
    and derives ``chain_steps``, the channels of every label pair as the
    tree enumerator ``table_arrays.Trees`` walks them, and ``tree_count``:
    ``tree_count[a, b, c, d]`` is the number of fusion trees of the word
    (a, b, c) into d; the ring is associative exactly when counting them
    through the channels of (a, b) and of (b, c) gives the same tensor.
    Rings compare by identity.
    """

    labels: tuple[Label, ...]
    unit: int
    dual: tuple[int, ...]
    N: InitVar[dict]
    array: np.ndarray = field(init=False, repr=False)
    chain_steps: tuple = field(init=False, repr=False)
    tree_count: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, N):
        self._validate(N)

    @property
    def size(self) -> int:
        return len(self.labels)

    def n(self, a: int, b: int, c: int) -> int:
        """N_ab^c; the labels must be in range (a negative one wraps around)."""
        return self.array.item(a, b, c)

    def _validate(self, N: dict):
        n = self.size
        e = self.unit
        if sorted(l.id for l in self.labels) != list(range(n)):
            raise CategoryDataError("label ids must form the range 0..len-1")
        if not 0 <= e < n:
            raise CategoryDataError("unit index out of range")
        if len(self.dual) != n or any(not 0 <= d < n for d in self.dual):
            raise CategoryDataError("dual map out of range")
        for a in range(n):
            if self.dual[self.dual[a]] != a:
                raise CategoryDataError("dual map is not an involution")
        if self.dual[e] != e:
            raise CategoryDataError("dual of the unit must be the unit")
        for (a, b, c), v in N.items():
            if v < 0 or not all(0 <= x < n for x in (a, b, c)):
                raise CategoryDataError(f"bad fusion entry {(a, b, c)} -> {v}")
        for a in range(n):
            for b in range(n):
                if N.get((e, a, b), 0) != (1 if a == b else 0):
                    raise CategoryDataError(f"unit constraint N[e,{a}]^{b} violated")
                if N.get((a, e, b), 0) != (1 if a == b else 0):
                    raise CategoryDataError(f"unit constraint N[{a},e]^{b} violated")
                want = 1 if b == self.dual[a] else 0
                if N.get((a, b, e), 0) != want:
                    raise CategoryDataError(
                        f"duality channel N[{a},{b}]^e must be {want}"
                    )
        m = max(N.values())  # radix of multiplicity indices
        # the widest int64 key table_arrays packs is the pentagon's n^7 m^3;
        # it also bounds every tree count below
        if n ** 7 * m ** 3 >= 2 ** 63:
            raise CategoryDataError(f"fusion multiplicity {m} is too large for {n} labels")
        array = np.zeros((n,) * 3, dtype=np.int64)
        array[tuple(np.array(list(N)).T)] = list(N.values())
        object.__setattr__(self, "array", array)
        object.__setattr__(self, "chain_steps", Trees.steps(array))
        # (a x b) x c and a x (b x c) agree channel by channel; the first
        # failing (a, b, c, d) in lexicographic order is reported
        left = np.einsum("abx,xcd->abcd", array, array)
        failed = np.argwhere(left != np.einsum("bcy,ayd->abcd", array, array))
        if len(failed):
            raise CategoryDataError(
                f"fusion ring not associative at {tuple(failed[0].tolist())}"
            )
        object.__setattr__(self, "tree_count", left)


class CategoryData:
    """Skeletal category: ring plus F/R-symbols, twists and quantum dims.

    Immutable after construction; all methods are pure, so instances are safe
    to share across threads.
    """

    def __init__(self, ring: FusionRing, F: dict, R: dict, twist: list):
        self.ring = ring
        self.twist = tuple(complex(t) for t in twist)
        self._tree_cache: dict = {}   # word -> {charge: fusion trees}
        self._local_cache: dict = {}  # local blocks, and F-block bases (graphcalc)
        self._validate_tables(F, R)  # builds the F- and R-table
        self.qdim = tuple(
            quantum_dimension(self, a) for a in range(ring.size)
        )

    # -- label helpers -------------------------------------------------

    @property
    def size(self) -> int:
        return self.ring.size

    @property
    def unit(self) -> int:
        return self.ring.unit

    def dual(self, a: int) -> int:
        return self.ring.dual[a]

    def n(self, a: int, b: int, c: int) -> int:
        return self.ring.n(a, b, c)

    # -- blocks --------------------------------------------------------

    def f_block(self, a, b, c, d) -> np.ndarray:
        """F-block as a (right x left) matrix, read-only; 0 x 0 when the
        word (a, b, c) does not reach d."""
        return self._f_table.matrix((a, b, c, d))

    def f_block_inv(self, a, b, c, d) -> np.ndarray:
        """Inverse F-block, (left x right), read-only.

        A singular block raises CategoryDataError naming it.
        """
        return _block_inverse(self._f_table, "F", (a, b, c, d))

    def r_block(self, a, b, c) -> np.ndarray:
        """Positive-braiding block on channel c, shape N_{ba}^c x N_{ab}^c,
        read-only."""
        return self._r_table.matrix((a, b, c))

    def r_block_inv(self, a, b, c) -> np.ndarray:
        """Negative-braiding block of a (x) b -> b (x) a on channel c, read-only.

        It inverts the R-block (b, a, c); a singular one raises
        CategoryDataError naming it.
        """
        return _block_inverse(self._r_table, "R", (b, a, c))

    # -- validation ----------------------------------------------------

    def _validate_tables(self, F: dict, R: dict):
        """Check the twists, then the F and R values, F keys, fusion rules,
        R keys, complete blocks and unit gauge, and build the tables."""
        ring = self.ring
        n = ring.size
        if len(self.twist) != n:
            raise CategoryDataError("twist table size mismatch")
        for a, t in enumerate(self.twist):
            if not abs(abs(t) - 1.0) <= 1e-12:  # also true for NaN
                raise CategoryDataError(f"twist of label {a} is not unimodular")
        (f_keys, f_vals), (r_keys, r_vals) = (
            (list(t), np.array(list(t.values()), dtype=complex)) for t in (F, R))
        for name, keys, vals in (("F", f_keys, f_vals), ("R", r_keys, r_vals)):
            bad = np.flatnonzero(~np.isfinite(vals))
            if len(bad):
                raise CategoryDataError(f"{name} entry {keys[bad[0]]} is not finite")
        f_cols = _key_columns(f_keys, "F", 10, ring, ((0, 4, 3), (1, 2, 4), (5, 2, 3), (0, 1, 5)))
        # an R-block maps hom(a b, c) to hom(b a, c), so it must be square
        N = ring.array
        flipped = np.argwhere((N != N.transpose(1, 0, 2)) & (N > 0))
        if len(flipped):
            raise CategoryDataError(
                f"fusion rules not commutative at {tuple(flipped[0].tolist())}"
            )
        r_cols = _key_columns(r_keys, "R", 5, ring, ((1, 0, 2), (0, 1, 2)))
        m = int(N.max())  # radix of multiplicity indices; the ring bounds it
        self._f_table = F = Table(f_cols, f_vals, (n,) * 6 + (m,) * 4, 4, [4, 6, 7], [5, 9, 8])
        self._r_table = Table(r_cols, r_vals, (n,) * 3 + (m,) * 2, 3, [3], [4])
        # completeness: the range checks put every entry inside its block and
        # keys are unique, so a block is complete exactly when it holds
        # rows x columns entries: N_ba^c N_ab^c for R(a,b,c), and the
        # square of the ring's tree count of (a, b, c) -> d for F(a,b,c,d)
        _check_complete(self._r_table, N.transpose(1, 0, 2) * N, "R entry for channel")
        _check_complete(F, ring.tree_count ** 2, "F entry for block")
        # unit gauge: fusion trees and unit insertion give unit vertices the
        # coefficient 1, which agrees with the F-moves only for identity
        # blocks; the first failing block in lexicographic order is named
        off = F.per_block(
            lambda mats: np.max(np.abs(mats - np.eye(mats.shape[1])), axis=(1, 2))
        )
        a, b, c, d = labels = F.labels
        unit = (a == ring.unit) | (b == ring.unit) | (c == ring.unit)
        failed = np.flatnonzero(unit & (off > 1e-12))
        if len(failed):
            block = tuple(lab[failed[0]].item() for lab in labels)
            raise CategoryDataError(
                f"F block {block} with a unit label is not the identity"
            )


def _key_columns(keys: list, name: str, arity: int, ring: FusionRing, vertices) -> np.ndarray:
    """The keys as int32 columns: labels, then an index per vertex of
    ``vertices``, the label columns (a, b, c) of its N_ab^c.  CategoryDataError
    names the first key of another length, or with a label or index out
    of range.  (The ring bounds n^7 m^3 below 2^63, so every digit in range
    fits int32.)"""
    width = len(vertices)
    fits = np.fromiter(map(len, keys), dtype=np.intp, count=len(keys)) == arity
    rows = keys if fits.all() else list(itertools.compress(keys, fits))
    try:
        cols = np.array(rows, dtype=np.int32).reshape(len(rows), arity).T
    except OverflowError:
        # an int past int32 is outside every range, as -1 is
        cols = np.array(rows, dtype=object)
        cols[(cols < -2 ** 31) | (cols >= 2 ** 31)] = -1
        cols = cols.astype(np.int32).T
    labels = cols[:-width]
    ok = ((labels >= 0) & (labels < ring.size)).all(axis=0)
    labels[:, ~ok] = 0  # a negative label must not wrap around (the key is bad)
    for index, (a, b, c) in zip(cols[-width:], vertices):
        ok &= (index >= 0) & (index < ring.array[labels[a], labels[b], labels[c]])
    bad = ~fits
    bad[fits] = ~ok
    if bad.any():
        p = int(np.argmax(bad))
        raise CategoryDataError(
            f"{name} entry {keys[p]} outside multiplicity range" if fits[p]
            else f"malformed {name} key {keys[p]}"
        )
    return cols


def _block_inverse(table: Table, name: str, key: tuple) -> np.ndarray:
    """``table.matrix(key, inverse=True)``; a singular block raises
    CategoryDataError naming it."""
    try:
        return table.matrix(key, inverse=True)
    except np.linalg.LinAlgError:
        raise CategoryDataError(f"{name} block {key} is singular") from None


def _check_complete(table: Table, want: np.ndarray, what: str):
    """Raise CategoryDataError naming the first block, in lexicographic
    order, that holds fewer entries than ``want`` (indexed by labels)."""
    have = np.zeros(want.size, dtype=np.int64)
    have[table.blocks] = np.bincount(table.block, minlength=len(table.blocks))
    short = np.flatnonzero(have < want.ravel())
    if len(short):
        block = tuple(int(i) for i in np.unravel_index(short[0], want.shape))
        raise CategoryDataError(f"missing {what} {block}")


# ---------------------------------------------------------------------------
# quantum dimensions


def quantum_dimension(data: CategoryData, a: int) -> float:
    """Perron-Frobenius eigenvalue of the fusion matrix (N_a)_{bc} = N_ab^c."""
    eig = np.linalg.eigvals(data.ring.array[a].astype(float))
    return float(np.max(eig.real))


# ---------------------------------------------------------------------------
# coherence: pentagon / hexagon / twist compatibility


def pentagon_residuals(data: CategoryData):
    """Yield ((a,b,c,d,total), residual) over all pentagon instances.

    Both routes from the fully right-nested to the fully left-nested fusion
    of a four-letter word are expanded through F-symbols and compared,
    entry by entry; the residual is the largest difference.  Only the totals
    the word reaches are visited.  All instances are evaluated at once, on
    the first item.
    """
    keys, res = pentagon_batch(data._f_table)
    yield from zip(keys, res)


def hexagon_residuals(data: CategoryData):
    """Yield ((sense, a, b, c, total), residual) over all hexagon instances.

    Braiding a past the fused pair (b, c) must equal braiding past b and c
    one at a time, for both braiding senses.  Only the totals the word
    reaches are visited.  All instances are evaluated at once, on the first
    item.
    """
    keys, plus, minus = hexagon_batch(data._f_table, data._r_table, data.ring.array)
    for key, rp, rm in zip(keys, plus, minus):
        yield ("+", *key), rp
        yield ("-", *key), rm


def verify_coherence(data: CategoryData, tol: float = DEFAULT_TOL) -> Report:
    """Pentagon, hexagon, twist/dual and quantum-dimension consistency.

    Failures are reported with their residuals, never raised.  The records
    are added in columnar blocks, one per check id or per interleaved ids.
    """
    t0 = time.perf_counter()
    report = Report(suite="verify-category", tol=tol)
    keys, pentagon = zip(*pentagon_residuals(data))
    report.add_many("pentagon", zip(*keys), pentagon)
    keys, hexagon = zip(*hexagon_residuals(data))
    report.add_many("hexagon", zip(*keys), hexagon)
    # block checks, stacked by shape, reported per (a, b, c): the F-blocks
    # over the totals d, then the R-block of the channel c of (a, b); every
    # block is square, as the ring is associative and the tables complete
    F, R = data._f_table, data._r_table
    f_res = np.empty((len(F.blocks), 2))
    for (members, mats), (inv, singular) in zip(F.stacks, F.inverses()):
        res = np.max(np.abs(mats @ inv - np.eye(mats.shape[1])), axis=(1, 2))
        f_res[members, 0] = np.where(singular, 1.0, res)  # singular: 1.0
    f_res[:, 1] = F.per_block(unitarity)
    r_unitary = R.per_block(unitarity)
    # R-block (a, b, c) comes after the F-blocks whose (a, b, c) is not
    # larger, the rows of both after the pentagons' and hexagons'
    abc, start = F.dims[:3], len(pentagon) + len(hexagon)
    ends = np.searchsorted(np.ravel_multi_index(F.labels[:3], abc),
                           np.ravel_multi_index(R.labels, abc), "right")
    f_rows = np.arange(len(F.blocks))
    report.add_many(("f_invertible", "f_unitary"), F.labels, f_res,
                    start + f_rows + np.searchsorted(ends, f_rows, "right"))
    report.add_many("r_unitary", R.labels, r_unitary, start + ends + np.arange(len(ends)))
    labels = range(data.size)
    duals = [data.dual(a) for a in labels]
    twist, qdim = data.twist, data.qdim
    report.add_many("twist_dual", (labels, duals), [
        abs(twist[a] - twist[ap]) for a, ap in zip(labels, duals)
    ])
    report.add("twist_unit", (data.unit,), abs(twist[data.unit] - 1.0))
    report.add_many(("qdim_pf", "qdim_dual"), (labels,), [
        (abs(qdim[a] - quantum_dimension(data, a)), abs(qdim[a] - qdim[ap]))
        for a, ap in zip(labels, duals)
    ])
    # ring homomorphism property of the Perron-Frobenius dimensions
    report.add_many("qdim_ring_hom", np.divmod(np.arange(data.size ** 2), data.size), [
        abs(qdim[a] * qdim[b] - sum(data.n(a, b, c) * qdim[c] for c in labels))
        for a in labels for b in labels
    ])
    report.wall_time = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# built-in categories

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

BUILTIN_NAMES = ("trivial", "z2_semion", "fibonacci", "ising")


def _make_builtin(names, unit, dual, channels, fvals, rvals, twist):
    """The category of the given tables, multiplicity-free, with the entries
    of the blocks with a unit label that the tables leave out set to 1 (unit
    gauge); ``CategoryData`` checks that no other entry is missing."""
    labels = tuple(Label(i, s) for i, s in enumerate(names))
    ring = FusionRing(labels, unit, tuple(dual), {tuple(k): 1 for k in channels})
    F = {(a, b, c, d, x, y, 0, 0, 0, 0): complex(v) for (a, b, c, d, x, y), v in fvals.items()}
    R = {(a, b, c, 0, 0): complex(v) for (a, b, c), v in rvals.items()}
    fusions = sorted(map(tuple, channels))
    for a, b, c in fusions:
        if unit in (a, b):
            R.setdefault((a, b, c, 0, 0), 1.0 + 0j)
    # the one entry (x, y) of each block with a unit label, of the word p q -> d
    unit_blocks = {key for p, q, d in fusions for key in (
        (unit, p, q, d, d, p), (p, unit, q, d, q, p), (p, q, unit, d, q, d))}
    for key in sorted(unit_blocks):
        F.setdefault(key + (0, 0, 0, 0), 1.0 + 0j)
    return CategoryData(ring, F, R, twist)


def _builtin_trivial():
    return _make_builtin(["1"], 0, [0], [(0, 0, 0)], {}, {}, [1.0])


def _builtin_z2_semion():
    # Frozen from the pentagon/hexagon solver over the Z2 ring, selecting the
    # solution with twist i on the semion (tests/solver regeneration).
    channels = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
    fvals = {(1, 1, 1, 1, 0, 0): -1.0}
    rvals = {(1, 1, 0): -1j}
    return _make_builtin(["1", "s"], 0, [0, 1], channels, fvals, rvals, [1.0, 1j])


def _builtin_fibonacci():
    # Frozen from the solver over the 2-label ring; twist exp(4 pi i / 5).
    channels = [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]
    s = 1.0 / math.sqrt(_PHI)
    fvals = {
        (1, 1, 1, 0, 1, 1): 1.0,
        (1, 1, 1, 1, 0, 0): 1.0 / _PHI,
        (1, 1, 1, 1, 0, 1): s,
        (1, 1, 1, 1, 1, 0): s,
        (1, 1, 1, 1, 1, 1): -1.0 / _PHI,
    }
    rvals = {
        (1, 1, 0): cmath.exp(-4j * math.pi / 5),
        (1, 1, 1): cmath.exp(3j * math.pi / 5),
    }
    twist = [1.0, cmath.exp(4j * math.pi / 5)]
    return _make_builtin(["1", "t"], 0, [0, 1], channels, fvals, rvals, twist)


def _builtin_ising():
    # Frozen from the solver over the Ising ring; twists (1, exp(i pi/8), -1).
    channels = [
        (0, 0, 0), (0, 1, 1), (0, 2, 2), (1, 0, 1), (2, 0, 2),
        (1, 1, 0), (1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 2, 0),
    ]
    s = 1.0 / math.sqrt(2.0)
    fvals = {
        # (sigma, sigma, sigma) -> sigma, rows x in {1, psi}, cols y in {1, psi}
        (1, 1, 1, 1, 0, 0): s,
        (1, 1, 1, 1, 0, 2): s,
        (1, 1, 1, 1, 2, 0): s,
        (1, 1, 1, 1, 2, 2): -s,
        # one-dimensional blocks without a unit label
        (1, 1, 2, 0, 1, 2): 1.0,
        (1, 1, 2, 2, 1, 0): 1.0,
        (1, 2, 1, 0, 1, 1): 1.0,
        (1, 2, 1, 2, 1, 1): -1.0,
        (2, 1, 1, 0, 2, 1): 1.0,
        (2, 1, 1, 2, 0, 1): 1.0,
        (1, 2, 2, 1, 0, 1): 1.0,
        (2, 2, 1, 1, 1, 0): 1.0,
        (2, 1, 2, 1, 1, 1): -1.0,
        (2, 2, 2, 2, 0, 0): 1.0,
    }
    rvals = {
        (1, 1, 0): cmath.exp(-1j * math.pi / 8),
        (1, 1, 2): cmath.exp(3j * math.pi / 8),
        (1, 2, 1): -1j,
        (2, 1, 1): -1j,
        (2, 2, 0): -1.0,
    }
    twist = [1.0, cmath.exp(1j * math.pi / 8), -1.0]
    return _make_builtin(
        ["1", "sigma", "psi"], 0, [0, 1, 2], channels, fvals, rvals, twist
    )


_BUILTINS = {
    "trivial": _builtin_trivial,
    "z2_semion": _builtin_z2_semion,
    "fibonacci": _builtin_fibonacci,
    "ising": _builtin_ising,
}


def builtin_category(name: str) -> CategoryData:
    """Hard-coded example categories passing coherence at 1e-9."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise CategoryDataError(
            f"unknown builtin {name!r}; expected one of {BUILTIN_NAMES}"
        ) from None
    return factory()


# ---------------------------------------------------------------------------
# JSON category files


def _entries(table: Table, n_labels: int) -> list:
    """The entries of ``table`` as the category file lists them, in key
    order."""
    order = np.lexsort(table.cols[::-1])
    keys = table.cols[:, order].T.tolist()
    vals = table.vals[order]
    return [
        {"labels": key[:n_labels], "mult": key[n_labels:], "value": [re, im]}
        for key, re, im in zip(keys, vals.real.tolist(), vals.imag.tolist())
    ]


def category_document(data: CategoryData) -> dict:
    """The category file's document: the dict ``emit_category`` writes and
    ``loads_category`` reads."""
    ring, N = data.ring, data.ring.array
    return {
        "labels": [l.name for l in ring.labels],
        "unit": ring.unit,
        "dual": list(ring.dual),
        "fusion": np.column_stack((np.argwhere(N), N[N > 0])).tolist(),  # in key order
        "F": _entries(data._f_table, 6),
        "R": _entries(data._r_table, 3),
        "twist": [[t.real, t.imag] for t in data.twist],
    }


def emit_category(data: CategoryData) -> str:
    """Serialize to the category file format (stable key order)."""
    return json.dumps(category_document(data), sort_keys=True, indent=2) + "\n"


def _int(v) -> int:
    """``v`` if it is a JSON integer; anything else (a float, a bool, a
    string) raises ValueError rather than being rounded to one."""
    if type(v) is not int:
        raise ValueError(f"{v!r} is not an integer")
    return v


def _num(v) -> float:
    """``v`` as a float if it is a JSON number; a bool, a string or an
    integer too large for a float raises ValueError rather than being read
    as one."""
    if type(v) not in (int, float):
        raise ValueError(f"{v!r} is not a number")
    try:
        return float(v)
    except OverflowError:
        raise ValueError(f"{v!r} is too large for a float") from None


def _fusion_rows(rows) -> dict:
    """{(a, b, c): N} of the nonzero rows ``[a, b, c, N]`` of a category file."""
    N, seen = {}, set()
    for row in rows:
        try:
            a, b, c, v = (_int(x) for x in row)
        except (TypeError, ValueError) as exc:
            raise CategoryDataError(f"malformed fusion row {row!r}: {exc}") from exc
        if (a, b, c) in seen:
            raise CategoryDataError(f"duplicate fusion row {(a, b, c)}")
        seen.add((a, b, c))
        if v:
            N[(a, b, c)] = v
    return N


def _entry_table(entries, name: str, n_labels: int, n_mult: int) -> dict:
    """{labels + mult: value} of the F or R entries of a category file.

    The entries are checked a table at a time: each must be an object
    whose ``labels`` and ``mult`` are arrays of n_labels and n_mult
    integers and whose ``value`` is an array of two numbers, and no key
    may repeat.  Entries that pass no such check (a bad one, or one from a
    dict that holds tuples) are read one at a time by ``_entry_walk``,
    which names the first bad entry."""
    if not isinstance(entries, list):
        raise CategoryDataError(f"{name} table must be a list of entries")
    try:
        labels, mults, values = (
            list(map(itemgetter(part), entries)) for part in ("labels", "mult", "value")
        )
        keys = list(map(tuple, map(add, labels, mults)))
        if (
            set(map(type, labels + mults + values)) <= {list}
            and set(map(len, labels)) <= {n_labels} and set(map(len, mults)) <= {n_mult}
            and set(map(len, values)) <= {2}
            and set(map(type, itertools.chain.from_iterable(keys))) <= {int}
            and set(map(type, itertools.chain.from_iterable(values))) <= {int, float}
        ):
            out = dict(zip(keys, itertools.starmap(complex, values)))  # an int past float raises
            if len(out) == len(keys):
                return out
    except (KeyError, TypeError, OverflowError):
        pass
    return _entry_walk(entries, name, n_labels, n_mult)


def _entry_walk(entries, name: str, n_labels: int, n_mult: int) -> dict:
    """``_entry_table`` one entry at a time; CategoryDataError for the first
    bad entry."""
    out = {}
    for ent in entries:
        try:
            labels = tuple(_int(v) for v in ent["labels"])
            mult = tuple(_int(v) for v in ent["mult"])
            re, im = ent["value"]
            value = complex(_num(re), _num(im))
        except (KeyError, TypeError, ValueError) as exc:
            raise CategoryDataError(f"malformed {name} entry {ent!r}: {exc}") from exc
        if (len(labels), len(mult)) != (n_labels, n_mult):
            raise CategoryDataError(
                f"{name} entry {ent!r} needs {n_labels} labels and {n_mult} mult indices"
            )
        key = labels + mult
        if key in out:
            raise CategoryDataError(f"duplicate {name} entry {key}")
        out[key] = value
    return out


def loads_category(source: str | dict) -> CategoryData:
    """Parse a category file's text, or the dict it parses to; structural
    invariants are checked, coherence is not."""
    if isinstance(source, dict):
        doc = source
    else:
        try:
            doc = json.loads(source)
        except json.JSONDecodeError as exc:
            raise CategoryDataError(f"not valid JSON: {exc}") from exc
    try:
        names = doc["labels"]
        if type(names) is not list or not all(type(s) is str for s in names):
            raise TypeError(f"labels {names!r} is not an array of strings")
        unit = _int(doc["unit"])
        dual = [_int(x) for x in doc["dual"]]
        fusion = list(doc["fusion"])
        f_entries = doc["F"]
        r_entries = doc["R"]
        twist = [complex(_num(re), _num(im)) for re, im in doc["twist"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CategoryDataError(f"malformed category document: {exc}") from exc
    labels = tuple(Label(i, s) for i, s in enumerate(names))
    ring = FusionRing(labels, unit, tuple(dual), _fusion_rows(fusion))
    F = _entry_table(f_entries, "F", 6, 4)
    R = _entry_table(r_entries, "R", 3, 2)
    return CategoryData(ring, F, R, twist)


def load_category(path) -> CategoryData:
    with open(path, "r", encoding="utf-8") as fh:
        return loads_category(fh.read())
