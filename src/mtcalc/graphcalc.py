"""Fusion-tree hom spaces, diagram evaluation and the bending calculus.

Words are left-parenthesized tuples of label ids; rebracketing is implicit
and performed through F-block insertions.  A morphism between words is stored
block-wise per total charge, and a charge without a stored block is zero: the
block entry ``M[s, t]`` is the coefficient of the source tree ``t`` in the
composite of the target tree ``s`` with the morphism, so blocks compose by
plain matrix multiplication.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .bending import basis_images
from .fusion_data import CategoryData, DEFAULT_TOL
from .report import Report
from .table_arrays import FusingWords

__all__ = [
    "BlockMap",
    "Morphism",
    "VertexVector",
    "CovertexVector",
    "word_trees",
    "trees",
    "duality_fusing_scalar",
    "categorical_dim",
    "evaluate_diagram",
    "weighted_vertex",
    "weighted_covertex",
    "vertex_morphism",
    "covertex_morphism",
    "unit_insert_morphism",
    "unit_remove_morphism",
    "vertex_images",
    "verify_rigidity",
    "verify_fusing_symmetries",
]


# ---------------------------------------------------------------------------
# fusion trees


def word_trees(data: CategoryData, word: tuple) -> dict:
    """Fusion-tree bases of ``word`` by total charge, built in one walk.

    A tree is a tuple of ``(internal_label, mult)`` pairs, one per letter
    after the first, in the order of ``table_arrays.Trees``, whose steps
    (``FusionRing.chain_steps``) the walk takes.  Charges without trees are
    absent.
    """
    word = tuple(word)
    cache = data._tree_cache
    if word in cache:
        return cache[word]
    if "chain_steps" not in data._local_cache:  # at a * n + b, the steps (x, mu) of (a, b)
        x, mult, first = (column.tolist() for column in data.ring.chain_steps)
        pairs = list(zip(x, mult))
        data._local_cache["chain_steps"] = [pairs[lo:hi] for lo, hi in zip(first, first[1:])]
    steps, n = data._local_cache["chain_steps"], data.ring.size
    partial = [((), word[0] if word else data.unit)]
    for letter in word[1:]:
        partial = [
            (prefix + (step,), step[0])
            for prefix, state in partial
            for step in steps[state * n + letter]
        ]
    by_charge = {}
    for prefix, charge in partial:
        by_charge.setdefault(charge, []).append(prefix)
    cache[word] = {d: tuple(by_charge[d]) for d in sorted(by_charge)}
    return cache[word]


def trees(data: CategoryData, word: tuple, target: int) -> tuple:
    """Deterministic fusion-tree basis of hom(word, target); see ``word_trees``."""
    return word_trees(data, word).get(target, ())


# ---------------------------------------------------------------------------
# morphisms between words


class BlockMap:
    """Map between two words stored as a dict of blocks; a missing key is a
    zero block.

    Subclasses fix the key: ``Morphism`` keys a block by its total charge,
    ``deligne_double.DoubleMorphism`` by summand assignments and a charge
    pair.  Each gives the shape of a key's block (``_shape``), the key of a
    closed diagram's value (``_unit_key``) and the keyed composition.
    Blocks are never written in place once a map is built, so maps may
    share them.
    """

    def __init__(self, data: CategoryData, dom: tuple, cod: tuple, blocks: dict):
        self.data = data
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        self.blocks = blocks

    @classmethod
    def zero(cls, data, dom, cod):
        """The empty map: every block is zero."""
        return cls(data, dom, cod, {})

    def block(self, key) -> np.ndarray:
        """The block at ``key``, or zeros of its shape if it is not stored."""
        mat = self.blocks.get(key)
        return np.zeros(self._shape(key), complex) if mat is None else mat

    def __mul__(self, scalar: complex):
        return type(self)(
            self.data, self.dom, self.cod,
            {key: scalar * m for key, m in self.blocks.items()},
        )

    __rmul__ = __mul__

    def __add__(self, other):
        if (other.dom, other.cod) != (self.dom, self.cod):
            raise ValueError("shape mismatch")
        blocks = dict(self.blocks)
        for key, m in other.blocks.items():
            blocks[key] = blocks[key] + m if key in blocks else m
        return type(self)(self.data, self.dom, self.cod, blocks)

    def __sub__(self, other):
        return self + (-1.0) * other

    def norm(self) -> float:
        return max(
            (float(np.max(np.abs(m))) for m in self.blocks.values() if m.size),
            default=0.0,
        )

    def distance(self, other) -> float:
        return (self - other).norm()

    def scalar(self) -> complex:
        """Value of a closed diagram (empty boundary words)."""
        if self.dom or self.cod:
            raise ValueError("scalar() requires empty boundary words")
        return complex(self.block(self._unit_key())[0, 0])


class Morphism(BlockMap):
    """Block matrix between the fusion-tree bases of two words, one block
    (codtrees x domtrees) per total charge."""

    # bound in this class body too: perfbench/spans.py wraps the attributes
    # it finds in the class's own namespace
    zero = classmethod(BlockMap.zero.__func__)

    @classmethod
    def identity(cls, data, word):
        blocks = {
            d: np.eye(len(t), dtype=complex) for d, t in word_trees(data, word).items()
        }
        return cls(data, word, word, blocks)

    def __matmul__(self, other: "Morphism") -> "Morphism":
        if other.cod != self.dom:
            raise ValueError(f"cannot compose {other.cod} -> {self.dom}")
        blocks = {
            d: m @ other.blocks[d] for d, m in self.blocks.items() if d in other.blocks
        }
        return Morphism(self.data, other.dom, self.cod, blocks)

    def _shape(self, d) -> tuple:
        return len(trees(self.data, self.cod, d)), len(trees(self.data, self.dom, d))

    def _unit_key(self):
        return self.data.unit


# ---------------------------------------------------------------------------
# elementary word operations (the layer primitives)


def _replace_window(data, word, k, width, new, key, local) -> Morphism:
    """Replace the letters ``word[k:k+width]`` by ``new``.

    Slot i + 1 of ``head + tree`` fuses letter i onto a chain that starts at
    the unit in slot 0, so p = slot k and q = slot k + width are the chain
    states on either side of the window at every k.  Only the window slots
    change; ``local(p, q)`` is the block from the trees of ``(p,) + old`` to
    those of ``(p,) + new`` with charge q, memoized on ``data`` under
    ``(key, p, q)``.
    """
    word = tuple(word)
    cod = word[:k] + new + word[k + width:]
    old = word[k:k + width]
    head = ((data.unit, 0),) + tuple((w, 0) for w in word[:1])
    cache = data._local_cache
    targets = word_trees(data, cod)
    blocks = {}
    for d, src in word_trees(data, word).items():
        if d not in targets:
            continue
        index = {s: i for i, s in enumerate(targets[d])}
        mat = blocks[d] = np.zeros((len(index), len(src)), complex)
        for ti, t in enumerate(src):
            ext = head + t
            p, q = ext[k][0], ext[k + width][0]
            block = cache.get((key, p, q))
            if block is None:
                block = cache[(key, p, q)] = _sparse_block(data, old, new, p, q, local)
            for s_win, coef in block[ext[k + 1:k + 1 + width]]:
                s = (ext[:k + 1] + s_win + ext[k + 1 + width:])[2:]
                mat[index[s], ti] = coef
    return Morphism(data, word, cod, blocks)


def _sparse_block(data, old, new, p, q, local) -> dict:
    """``local(p, q)`` as {source window: ((target window, coefficient), ...)}."""
    src = trees(data, (p,) + old, q)
    tgt = trees(data, (p,) + new, q)
    mat = local(p, q) if tgt else np.zeros((0, len(src)))
    return {
        t: tuple((s, mat[i, j]) for i, s in enumerate(tgt) if mat[i, j] != 0)
        for j, t in enumerate(src)
    }


def _f_basis(data, p, a, b, q) -> tuple:
    """The places of the rows (x, i, j) and of the columns (y, l, k) of
    F(p, a, b, q), as the F-table keys them; the columns are the trees of
    (p, a, b) -> q, a word that reaches q, in tree order.  Memoized on
    ``data``."""
    key = ("f_basis", p, a, b, q)
    if key not in data._local_cache:
        F = data._f_table
        g = F.block_of(p, a, b, q)
        rows, cols = (
            zip(*(col.tolist() for col in np.unravel_index(keys[at[g]:at[g + 1]], radix)[1:]))
            for keys, at, radix in ((F.row_keys, F.row_starts, F.row_radix),
                                    (F.col_keys, F.col_starts, F.col_radix))
        )
        data._local_cache[key] = (
            {t: n for n, t in enumerate(rows)}, {t: n for n, t in enumerate(cols)},
        )
    return data._local_cache[key]


@functools.cache
def _unit_weights(n, mu) -> tuple:
    """Weights of basis vector ``mu`` among ``n`` multiplicities."""
    if not 0 <= mu < n:
        raise ValueError("multiplicity index out of range")
    return tuple(complex(i == mu) for i in range(n))


def _channel_weights(data, right, p, c, q, weights) -> np.ndarray:
    """(N_pc^q x right basis) matrix: row nu weighs the channels (c, nu, mu)."""
    w = np.zeros((data.n(p, c, q), len(right)), complex)
    for mu, coef in enumerate(weights):
        for nu in range(len(w)):
            w[nu, right[(c, nu, mu)]] = coef
    return w


def _check_weights(data, a, b, c, weights):
    if len(weights) != data.n(a, b, c):
        raise ValueError(
            f"vector of length {len(weights)} for N_ab^c = {data.n(a, b, c)}"
        )


def weighted_vertex(data, word, k, a, b, c, weights) -> Morphism:
    """Apply the vertex vector ``weights`` of hom(a b, c) at letters (k, k+1).

    ``weights`` is a tuple over the N_ab^c multiplicities; it keys the memo
    of the local block, so the basis vertices reuse cached unit tuples.
    """
    word = tuple(word)
    if word[k] != a or word[k + 1] != b:
        raise ValueError("vertex labels do not match the word")
    _check_weights(data, a, b, c, weights)

    def local(p, q):
        return _vertex_block(data, a, b, c, weights, p, q)

    key = ("vertex", a, b, c, weights)
    return _replace_window(data, word, k, 2, (c,), key, local)


def _vertex_block(data, a, b, c, weights, p, q) -> np.ndarray:
    """Local block of the vertex ``weights`` of hom(a b, c), dense: from the
    trees of (p, a, b) to those of (p, c) with charge q; memoized on
    ``data`` and read-only."""
    key = ("vertex_block", a, b, c, weights, p, q)
    block = data._local_cache.get(key)
    if block is None:
        right, _ = _f_basis(data, p, a, b, q)
        block = _channel_weights(data, right, p, c, q, weights) @ data.f_block(p, a, b, q)
        block.setflags(write=False)
        data._local_cache[key] = block
    return block


def weighted_covertex(data, word, k, a, b, c, weights) -> Morphism:
    """Apply the covertex vector ``weights`` of hom(c, a b) at letter k; see
    ``weighted_vertex``."""
    word = tuple(word)
    if word[k] != c:
        raise ValueError("covertex label does not match the word")
    _check_weights(data, a, b, c, weights)

    def local(p, q):
        right, _ = _f_basis(data, p, a, b, q)
        finv = data.f_block_inv(p, a, b, q)
        return finv @ _channel_weights(data, right, p, c, q, weights).T

    key = ("covertex", a, b, c, weights)
    return _replace_window(data, word, k, 1, (a, b), key, local)


def vertex_morphism(data, word, k, a, b, c, mu) -> Morphism:
    """Apply the fusion vertex (a, b) -> c at letters (k, k+1)."""
    return weighted_vertex(data, word, k, a, b, c, _unit_weights(data.n(a, b, c), mu))


def covertex_morphism(data, word, k, a, b, c, mu) -> Morphism:
    """Apply the splitting covertex c -> (a, b) at letter k."""
    return weighted_covertex(data, word, k, a, b, c, _unit_weights(data.n(a, b, c), mu))


def braid_morphism(data, word, k, sense: str) -> Morphism:
    """Braid letters (k, k+1); sense '+' is the positive crossing."""
    word = tuple(word)
    a, b = word[k], word[k + 1]

    def local(p, q):
        right, _ = _f_basis(data, p, a, b, q)
        right_sw, _ = _f_basis(data, p, b, a, q)
        finv_sw = data.f_block_inv(p, b, a, q)
        rmat = np.zeros((len(right_sw), len(right)), complex)
        for (x, i, j), n in right.items():
            rx = data.r_block(a, b, x) if sense == "+" else data.r_block_inv(a, b, x)
            for j2 in range(rx.shape[0]):
                rmat[right_sw[(x, i, j2)], n] = rx[j2, j]
        return finv_sw @ rmat @ data.f_block(p, a, b, q)

    return _replace_window(data, word, k, 2, (b, a), ("braid", a, b, sense), local)


def cup_morphism(data, word, k, a, b) -> Morphism:
    """Insert the letters (a, b), b = dual(a), created from the unit at k."""
    if b != data.dual(a):
        raise ValueError("cup letters must be dual")

    def local(p, q):
        right, _ = _f_basis(data, p, a, b, q)
        return data.f_block_inv(p, a, b, q)[:, [right[(data.unit, 0, 0)]]]

    return _replace_window(data, word, k, 0, (a, b), ("cup", a, b), local)


def cap_morphism(data, word, k, a, b) -> Morphism:
    """Annihilate the adjacent letters (a, b), b = dual(a), at (k, k+1)."""
    word = tuple(word)
    if word[k] != a or word[k + 1] != b or b != data.dual(a):
        raise ValueError("cap letters must be dual and match the word")

    def local(p, q):
        right, _ = _f_basis(data, p, a, b, q)
        return data.f_block(p, a, b, q)[[right[(data.unit, 0, 0)]], :]

    return _replace_window(data, word, k, 2, (), ("cap", a, b), local)


def unit_insert_morphism(data, word, k) -> Morphism:
    """Insert the unit letter at position k."""
    return _replace_window(
        data, word, k, 0, (data.unit,), ("unit",), lambda p, q: np.ones((1, 1))
    )


def unit_remove_morphism(data, word, k) -> Morphism:
    """Remove the unit letter at position k; undoes ``unit_insert_morphism``."""
    if word[k] != data.unit:
        raise ValueError("only a unit letter can be removed")
    return _replace_window(data, word, k, 1, (), ("unit_remove",),
                           lambda p, q: np.ones((1, 1)))


# ---------------------------------------------------------------------------
# diagrams


def evaluate_diagram(data: CategoryData, word: tuple, steps) -> Morphism:
    """Compose a diagram bottom-up from the identity of ``word``.

    Each step is a function from the current word to one generator morphism
    out of it, such as ``cap_morphism`` at a position; the generator
    functions raise ValueError on letters that do not match the word.
    """
    total = Morphism.identity(data, tuple(word))
    for step in steps:
        total = step(total.cod) @ total
    return total


# ---------------------------------------------------------------------------
# duality data


def duality_fusing_scalar(data: CategoryData, a: int) -> complex:
    """The fusing-matrix entry whose reciprocal is the loop value of ``a``.

    This is F^{a a' a}_{a;1,1}.  For a self-dual label it is gauge-invariant
    and equals nu_2(a) / d_a, with nu_2(a) = +-1 the Frobenius-Schur
    indicator and d_a the Perron-Frobenius dimension.  For a label that is
    not self-dual only the product with the entry of ``a'`` is
    gauge-invariant: F(a) F(a') = 1 / d_a^2.
    """
    return complex(_unit_channel_entry(data, a, data.dual(a), a, a))


def categorical_dim(data: CategoryData, a: int) -> complex:
    """Loop value of ``a``: reciprocal of the duality fusing entry.

    For a self-dual label it equals nu_2(a) d_a: the Perron-Frobenius
    dimension times the Frobenius-Schur indicator nu_2(a) = +-1, a sign that
    is an invariant of the data (negative for pseudo-real labels: -1 for
    the semion).  For a label that is not self-dual the loop value alone
    depends on the gauge; only its product with the loop value of ``a'`` is
    invariant, and it equals d_a^2.  Memoized on ``data``.
    """
    key = ("categorical_dim", a)
    dim = data._local_cache.get(key)
    if dim is None:
        dim = data._local_cache[key] = 1.0 / duality_fusing_scalar(data, a)
    return dim


def _unit_channel_entry(data, a1, a2, a3, d, inverse=False) -> complex:
    """Entry of F(a1, a2, a3, d), or of its inverse, between the right and
    the left tree whose inner channel is the unit."""
    rows, cols = _f_basis(data, a1, a2, a3, d)
    right, left = rows[data.unit, 0, 0], cols[data.unit, 0, 0]
    if inverse:
        return data.f_block_inv(a1, a2, a3, d)[left, right]
    return data.f_block(a1, a2, a3, d)[right, left]


# ---------------------------------------------------------------------------
# vertex vectors and the bending operators


@dataclass(frozen=True)
class _LegVector:
    """Labels (a1, a2, a3) and the weights ``vec`` over the N_{a1 a2}^{a3}
    multiplicities of a vertex or covertex vector."""

    a1: int
    a2: int
    a3: int
    vec: tuple

    @classmethod
    def basis(cls, data, a1, a2, a3, mu=0):
        return cls(a1, a2, a3, _unit_weights(data.n(a1, a2, a3), mu))

    @property
    def array(self):
        return np.array(self.vec, dtype=complex)


class VertexVector(_LegVector):
    """Element of hom(a1 (x) a2, a3) in the fusion-vertex basis."""


class CovertexVector(_LegVector):
    """Element of hom(a3, a1 (x) a2) in the dual (splitting) basis."""

    def at(self, data, word, k) -> Morphism:
        """This vector applied at letter k of ``word``."""
        return weighted_covertex(data, word, k, self.a1, self.a2, self.a3, self.vec)


def vertex_images(data, families) -> tuple:
    """The images of the basis vertices of ``families`` under the swap and
    the bend, as (weights, rows): ``bending.basis_images`` with the
    loop values of ``data``.

    The bend takes hom(a1 a2, a3) to hom(a1 a3', a2'): the second input leg
    is bent around through a crossing of the family's sense, and the
    closed-off output leg carries the ribbon twist of the matching sense.
    Both choices are pinned a posteriori by the phase identities relating
    bent unit vertices to duality vertices (the fusing-symmetry suite) and
    by bend/unbend invertibility (tests/bending_oracle.py).
    """
    return basis_images(data, families, [categorical_dim(data, a) for a in range(data.size)])


# ---------------------------------------------------------------------------
# verification suites


def _zigzags(data, a) -> dict:
    """Each zigzag of ``a``: its strand, and its two steps for
    ``evaluate_diagram``, a cup scaled by the loop value of ``a`` and then a
    cap."""
    ap = data.dual(a)
    dim = categorical_dim(data, a)

    def cup(k, x, y):
        return lambda word: dim * cup_morphism(data, word, k, x, y)

    def cap(k, x, y):
        return lambda word: cap_morphism(data, word, k, x, y)

    return {
        "zigzag_right_1": ((a,), (cup(0, a, ap), cap(1, ap, a))),
        "zigzag_right_2": ((ap,), (cup(1, a, ap), cap(0, ap, a))),
        "zigzag_left_1": ((a,), (cup(1, ap, a), cap(0, a, ap))),
        "zigzag_left_2": ((ap,), (cup(0, ap, a), cap(1, a, ap))),
    }


def _zigzag_fusing_route(data, a):
    """The four zigzag values from the fusing-entry expansion."""
    ap = data.dual(a)
    fa = duality_fusing_scalar(data, a)
    return {
        "zigzag_right_1": _unit_channel_entry(data, a, ap, a, a) / fa,
        "zigzag_right_2": _unit_channel_entry(data, ap, a, ap, ap, inverse=True) / fa,
        "zigzag_left_1": _unit_channel_entry(data, a, ap, a, a, inverse=True) / fa,
        "zigzag_left_2": _unit_channel_entry(data, ap, a, ap, ap) / fa,
    }


def _completeness_residuals(data) -> np.ndarray:
    """Per (a, b), the residual of sum_c,i covertex(c;i) . vertex(c;i) = id:
    vertex (q;i) is row i of the unit block F(e, a, b, q), covertex (q;i)
    column i of its inverse, and the products are summed in the order the
    composed morphisms add them, so each residual is theirs bit for bit."""
    F, out = data._f_table, np.zeros((data.size, data.size))
    for (members, mats), (inv, _) in zip(F.stacks, F.inverses()):
        unit = F.labels[0][members] == data.unit
        mats, inv, g = mats[unit], inv[unit], members[unit]
        total = sum(inv[:, :, i:i + 1] @ mats[:, i:i + 1] for i in range(mats.shape[1]))
        off = np.abs(total - np.eye(mats.shape[1])).max(axis=(1, 2))
        np.maximum.at(out, (F.labels[1][g], F.labels[2][g]), off)
    return out


def verify_rigidity(data: CategoryData, tol: float = DEFAULT_TOL) -> Report:
    """All four zigzag identities, by diagram evaluation and by fusing
    entries, and the completeness of the vertex bases; reports either
    zigzag route's deviation from the identity and the two routes'
    mutual agreement."""
    t0 = time.perf_counter()
    report = Report(suite="rigidity", tol=tol)
    rows, n = [], data.size
    for a in range(n):
        scalars, zigzags = _zigzag_fusing_route(data, a), _zigzags(data, a)
        for name, (strand, steps) in zigzags.items():
            got = evaluate_diagram(data, strand, steps)
            ident = Morphism.identity(data, strand)
            rows += (got.distance(ident), abs(scalars[name] - 1.0),
                     got.distance(complex(scalars[name]) * ident))
    ids = [f"{name}_{r}" for name in zigzags for r in ("diagram", "fusing", "routes_agree")]
    report.add_many(ids, (range(n),), np.reshape(rows, (n, -1)))
    report.add_many("completeness", np.divmod(np.arange(n * n), n),
                    _completeness_residuals(data).ravel())
    report.wall_time = time.perf_counter() - t0
    return report


def verify_fusing_symmetries(data: CategoryData, tol: float = DEFAULT_TOL) -> Report:
    """Conjugation symmetries of the fusing matrices and the phase identities.

    Checks, entrywise over all label tuples: the braid-conjugation symmetry
    (stored F equals the inverse fusing matrix in braid-transformed bases),
    the bend/braid symmetry, equality of the dual pair of duality fusing
    scalars, and the phase identities tying duality vertices to twists.
    The conjugation symmetries of all fusing words are evaluated at once
    (``table_arrays.FusingWords``) from the images of the basis vertices,
    all formed in one evaluation (``vertex_images``); the bent unit
    vertices are read from them.
    """
    t0 = time.perf_counter()
    report = Report(suite="fusing-symmetries", tol=tol)
    words = FusingWords(data._f_table, data.ring)
    images = vertex_images(data, words.families)
    sizes = [data.n(a, b, c) for _, a, b, c in words.families]
    first = dict(zip(words.families, np.cumsum(sizes) - sizes))
    e = data.unit
    bent = [
        [images[0][first[("bend+", *labels)], :1] for labels in ((e, ap, ap), (ap, e, ap))]
        for ap in map(data.dual, range(data.size))
    ]
    report.add_many(_DUALITY_IDS, (range(data.size),), _duality_residuals(data, bent))
    report.add_many(
        ("fusing_braid_conjugation", "fusing_bend_conjugation"),
        data._f_table.labels, np.transpose(words.residuals(images)),
    )
    report.wall_time = time.perf_counter() - t0
    return report


_DUALITY_IDS = (
    "dual_scalar_equal", "dual_scalar_inverse_route", "dual_scalar_inverse_route_dual",
    "duality_vertex_phase_pos", "duality_vertex_phase_neg",
    "bend_unit_left", "bend_unit_right",
)


def _duality_residuals(data, bent) -> list:
    """Per label a, the residuals of ``_DUALITY_IDS``: the dual pair of
    duality fusing scalars and their inverse routes, the duality vertex
    phases and the bent unit vertices, read from ``bent[a]``: the weights
    of the unit-left and the unit-right basis vertex of a' bent in the
    positive sense."""
    e = data.unit
    out = []
    for a in range(data.size):
        ap = data.dual(a)
        fa = duality_fusing_scalar(data, a)
        fap = duality_fusing_scalar(data, ap)
        # inverse-route expressions of the same scalar
        inv1 = _unit_channel_entry(data, a, ap, a, a, inverse=True)
        inv2 = _unit_channel_entry(data, ap, a, ap, ap, inverse=True)
        # duality vertex vs twist: stored braiding entry on the unit channel
        theta = data.twist[a]
        r_pos = data.r_block(a, ap, e)[0, 0]
        r_neg = data.r_block_inv(a, ap, e)[0, 0]
        # bent unit vertices reproduce duality vertices with the twist phase
        left, right = bent[a]
        left_want = VertexVector.basis(data, e, a, a).array
        right_want = theta * VertexVector.basis(data, ap, a, e).array
        out.append((
            abs(fa - fap), abs(inv1 - fa), abs(inv2 - fa),
            abs(r_pos - theta.conjugate()), abs(r_neg - theta),
            float(np.max(np.abs(left - left_want))),
            float(np.max(np.abs(right - right_want))),
        ))
    return out

