"""The doubled category: pairs of labels, doubled braiding and twist.

Objects are formal sums of (left, right) label pairs; the right factor is
the same skeletal category with reversed braiding and inverted twist.  A
morphism between words of doubled objects is stored per summand assignment
and per charge pair, as Kronecker products of single-category blocks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .fusion_data import CategoryData, DEFAULT_TOL
from .report import Report
from . import graphcalc as gc

__all__ = [
    "DoubleObject",
    "DoubleMorphism",
    "double_tensor",
    "double_braiding",
    "double_twist",
    "double_braid_layer",
    "pair_layer",
    "doubled_layer",
    "assignments",
    "verify_double_braiding",
]

VARIANTS = ("++", "+-", "-+", "--")


@dataclass(frozen=True)
class DoubleObject:
    """Formal multiset of (left, right) simple label pairs."""

    summands: tuple

    def __post_init__(self):
        object.__setattr__(
            self, "summands", tuple((int(l), int(r)) for l, r in self.summands)
        )

    @classmethod
    def unit(cls, data: CategoryData) -> "DoubleObject":
        return cls(((data.unit, data.unit),))

    def __len__(self):
        return len(self.summands)

    def names(self, data) -> list:
        return [
            f"({data.label_name(l)},{data.label_name(r)})" for l, r in self.summands
        ]


def assignments(word) -> list:
    """All summand choices, one per letter of a doubled word."""
    out = [()]
    for obj in word:
        out = [a + (i,) for a in out for i in range(len(obj.summands))]
    return out


def _factor_words(word, assign):
    left = tuple(word[t].summands[i][0] for t, i in enumerate(assign))
    right = tuple(word[t].summands[i][1] for t, i in enumerate(assign))
    return left, right


class DoubleMorphism(gc.BlockMap):
    """Blockwise morphism between words of doubled objects.

    ``blocks[(src_assign, dst_assign, cL, cR)]`` is the Kronecker product of
    a left-category block and a right-category block; missing keys are zero.
    """

    @classmethod
    def identity(cls, data, word):
        return cls.scaled_identity(data, word, lambda assign, cl, cr: 1.0)

    @classmethod
    def scaled_identity(cls, data, word, scale):
        """The identity of ``word`` with the block of (assign, cl, cr) scaled
        by ``scale(assign, cl, cr)``."""
        word = tuple(word)
        blocks = {}
        for assign in assignments(word):
            left, right = _factor_words(word, assign)
            for cl, tl in gc.word_trees(data, left).items():
                for cr, tr in gc.word_trees(data, right).items():
                    blocks[(assign, assign, cl, cr)] = scale(assign, cl, cr) * np.eye(
                        len(tl) * len(tr), dtype=complex
                    )
        return cls(data, word, word, blocks)

    def add_block(self, src_assign, dst_assign, cl, cr, mat):
        key = (tuple(src_assign), tuple(dst_assign), cl, cr)
        if key in self.blocks:
            self.blocks[key] = self.blocks[key] + mat
        else:
            self.blocks[key] = np.array(mat, dtype=complex)

    def __matmul__(self, other: "DoubleMorphism") -> "DoubleMorphism":
        if other.cod != self.dom:
            raise ValueError("doubled words do not compose")
        out = DoubleMorphism.zero(self.data, other.dom, self.cod)
        by_src = {}
        for (sa, ma, cl, cr), mat in other.blocks.items():
            by_src.setdefault((ma, cl, cr), []).append((sa, mat))
        for (ma2, da, cl, cr), hmat in self.blocks.items():
            for sa, gmat in by_src.get((ma2, cl, cr), ()):
                out.add_block(sa, da, cl, cr, hmat @ gmat)
        return out

    def _shape(self, key) -> tuple:
        sa, da, cl, cr = key
        return tuple(
            len(gc.trees(self.data, left, cl)) * len(gc.trees(self.data, right, cr))
            for left, right in (
                _factor_words(self.cod, da), _factor_words(self.dom, sa)
            )
        )

    def _unit_key(self):
        e = self.data.unit
        return ((), (), e, e)


def pair_layer(assign, dst_assign, left_m: gc.Morphism, right_m: gc.Morphism,
               out: DoubleMorphism, coeff=1.0):
    """Add Kron(left, right) blocks of one assignment pair into ``out``.

    Each block is the outer product reshaped, which multiplies the same
    entry pairs as ``np.kron`` without its generic n-d set-up.
    """
    for cl, ml in left_m.blocks.items():
        p, q = ml.shape
        for cr, mr in right_m.blocks.items():
            r, t = mr.shape
            kron = (ml[:, None, :, None] * mr[None, :, None, :]).reshape(p * r, q * t)
            out.add_block(assign, dst_assign, cl, cr, coeff * kron)


def doubled_layer(data, word, k, width, letters, rule) -> DoubleMorphism:
    """The layer that replaces ``word[k:k+width]`` by the doubled ``letters``.

    Per summand assignment, ``rule(window, left, right)`` gets the window's
    summand indices and the factor words, and yields each term of the layer
    as (summand indices of ``letters``, coefficient, left and right morphism).
    """
    word = tuple(word)
    cod = word[:k] + tuple(letters) + word[k + width:]
    out = DoubleMorphism.zero(data, word, cod)
    for assign in assignments(word):
        left, right = _factor_words(word, assign)
        for new, coeff, lm, rm in rule(assign[k:k + width], left, right):
            pair_layer(assign, assign[:k] + new + assign[k + width:], lm, rm, out, coeff)
    return out


# ---------------------------------------------------------------------------
# tensor bookkeeping


@dataclass(frozen=True)
class DoubleTensor:
    """Canonical decomposition of a product of two doubled objects.

    ``addressing`` lists, one row per slot of the expanded object, which
    summand pair and which pair of fusion multiplicities each slot comes
    from: ``(i, j, x, y, mu_left, mu_right)``.
    """

    object: DoubleObject
    multiplicities: tuple  # sorted ((x, y), total multiplicity)
    addressing: tuple

    def multiplicity(self, x, y) -> int:
        for (px, py), m in self.multiplicities:
            if (px, py) == (x, y):
                return m
        return 0

    def slots(self, x, y) -> list:
        return [
            s for s, (l, r) in enumerate(self.object.summands) if (l, r) == (x, y)
        ]


def double_tensor(data: CategoryData, A: DoubleObject, B: DoubleObject) -> DoubleTensor:
    """Fusion of doubled objects with multiplicity bookkeeping."""
    slots = {}
    for i, (al, ar) in enumerate(A.summands):
        for j, (bl, br) in enumerate(B.summands):
            for x in range(data.size):
                nl = data.n(al, bl, x)
                if not nl:
                    continue
                for y in range(data.size):
                    nr = data.n(ar, br, y)
                    if not nr:
                        continue
                    rows = slots.setdefault((x, y), [])
                    rows.extend(
                        (i, j, x, y, ml, mr)
                        for ml in range(nl)
                        for mr in range(nr)
                    )
    pairs = sorted(slots)
    summands = tuple(p for p in pairs for _ in slots[p])
    addressing = tuple(row for p in pairs for row in slots[p])
    return DoubleTensor(
        DoubleObject(summands),
        tuple((p, len(slots[p])) for p in pairs),
        addressing,
    )


# ---------------------------------------------------------------------------
# braiding and twist


def _senses(variant: str):
    if variant not in VARIANTS:
        raise ValueError(f"unknown braiding variant {variant!r}")
    return variant[0], variant[1]


def double_braid_layer(data, word, k, variant: str) -> DoubleMorphism:
    """Braid letters (k, k+1) of a doubled word, factor senses per variant."""
    s1, s2 = _senses(variant)

    def rule(window, left, right):
        i, j = window
        yield ((j, i), 1.0, gc.braid_morphism(data, left, k, s1),
               gc.braid_morphism(data, right, k, s2))

    return doubled_layer(data, word, k, 2, (word[k + 1], word[k]), rule)


def double_braiding(data: CategoryData, A: DoubleObject, B: DoubleObject,
                    variant: str = "+-") -> DoubleMorphism:
    """The doubled braiding A (x) B -> B (x) A for the chosen variant."""
    return double_braid_layer(data, (A, B), 0, variant)


def double_twist(data: CategoryData, A: DoubleObject) -> DoubleMorphism:
    """Twist acting as theta_left / theta_right per summand."""
    return _double_twist_on_word(data, (A,))


def _cluster_braid_word(data, word3, sense) -> gc.Morphism:
    """Single-category braiding of letter 0 past the fused pair (1, 2)."""
    a, b, c = word3
    cod = (b, c, a)
    targets = gc.word_trees(data, cod)
    blocks = {}
    for tot, src in gc.word_trees(data, word3).items():
        dst = targets.get(tot)
        if not dst:
            continue
        fabc = data.f_block(a, b, c, tot)
        fr = data.f_right_basis(a, b, c, tot)
        fl = data.f_left_basis(a, b, c, tot)
        mat = blocks[tot] = np.zeros((len(dst), len(src)), complex)
        for di, dt in enumerate(dst):
            x, beta = dt[0]
            app = dt[1][1]
            rx = (
                data.r_block(a, x, tot)
                if sense == "+"
                else data.r_block_inv(a, x, tot)
            )
            for ri, (x2, alpha, beta2) in enumerate(fr):
                if x2 != x or beta2 != beta:
                    continue
                for si, st in enumerate(src):
                    li = fl.index((st[0][0], st[1][1], st[0][1]))
                    mat[di, si] += rx[app, alpha] * fabc[ri, li]
    return gc.Morphism(data, word3, cod, blocks)


def double_cluster_braid(data, word3, variant: str) -> DoubleMorphism:
    """Doubled braiding of letter 0 past the fused pair of letters (1, 2)."""
    s1, s2 = _senses(variant)

    def rule(window, left, right):
        i, j, l = window
        yield ((j, l, i), 1.0, _cluster_braid_word(data, left, s1),
               _cluster_braid_word(data, right, s2))

    return doubled_layer(data, word3, 0, 3, (word3[1], word3[2], word3[0]), rule)


# ---------------------------------------------------------------------------
# verification


def verify_double_braiding(data: CategoryData, objects, tol: float = DEFAULT_TOL,
                           rng=None) -> Report:
    """Hexagons, inverses, naturality and balancing for all four variants."""
    t0 = time.perf_counter()
    report = Report(suite="double-braiding", tol=tol)
    objects = list(objects)
    inverse_of = {"++": "--", "+-": "-+", "-+": "+-", "--": "++"}
    for variant in VARIANTS:
        for A in objects:
            for B in objects:
                fwd = double_braiding(data, A, B, variant)
                back = double_braiding(data, B, A, inverse_of[variant])
                ident = DoubleMorphism.identity(data, (A, B))
                report.add(
                    f"inverse_{variant}",
                    (",".join(A.names(data)), ",".join(B.names(data))),
                    (back @ fwd).distance(ident),
                )
        for A in objects:
            for B in objects:
                for C in objects:
                    word = (A, B, C)
                    lhs = double_cluster_braid(data, word, variant)
                    b01 = double_braid_layer(data, word, 0, variant)
                    b12 = double_braid_layer(data, b01.cod, 1, variant)
                    report.add(
                        f"hexagon_{variant}",
                        (
                            ",".join(A.names(data)),
                            ",".join(B.names(data)),
                            ",".join(C.names(data)),
                        ),
                        lhs.distance(b12 @ b01),
                    )
    # balancing of the twist against the canonical braiding
    for A in objects:
        for B in objects:
            word = (A, B)
            tw = _double_twist_on_word(data, word)
            rhs = (
                double_braiding(data, B, A, "+-")
                @ double_braiding(data, A, B, "+-")
                @ _tensor_twists(data, word)
            )
            report.add(
                "twist_balancing",
                (",".join(A.names(data)), ",".join(B.names(data))),
                tw.distance(rhs),
            )
    # naturality against random single-block morphisms
    if rng is None:
        rng = np.random.default_rng(0)
    for A in objects:
        for B in objects:
            f = _random_endomorphism(data, A, rng)
            g = _random_endomorphism(data, B, rng)
            word = (A, B)
            braid = double_braiding(data, A, B, "+-")
            lhs = braid @ _tensor_endos(data, word, (f, g))
            rhs = _tensor_endos(data, (B, A), (g, f)) @ braid
            report.add(
                "naturality",
                (",".join(A.names(data)), ",".join(B.names(data))),
                lhs.distance(rhs),
            )
    report.wall_time = time.perf_counter() - t0
    return report


def _double_twist_on_word(data, word) -> DoubleMorphism:
    """Twist of the fused word: theta ratio per total charge pair."""
    return DoubleMorphism.scaled_identity(
        data, word, lambda assign, cl, cr: data.twist[cl] / data.twist[cr]
    )


def _tensor_twists(data, word) -> DoubleMorphism:
    twists = [
        {i: data.twist[l] / data.twist[r] for i, (l, r) in enumerate(A.summands)}
        for A in word
    ]
    return _tensor_endos(data, word, twists)


def _random_endomorphism(data, A: DoubleObject, rng) -> dict:
    """Random block-diagonal endomorphism: a scalar per summand."""
    return {i: complex(rng.normal(), rng.normal()) for i in range(len(A.summands))}


def _tensor_endos(data, word, endos) -> DoubleMorphism:
    """Tensor product of one scalar-per-summand endomorphism per letter."""
    return DoubleMorphism.scaled_identity(
        data, word,
        lambda assign, cl, cr: math.prod(endos[t][i] for t, i in enumerate(assign)),
    )
