"""The doubled category: pairs of labels, their morphisms, the doubled braiding.

Objects are formal sums of (left, right) label pairs; the right factor is
the same skeletal category with reversed braiding and inverted twist.  A
morphism between words of doubled objects is stored per summand assignment
and per charge pair, as Kronecker products of single-category blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graphcalc as gc

__all__ = [
    "DoubleObject",
    "DoubleMorphism",
    "double_braid_layer",
    "pair_layer",
    "doubled_layer",
    "assignments",
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


def doubled_layer(data, word, k, width, letters, rule, sources=None) -> DoubleMorphism:
    """The layer that replaces ``word[k:k+width]`` by the doubled ``letters``.

    Per summand assignment, ``rule(window, left, right)`` gets the window's
    summand indices and the factor words, and yields each term of the layer
    as (summand indices of ``letters``, coefficient, left and right morphism).
    Given a set ``sources`` of assignments of ``word``, the walk visits only
    those, in the order of ``assignments(word)`` (lexicographic), and the
    layer has blocks on them alone.
    """
    word = tuple(word)
    cod = word[:k] + tuple(letters) + word[k + width:]
    out = DoubleMorphism.zero(data, word, cod)
    for assign in assignments(word) if sources is None else sorted(sources):
        left, right = _factor_words(word, assign)
        for new, coeff, lm, rm in rule(assign[k:k + width], left, right):
            pair_layer(assign, assign[:k] + new + assign[k + width:], lm, rm, out, coeff)
    return out


# ---------------------------------------------------------------------------
# braiding


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
