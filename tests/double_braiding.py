"""The braided structure of C ⊠ C̄, checked as an oracle of
``deligne_double.double_braid_layer``.

``verify-ffa`` braids doubled words with ``double_braid_layer`` (the
commutativity and pairing-symmetry records).  The suite here checks that
layer's defining identities for all four factor-sense variants: inverses,
the hexagon against an independently built cluster braiding, balancing
against the doubled twist, and naturality against random endomorphisms.
"""

from __future__ import annotations

import math
import time

import numpy as np

from mtcalc import graphcalc as gc
from mtcalc.deligne_double import (
    VARIANTS,
    DoubleMorphism,
    DoubleObject,
    _senses,
    double_braid_layer,
    doubled_layer,
)
from mtcalc.fusion_data import CategoryData, DEFAULT_TOL
from mtcalc.report import Report

from coherence_oracle import f_left_basis, f_right_basis


def names(data, A: DoubleObject) -> list:
    """The summands of ``A`` as "(left,right)" label-name strings."""
    label = data.ring.labels
    return [f"({label[l].name},{label[r].name})" for l, r in A.summands]


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
        fr = f_right_basis(data, a, b, c, tot)
        fl = f_left_basis(data, a, b, c, tot)
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
                    (",".join(names(data, A)), ",".join(names(data, B))),
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
                            ",".join(names(data, A)),
                            ",".join(names(data, B)),
                            ",".join(names(data, C)),
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
                (",".join(names(data, A)), ",".join(names(data, B))),
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
                (",".join(names(data, A)), ",".join(names(data, B))),
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
