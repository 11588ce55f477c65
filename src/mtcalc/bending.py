"""The images of the basis vertices under the swap and the bend, formed
from the F- and R-tables for many vertices at once.

The swap or the bend of one vertex vector is a composite of
``graphcalc``'s generator morphisms, one ``Morphism`` per step
(``tests/bending_oracle.py`` keeps that route).  ``basis_images`` forms the
images of the basis vertices of many hom spaces in one evaluation: it
enumerates the fusion trees of the route's words (``table_arrays.Trees``),
assembles each step's block at the route's one output charge from the
table entries, and multiplies the blocks of all vertices by stacked ``@``,
grouped by shape.  As the shapes and the order of every product are the
route's, so are the results, bit for bit (see ``table_arrays`` on stacked
products).
"""

from __future__ import annotations

import numpy as np

from .fusion_data import _block_inverse
from .table_arrays import (
    IMAGE_KINDS, Trees, _braid_blocks, _copies, _distinct, _flat_blocks, _gather, _pack,
)

__all__ = ["basis_images"]


def _times_blocks(F, vecs, blocks) -> np.ndarray:
    """Each row of ``vecs`` times its F-block, t x t, as a 1 x t by t x t
    product; ``vecs`` is zero past t."""
    out = np.zeros_like(vecs)
    size = F.ncols[blocks]
    for t in _distinct(size).tolist():
        sel = np.flatnonzero(size == t)
        mats = F.stacks[F.stack_of[blocks[sel[0]]]][1][F.slot_of[blocks[sel]]]
        out[sel, :t] = (vecs[sel, None, :t] @ mats)[:, 0]
    return out


def basis_images(data, families, dims):
    """The images of the basis vertices of ``families``, as (weights, rows):
    one row per image, by family in the order given and by basis vertex
    within a family, zero past the image's multiplicities.

    The family (kind, a, b, c) takes the basis vertices of hom(a b, c) to
    hom(b a, c) ("swap") or to hom(a c', b') ("bend"), in the sense of the
    kind's last character.  An image's weights are its coefficients on the
    basis vertices there, and its row is its local block above the unit:
    the weights times the unit-gauge F-block of its hom space.  ``data`` is
    the CategoryData and ``dims`` the loop values of its labels.

    Each image is the one the composed route forms (``graphcalc``'s
    generators, as ``tests/bending_oracle.py`` composes them), bit for
    bit.  That route's step blocks at its one output charge are assembled
    from the F- and R-tables and multiplied by stacked ``@``, in its order
    and with its shapes: a swap is the braid of (b, a) followed by the
    vertex; a bend is the cup of (b, b') after (a, c') scaled by the loop
    value of b, the braid of (c', b), the vertex, the ribbon twist of c and
    the cap of (c, c'), at charge b'.  No ``Morphism`` is formed and no tree
    is walked.  A singular block that an image inverts raises the error of
    ``data.f_block_inv`` or ``data.r_block_inv``: the first in block order
    of the cups' F-blocks, else of the braids' F-blocks, else of their
    R-blocks.
    """
    F, R, N, e = data._f_table, data._r_table, data.ring.array, data.unit
    dual = np.asarray(data.ring.dual)
    n, m = F.dims[0], F.dims[-1]
    kind, a, b, c = np.array(
        [(IMAGE_KINDS.index(k), *labels) for k, *labels in families], dtype=np.intp
    ).reshape(-1, 4).T
    plus, bent = kind % 2 == 0, kind >= 2
    fam, mu = _copies(np.arange(len(kind)), N[a, b, c])
    unit = np.zeros((len(fam), m), dtype=complex)
    unit[np.arange(len(fam)), mu] = 1
    # the local block above the unit of each basis vertex
    vertex = _times_blocks(F, unit, F.block_of(np.full_like(fam, e), a[fam], b[fam], c[fam]))

    # the words of the bend of hom(a1 a2, a3), at its charge d = a2'
    s, g = np.flatnonzero(~bent), np.flatnonzero(bent)
    a1, a2, a3 = a[g], b[g], c[g]
    d, a3p = dual[a2], dual[a3]
    t0 = N[a1, a3p, d]  # the trees ((d, m0),) of W0 = (a1, a3')
    W1, W2, W3 = (Trees(data.ring, np.stack(w, axis=1), d) for w in (
        (a1, a3p, a2, d), (a1, a2, a3p, d), (a3, a3p, d)
    ))

    # the braid's local blocks: of (b, a) above the unit for a swap, and of
    # (a3', a2) above a1 with the charge x2 of each tree of W1 for a bend
    tw, (x1, x2, _), (m1, m2, m3) = W1.word, W1.states, W1.mults
    quads = np.concatenate([
        np.stack((np.full_like(s, e), b[s], a[s], c[s], plus[s])),
        np.stack((a1[tw], a3p[tw], a2[tw], x2, plus[g][tw])),
    ], axis=1)
    key = _pack(quads, (n, n, n, n, 2))
    distinct = _distinct(key)
    which = np.searchsorted(distinct, key)
    *quad, pl = np.unravel_index(distinct, (n, n, n, n, 2))
    cup = F.block_of(d, a2, d, d)
    _check_inverses(F, "F", cup)
    local, l_start, l_size, blk, sw, (_, inverted) = _braid_blocks(F, R, N, quad, pl == 1)
    _check_inverses(F, "F", sw)
    _check_inverses(R, "R", inverted)

    # the cup: column (1, 0, 0) of F(d, a2, d, d)^-1, its row (y, l, k) on
    # the tree ((d, m0), (y, l), (d, k)) of W1, for each tree (d, m0) of W0
    e_row = np.searchsorted(
        F.row_keys, _pack((cup, np.full_like(cup, e), 0 * cup, 0 * cup), F.row_radix)
    ) - F.row_starts[cup]
    it, col = _copies(np.arange(len(g)), F.ncols[cup])
    _, y, l, k = np.unravel_index(F.col_keys[F.col_starts[cup[it]] + col], F.col_radix)
    value = F.entries(cup[it], col, e_row[it], inverse=True)
    at, m0 = _copies(np.arange(len(it)), t0[it])
    it = it[at]
    row = W1.place(it, (d[it], y[at], d[it]), (m0, l[at], k[at]))
    C = _flat_blocks(W1.size, t0, it, row, m0, value[at])

    # the braid: each tree of W1 is a column of its local block, whose row
    # ((y1, n1), (x2, n2)) is the tree ((y1, n1), (x2, n2), (d, m3)) of W2
    qt = which[len(s):]
    size = l_size[qt]
    src = np.searchsorted(F.col_keys, _pack((blk[qt], x1, m1, m2), F.col_radix))
    src -= F.col_starts[blk[qt]]
    it, r = _copies(np.arange(len(tw)), size)
    _, y1, n1, n2 = np.unravel_index(F.col_keys[F.col_starts[sw[qt[it]]] + r], F.col_radix)
    gt = tw[it]
    row = W2.place(gt, (y1, x2[it], d[gt]), (n1, n2, m3[it]))
    value = local[l_start[qt[it]] + r * size[it] + src[it]]
    B = _flat_blocks(W2.size, W1.size, gt, row, it - W1.start[gt], value)

    # the vertex, per bent image: the trees of W2 through a3 after two
    # letters, ((a3, n1), (y2, n2), (d, n3)), go to ((y2, n2), (d, n3)) of
    # W3 with the entry n1 of the image's basis vertex block
    bi = np.flatnonzero(bent[fam])  # the bent images
    gb = np.searchsorted(g, fam[bi])  # their families among the bent ones
    (y1, y2, _), (n1, n2, n3) = W2.states, W2.mults
    through = np.flatnonzero(y1 == a3[W2.word])
    it, j = _copies(through, N[a1, a2, a3][W2.word])
    gt = W2.word[it]
    owner = np.searchsorted(gb, gt) + j
    row = W3.place(gt, (y2[it], d[gt]), (n2[it], n3[it]))
    V = _flat_blocks(W3.size[gb], W2.size[gb], owner, row, it - W2.start[gt],
                     vertex[bi[owner], n1[it]])

    # the cap: the tree ((1, 0), (d, 0)) of W3 reads F(1, a3, a3', 1)
    gt, ones, zeros = np.arange(len(g)), np.full_like(g, e), 0 * g
    value = F.entries(F.block_of(ones, a3, a3p, ones), zeros, zeros)
    K = _flat_blocks(zeros + 1, W3.size, gt, zeros, W3.place(gt, (ones, d), (zeros, zeros)), value)

    # the chain, stacked by the shapes of its blocks
    weights = np.zeros_like(unit)
    theta = np.array([data.twist, [1.0 / t for t in data.twist]])[(~plus[g]) * 1, a3]
    loop = np.asarray(dims, dtype=complex)[a2]
    shapes = np.stack((t0, W1.size, W2.size, W3.size))[:, gb]
    key = _pack(shapes, (shapes.max(initial=0) + 1,) * 4)
    for shape in _distinct(key).tolist():
        imgs = np.flatnonzero(key == shape)
        fams = gb[imgs]
        n0, n1, n2, n3 = shapes[:, imgs[0]].tolist()
        chain = loop[fams, None, None] * _gather(*C, fams, n1, n0)
        chain = _gather(*B, fams, n2, n1) @ chain
        chain = _gather(*V, imgs, n3, n2) @ chain
        chain = (theta[fams, None, None] * np.eye(n3)) @ chain
        chain = _gather(*K, fams, 1, n3) @ chain
        weights[bi[imgs], :n0] = chain[:, 0]

    # the swap: the basis vertex block after the braid's local block
    si = np.flatnonzero(~bent[fam])
    qs = which[np.searchsorted(s, fam[si])]
    for t in _distinct(l_size[qs]).tolist():
        sel = np.flatnonzero(l_size[qs] == t)
        braid = _gather(local, l_start, qs[sel], t, t)
        weights[si[sel], :t] = (vertex[si[sel], None, :t] @ braid)[:, 0]

    # each image's hom space: (b a, c) swapped, (a c', b') bent
    image = (np.where(bent, a, b), np.where(bent, dual[c], a), np.where(bent, dual[b], c))
    blocks = F.block_of(np.full_like(fam, e), *(labels[fam] for labels in image))
    return weights, _times_blocks(F, weights, blocks)


def _check_inverses(table, name, blocks):
    """The block store's ``CategoryDataError`` for the first singular block
    of ``table`` (named ``name``) among the block numbers ``blocks``."""
    for block in blocks[table.singular()[blocks]][:1].tolist():
        _block_inverse(table, name, tuple(lab[block].item() for lab in table.labels))
