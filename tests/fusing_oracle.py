"""The per-word route of the fusing-symmetry suite, the oracle of the
batched ``table_arrays.FusingWords``.

One Python step per fusing word (a1, a2, a3, a4) and route: the bases are
the swapped or bent images of the basis vertices, memoized per run; U and
V are assembled row by row from the dense local vertex blocks, U @ inv(V)
is formed with one ``np.linalg.inv`` per word, the braid route inverts it
again, and each stored F entry is matched through ``rights.index`` and
``lefts.index``.  ``verify_fusing_symmetries`` writes the suite's report
from the per-label records of ``graphcalc`` and this walk.
"""

import itertools
import time

import numpy as np

from mtcalc import graphcalc as gc
from mtcalc.fusion_data import DEFAULT_TOL
from mtcalc.report import Report

import bending_oracle as bo
from coherence_oracle import f_left_basis, f_right_basis, totals
from conftest import channels


def nonempty_fusing_words(data):
    n = data.size
    return [
        (a1, a2, a3, a4)
        for a1, a2, a3 in itertools.product(range(n), repeat=3)
        for a4 in totals(data, (a1, a2, a3))
    ]


def basis_images(data, images, op, sense, a1, a2, a3):
    """``op`` (swap_vertex or bend_vertex) of every basis vertex of
    hom(a1 a2, a3), each computed once per ``images`` memo."""
    out = []
    for mu in range(data.n(a1, a2, a3)):
        key = (op, sense, a1, a2, a3, mu)
        if key not in images:
            images[key] = op(data, gc.VertexVector.basis(data, a1, a2, a3, mu), sense)
        out.append(images[key])
    return out


def vertex_pairs(outer, inner, inner_first):
    """The (io, outer vertex, ii, inner vertex) pairs of one channel, the
    outer index running slower, or the inner one where ``inner_first``."""
    pairs = [(io, yo, ii, yi) for io, yo in enumerate(outer) for ii, yi in enumerate(inner)]
    return sorted(pairs, key=lambda p: (p[2], p[0])) if inner_first else pairs


def fusing_matrix_in_bases(data, word, d, outer_right, inner_right,
                           outer_left, inner_left, y_side):
    """Fusing matrix of (word) -> d expressed in the given vertex families.

    ``outer_right[x]`` is a list of VertexVector in hom(w0 x, d), etc.
    Returns (right_index_list, left_index_list, matrix).  The side
    ``y_side`` ("right" or "left") is the one whose channels are F's
    columns (y, l, k): its vertex pairs are listed inner index first, the
    other side's outer index first, as F's rows (x, i, j) are.

    Each row is the composite of two vertices read on the tree basis of
    (word) -> d, taken from their dense local blocks.  A right row applies
    the inner vertex at letters (1, 2) above the chain state w0 and then
    the outer one above the unit, so it is the product of the two blocks.
    A left row is nonzero on the trees ((y, mu), (d, nu)) only, where it is
    the outer vertex's entry nu times the inner one's entry mu.
    """
    w0, w1, w2 = word
    tre = gc.trees(data, word, d)
    if not tre:
        return [], [], np.zeros((0, 0))
    e = data.unit
    rights, rvecs = [], []
    for x in sorted(outer_right):
        for io, yo, ii, yi in vertex_pairs(outer_right[x], inner_right[x], y_side == "right"):
            outer = gc._vertex_block(data, yo.a1, yo.a2, yo.a3, yo.vec, e, d)
            rights.append((x, io, ii))
            inner = gc._vertex_block(data, yi.a1, yi.a2, yi.a3, yi.vec, w0, d)
            rvecs.append((outer @ inner)[0])
    lefts, lvecs = [], []
    for y in sorted(outer_left):
        cols = [(n, mu, nu) for n, ((y2, mu), (_, nu)) in enumerate(tre) if y2 == y]
        for io, yo, ii, yi in vertex_pairs(outer_left[y], inner_left[y], y_side == "left"):
            outer = gc._vertex_block(data, yo.a1, yo.a2, yo.a3, yo.vec, e, d)[0]
            lefts.append((y, io, ii))
            inner = gc._vertex_block(data, yi.a1, yi.a2, yi.a3, yi.vec, e, y)[0]
            row = np.zeros(len(tre), complex)
            for n, mu, nu in cols:
                row[n] = outer[nu] * inner[mu]
            lvecs.append(row)
    U = np.array(rvecs).reshape(len(rights), len(tre))
    V = np.array(lvecs).reshape(len(lefts), len(tre))
    return rights, lefts, U @ np.linalg.inv(V)


def braid_bases(data, images, a1, a2, a3, a4):
    """The word, total, (outer_right, inner_right, outer_left, inner_left)
    bases in which the braid route reads (a1, a2, a3) -> a4, and the side
    of F's columns, its rights."""
    outer_right, inner_right = {}, {}
    outer_left, inner_left = {}, {}
    for x in channels(data.ring)[a2, a3]:
        if data.n(a1, x, a4):
            outer_left[x] = basis_images(data, images, bo.swap_vertex, "+", a1, x, a4)
            inner_left[x] = basis_images(data, images, bo.swap_vertex, "+", a2, a3, x)
    for y in channels(data.ring)[a1, a2]:
        if data.n(y, a3, a4):
            outer_right[y] = basis_images(data, images, bo.swap_vertex, "+", y, a3, a4)
            inner_right[y] = basis_images(data, images, bo.swap_vertex, "+", a1, a2, y)
    return (a3, a2, a1), a4, outer_right, inner_right, outer_left, inner_left, "right"


def bend_bases(data, images, a1, a2, a3, a4):
    """As ``braid_bases``, for the bend route, whose lefts are on the side
    of F's columns."""
    outer_right, inner_right = {}, {}
    outer_left, inner_left = {}, {}
    for x in channels(data.ring)[a2, a3]:
        if data.n(a1, x, a4):
            xp = data.dual(x)
            outer_right[xp] = basis_images(data, images, bo.bend_vertex, "+", a2, a3, x)
            inner_right[xp] = basis_images(data, images, bo.bend_vertex, "+", a1, x, a4)
    for y in channels(data.ring)[a1, a2]:
        if data.n(y, a3, a4):
            outer_left[y] = basis_images(data, images, bo.bend_vertex, "+", y, a3, a4)
            inner_left[y] = basis_images(data, images, bo.swap_vertex, "-", a1, a2, y)
    return ((a2, a1, data.dual(a4)), data.dual(a3), outer_right, inner_right,
            outer_left, inner_left, "left")


def braid_conjugation_defect(data, images, a1, a2, a3, a4) -> float:
    """Stored F equals the inverse fusing matrix in swap-transformed bases."""
    rights, lefts, mat = fusing_matrix_in_bases(
        data, *braid_bases(data, images, a1, a2, a3, a4)
    )
    if not rights:
        return 0.0
    inv = np.linalg.inv(mat)
    stored = data.f_block(a1, a2, a3, a4)
    sr = f_right_basis(data, a1, a2, a3, a4)
    sl = f_left_basis(data, a1, a2, a3, a4)
    res = 0.0
    for xi, (x, i, j) in enumerate(sr):
        for yi, (y, k, l) in enumerate(sl):
            got = inv[lefts.index((x, i, j)), rights.index((y, k, l))]
            res = max(res, abs(stored[xi, yi] - got))
    return res


def bend_conjugation_defect(data, images, a1, a2, a3, a4) -> float:
    """Stored F equals the fusing matrix in bent/swapped bases."""
    rights, lefts, mat = fusing_matrix_in_bases(
        data, *bend_bases(data, images, a1, a2, a3, a4)
    )
    if not rights:
        return 0.0
    stored = data.f_block(a1, a2, a3, a4)
    sr = f_right_basis(data, a1, a2, a3, a4)
    sl = f_left_basis(data, a1, a2, a3, a4)
    res = 0.0
    for xi, (x, i, j) in enumerate(sr):
        for yi, (y, k, l) in enumerate(sl):
            got = mat[rights.index((data.dual(x), j, i)), lefts.index((y, k, l))]
            res = max(res, abs(stored[xi, yi] - got))
    return res


def verify_fusing_symmetries(data, tol: float = DEFAULT_TOL) -> Report:
    """The suite's report: the per-label records, then the braid and bend
    records of each word, one word at a time."""
    t0 = time.perf_counter()
    report = Report(suite="fusing-symmetries", tol=tol)
    e = data.unit
    bent = [
        [np.array(bo.bend_vertex(data, gc.VertexVector.basis(data, *labels), "+").vec)
         for labels in ((e, ap, ap), (ap, e, ap))]
        for ap in map(data.dual, range(data.size))
    ]
    for a, row in enumerate(gc._duality_residuals(data, bent)):
        for check_id, res in zip(gc._DUALITY_IDS, row):
            report.add(check_id, (a,), res)
    images = {}  # (operator, sense, a1, a2, a3, mu) -> image of a basis vertex
    for key in nonempty_fusing_words(data):
        res = braid_conjugation_defect(data, images, *key)
        report.add("fusing_braid_conjugation", key, res)
        res = bend_conjugation_defect(data, images, *key)
        report.add("fusing_bend_conjugation", key, res)
    report.wall_time = time.perf_counter() - t0
    return report
