"""Per-instance coherence routes, as oracles of the batched suites.

``fusion_data.pentagon_residuals`` and ``hexagon_residuals`` evaluate every
instance of a category at once, from joins over the F- and R-tables, and
``verify_coherence`` checks the F- and R-blocks stacked by shape.  The
routines here evaluate one instance, or one block, at a time:

* ``totals`` lists the totals a word reaches, label by label;
* ``f_right_basis`` and ``f_left_basis`` list the right and the left
  trees of a word (a, b, c) -> d as Python triples, walking the ring's
  channels; they are the F-table's row and column keys of the block;
* ``f_block``, ``r_block`` and their inverses assemble one block from the
  F and R entries as dicts (``conftest.entries``), entry by entry in the
  order of the tree bases, and invert it alone, with no
  ``table_arrays.Table`` involved;
* ``dense_pentagon_instance`` expands both pentagon routes over bases
  scanned label by label;
* ``hexagon_matrices`` builds the three braid matrices of one hexagon from
  the tree bases and those blocks, and ``hexagon_instance`` its residual;
* ``verify_coherence`` is the suite assembled from these routines and a
  loop over the blocks.

They compute the same floating-point operations in the same order, so the
batched suites must give the same records, bit for bit.
"""

from __future__ import annotations

import math
import weakref

import numpy as np

from mtcalc import fusion_data as fd
from mtcalc.report import Report

from conftest import channels, entries, fusion

_ENTRIES = weakref.WeakKeyDictionary()


def _tables(data):
    """``entries(data)``, formed once per category."""
    if data not in _ENTRIES:
        _ENTRIES[data] = entries(data)
    return _ENTRIES[data]


def totals(data, word) -> tuple:
    """Totals t with a nonzero hom(word, t), ascending; ``word`` nonempty."""
    states = {word[0]}
    for b in word[1:]:
        states = {c for a in states for c in channels(data.ring)[a, b]}
    return tuple(sorted(states))


def f_right_basis(data, a, b, c, d):
    """Right-tree triples (x, i, j) of the word (a,b,c) -> d: the rows
    of the F-block, in order."""
    n = fusion(data.ring).get
    return [
        (x, i, j) for x in channels(data.ring)[b, c]
        for i in range(n((a, x, d), 0)) for j in range(n((b, c, x)))
    ]


def f_left_basis(data, a, b, c, d):
    """Left-tree triples (y, k, l) of the word (a,b,c) -> d: the
    columns of the F-block, in order.  They are listed in tree order, by
    (y, l, k), l the vertex a (x) b -> y and k the vertex y (x) c -> d."""
    n = fusion(data.ring).get
    return [
        (y, k, l) for y in channels(data.ring)[a, b]
        for l in range(n((a, b, y))) for k in range(n((y, c, d), 0))
    ]


def f_block(data, a, b, c, d):
    """F-block (a, b, c, d) over ``f_right_basis`` x ``f_left_basis``; 0 x 0
    when the word (a, b, c) does not reach d."""
    right = f_right_basis(data, a, b, c, d)
    left = f_left_basis(data, a, b, c, d)
    mat = np.zeros((len(right), len(left)), dtype=complex)
    F = _tables(data)[0]
    for ri, (x, i, j) in enumerate(right):
        for li, (y, k, l) in enumerate(left):
            mat[ri, li] = F[(a, b, c, d, x, y, i, j, k, l)]
    return mat


def r_block(data, a, b, c):
    """R-block (a, b, c), N_ba^c x N_ab^c; 0 x 0 off the channels of (a, b)."""
    mat = np.zeros((data.n(b, a, c), data.n(a, b, c)), dtype=complex)
    R = _tables(data)[1]
    for i, j in np.ndindex(mat.shape):
        mat[i, j] = R[(a, b, c, i, j)]
    return mat


def _inverse(mat, name, key):
    """``np.linalg.inv`` of one block; an empty block inverts to its
    transpose, and a singular one raises CategoryDataError naming it."""
    if mat.size == 0:
        return mat.T.copy()
    try:
        return np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise fd.CategoryDataError(f"{name} block {key} is singular") from None


def f_block_inv(data, a, b, c, d):
    return _inverse(f_block(data, a, b, c, d), "F", (a, b, c, d))


def r_block_inv(data, a, b, c):
    """The negative braiding of (a, b, c): the inverse of R-block (b, a, c)."""
    return _inverse(r_block(data, b, a, c), "R", (b, a, c))


def dense_pentagon_residuals(data):
    """((a,b,c,d,total), residual) over every total a four-letter word
    reaches, found by trying all totals."""
    n = data.size
    rng5 = range(n)
    for a in rng5:
        for b in rng5:
            for c in rng5:
                for d in rng5:
                    for tot in rng5:
                        res = dense_pentagon_instance(data, a, b, c, d, tot)
                        if res is not None:
                            yield (a, b, c, d, tot), res


def dense_pentagon_instance(data, a, b, c, d, tot):
    """Residual of one pentagon, None when the word has no trees of charge
    ``tot``."""
    n = data.size
    rn = []  # right-nested source basis: (x, k, y, j, i)
    for x in range(n):
        for k in range(data.n(c, d, x)):
            for y in range(n):
                for j in range(data.n(b, x, y)):
                    for i in range(data.n(a, y, tot)):
                        rn.append((x, k, y, j, i))
    ln = []  # left-nested target basis: (u, q, v, s, r)
    for u in range(n):
        for q in range(data.n(a, b, u)):
            for v in range(n):
                for s in range(data.n(u, c, v)):
                    for r in range(data.n(v, d, tot)):
                        ln.append((u, q, v, s, r))
    if not rn or not ln:
        return None
    p1 = np.zeros((len(rn), len(ln)), dtype=complex)
    p2 = np.zeros_like(p1)
    F = _tables(data)[0]
    for si, (x, k, y, j, i) in enumerate(rn):
        for ti, (u, q, v, s, r) in enumerate(ln):
            acc1 = 0j
            for p in range(data.n(u, x, tot)):
                f1 = F.get((a, b, x, tot, y, u, i, j, p, q), 0)
                f2 = F.get((u, c, d, tot, x, v, p, k, r, s), 0)
                acc1 += f1 * f2
            p1[si, ti] = acc1
            acc2 = 0j
            for w in range(n):
                for t in range(data.n(w, d, y)):
                    for z in range(data.n(b, c, w)):
                        f3 = F.get((b, c, d, y, x, w, j, k, t, z), 0)
                        if f3 == 0:
                            continue
                        for g in range(data.n(a, w, v)):
                            f4 = F.get((a, w, d, tot, y, v, i, t, r, g), 0)
                            f5 = F.get((a, b, c, v, w, u, g, z, s, q), 0)
                            acc2 += f3 * f4 * f5
            p2[si, ti] = acc2
    return float(np.max(np.abs(p1 - p2))) if p1.size else None


def dense_hexagon_residuals(data):
    """((sense, a, b, c, total), residual) over every total a three-letter
    word reaches, found by trying all totals."""
    n = data.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for tot in range(n):
                    for sense in (+1, -1):
                        res = hexagon_instance(data, a, b, c, tot, sense)
                        if res is not None:
                            yield (("+" if sense > 0 else "-"), a, b, c, tot), res


def tree_basis3(data, w1, w2, w3, tot):
    """Left-nested trees (y, l, m) of the word (w1, w2, w3) with charge tot."""
    n = fusion(data.ring).get
    return [
        (y, l, m) for y in channels(data.ring)[w1, w2]
        for l in range(n((w1, w2, y))) for m in range(n((y, w3, tot), 0))
    ]


def hexagon_frame(data, a, b, c, tot):
    """What the hexagon at (a, b, c, tot) needs besides R-blocks, or None
    when the word has no trees of charge ``tot``.

    The frame holds the shapes and index lists of the braid (1,2) and the
    cluster braid, with the cluster's F-block entries, in the order the
    instance accumulates them.
    """
    src = tree_basis3(data, a, b, c, tot)
    mid = tree_basis3(data, b, a, c, tot)
    dst = tree_basis3(data, b, c, a, tot)
    if not (src and dst):
        return None
    # braid (1,2): src (y, l, m) -> mid (y, l2, m), entry R^{ab}_y[l2, l]
    b12 = [
        (y, [(mi, si, l2, l) for mi, (y2, l2, m2) in enumerate(mid)
             if y2 == y and m2 == m])
        for si, (y, l, m) in enumerate(src)
    ]
    # cluster braid: F(a, b, c), then R^{a x}_tot on the fused pair x
    fabc = f_block(data, a, b, c, tot)
    fr = f_right_basis(data, a, b, c, tot)
    cluster = [
        (di, x, [
            (app, alpha, fabc[ri, :])
            for ri, (x2, alpha, beta2) in enumerate(fr)
            if x2 == x and beta2 == beta
        ])
        for di, (x, beta, app) in enumerate(dst)
    ]
    return (len(src), len(mid), len(dst), b12, cluster)


def hexagon_matrices(data, a, b, c, tot, sense):
    """The braid (1,2) (mid x src), braid (2,3) (dst x mid) and cluster
    braid (dst x src) matrices of one hexagon, assembled from its frame and
    the R-blocks of the sense; None when the word has no trees of charge
    ``tot``.  A singular block the sense inverts raises CategoryDataError."""
    rblock = r_block if sense > 0 else r_block_inv
    frame = hexagon_frame(data, a, b, c, tot)
    if frame is None:
        return None
    n_src, n_mid, n_dst, b12_walk, cluster_walk = frame
    r12 = [rblock(data, a, b, y) for y, _ in b12_walk]
    r_cluster = [rblock(data, a, x, tot) for _, x, _ in cluster_walk]

    # one-at-a-time route: braid (1,2) then (2,3)
    b12 = np.zeros((n_mid, n_src), dtype=complex)
    for rm, (_, hits) in zip(r12, b12_walk):
        for mi, si, l2, l in hits:
            b12[mi, si] = rm[l2, l]
    # braid (a, c) above b, as graphcalc.braid_morphism forms it: the
    # R-blocks of the channels z of (a, c) between F(b, a, c) and F(b, c, a)^-1
    dst_rows = {tree: r for r, tree in enumerate(f_right_basis(data, b, c, a, tot))}
    mid_rows = f_right_basis(data, b, a, c, tot)
    rmat = np.zeros((len(dst_rows), len(mid_rows)), dtype=complex)
    for r, (z, i, j) in enumerate(mid_rows):
        rz = rblock(data, a, c, z)
        for j2 in range(rz.shape[0]):
            rmat[dst_rows[(z, i, j2)], r] = rz[j2, j]
    b23 = f_block_inv(data, b, c, a, tot) @ rmat @ f_block(data, b, a, c, tot)

    # cluster route: braid a past the fused pair (b, c) in one move
    cluster = np.zeros((n_dst, n_src), dtype=complex)
    for rx, (di, _, hits) in zip(r_cluster, cluster_walk):
        for app, alpha, row in hits:
            cluster[di, :] += rx[app, alpha] * row
    return b12, b23, cluster


def hexagon_instance(data, a, b, c, tot, sense):
    """Residual of one hexagon, None when the word has no trees of charge
    ``tot``, and inf when a block it inverts is singular."""
    try:
        mats = hexagon_matrices(data, a, b, c, tot, sense)
    except fd.CategoryDataError:  # a singular F- or R-block has no inverse
        return math.inf
    if mats is None:
        return None
    b12, b23, cluster = mats
    route = b23 @ b12
    return float(np.max(np.abs(cluster - route)))


def verify_coherence(data, tol: float = fd.DEFAULT_TOL) -> Report:
    """The coherence suite from the per-instance routes and a loop over the
    blocks; the same records as ``fusion_data.verify_coherence``."""
    report = Report(suite="verify-category", tol=tol)
    n = data.size
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in range(n):
                    for tot in totals(data, (a, b, c, d)):
                        res = dense_pentagon_instance(data, a, b, c, d, tot)
                        report.add("pentagon", (a, b, c, d, tot), res)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for tot in totals(data, (a, b, c)):
                    for sense in (+1, -1):
                        res = hexagon_instance(data, a, b, c, tot, sense)
                        report.add("hexagon", ("+-"[sense < 0], a, b, c, tot), res)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                for d in totals(data, (a, b, c)):
                    fmat = f_block(data, a, b, c, d)
                    if fmat.shape[0] != fmat.shape[1]:
                        continue
                    try:
                        inv = f_block_inv(data, a, b, c, d)
                        res = float(
                            np.max(np.abs(fmat @ inv - np.eye(len(fmat))))
                        )
                    except fd.CategoryDataError:  # singular
                        res = 1.0
                    report.add("f_invertible", (a, b, c, d), res)
                    gram = fmat @ fmat.conj().T - np.eye(fmat.shape[0])
                    report.add(
                        "f_unitary", (a, b, c, d), float(np.max(np.abs(gram)))
                    )
                if c in channels(data.ring)[a, b]:
                    unitary = r_block(data, a, b, c)
                    gram = unitary @ unitary.conj().T - np.eye(unitary.shape[0])
                    report.add(
                        "r_unitary", (a, b, c), float(np.max(np.abs(gram)))
                    )
    # the scalar checks after the blocks are the suite's own
    for r in fd.verify_coherence(data, tol).records:
        if r.id.startswith(("twist_", "qdim_")):
            report.add(r.id, r.instance, r.residual)
    return report
