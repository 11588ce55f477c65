"""The F- and R-tables as index arrays, and the coherence identities
evaluated over them for a whole category at once.

``fusion_data`` and ``graphcalc`` keep the category model and the suites;
this module holds the block store and what the batched suites compute
with:

* ``Trees``: the fusion trees of words into charges, in the one tree order;
* ``Table``: the one store of the F- or R-blocks; one row per table
  entry, with its block and its row and column in the block, which define
  the block layout, and the blocks and their inverses stacked by shape;
* ``pentagon_batch`` and ``hexagon_batch``: the residual of every pentagon
  and hexagon instance of a category;
* ``_braid_blocks``: the one batched braid, the local block of a braid of
  two letters as ``graphcalc.braid_morphism`` forms it, which the hexagon's
  braid (2,3) and ``bending``'s basis images read;
* ``unitarity``: the unitarity defect of each matrix of a stack;
* ``FusingWords``: the fusing matrices of every fusing word in the
  swapped and the bent vertex bases, and their conjugation residuals.

Labels and multiplicity indices are packed into int64 keys (mixed radix,
so keys sort as the tuples do), and the terms of an identity are found by
joining keys.  The results are those of the per-instance routes
(``tests/coherence_oracle.py``, ``tests/fusing_oracle.py``) bit for bit:
sums run in the order of their loops (``np.bincount`` adds in input
order), a product of two Python complex numbers is formed from real and
imaginary parts as CPython forms it (numpy's complex multiply rounds many
products differently), and stacked ``np.linalg.inv`` and ``@`` compute
each matrix as the unstacked calls do.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Trees", "Table", "pentagon_batch", "hexagon_batch", "unitarity", "IMAGE_KINDS",
    "FusingWords",
]

_EMPTY = np.zeros((0, 0), dtype=complex)
_EMPTY.setflags(write=False)


def _pack(cols, dims) -> np.ndarray:
    """One int64 key per row of the integer columns ``cols`` with radices
    ``dims``; ValueError for a digit out of range or keys beyond int64."""
    return np.ravel_multi_index(tuple(cols), tuple(dims))


def _join(left, right):
    """All index pairs (i, j) with ``left[i] == right[j]``, ordered by i,
    then by j."""
    order = np.argsort(right, kind="stable")
    ordered = right[order]
    lo = np.searchsorted(ordered, left, "left")
    counts = np.searchsorted(ordered, left, "right") - lo
    i = np.repeat(np.arange(len(left)), counts)
    shift = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return i, order[np.arange(len(i)) + shift]


def _cmul(ar, ai, br, bi):
    """Real and imaginary parts of (ar + i ai)(br + i bi), rounded as CPython
    rounds a complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def _distinct(keys) -> np.ndarray:
    """The distinct values of ``keys``, ascending.  (``np.unique`` would do,
    but its first call imports ``numpy.ma``, half a megabyte.)"""
    keys = np.sort(keys, kind="stable")  # the kind the joins' argsort uses
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _ranks(block, cols, radix):
    """Each entry's place among the distinct ``cols`` of its block, in
    lexicographic order; also the distinct (block, *cols) keys, packed with
    ``radix``, and where each block starts among them."""
    key = _pack((block, *cols), radix)
    distinct = _distinct(key)
    starts = np.searchsorted(distinct, np.arange(radix[0] + 1) * math.prod(radix[1:]))
    return np.searchsorted(distinct, key) - starts[block], distinct, starts


class Trees:
    """The fusion trees of words into charges, as arrays.

    A tree of the word (w_0, ..., w_k) into d fuses the letters from the
    left: after letter i >= 1 it is in the state s_i, a channel of
    (s_(i-1), w_i) (s_0 = w_0, s_k = d), through that channel's vertex
    mu_i.  A word's trees are ordered by (s_1, mu_1, ..., s_k, mu_k),
    lexicographically: the one order of every tree basis.

    Built for each row of the int array ``words`` and its entry of
    ``charges``, over ``ring.chain_steps`` (``steps``): per tree, ``word``
    (its row; ascending), ``states`` and ``mults`` (one array per letter
    after the first); per word, ``size`` and ``start`` (its number of trees
    and its first); and the trees' packed ``keys``, sorted, for ``place``.
    """

    def __init__(self, ring, words, charges):
        x, mult, first = ring.chain_steps
        n, m = ring.size, int(mult.max()) + 1
        g, states, mults = np.arange(len(words)), [words[:, 0]], []
        for letter in words.T[1:]:
            at = states[-1] * n + letter[g]
            it, k = _copies(np.arange(len(g)), first[at + 1] - first[at])
            step = first[at[it]] + k
            g = g[it]
            states = [s[it] for s in states] + [x[step]]
            mults = [s[it] for s in mults] + [mult[step]]
        keep = states[-1] == charges[g]
        self.word = g[keep]
        self.states = [s[keep] for s in states[1:]]
        self.mults = [s[keep] for s in mults]
        self.size = np.bincount(self.word, minlength=len(words))
        self.start = np.cumsum(self.size) - self.size
        self.radix = (len(words),) + (n, m) * len(self.states)
        self.keys = self._key(self.word, self.states, self.mults)

    @staticmethod
    def steps(N) -> tuple:
        """The chain steps of the ring of the dense N: each channel (a, b)
        -> x once per vertex, by (a, b), x and vertex, as its x and vertex,
        and the first step of each (a, b) at a * n + b (the end at n * n)."""
        n = len(N)
        a, b, x = np.nonzero(N)
        step, mult = _copies(np.arange(len(a)), N[a, b, x])
        return x[step], mult, np.searchsorted((a * n + b)[step], np.arange(n * n + 1))

    def place(self, g, states, mults) -> np.ndarray:
        """The place of each given tree of word ``g`` among its trees."""
        return np.searchsorted(self.keys, self._key(g, states, mults)) - self.start[g]

    def _key(self, g, states, mults) -> np.ndarray:
        return _pack([g, *(col for pair in zip(states, mults) for col in pair)], self.radix)


class Table:
    """An F- or R-table as arrays; the only store of its entries and blocks.

    ``cols`` holds the key columns of all entries, which ``CategoryData``
    checks and keeps no other copy of, and ``vals`` their values.
    A block is the set of entries that share their first ``width`` columns,
    its labels; blocks are numbered in the lexicographic order of their
    labels.  The rows of a block are the distinct values of the columns
    ``row_cols`` among its entries, in lexicographic order, and its columns
    those of ``col_cols``: for F(a,b,c,d) the right trees (x, i, j) and the
    left trees (y, l, k), which are the word's trees in tree order, for
    R(a,b,c) the indices i and j.  ``row`` and ``col`` place each entry in
    its block, ``row_keys`` and ``col_keys`` are the sorted (block, row)
    and (block, column) keys, with radices ``row_radix`` and
    ``col_radix``, and ``stacks`` holds the blocks stacked by shape, as
    (block numbers, read-only matrices).
    """

    def __init__(self, cols, vals, dims: tuple, width: int, row_cols, col_cols):
        # the narrowest integer type holding every digit keeps the gathered
        # index columns small
        self.cols = cols.astype(np.min_scalar_type(max(dims) - 1))
        self.vals = vals
        self.dims = dims
        block = _pack(self.cols[:width], dims[:width])
        self.blocks = _distinct(block)
        self.block = np.searchsorted(self.blocks, block)
        self.labels = np.unravel_index(self.blocks, dims[:width])
        nb = len(self.blocks)
        self.row_radix = (nb, *(dims[c] for c in row_cols))
        self.col_radix = (nb, *(dims[c] for c in col_cols))
        self.row, self.row_keys, self.row_starts = _ranks(
            self.block, self.cols[row_cols], self.row_radix
        )
        self.col, self.col_keys, self.col_starts = _ranks(
            self.block, self.cols[col_cols], self.col_radix
        )
        self.nrows = np.diff(self.row_starts)
        self.ncols = np.diff(self.col_starts)
        shape = self.nrows * (self.ncols.max(initial=0) + 1) + self.ncols
        shapes = _distinct(shape)
        stack = np.searchsorted(shapes, shape)
        entry_stack = stack[self.block]
        slot = np.empty(nb, dtype=np.intp)
        self.stacks = []
        for k in range(len(shapes)):
            members = np.flatnonzero(stack == k)
            slot[members] = np.arange(len(members))
            sel = entry_stack == k
            mats = np.zeros(
                (len(members), self.nrows[members[0]], self.ncols[members[0]]),
                dtype=complex,
            )
            mats[slot[self.block[sel]], self.row[sel], self.col[sel]] = self.vals[sel]
            mats.setflags(write=False)
            self.stacks.append((members, mats))
        # the stack and the place in it of each block, and each block's
        # number by label tuple (-1 where the table holds no entry)
        self.stack_of, self.slot_of = stack, slot
        self._number = np.full(dims[:width], -1)
        self._number.flat[self.blocks] = np.arange(nb)
        self._inverses = None

    def matrix(self, labels: tuple, inverse: bool = False) -> np.ndarray:
        """The block ``labels``, or its inverse, read-only; 0 x 0 when the
        table holds no entry of it.  The inverse of a singular block raises
        ``np.linalg.LinAlgError``."""
        g = self._number[labels]
        if g < 0:
            return _EMPTY
        k, g = self.stack_of[g], self.slot_of[g]
        if not inverse:
            return self.stacks[k][1][g]
        inv, singular = self.inverses()[k]
        if singular[g]:
            raise np.linalg.LinAlgError(f"block {labels} is singular")
        return inv[g]

    def block_of(self, *labels) -> np.ndarray:
        """Numbers of the blocks with the given labels; each must exist."""
        return self._number[labels]

    def per_block(self, fn) -> np.ndarray:
        """``fn(matrices)`` over every stack, one value per block."""
        out = np.empty(len(self.blocks))
        for members, mats in self.stacks:
            out[members] = fn(mats)
        return out

    def inverses(self) -> list:
        """Per stack, the inverse matrices and the mask of the singular
        blocks (whose inverse is left zero); computed once."""
        if self._inverses is None:
            self._inverses = [_stack_inverse(mats) for _, mats in self.stacks]
            for inv, _ in self._inverses:
                inv.setflags(write=False)
        return self._inverses

    def singular(self) -> np.ndarray:
        """Per block, whether it is singular."""
        out = np.zeros(len(self.blocks), dtype=bool)
        for (members, _), (_, bad) in zip(self.stacks, self.inverses()):
            out[members] = bad
        return out

    def entries(self, block, row, col, inverse=False) -> np.ndarray:
        """Entry (row, col) of each block numbered in ``block``, or of its
        inverse, whose rows are the block's columns (0 for a singular one)."""
        out = np.empty(len(block), dtype=complex)
        stack = self.stack_of[block]
        for k, (_, mats) in enumerate(self.stacks):
            sel = stack == k
            mats = self.inverses()[k][0] if inverse else mats
            out[sel] = mats[self.slot_of[block[sel]], row[sel], col[sel]]
        return out


def _stack_inverse(mats):
    """Inverses of a stack of blocks and the mask of the singular ones, whose
    inverse is left zero.  ``np.linalg.inv`` inverts each matrix of a stack
    as it inverts the matrix alone, but it raises for the whole stack when
    one is singular; the blocks are then inverted one by one to tell which."""
    singular = np.zeros(len(mats), dtype=bool)
    try:
        return np.linalg.inv(mats), singular
    except np.linalg.LinAlgError:
        inv = np.zeros_like(mats)
    for g, mat in enumerate(mats):
        try:
            inv[g] = np.linalg.inv(mat)
        except np.linalg.LinAlgError:
            singular[g] = True
    return inv, singular


def pentagon_batch(F: Table):
    """The pentagon instances of the F-table ``F`` in lexicographic order,
    as label tuples, and their residuals.

    Entry ((x,k,y,j,i), (u,q,v,s,r)) of instance (a,b,c,d,t) has the routes
      p1 = sum_p F(a,b,x,t; y,u; i,j,p,q) F(u,c,d,t; x,v; p,k,r,s)
      p2 = sum_(w,t',z,g) F(b,c,d,y; x,w; j,k,t',z) F(a,w,d,t; y,v; i,t',r,g)
                          F(a,b,c,v; w,u; g,z,s,q)
    summed in that index order, the p2 terms with a zero first factor left
    out.  Each term comes from joining table entries on their shared
    indices; every reachable instance has a p1 term.
    """
    n, m = F.dims[0], F.dims[-1]

    def key(cols, radix):
        return _pack(cols, [n if ch == "n" else m for ch in radix])

    # each term as (instance + right tree, left tree, place in its sum, value)
    p1 = _pentagon_p1(F, key)
    n1 = len(p1[0])
    right, left, place, re, im = (
        np.concatenate(pair) for pair in zip(p1, _pentagon_p2(F, key))
    )
    del p1  # the terms are large; keep one copy of them alive
    order = np.lexsort((place, left, right))
    right, left = right[order], left[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (right[1:] != right[:-1]) | (left[1:] != left[:-1])
    entry = np.cumsum(new) - 1
    n_entries = int(entry[-1]) + 1
    first = order < n1
    diff = np.empty(n_entries, dtype=complex)
    for part, w in ((diff.real, re[order]), (diff.imag, im[order])):
        part[:] = (
            np.bincount(entry[first], w[first], n_entries)
            - np.bincount(entry[~first], w[~first], n_entries)
        )
    inst = right[new] // (n * m * n * m * m)
    starts = np.flatnonzero(np.concatenate(([True], inst[1:] != inst[:-1])))
    res = np.maximum.reduceat(np.abs(diff), starts)
    labels = np.unravel_index(inst[starts], (n,) * 5)
    return list(zip(*(col.tolist() for col in labels))), res.tolist()


def _pentagon_p1(F, key):
    """The p1 terms: F(a,b,x,t; y,u; i,j,p,q) joined with F(u,c,d,t; x,v;
    p,k,r,s) on (x, t, u, p)."""
    A, B, C, D, X, Y, I, J, K, L = F.cols
    re, im = F.vals.real, F.vals.imag
    f1, f2 = _join(key((C, D, Y, K), "nnnm"), key((X, D, A, I), "nnnm"))
    right = (A[f1], B[f1], B[f2], C[f2], D[f1], C[f1], J[f2], X[f1], J[f1], I[f1])
    left = (Y[f1], L[f1], Y[f2], L[f2], K[f2])
    return (
        key(right, "nnnnnnmnmm"), key(left, "nmnmm"), K[f1].astype(np.int64),
        *_cmul(re[f1], im[f1], re[f2], im[f2]),
    )


def _pentagon_p2(F, key):
    """The p2 terms: F(b,c,d,y; x,w; j,k,t',z), when not zero, joined with
    F(a,w,d,t; y,v; i,t',r,g) on (w, d, y, t'), then with F(a,b,c,v; w,u;
    g,z,s,q) on (a, b, c, v, w, g, z)."""
    A, B, C, D, X, Y, I, J, K, L = F.cols
    re, im = F.vals.real, F.vals.imag
    nz = np.flatnonzero((re != 0) | (im != 0))
    f3, f4 = _join(key((Y[nz], C[nz], D[nz], K[nz]), "nnnm"), key((B, C, X, J), "nnnm"))
    f3 = nz[f3]
    t, f5 = _join(
        key((A[f4], A[f3], B[f3], Y[f4], Y[f3], L[f4], L[f3]), "nnnnnmm"),
        key((A, B, C, D, X, I, J), "nnnnnmm"),
    )
    f3, f4 = f3[t], f4[t]
    right = (A[f4], A[f3], B[f3], C[f3], D[f4], X[f3], J[f3], D[f3], I[f3], I[f4])
    left = (Y[f5], L[f5], Y[f4], K[f5], K[f4])
    return (
        key(right, "nnnnnnmnmm"), key(left, "nmnmm"),
        key((Y[f3], K[f3], L[f3], L[f4]), "nmmm"),
        *_cmul(*_cmul(re[f3], im[f3], re[f4], im[f4]), re[f5], im[f5]),
    )


def hexagon_batch(F: Table, R: Table, N):
    """The hexagon instances (a, b, c, total) of the F- and R-tables in
    lexicographic order and the residuals of the positive and the negative
    sense; ``N`` is the dense fusion array.

    Instance g is the F-block (a,b,c,t).  Its matrices are indexed by the
    trees (y, l, m) of a word, which are the columns of its F-block (l
    indexes the vertex of its first two letters); every word of the
    instance has the same number of trees:
    * braid (1,2), mid x src: R(a,b,y)[l2, l] from src (y, l, m) of (a,b,c)
      to mid (y, l2, m) of (b,a,c);
    * braid (2,3), dst x mid: the local braid of the letters (a, c) above b
      at charge t, ``_braid_blocks`` at the quad (b, a, c, t);
    * cluster braid, dst x src: row di = (x, beta, app) of (b,c,a) sums
      R(a,x,t)[app, alpha] * F(a,b,c,t)[(x, alpha, beta), :] over alpha.
    The negative sense reads the inverse of R(b,a,y), R(c,a,z) and R(x,a,t)
    instead.  The residual is the largest entry of cluster - (braid 2,3) @
    (braid 1,2), stacked by size; it is inf when a block the sense inverts
    is singular.  The braid terms are numpy complex products, as in the
    matrix route.
    """
    n, m = F.dims[0], F.dims[-1]
    ba, bb, bc, bd = F.labels
    nb = len(F.blocks)
    size = F.ncols
    mid = F.block_of(bb, ba, bc, bd)
    swap = R.block_of(R.labels[1], R.labels[0], R.labels[2])  # R(b,a,c) of R(a,b,c)
    r_singular = R.singular()
    bad = np.zeros(nb, dtype=bool)  # the instances whose negative sense fails

    def r_values(g, block, row, col):
        """Entry (row, col) of each R-block ``block`` for each sense: of the
        block, and of the inverse of its swapped block, whose instance ``g``
        is bad where that is singular."""
        neg = swap[block]
        bad[g[r_singular[neg]]] = True
        return R.entries(block, row, col), R.entries(neg, row, col, inverse=True)

    cb, cy, cl, ck = np.unravel_index(F.col_keys, F.col_radix)  # F's columns (y, l, k)
    place = np.arange(len(cb)) - F.col_starts[cb]  # each column's place in its block
    X, I, J = F.cols[4], F.cols[6], F.cols[7]  # row tree (x, i, j) of an entry

    # braid (1,2): every column of block g is a src tree of instance g
    s, t = _join(_pack((mid[cb], cy, ck), (nb, n, m)), _pack((cb, cy, ck), (nb, n, m)))
    g12, row12, col12 = cb[s], place[t], place[s]
    r12 = r_values(g12, R.block_of(ba[g12], bb[g12], cy[s]), cl[t], cl[s])

    # cluster braid: every column of block (b,c,a,t) is a dst tree of (a,b,c,t)
    g_dst = F.block_of(bc[cb], ba[cb], bb[cb], bd[cb])
    s, e = _join(_pack((g_dst, cy, cl), (nb, n, m)), _pack((F.block, X, J), (nb, n, m)))
    gcl = g_dst[s]
    rcl = r_values(gcl, R.block_of(ba[gcl], cy[s], bd[gcl]), ck[s], I[e])
    atcl = place[s] * size[gcl] + F.col[e]
    bycl = np.argsort(F.row[e], kind="stable")
    fcl = F.vals[e]

    # braid (2,3): the local braids at (b, a, c, t), positive then negative
    plus = np.arange(2 * nb) < nb
    b23, b23_start, _, _, dst, (owner, inverted) = _braid_blocks(
        F, R, N, np.concatenate([(bb, ba, bc, bd)] * 2, axis=1), plus
    )
    bad[owner[r_singular[inverted]] - nb] = True

    out = []
    for sense in (0, 1):
        b12, start = _flat_blocks(size, size, g12, row12, col12, r12[sense])
        cluster = _summed(start[gcl] + atcl, rcl[sense] * fcl, bycl, len(b12))
        res = np.empty(nb)
        for k in _distinct(size).tolist():
            gs = np.flatnonzero(size == k)
            route = _gather(b23, b23_start, gs + sense * nb, k, k) @ _gather(b12, start, gs, k, k)
            res[gs] = np.max(np.abs(_gather(cluster, start, gs, k, k) - route), axis=(1, 2))
        res[F.singular()[dst[:nb]]] = math.inf
        out.append(res)
    out[1][bad] = math.inf
    keys = list(zip(*(lab.tolist() for lab in F.labels)))
    return keys, out[0].tolist(), out[1].tolist()


def _braid_blocks(F: Table, R: Table, N, quads, plus):
    """The local block of the braid of the letters (u, v) above p with
    charge q, for each (p, u, v, q) of ``quads``, in the positive sense
    where ``plus``, as ``graphcalc.braid_morphism`` forms it: F(p, v, u,
    q)^-1, times the R-blocks (or the inverse R-blocks) of the channels x
    of (u, v) on the rows (x, i, j) of F(p, u, v, q), times F(p, u, v, q);
    F's columns (y, l, k) are the trees of (p, u, v) -> q in tree order.
    A singular block reads its stored inverse, zero.

    Returns the blocks flat and row-major, the start and size of each, the
    F-blocks (p, u, v, q) and (p, v, u, q), and (quad, R-block) of each
    inverse R-block read, in order.
    """
    p, u, v, q = quads
    blk, sw = F.block_of(p, u, v, q), F.block_of(p, v, u, q)
    size = F.ncols[blk]
    # row r = (x, i, j) of F(p, u, v, q) is column r of the R part, whose
    # row (x, i, j2) sits at r - j + j2 in F(p, v, u, q) as well
    it, r = _copies(np.arange(len(blk)), size)
    _, x, _, j = np.unravel_index(F.row_keys[F.row_starts[blk[it]] + r], F.row_radix)
    k, j2 = _copies(np.arange(len(it)), N[u[it], v[it], x])
    it, r, x, j = it[k], r[k], x[k], j[k]
    pos, neg = plus[it], ~plus[it]
    # the positive sense reads R(u, v, x), the negative one inverts R(v, u, x)
    rblk = R.block_of(np.where(pos, u[it], v[it]), np.where(pos, v[it], u[it]), x)
    val = np.empty(len(it), dtype=complex)
    val[pos] = R.entries(rblk[pos], j2[pos], j[pos])
    val[neg] = R.entries(rblk[neg], j2[neg], j[neg], inverse=True)
    rmat, start = _flat_blocks(size, size, it, r - j + j2, r, val)
    out = np.empty_like(rmat)
    for t in _distinct(size).tolist():
        sel = np.flatnonzero(size == t)
        k = F.stack_of[blk[sel[0]]]
        f = F.stacks[k][1][F.slot_of[blk[sel]]]
        finv = F.inverses()[k][0][F.slot_of[sw[sel]]]
        local = (finv @ _gather(rmat, start, sel, t, t)) @ f
        out[start[sel][:, None] + np.arange(t * t)] = local.reshape(len(sel), -1)
    return out, start, size, blk, sw, (it[neg], rblk[neg])


def _flat_blocks(rows, cols, owner, row, col, values):
    """One rows x cols block per owner, flat and row-major, holding
    ``values`` at (owner, row, col) and zero elsewhere, and the start of
    each block."""
    size = rows * cols
    start = np.cumsum(size) - size
    out = np.zeros(size.sum(), dtype=complex)
    out[start[owner] + row * cols[owner] + col] = values
    return out, start


def _gather(flat, start, owners, rows, cols) -> np.ndarray:
    """The rows x cols blocks of ``owners`` out of ``flat``, stacked."""
    return flat[start[owners][:, None] + np.arange(rows * cols)].reshape(-1, rows, cols)


def _summed(at, terms, order, size) -> np.ndarray:
    """Complex sums of ``terms`` into the slots ``at``, each slot adding its
    terms in the order ``order`` puts them."""
    out = np.empty(size, dtype=complex)
    at = at[order]
    out.real = np.bincount(at, terms.real[order], size)
    out.imag = np.bincount(at, terms.imag[order], size)
    return out


def unitarity(mats) -> np.ndarray:
    """Largest entry of M M^dagger - 1 for each matrix M of a stack."""
    gram = mats @ mats.conj().transpose(0, 2, 1) - np.eye(mats.shape[1])
    return np.max(np.abs(gram), axis=(1, 2))


# the moves of a basis vertex; the family (kind, a, b, c) is the images of
# the basis vertices of hom(a b, c) under one of them (``bending``)
IMAGE_KINDS = ("swap+", "swap-", "bend+", "bend-")


class FusingWords:
    """The fusing words of an F-table and their fusing matrices in the
    swapped and the bent vertex bases.

    The words (a1, a2, a3, a4) are the F-blocks, in block order; ``keys``
    lists them.  Each is read by two routes as a word (w0, w1, w2) -> d:
    ``braid`` reads (a3, a2, a1) -> a4 in the bases swapped in the
    positive sense from those of (a1, a2, a3) -> a4; ``bend`` reads
    (a2, a1, a4') -> a3' with the right-tree vertices and the outer
    left-tree vertex bent, and the inner left-tree vertex swapped in the
    negative sense.  A basis is the family of images of the basis
    vertices of one hom(a b, c) under one move of ``IMAGE_KINDS``;
    ``families`` lists those the words read, as (kind, a, b, c) in
    lexicographic order (kind by its place in ``IMAGE_KINDS``).

    ``matrices`` forms each route's fusing matrix U V^-1 of every word:
    the right trees (x, i, j) of (w0, w1, w2) -> d in the new bases over
    the left ones, both as rows on its fusion trees ((y, mu), (d, nu)).
    A row of U is the local block of outer image i above the unit times
    that of inner image j above w0, read off the F-block of the word; a
    row of V is zero off the trees through y, where it holds outer entry
    nu times inner entry mu.  Rows on F's row side (braid lefts, bend
    rights) index the outer image first, as F's rows (x, i, j) do; rows on
    its column side (braid rights, bend lefts) the inner one, as F's
    columns (y, l, k) do.  Every product, sum and inverse is formed as the
    per-word route (``tests/fusing_oracle.py``) forms it: stacked ``@``
    and ``np.linalg.inv`` on matrices laid out as its matrices are, and
    the entries of V as Python complex products.  A singular matrix raises
    ``np.linalg.LinAlgError`` naming its word.

    The braid matrix has the rows (y, l, k) and the columns (x, i, j) of
    F(a1, a2, a3, a4) transposed, so ``residuals`` compares its inverse
    with F; the bend matrix has F's columns and the rows (x', j, i),
    which it puts in F's row order (x, i, j) first.
    """

    def __init__(self, F: Table, ring):
        n, m = F.dims[0], F.dims[-1]
        N, dual = ring.array, np.asarray(ring.dual)
        a1, a2, a3, a4 = F.labels
        self.F = F
        self.keys = list(zip(*(lab.tolist() for lab in F.labels)))
        # the channels x of each block's rows (x, i, j) and y of its columns (y, l, k)
        x_of, y_of = F.row_keys // (m * m), F.col_keys // (m * m)
        xg, x = np.divmod(_distinct(x_of), n)
        yg, y = np.divmod(_distinct(y_of), n)
        x1, x2, x3, x4 = (lab[xg] for lab in F.labels)
        y1, y2, y3, y4 = (lab[yg] for lab in F.labels)

        # a route's rows by channel: word, outer and inner family, their
        # sizes, the channel's first row ("x") or column ("y") in the layout
        # of ``block``, and the steps of the outer and the inner index there
        def channels(g, families, block, channel, side):
            of, starts = (x_of, F.row_starts) if side == "x" else (y_of, F.col_starts)
            first = np.searchsorted(of, block * n + channel) - starts[block]
            n_out, n_in = (N.ravel()[f % N.size] for f in families)
            one = np.ones_like(n_out)
            steps = (n_in, one) if side == "x" else (one, n_out)
            return g, *families, n_out, n_in, first, *steps

        def family(kind, a, b, c):
            return _pack((IMAGE_KINDS.index(kind), a, b, c), (len(IMAGE_KINDS), n, n, n))

        # per route and side, the outer and the inner family of each channel
        braid_x = family("swap+", x1, x, x4), family("swap+", x2, x3, x)
        braid_y = family("swap+", y, y3, y4), family("swap+", y1, y2, y)
        bend_x = family("bend+", x2, x3, x), family("bend+", x1, x, x4)
        bend_y = family("bend+", y, y3, y4), family("swap-", y1, y2, y)

        wanted = _distinct(np.concatenate(braid_x + braid_y + bend_x + bend_y))
        self.families = [
            (IMAGE_KINDS[kind], a, b, c) for kind, a, b, c in zip(*(
                lab.tolist() for lab in np.unravel_index(wanted, (len(IMAGE_KINDS), n, n, n))
            ))
        ]
        sizes = N.ravel()[wanted % N.size]
        self._base = np.zeros(len(IMAGE_KINDS) * N.size, dtype=np.intp)
        self._base[wanted] = np.cumsum(sizes) - sizes

        # each route's rows are laid out as an F-block's rows or columns:
        # the braid's rights (y, i, j) as its word's columns (y, l, k) =
        # (y, j, i) and its lefts as its word's rows, the bend's rights
        # (x', j, i) as the rows of (a2, a1, a4', a3') and its lefts as its
        # word's columns
        bend_read = F.block_of(a2, a1, dual[a4], dual[a3])
        bend_rights = channels(xg, bend_x, bend_read[xg], dual[x], "x")
        self._routes = {
            "braid": (F.block_of(a3, a2, a1, a4), channels(yg, braid_y, yg, y, "y"),
                      channels(xg, braid_x, xg, x, "x")),
            "bend": (bend_read, bend_rights, channels(yg, bend_y, yg, y, "y")),
        }
        # the bend matrix's row (x', j, i) of each row (x, i, j) of F
        rb, rx, ri, rj = np.unravel_index(F.row_keys, F.row_radix)
        q = np.searchsorted(xg * n + x, rb * n + rx)
        _, _, _, _, _, off, s_out, s_in = bend_rights
        self._bend_rows = off[q] + rj * s_out[q] + ri * s_in[q]

        self._stack, self._slot = F.stack_of, F.slot_of

    def matrices(self, images) -> dict:
        """Per route, per stack of ``F.stacks``, the fusing matrices U V^-1
        of its words.  ``images`` is ``basis_images`` of ``families``: the
        weights of the images and their rows."""
        weights, rows = images
        out = {}
        for route, (read, rights, lefts) in self._routes.items():
            out[route] = []
            for k, (members, mats) in enumerate(self.F.stacks):
                shape = (len(members),) + mats.shape[1:]
                u = self._rights(k, shape, weights, rows, read, rights)
                v = self._lefts(k, shape, rows, lefts)
                v_inv = self._inverse(v, members, f"{route} left-basis matrix")
                out[route].append(u @ v_inv)
        return out

    def _rights(self, k, shape, weights, rows, read, items):
        """U of the words of stack k: row (x, i, j) is the outer image i's
        row times the inner image j's local block above w0, which is its
        weights on the channel x times the F-block ``read`` of the word."""
        g, outer, inner, n_out, n_in, off, s_out, s_in = items
        u = np.zeros(shape, dtype=complex)
        ours = self._stack[g] == k
        for n_o in _distinct(n_out[ours]).tolist():
            # one local block per (channel, j), of n_o rows nu: the weights
            # mu of image j sit in the F-row (x, nu, mu)
            it, j = _copies(np.flatnonzero(ours & (n_out == n_o)), n_in)
            ni = n_in[it]
            w = np.zeros((len(it), n_o, shape[1]), dtype=complex)
            b, at = _copies(np.arange(len(it)), n_o * ni)
            nu, mu = np.divmod(at, ni[b])
            w[b, nu, off[it[b]] + nu * ni[b] + mu] = (
                weights[self._base[inner[it[b]]] + j[b], mu]
            )
            local = w @ self.F.stacks[k][1][self._slot[read[g[it]]]]
            b, i = _copies(np.arange(len(it)), np.full(len(it), n_o))
            outer_rows = rows[self._base[outer[it[b]]] + i, :n_o].reshape(-1, 1, n_o)
            ch = it[b]
            u[self._slot[g[ch]], off[ch] + i * s_out[ch] + j[b] * s_in[ch]] = (
                (outer_rows @ local[b])[:, 0]
            )
        return u

    def _lefts(self, k, shape, rows, items):
        """V of the words of stack k: row (y, i, j) holds the outer image
        i's entry nu times the inner image j's entry mu at tree ((y, mu),
        (d, nu)).  A word's channels y are those of its trees, in order,
        so V is block diagonal."""
        g, outer, inner, n_out, n_in, off, s_out, s_in = items
        v = np.zeros(shape, dtype=complex)
        it = np.flatnonzero(self._stack[g] == k)
        it, at = _copies(it, (n_out * n_in) ** 2)
        row, col = np.divmod(at, n_out[it] * n_in[it])
        i, j = np.divmod(row, n_in[it])
        mu, nu = np.divmod(col, n_out[it])
        a = rows[self._base[outer[it]] + i, nu]
        b = rows[self._base[inner[it]] + j, mu]
        where = (self._slot[g[it]], off[it] + i * s_out[it] + j * s_in[it], off[it] + col)
        v.real[where], v.imag[where] = _cmul(a.real, a.imag, b.real, b.imag)
        return v

    def _inverse(self, mats, members, what):
        """Inverses of a stack of the matrices ``what`` of the words
        ``members``; LinAlgError naming the first word whose matrix is
        singular."""
        inv, singular = _stack_inverse(mats)
        if singular.any():
            word = self.keys[members[np.argmax(singular)]]
            raise np.linalg.LinAlgError(f"{what} of word {word} is singular")
        return inv

    def residuals(self, images):
        """The braid- and the bend-conjugation residual of every word, in
        order: the largest |F - matrix| entry, with the braid matrix
        inverted and the bend matrix's rows in F's order."""
        braid, bend = np.zeros((2, len(self.keys)))
        mats = self.matrices(images)
        for (members, stored), swapped, bent in zip(
            self.F.stacks, mats["braid"], mats["bend"]
        ):
            braid[members] = _largest_gap(
                stored, self._inverse(swapped, members, "braid fusing matrix")
            )
            rows = self._bend_rows[self.F.row_starts[members][:, None]
                                   + np.arange(stored.shape[1])]
            bend[members] = _largest_gap(
                stored, bent[np.arange(len(members))[:, None], rows]
            )
        return braid.tolist(), bend.tolist()


def _copies(items, counts):
    """Each of ``items`` repeated ``counts[item]`` times, and the place of
    each copy among the copies of its item."""
    counts = counts[items]
    copies = np.repeat(items, counts)
    return copies, np.arange(len(copies)) - np.repeat(np.cumsum(counts) - counts, counts)


def _largest_gap(a, b) -> np.ndarray:
    """The largest entry of |a - b| for each pair of matrices, |z| formed
    as ``abs`` forms it on one complex scalar, NaN entries passed over as
    ``max`` passes them over, and 0.0 for no entry above 0."""
    diff = (a - b).reshape(len(a), -1)
    return np.fmax.reduce(np.hypot(diff.real, diff.imag), axis=1, initial=0.0)
