"""The diagonal algebra in the double: multiplication pairing, form, axioms.

The underlying object is the sum of all (a, dual a) pairs.  Its
multiplication tensor is computed from a closed two-covertex diagram with a
single crossing.  The negative crossing is the frozen convention: it is the
unique reading for which the whole suite, including the invariance of the
form, passes on every built-in.  The opposite reading still yields a
commutative associative algebra (the mirror one) but fails the form
identities; the negative-control tests pin this down.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import itertools
import json
import time
from dataclasses import dataclass

import numpy as np

from .fusion_data import (
    CategoryData,
    CategoryDataError,
    DEFAULT_TOL,
    _int,
    _num,
    loads_category,
    category_document,
)
from .report import Report
from . import graphcalc as gc
from .deligne_double import (
    DoubleObject,
    DoubleMorphism,
    double_braid_layer,
    doubled_layer,
)

__all__ = [
    "FullFieldAlgebraData",
    "PAIRING_SENSE",
    "pairing_coefficient_general",
    "build_diagonal_algebra",
    "verify_algebra_axioms",
    "verify_frobenius",
    "verify_invariant_form",
    "emit_algebra",
    "loads_algebra",
]

PAIRING_SENSE = "-"


# ---------------------------------------------------------------------------
# the pairing diagram


def pairing_coefficient_general(data: CategoryData, fl: gc.CovertexVector,
                                fr: gc.CovertexVector) -> complex:
    """Closed-diagram pairing of two splitting covertices.

    The two covertices hang off a dual pair of strands created from the
    unit; matching legs are closed off pairwise, with one crossing between
    the inner pair, and the value is divided by the loop value of the
    common source label; the crossing has the sense ``PAIRING_SENSE``.
    """
    a1, a2, a3 = fl.a1, fl.a2, fl.a3
    b1, b2, b3 = fr.a1, fr.a2, fr.a3
    if (b1, b2, b3) != (data.dual(a1), data.dual(a2), data.dual(a3)):
        raise ValueError("paired covertices must carry dual labels")
    dim3 = gc.categorical_dim(data, a3)
    a1p, a2p, a3p = data.dual(a1), data.dual(a2), data.dual(a3)
    m = dim3 * gc.cup_morphism(data, (), 0, a3, a3p)
    m = fl.at(data, (a3, a3p), 0) @ m
    m = fr.at(data, (a1, a2, a3p), 2) @ m
    m = gc.braid_morphism(data, (a1, a2, a1p, a2p), 1, PAIRING_SENSE) @ m
    m = gc.cap_morphism(data, (a1, a1p, a2, a2p), 0, a1, a1p) @ m
    m = gc.cap_morphism(data, (a2, a2p), 0, a2, a2p) @ m
    return m.scalar() / dim3


# ---------------------------------------------------------------------------
# algebra data


@dataclass
class FullFieldAlgebraData:
    """Algebra in the double: object, multiplication tensor, form.

    Everything is keyed by summand index s of ``object``, whose summand
    ``object.summands[s]`` is a (left, right) label pair: ``mult`` maps
    (s1, s2, s3) to the product block (s1 s2 -> s3) over (left
    multiplicity, right multiplicity), and ``phi`` maps s to its form
    coefficient.

    Treated as immutable once built: the dual and unit summands and the
    product and coproduct indices are cached properties, and ``_memo``
    holds every algebra layer.  A new instance (also one made by
    ``dataclasses.replace``) starts with none of them.
    """

    data: CategoryData
    object: DoubleObject
    mult: dict      # (s1, s2, s3) -> ndarray over (left mult, right mult)
    phi: dict       # summand s -> nonzero complex form coefficient
    # (layer name, word, k) -> read-only DoubleMorphism
    _memo: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @functools.cached_property
    def dual_summand(self) -> tuple:
        """s -> the summand (l', r') dual to summand s = (l, r)."""
        pairs = self.object.summands
        index = {p: s for s, p in enumerate(pairs)}
        return tuple(index[self.data.dual(l), self.data.dual(r)] for l, r in pairs)

    @functools.cached_property
    def unit_summand(self) -> int:
        """The summand (e, e) of the unit label."""
        return self.object.summands.index((self.data.unit,) * 2)

    @functools.cached_property
    def mult_index(self) -> dict:
        """(s1, s2) -> [(s3, entries), ...] of the product tensor."""
        index = {}
        for (s1, s2, s3), block in self.mult.items():
            index.setdefault((s1, s2), []).append((s3, _entries(block)))
        return index

    @functools.cached_property
    def comult_index(self) -> dict:
        """s3 -> [(s1, s2, entries), ...] of the coproduct tensor."""
        index = {}
        for (s1, s2, s3), block in comult_tensor(self).items():
            index.setdefault(s3, []).append((s1, s2, _entries(block)))
        return index

    def labels(self, key) -> tuple:
        """(left labels, right labels) of the summands in ``key``."""
        return tuple(zip(*(self.object.summands[s] for s in key)))


def build_diagonal_algebra(data: CategoryData,
                           pairing=pairing_coefficient_general) -> FullFieldAlgebraData:
    """Assemble the diagonal algebra; requires coherent category data.

    Its summand a is the pair (a, dual a), so summand and label indices
    agree.  ``pairing`` may be swapped for a transformed-basis variant when
    testing basis independence.
    """
    for a in range(data.size):
        if abs(gc.categorical_dim(data, a)) < 1e-12:
            raise ValueError(f"degenerate loop value for label {a}")
    obj = DoubleObject(tuple((a, data.dual(a)) for a in range(data.size)))
    mult = {}
    for key in itertools.product(range(data.size), repeat=3):
        n = data.n(*key)
        if n:
            dual = tuple(data.dual(a) for a in key)
            mult[key] = np.array([
                [pairing(data, gc.CovertexVector.basis(data, *key, i),
                         gc.CovertexVector.basis(data, *dual, j)) for j in range(n)]
                for i in range(n)
            ], dtype=complex)
    phi = {
        a: data.twist[a].conjugate() / gc.categorical_dim(data, a)
        for a in range(data.size)
    }
    return FullFieldAlgebraData(data, obj, mult, phi)


# ---------------------------------------------------------------------------
# doubled layers generated by the algebra


def _memoized(layer):
    """Memoize an algebra layer on its algebra under (layer, word, k).

    The blocks of a memoized morphism are made read-only: every caller gets
    the same object, so no caller may change it in place.  A layer restricted
    to a set of source assignments (see ``doubled_layer``) is built afresh
    and never memoized.
    """

    @functools.wraps(layer)
    def cached(alg, word, k, sources=None):
        if sources is not None:
            return layer(alg, tuple(word), k, sources)
        key = (layer.__name__, tuple(word), k)
        out = alg._memo.get(key)
        if out is None:
            out = alg._memo[key] = layer(alg, key[1], k)
            for mat in out.blocks.values():
                mat.setflags(write=False)
        return out

    return cached


def _entries(block):
    """Nonzero entries (i, j, coefficient) of a tensor block."""
    return tuple(
        (i, j, block[i, j])
        for i in range(block.shape[0])
        for j in range(block.shape[1])
        if block[i, j] != 0
    )


@_memoized
def mult_layer(alg, word, k, sources=None) -> DoubleMorphism:
    """Multiplication applied at letters (k, k+1) of a doubled word."""
    data = alg.data
    index = alg.mult_index

    def rule(window, left, right):
        for s3, entries in index.get(window, ()):
            ls, rs = alg.labels(window + (s3,))
            for i, j, coef in entries:
                yield ((s3,), coef,
                       gc.vertex_morphism(data, left, k, *ls, i),
                       gc.vertex_morphism(data, right, k, *rs, j))

    return doubled_layer(data, word, k, 2, (alg.object,), rule, sources)


@_memoized
def ev_layer(alg, word, k, sources=None) -> DoubleMorphism:
    """Pair the dual-object letter k against the algebra letter k+1."""
    data = alg.data

    def rule(window, left, right):
        if window[0] == alg.dual_summand[window[1]]:
            ls, rs = alg.labels(window)
            yield ((), 1.0, gc.cap_morphism(data, left, k, *ls),
                   gc.cap_morphism(data, right, k, *rs))

    return doubled_layer(data, word, k, 2, (), rule, sources)


@_memoized
def comult_layer(alg, word, k) -> DoubleMorphism:
    """Coproduct at letter k, applied as a local layer.

    Each block (s1, s2 <- s3) of ``comult_tensor`` splits letter k by a pair
    of covertices, left and right factor, weighted by the tensor entry.  The
    tensor is read once per algebra off ``_comult_diagram``, which stays the
    oracle of this layer.
    """
    data = alg.data
    index = alg.comult_index

    def rule(window, left, right):
        for s1, s2, entries in index.get(window[0], ()):
            ls, rs = alg.labels((s1, s2) + window)
            for i, j, coef in entries:
                yield ((s1, s2), coef,
                       gc.covertex_morphism(data, left, k, *ls, i),
                       gc.covertex_morphism(data, right, k, *rs, j))

    return doubled_layer(data, word, k, 1, (alg.object, alg.object), rule)


def _comult_diagram(alg, word, k) -> DoubleMorphism:
    """Coproduct at letter k: the form-conjugated dual of the product.

    Built as phi, then the categorical dual of the multiplication through
    nested dual pairs, then the inverse form coefficient on both outputs.
    Each layer walks only the source assignments that its input reaches,
    the destination assignments of the blocks built so far: on the
    one-letter word the product sees n^3 of the n^5 assignments of its
    five-letter word.  Restricted layers are never memoized, so the
    algebra's memo keeps none of the longer intermediate words.
    """
    word = tuple(word)
    m = phi_layer(alg, word, k, +1)
    m = coev_layer(alg, word, k + 1, _reached(m)) @ m          # outer dual pair
    m = coev_layer(alg, m.cod, k + 2, _reached(m)) @ m         # inner dual pair
    m = mult_layer(alg, m.cod, k + 1, _reached(m)) @ m         # multiply into the pairs
    m = ev_layer(alg, m.cod, k, _reached(m)) @ m               # close against the input
    cod = m.cod
    m = phi_layer(alg, cod, k, -1) @ m
    m = phi_layer(alg, cod, k + 1, -1) @ m
    return m


def _reached(m) -> set:
    """The destination assignments of the blocks of ``m``."""
    return {dst for _, dst, _, _ in m.blocks}


def comult_tensor(alg) -> dict:
    """Coproduct coefficients (s1, s2, s3) -> block over dual-vertex pairs.

    Keyed like ``alg.mult``: the block of (s1 s2 <- s3) is over (left
    multiplicity, right multiplicity).  Read off the diagram construction
    on the one-letter word.
    """
    delta = _comult_diagram(alg, _fword(alg, 1), 0)
    out = {}
    for (s1, s2, s3), block in alg.mult.items():
        key = ((s3,), (s1, s2)) + alg.object.summands[s3]
        mat = delta.blocks.get(key)
        if mat is not None:
            out[(s1, s2, s3)] = mat.reshape(block.shape).copy()
    return out


@_memoized
def unit_layer(alg, word, k) -> DoubleMorphism:
    """Inclusion of the unit summand as a new letter at position k."""
    data = alg.data
    unit = alg.unit_summand

    def rule(window, left, right):
        yield ((unit,), 1.0, gc.unit_insert_morphism(data, left, k),
               gc.unit_insert_morphism(data, right, k))

    return doubled_layer(data, word, k, 0, (alg.object,), rule)


@_memoized
def counit_layer(alg, word, k) -> DoubleMorphism:
    """Projection of letter k onto the unit summand (counit normalization 1)."""
    data = alg.data
    unit = alg.unit_summand

    def rule(window, left, right):
        if window == (unit,):
            yield ((), 1.0, gc.unit_remove_morphism(data, left, k),
                   gc.unit_remove_morphism(data, right, k))

    return doubled_layer(data, word, k, 1, (), rule)


def phi_layer(alg, word, k, power: int) -> DoubleMorphism:
    """Diagonal action of the form coefficient on letter k."""
    return DoubleMorphism.scaled_identity(
        alg.data, word, lambda assign, cl, cr: alg.phi[assign[k]] ** power
    )


@_memoized
def coev_layer(alg, word, k, sources=None) -> DoubleMorphism:
    """Insert a dual pair of algebra letters created from the unit at k."""
    data = alg.data
    pairs = tuple(enumerate(alg.dual_summand))

    def rule(window, left, right):
        for pair in pairs:
            ls, rs = alg.labels(pair)
            dim = gc.categorical_dim(data, ls[0])
            yield (pair, 1.0,
                   dim * gc.cup_morphism(data, left, k, *ls),
                   dim * gc.cup_morphism(data, right, k, *rs))

    return doubled_layer(data, word, k, 0, (alg.object, alg.object), rule, sources)


# ---------------------------------------------------------------------------
# verification suites


def _fword(alg, n):
    return (alg.object,) * n


def verify_algebra_axioms(alg: FullFieldAlgebraData, tol: float = DEFAULT_TOL) -> Report:
    """Unit, associativity, commutativity and triviality of the twist."""
    t0 = time.perf_counter()
    data = alg.data
    report = Report(suite="algebra-axioms", tol=tol)
    f1, f2, f3 = _fword(alg, 1), _fword(alg, 2), _fword(alg, 3)
    ident = DoubleMorphism.identity(data, f1)

    lu = mult_layer(alg, f2, 0) @ unit_layer(alg, f1, 0)
    ru = mult_layer(alg, f2, 0) @ unit_layer(alg, f1, 1)
    m23 = mult_layer(alg, f2, 0) @ mult_layer(alg, f3, 1)
    m12 = mult_layer(alg, f2, 0) @ mult_layer(alg, f3, 0)
    braided = mult_layer(alg, f2, 0) @ double_braid_layer(data, f2, 0, "+-")
    plain = mult_layer(alg, f2, 0)
    res_braid = braided.distance(plain)

    # the same residual through the braid action on the tensor itself
    res_omega = 0.0
    for (s1, s2, s3), block in alg.mult.items():
        other = alg.mult.get((s2, s1, s3))
        ls, rs = alg.labels((s1, s2, s3))
        got = 0 if other is None else data.r_block(*ls).T @ other @ data.r_block_inv(*rs)
        res_omega = max(res_omega, float(np.max(np.abs(got - block))))
    report.add_many(
        ("unit_left", "unit_right", "associativity", "commutativity",
         "commutativity_skew_route", "commutativity_routes_agree"),
        (), [[lu.distance(ident), ru.distance(ident), m23.distance(m12), res_braid,
              res_omega, abs(res_braid - res_omega)]],
    )
    summands = alg.object.summands
    report.add_many("twist_trivial", ([a for a, _ in summands],), [
        abs(data.twist[a] / data.twist[ap] - 1.0) for a, ap in summands
    ])
    report.wall_time = time.perf_counter() - t0
    return report


def verify_frobenius(alg: FullFieldAlgebraData, tol: float = DEFAULT_TOL) -> Report:
    """Coassociativity, counit laws and both Frobenius compatibilities."""
    t0 = time.perf_counter()
    data = alg.data
    report = Report(suite="frobenius", tol=tol)
    f1, f2, f3 = _fword(alg, 1), _fword(alg, 2), _fword(alg, 3)
    ident = DoubleMorphism.identity(data, f1)

    d1 = comult_layer(alg, f2, 0) @ comult_layer(alg, f1, 0)
    d2 = comult_layer(alg, f2, 1) @ comult_layer(alg, f1, 0)
    cl = counit_layer(alg, f2, 0) @ comult_layer(alg, f1, 0)
    cr = counit_layer(alg, f2, 1) @ comult_layer(alg, f1, 0)
    mid = comult_layer(alg, f1, 0) @ mult_layer(alg, f2, 0)
    lhs = mult_layer(alg, f3, 1) @ comult_layer(alg, f2, 0)
    rhs = mult_layer(alg, f3, 0) @ comult_layer(alg, f2, 1)
    report.add_many(
        ("coassociativity", "counit_left", "counit_right", "frobenius_left",
         "frobenius_right", "pairing_nondegenerate"),
        (), [[d1.distance(d2), cl.distance(ident), cr.distance(ident), lhs.distance(mid),
              rhs.distance(mid), _pairing_degeneracy(alg)]],
    )
    report.wall_time = time.perf_counter() - t0
    return report


def _pairing_degeneracy(alg) -> float:
    """0.0 iff every duality-channel pairing block is invertible."""
    blocks = [alg.mult.get((s, d, alg.unit_summand)) for s, d in enumerate(alg.dual_summand)]
    return 0.0 if all(b is not None and abs(np.linalg.det(b)) > 1e-12 for b in blocks) else 1.0


def verify_invariant_form(alg: FullFieldAlgebraData, tol: float = DEFAULT_TOL) -> Report:
    """Invariance of the form, symmetry of the induced pairing, and the
    reconstruction roundtrip of the form from the Frobenius data."""
    t0 = time.perf_counter()
    data = alg.data
    report = Report(suite="invariant-form", tol=tol)

    # (1) the bending identity: the multiplication tensor is fixed by
    # bending both factors and conjugating by the form coefficients
    res = 0.0
    dual = alg.dual_summand
    bent = _bent_bases(data, [alg.labels(key) for key in alg.mult])
    for (s1, s2, s3), block in alg.mult.items():
        ls, rs = alg.labels((s1, s2, s3))
        b0, b1 = bent[("bend+", *ls)], bent[("bend-", *rs)]
        target = alg.mult.get((s1, dual[s3], dual[s2]))
        scale = alg.phi[s3] / alg.phi[dual[s2]]
        got = scale * (b0 @ block @ b1.T)
        res = max(res, float(np.max(np.abs(got if target is None else got - target))))

    # (2) symmetry of the induced pairing under the doubled braiding
    f2 = _fword(alg, 2)
    pairing = counit_layer(alg, _fword(alg, 1), 0) @ mult_layer(alg, f2, 0)
    braided = pairing @ double_braid_layer(data, f2, 0, "+-")

    # (3) reconstruction of the form from the Frobenius data
    f1 = _fword(alg, 1)
    phi_recon = _phi_from_frobenius(alg)
    phi_direct = phi_layer(alg, f1, 0, power=1)
    report.add_many(
        ("form_invariance", "pairing_symmetry", "form_roundtrip"),
        (), [[res, pairing.distance(braided), phi_recon.distance(phi_direct)]],
    )
    report.wall_time = time.perf_counter() - t0
    return report


def _bent_bases(data, channels) -> dict:
    """Per family (kind, a, b, c) of the left channels (a, b, c) bent by
    "+" and the right ones by "-", of the (left, right) label pairs
    ``channels``: the matrix whose columns are the bent basis vertices."""
    families = sorted({("bend+", *ls) for ls, _ in channels}
                      | {("bend-", *rs) for _, rs in channels})
    weights, _ = gc.vertex_images(data, families)
    out, at = {}, 0
    for family in families:
        n = data.n(*family[1:])
        out[family] = weights[at:at + n, :n].T.copy()
        at += n
    return out


def _phi_from_frobenius(alg) -> DoubleMorphism:
    """The canonical iso onto the dual object built from counit, product
    and the doubled dual pair; should reproduce the form coefficients."""
    f1 = _fword(alg, 1)
    step = coev_layer(alg, f1, 1)                       # (F) -> (F, F, F)
    pair3 = mult_layer(alg, _fword(alg, 3), 0)          # multiply first two
    step = pair3 @ step                                 # (F, F)
    step = counit_layer(alg, _fword(alg, 2), 0) @ step  # (F)
    # the output letter carries the dual-summand labels; the summand (l', r')
    # of the dual object is the dual summand of (l, r) in the object itself
    return step


# ---------------------------------------------------------------------------
# serialization (build-ffa / verify-ffa wire format)


def emit_algebra(alg: FullFieldAlgebraData) -> str:
    doc = {
        "category": category_document(alg.data),
        "summands": [list(p) for p in alg.object.summands],
        "mult": sorted(
            [s1, s2, s3, i, j, block[i, j].real, block[i, j].imag]
            for (s1, s2, s3), block in alg.mult.items()
            for i in range(block.shape[0])
            for j in range(block.shape[1])
        ),
        "phi": [[s, alg.phi[s].real, alg.phi[s].imag] for s in sorted(alg.phi)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_algebra(source: str | dict) -> FullFieldAlgebraData:
    """Parse a build-ffa file's text, or the dict it parses to; a malformed
    one raises CategoryDataError.

    The embedded category must be a JSON object, every label and index must
    be a JSON integer and every real or imaginary part a JSON number, and
    the summands must be the diagonal object.  Each mult row
    [s1, s2, s3, i, j, re, im] names summand indices and a left
    multiplicity i and right multiplicity j of the channel (s1 s2 -> s3);
    it must be admissible, given once, with a finite value, and every
    admissible entry must be given.  phi must give every summand one finite
    nonzero coefficient (the coproduct divides by it).
    """
    try:
        doc = source if isinstance(source, dict) else json.loads(source)
        category = doc["category"]
        summands = tuple((_int(l), _int(r)) for l, r in doc["summands"])
        mult_rows = [
            ((_int(s1), _int(s2), _int(s3), _int(i), _int(j)),
             complex(_num(re), _num(im)))
            for s1, s2, s3, i, j, re, im in doc["mult"]
        ]
        phi_rows = [(_int(s), complex(_num(re), _num(im))) for s, re, im in doc["phi"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CategoryDataError(f"malformed algebra document: {exc}") from exc
    if not isinstance(category, dict):
        raise CategoryDataError("malformed algebra document: category is not an object")
    data = loads_category(category)
    if summands != tuple((a, data.dual(a)) for a in range(data.size)):
        raise CategoryDataError("summands must be the pairs (a, dual a), one per label")
    indices = range(len(summands))
    mult = {}
    seen = set()
    for key, value in mult_rows:
        channel, (i, j) = key[:3], key[3:]
        if not all(s in indices for s in channel):
            raise CategoryDataError(f"mult entry {key} has an unknown label")
        nl, nr = (data.n(*labels) for labels in zip(*(summands[s] for s in channel)))
        if not (0 <= i < nl and 0 <= j < nr):
            raise CategoryDataError(f"mult entry {key} outside multiplicity range")
        if key in seen:
            raise CategoryDataError(f"duplicate mult entry {key}")
        if not cmath.isfinite(value):
            raise CategoryDataError(f"mult entry {key} is not finite")
        seen.add(key)
        block = mult.setdefault(channel, np.zeros((nl, nr), complex))
        block[i, j] = value
    # keys are unique and in range, so the rows are complete exactly when
    # each channel (s1 s2 -> s3) has N_(s1 s2)^s3 N_(s1' s2')^s3' of them,
    # ' the dual; else the first missing key in lexicographic order is named
    left = data.ring.array
    dual = list(data.ring.dual)
    right = left[np.ix_(dual, dual, dual)]
    if len(seen) < (left * right).sum():
        missing = next(
            (*channel, i, j)
            for channel in map(tuple, np.argwhere(left * right).tolist())
            for i in range(left[channel])
            for j in range(right[channel])
            if (*channel, i, j) not in seen
        )
        raise CategoryDataError(f"missing mult entry {missing}")
    phi = dict(phi_rows)
    if len(phi_rows) != len(summands) or set(phi) != set(indices):
        raise CategoryDataError("phi must give exactly one coefficient per label")
    for s, value in phi.items():
        if value == 0 or not cmath.isfinite(value):
            raise CategoryDataError(f"phi of label {s} must be finite and nonzero")
    return FullFieldAlgebraData(data, DoubleObject(summands), mult, phi)
