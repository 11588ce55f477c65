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
                                fr: gc.CovertexVector, sense: str = None) -> complex:
    """Closed-diagram pairing of two splitting covertices.

    The two covertices hang off a dual pair of strands created from the
    unit; matching legs are closed off pairwise, with one crossing between
    the inner pair, and the value is divided by the loop value of the
    common source label.
    """
    if sense is None:
        sense = PAIRING_SENSE
    a1, a2, a3 = fl.a1, fl.a2, fl.a3
    b1, b2, b3 = fr.a1, fr.a2, fr.a3
    if (b1, b2, b3) != (data.dual(a1), data.dual(a2), data.dual(a3)):
        raise ValueError("paired covertices must carry dual labels")
    dim3 = gc.categorical_dim(data, a3)
    a1p, a2p, a3p = data.dual(a1), data.dual(a2), data.dual(a3)
    m = dim3 * gc.cup_morphism(data, (), 0, a3, a3p)
    m = fl.at(data, (a3, a3p), 0) @ m
    m = fr.at(data, (a1, a2, a3p), 2) @ m
    m = gc.braid_morphism(data, (a1, a2, a1p, a2p), 1, sense) @ m
    m = gc.cap_morphism(data, (a1, a1p, a2, a2p), 0, a1, a1p) @ m
    m = gc.cap_morphism(data, (a2, a2p), 0, a2, a2p) @ m
    return m.scalar() / dim3


# ---------------------------------------------------------------------------
# algebra data


@dataclass
class FullFieldAlgebraData:
    """Diagonal algebra: object, multiplication tensor, unit, form, coalgebra.

    Treated as immutable once built: the coproduct tensor, the product index
    and every algebra layer are memoized on the instance.  A new instance
    (also one made by ``dataclasses.replace``) starts with an empty memo.
    """

    data: CategoryData
    object: DoubleObject
    mult: dict      # (a1, a2, a3) -> ndarray over (left mult, right mult)
    phi: dict       # summand label a -> nonzero complex form coefficient
    # "mult_index" / "comult_index" -> tensor entries by source labels, and
    # (layer name, word, k) -> read-only DoubleMorphism
    _memo: dict = dataclasses.field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def summand_index(self) -> dict:
        return {l: i for i, (l, _) in enumerate(self.object.summands)}


def build_diagonal_algebra(data: CategoryData,
                           pairing=pairing_coefficient_general) -> FullFieldAlgebraData:
    """Assemble the diagonal algebra; requires coherent category data.

    ``pairing`` may be swapped for a transformed-basis variant when testing
    basis independence.
    """
    for a in range(data.size):
        if abs(gc.categorical_dim(data, a)) < 1e-12:
            raise ValueError(f"degenerate loop value for label {a}")
    obj = DoubleObject(tuple((a, data.dual(a)) for a in range(data.size)))
    mult = {}
    for a1 in range(data.size):
        for a2 in range(data.size):
            for a3 in range(data.size):
                n = data.n(a1, a2, a3)
                if not n:
                    continue
                block = np.zeros((n, n), dtype=complex)
                for i in range(n):
                    fl = gc.CovertexVector.basis(data, a1, a2, a3, i)
                    for j in range(n):
                        fr = gc.CovertexVector.basis(
                            data, data.dual(a1), data.dual(a2), data.dual(a3), j
                        )
                        block[i, j] = pairing(data, fl, fr)
                mult[(a1, a2, a3)] = block
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
    the same object, so no caller may change it in place.
    """

    @functools.wraps(layer)
    def cached(alg, word, k):
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


def _mult_index(alg) -> dict:
    """(a1, a2) -> ((a3, entries), ...) of the product tensor, built once."""
    index = alg._memo.get("mult_index")
    if index is None:
        index = alg._memo["mult_index"] = {}
        for (a1, a2, a3), block in alg.mult.items():
            index.setdefault((a1, a2), []).append((a3, _entries(block)))
    return index


def _comult_index(alg) -> dict:
    """a3 -> ((a1, a2, entries), ...) of the coproduct tensor, derived once."""
    index = alg._memo.get("comult_index")
    if index is None:
        index = alg._memo["comult_index"] = {}
        for (a1, a2, a3), block in comult_tensor(alg).items():
            index.setdefault(a3, []).append((a1, a2, _entries(block)))
    return index


@_memoized
def mult_layer(alg, word, k) -> DoubleMorphism:
    """Multiplication applied at letters (k, k+1) of a doubled word."""
    data = alg.data
    sidx = alg.summand_index
    index = _mult_index(alg)

    def rule(window, left, right):
        a1, a1p = word[k].summands[window[0]]
        a2, a2p = word[k + 1].summands[window[1]]
        for a3, entries in index.get((a1, a2), ()):
            a3p = data.dual(a3)
            for i, j, coef in entries:
                yield ((sidx[a3],), coef,
                       gc.vertex_morphism(data, left, k, a1, a2, a3, i),
                       gc.vertex_morphism(data, right, k, a1p, a2p, a3p, j))

    return doubled_layer(data, word, k, 2, (alg.object,), rule)


@_memoized
def ev_layer(alg, word, k) -> DoubleMorphism:
    """Pair the dual-object letter k against the algebra letter k+1."""
    data = alg.data

    def rule(window, left, right):
        b = word[k].summands[window[0]][0]
        a = word[k + 1].summands[window[1]][0]
        if b == data.dual(a):
            yield ((), 1.0, gc.cap_morphism(data, left, k, b, a),
                   gc.cap_morphism(data, right, k, data.dual(b), data.dual(a)))

    return doubled_layer(data, word, k, 2, (), rule)


@_memoized
def comult_layer(alg, word, k) -> DoubleMorphism:
    """Coproduct at letter k, applied as a local layer.

    Each block (a1, a2 <- a3) of ``comult_tensor`` splits letter k by a pair
    of covertices, left and right factor, weighted by the tensor entry.  The
    tensor is read once per algebra off ``_comult_diagram``, which stays the
    oracle of this layer.
    """
    data = alg.data
    sidx = alg.summand_index
    index = _comult_index(alg)

    def rule(window, left, right):
        a3, a3p = word[k].summands[window[0]]
        for a1, a2, entries in index.get(a3, ()):
            a1p, a2p = data.dual(a1), data.dual(a2)
            for i, j, coef in entries:
                yield ((sidx[a1], sidx[a2]), coef,
                       gc.covertex_morphism(data, left, k, a1, a2, a3, i),
                       gc.covertex_morphism(data, right, k, a1p, a2p, a3p, j))

    return doubled_layer(data, word, k, 1, (alg.object, alg.object), rule)


def _comult_diagram(alg, word, k) -> DoubleMorphism:
    """Coproduct at letter k: the form-conjugated dual of the product.

    Built as phi, then the categorical dual of the multiplication through
    nested dual pairs, then the inverse form coefficient on both outputs.
    The intermediate words have four letters more than ``word``; they run
    on a copy of the algebra, so its memo does not keep them.
    """
    alg = dataclasses.replace(alg)
    word = tuple(word)
    m = phi_layer(alg, word, k, +1)
    m = coev_layer(alg, word, k + 1) @ m               # outer dual pair
    m = coev_layer(alg, m.cod, k + 2) @ m              # inner dual pair
    m = mult_layer(alg, m.cod, k + 1) @ m              # multiply into the pairs
    m = ev_layer(alg, m.cod, k) @ m                    # close against the input
    cod = m.cod
    m = phi_layer(alg, cod, k, -1) @ m
    m = phi_layer(alg, cod, k + 1, -1) @ m
    return m


def comult_tensor(alg) -> dict:
    """Coproduct coefficients (a1, a2, a3) -> block over dual-vertex pairs.

    Read off the diagram construction on the one-letter word.
    """
    data = alg.data
    delta = _comult_diagram(alg, _fword(alg, 1), 0)
    sidx = alg.summand_index
    out = {}
    for (a1, a2, a3), block in alg.mult.items():
        n = block.shape[0]
        key = ((sidx[a3],), (sidx[a1], sidx[a2]), a3, data.dual(a3))
        mat = delta.blocks.get(key)
        if mat is not None:
            out[(a1, a2, a3)] = mat.reshape(n, n).copy()
    return out


@_memoized
def unit_layer(alg, word, k) -> DoubleMorphism:
    """Inclusion of the unit summand as a new letter at position k."""
    data = alg.data
    eidx = alg.summand_index[data.unit]

    def rule(window, left, right):
        yield ((eidx,), 1.0, gc.unit_insert_morphism(data, left, k),
               gc.unit_insert_morphism(data, right, k))

    return doubled_layer(data, word, k, 0, (alg.object,), rule)


@_memoized
def counit_layer(alg, word, k) -> DoubleMorphism:
    """Projection of letter k onto the unit summand (counit normalization 1)."""
    data = alg.data
    eidx = alg.summand_index[data.unit]

    def rule(window, left, right):
        if window == (eidx,):
            yield ((), 1.0, gc.unit_remove_morphism(data, left, k),
                   gc.unit_remove_morphism(data, right, k))

    return doubled_layer(data, word, k, 1, (), rule)


def phi_layer(alg, word, k, power: int = 1) -> DoubleMorphism:
    """Diagonal action of the form coefficient on letter k."""
    return DoubleMorphism.scaled_identity(
        alg.data, word,
        lambda assign, cl, cr: alg.phi[word[k].summands[assign[k]][0]] ** power,
    )


@_memoized
def coev_layer(alg, word, k) -> DoubleMorphism:
    """Insert a dual pair of algebra letters created from the unit at k."""
    data = alg.data
    sidx = alg.summand_index

    def rule(window, left, right):
        for a in range(data.size):
            ap = data.dual(a)
            dim = gc.categorical_dim(data, a)
            yield ((sidx[a], sidx[ap]), 1.0,
                   dim * gc.cup_morphism(data, left, k, a, ap),
                   dim * gc.cup_morphism(data, right, k, ap, a))

    return doubled_layer(data, word, k, 0, (alg.object, alg.object), rule)


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
    report.add("unit_left", (), lu.distance(ident))
    ru = mult_layer(alg, f2, 0) @ unit_layer(alg, f1, 1)
    report.add("unit_right", (), ru.distance(ident))

    m23 = mult_layer(alg, f2, 0) @ mult_layer(alg, f3, 1)
    m12 = mult_layer(alg, f2, 0) @ mult_layer(alg, f3, 0)
    report.add("associativity", (), m23.distance(m12))

    braided = mult_layer(alg, f2, 0) @ double_braid_layer(data, f2, 0, "+-")
    plain = mult_layer(alg, f2, 0)
    res_braid = braided.distance(plain)
    report.add("commutativity", (), res_braid)

    # the same residual through the braid action on the tensor itself
    res_omega = 0.0
    for (a1, a2, a3), block in alg.mult.items():
        other = alg.mult.get((a2, a1, a3))
        if other is None:
            res_omega = max(res_omega, float(np.max(np.abs(block))))
            continue
        rl = data.r_block(a1, a2, a3)
        rr = data.r_block_inv(data.dual(a1), data.dual(a2), data.dual(a3))
        got = rl.T @ other @ rr
        res_omega = max(res_omega, float(np.max(np.abs(got - block))))
    report.add("commutativity_skew_route", (), res_omega)
    report.add("commutativity_routes_agree", (), abs(res_braid - res_omega))

    for a, ap in alg.object.summands:
        report.add(
            "twist_trivial", (a,), abs(data.twist[a] / data.twist[ap] - 1.0)
        )
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
    report.add("coassociativity", (), d1.distance(d2))

    cl = counit_layer(alg, f2, 0) @ comult_layer(alg, f1, 0)
    report.add("counit_left", (), cl.distance(ident))
    cr = counit_layer(alg, f2, 1) @ comult_layer(alg, f1, 0)
    report.add("counit_right", (), cr.distance(ident))

    ident2 = DoubleMorphism.identity(data, f2)
    mid = comult_layer(alg, f1, 0) @ mult_layer(alg, f2, 0)
    lhs = mult_layer(alg, f3, 1) @ comult_layer(alg, f2, 0)
    rhs = mult_layer(alg, f3, 0) @ comult_layer(alg, f2, 1)
    report.add("frobenius_left", (), lhs.distance(mid))
    report.add("frobenius_right", (), rhs.distance(mid))
    report.add("pairing_nondegenerate", (), _pairing_degeneracy(alg))
    report.wall_time = time.perf_counter() - t0
    return report


def _pairing_degeneracy(alg) -> float:
    """0.0 iff every duality-channel pairing block is invertible."""
    worst = 1.0
    for a, ap in alg.object.summands:
        block = alg.mult.get((a, ap, alg.data.unit))
        if block is None or abs(np.linalg.det(block)) < 1e-12:
            return 1.0
        worst = min(worst, abs(np.linalg.det(block)))
    return 0.0 if worst > 1e-12 else 1.0


def verify_invariant_form(alg: FullFieldAlgebraData, tol: float = DEFAULT_TOL) -> Report:
    """Invariance of the form, symmetry of the induced pairing, and the
    reconstruction roundtrip of the form from the Frobenius data."""
    t0 = time.perf_counter()
    data = alg.data
    report = Report(suite="invariant-form", tol=tol)

    # (1) the bending identity: the multiplication tensor is fixed by
    # bending both factors and conjugating by the form coefficients
    res = 0.0
    for (a1, a2, a3), block in alg.mult.items():
        n = block.shape[0]
        b0 = np.zeros((n, n), complex)
        b1 = np.zeros((n, n), complex)
        for i in range(n):
            v = gc.VertexVector.basis(data, a1, a2, a3, i)
            b0[:, i] = gc.bend_vertex(data, v, "+").array
            vp = gc.VertexVector.basis(
                data, data.dual(a1), data.dual(a2), data.dual(a3), i
            )
            b1[:, i] = gc.bend_vertex(data, vp, "-").array
        target_key = (a1, data.dual(a3), data.dual(a2))
        target = alg.mult.get(target_key)
        scale = alg.phi[a3] / alg.phi[data.dual(a2)]
        got = scale * (b0 @ block @ b1.T)
        if target is None:
            res = max(res, float(np.max(np.abs(got))))
        else:
            res = max(res, float(np.max(np.abs(got - target))))
    report.add("form_invariance", (), res)

    # (2) symmetry of the induced pairing under the doubled braiding
    f2 = _fword(alg, 2)
    pairing = counit_layer(alg, _fword(alg, 1), 0) @ mult_layer(alg, f2, 0)
    braided = pairing @ double_braid_layer(data, f2, 0, "+-")
    report.add("pairing_symmetry", (), pairing.distance(braided))

    # (3) reconstruction of the form from the Frobenius data
    f1 = _fword(alg, 1)
    phi_recon = _phi_from_frobenius(alg)
    phi_direct = phi_layer(alg, f1, 0, power=1)
    report.add("form_roundtrip", (), phi_recon.distance(phi_direct))
    report.wall_time = time.perf_counter() - t0
    return report


def _phi_from_frobenius(alg) -> DoubleMorphism:
    """The canonical iso onto the dual object built from counit, product
    and the doubled dual pair; should reproduce the form coefficients."""
    f1 = _fword(alg, 1)
    step = coev_layer(alg, f1, 1)                       # (F) -> (F, F, F)
    pair3 = mult_layer(alg, _fword(alg, 3), 0)          # multiply first two
    step = pair3 @ step                                 # (F, F)
    step = counit_layer(alg, _fword(alg, 2), 0) @ step  # (F)
    # the output letter carries the dual-summand labels; the summand (a', a)
    # of the dual object is the summand a' of the object itself
    return step


# ---------------------------------------------------------------------------
# serialization (build-ffa / verify-ffa wire format)


def emit_algebra(alg: FullFieldAlgebraData) -> str:
    doc = {
        "category": category_document(alg.data),
        "summands": [list(p) for p in alg.object.summands],
        "mult": sorted(
            [a1, a2, a3, i, j, block[i, j].real, block[i, j].imag]
            for (a1, a2, a3), block in alg.mult.items()
            for i in range(block.shape[0])
            for j in range(block.shape[1])
        ),
        "phi": [[a, alg.phi[a].real, alg.phi[a].imag] for a in sorted(alg.phi)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def loads_algebra(source: str | dict) -> FullFieldAlgebraData:
    """Parse a build-ffa file's text, or the dict it parses to; a malformed
    one raises CategoryDataError.

    The embedded category must be a JSON object, every label and index must
    be a JSON integer and every real or imaginary part a JSON number, the
    summands must be the diagonal object, each mult entry must name an
    admissible channel and multiplicity pair once, with a finite value, and
    phi must give every label one finite nonzero coefficient (the coproduct
    divides by it).
    """
    try:
        doc = source if isinstance(source, dict) else json.loads(source)
        category = doc["category"]
        summands = tuple((_int(l), _int(r)) for l, r in doc["summands"])
        mult_rows = [
            ((_int(a1), _int(a2), _int(a3), _int(i), _int(j)),
             complex(_num(re), _num(im)))
            for a1, a2, a3, i, j, re, im in doc["mult"]
        ]
        phi_rows = [(_int(a), complex(_num(re), _num(im))) for a, re, im in doc["phi"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise CategoryDataError(f"malformed algebra document: {exc}") from exc
    if not isinstance(category, dict):
        raise CategoryDataError("malformed algebra document: category is not an object")
    data = loads_category(category)
    labels = range(data.size)
    if summands != tuple((a, data.dual(a)) for a in labels):
        raise CategoryDataError("summands must be the pairs (a, dual a), one per label")
    mult = {}
    seen = set()
    for key, value in mult_rows:
        a1, a2, a3, i, j = key
        if not all(a in labels for a in (a1, a2, a3)):
            raise CategoryDataError(f"mult entry {key} has an unknown label")
        n = data.n(a1, a2, a3)
        if not (0 <= i < n and 0 <= j < n):
            raise CategoryDataError(f"mult entry {key} outside multiplicity range")
        if key in seen:
            raise CategoryDataError(f"duplicate mult entry {key}")
        if not cmath.isfinite(value):
            raise CategoryDataError(f"mult entry {key} is not finite")
        seen.add(key)
        block = mult.setdefault((a1, a2, a3), np.zeros((n, n), complex))
        block[i, j] = value
    phi = dict(phi_rows)
    if len(phi_rows) != data.size or set(phi) != set(labels):
        raise CategoryDataError("phi must give exactly one coefficient per label")
    for a, value in phi.items():
        if value == 0 or not cmath.isfinite(value):
            raise CategoryDataError(f"phi of label {a} must be finite and nonzero")
    return FullFieldAlgebraData(data, DoubleObject(summands), mult, phi)
