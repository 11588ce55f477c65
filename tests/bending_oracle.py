"""The bending moves composed from the generator morphisms, the oracle of
``graphcalc.vertex_images``; and the inverse moves and the rotation, which
judge them.

``swap_vertex`` and ``bend_vertex`` compose the swap and the bend of a
vertex vector from ``graphcalc``'s generators, one ``Morphism`` per step;
``basis_images`` reads the images of the basis vertices of a family off
them, as the table-level evaluation gives them.  The other moves are
built from the same generators along independent routes: unbending
undoes a bend, a bent covertex pairs to the identity against the bent
vertex of the dual basis, and the rotation (bend, then swap) has order
three.  The tests and acceptance criterion 4 judge the two moves by these
identities.
"""

from __future__ import annotations

from mtcalc import graphcalc as gc
from mtcalc.graphcalc import CovertexVector, Morphism, VertexVector

_OPP = {"+": "-", "-": "+"}


def vertex_at(data, v: VertexVector, word, k) -> Morphism:
    """The vertex vector ``v`` applied at letters (k, k+1) of ``word``."""
    return gc.weighted_vertex(data, word, k, v.a1, v.a2, v.a3, v.vec)


def vertex_morphism(data, v: VertexVector) -> Morphism:
    return vertex_at(data, v, (v.a1, v.a2), 0)


def twist_morphism(data, word, k, sense: str) -> Morphism:
    theta = data.twist[word[k]]
    if sense == "-":
        theta = 1.0 / theta
    return theta * Morphism.identity(data, tuple(word))


def _as_vertex_vector(data, m: Morphism) -> VertexVector:
    if len(m.dom) != 2 or len(m.cod) != 1:
        raise ValueError("not a vertex-shaped morphism")
    c = m.cod[0]
    return VertexVector(m.dom[0], m.dom[1], c, tuple(m.block(c)[0, :]))


def _as_covertex_vector(data, m: Morphism) -> CovertexVector:
    if len(m.dom) != 1 or len(m.cod) != 2:
        raise ValueError("not a covertex-shaped morphism")
    c = m.dom[0]
    return CovertexVector(m.cod[0], m.cod[1], c, tuple(m.block(c)[:, 0]))


def swap_vertex(data, v: VertexVector, sense: str) -> VertexVector:
    """Compose a vertex with the braiding: '+' positive, '-' negative sense."""
    m = vertex_morphism(data, v) @ gc.braid_morphism(data, (v.a2, v.a1), 0, sense)
    return _as_vertex_vector(data, m)


def bend_vertex(data, v: VertexVector, sense: str) -> VertexVector:
    """Bend hom(a1 a2, a3) into hom(a1 a3', a2').

    The second input leg is bent around through a crossing of the given
    sense; the closed-off output leg carries the matching ribbon twist.
    """
    a1, a2, a3 = v.a1, v.a2, v.a3
    a2p, a3p = data.dual(a2), data.dual(a3)
    word = (a1, a3p)
    m = gc.cup_morphism(data, word, 2, a2, a2p) * gc.categorical_dim(data, a2)
    m = gc.braid_morphism(data, m.cod, 1, sense) @ m
    m = vertex_at(data, v, (a1, a2, a3p, a2p), 0) @ m
    m = twist_morphism(data, (a3, a3p, a2p), 0, sense) @ m
    m = gc.cap_morphism(data, (a3, a3p, a2p), 0, a3, a3p) @ m
    return _as_vertex_vector(data, m)


def basis_images(data, kind, a, b, c) -> tuple:
    """The images under ``kind`` (one of ``table_arrays.IMAGE_KINDS``) of
    the basis vertices of hom(a b, c): their weights, and the local block
    of each above the unit."""
    move = swap_vertex if kind.startswith("swap") else bend_vertex
    weights, rows = [], []
    for mu in range(data.n(a, b, c)):
        v = move(data, VertexVector.basis(data, a, b, c, mu), kind[-1])
        weights.append(v.vec)
        rows.append(gc._vertex_block(data, v.a1, v.a2, v.a3, v.vec, data.unit, v.a3)[0])
    return weights, rows


def unbend_vertex(data, v: VertexVector, sense: str) -> VertexVector:
    """Inverse bending: unbend_vertex(bend_vertex(v, s), s) == v."""
    a1, a2, a3 = v.a1, v.a2, v.a3
    a2p, a3p = data.dual(a2), data.dual(a3)
    word = (a1, a3p)
    m = gc.cup_morphism(data, word, 1, a2, a2p) * gc.categorical_dim(data, a2)
    m = vertex_at(data, v, (a1, a2, a2p, a3p), 0) @ m
    # the bent leg here is the second input strand; its ribbon twist is a
    # scalar of the opposite sense
    theta = data.twist[a2]
    m = (theta if sense == "-" else 1.0 / theta) * m
    m = gc.braid_morphism(data, (a3, a2p, a3p), 1, sense) @ m
    m = gc.cap_morphism(data, (a3, a3p, a2p), 0, a3, a3p) @ m
    return _as_vertex_vector(data, m)


def bend_covertex(data, f: CovertexVector, sense: str) -> CovertexVector:
    """Bend a splitting covertex, dual to ``unbend_vertex``.

    Maps hom(a3, a1 a2) to hom(a2', a1 a3') scaled by dim(a2)/dim(a3); the
    images pair to delta against bend_vertex images of the dual bases.
    """
    a1, a2, a3 = f.a1, f.a2, f.a3
    a2p, a3p = data.dual(a2), data.dual(a3)
    word = (a2p,)
    m = gc.cup_morphism(data, word, 0, a3, a3p) * gc.categorical_dim(data, a3)
    m = twist_morphism(data, (a3, a3p, a2p), 0, _OPP[sense]) @ m
    m = f.at(data, (a3, a3p, a2p), 0) @ m
    m = gc.braid_morphism(data, (a1, a2, a3p, a2p), 1, _OPP[sense]) @ m
    m = gc.cap_morphism(data, (a1, a3p, a2, a2p), 2, a2, a2p) @ m
    scale = gc.categorical_dim(data, a2) / gc.categorical_dim(data, a3)
    m = scale * m
    return _as_covertex_vector(data, m)


def rotate_vertex(data, v: VertexVector) -> VertexVector:
    """Cyclic rotation hom(a1 a2, a3) -> hom(a3' a1, a2'); order three."""
    return swap_vertex(data, bend_vertex(data, v, "+"), "+")


def rotate_vertex_inv(data, v: VertexVector) -> VertexVector:
    """Inverse rotation: unbend after the negative-sense swap."""
    return unbend_vertex(data, swap_vertex(data, v, "-"), "+")
