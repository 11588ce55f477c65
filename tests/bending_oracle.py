"""The inverse bending moves and the rotation, as oracles of ``bend_vertex``
and ``swap_vertex``.

``graphcalc.bend_vertex`` and ``graphcalc.swap_vertex`` are the bending
moves the fusing-symmetry and invariant-form suites run.  The moves here
are built from the same generators along independent routes: unbending
undoes a bend, a bent covertex pairs to the identity against the bent
vertex of the dual basis, and the rotation (bend, then swap) has order
three.  The tests and acceptance criterion 4 judge the two suite moves by
these identities.
"""

from __future__ import annotations

from mtcalc import graphcalc as gc
from mtcalc.graphcalc import CovertexVector, Morphism, VertexVector

_OPP = {"+": "-", "-": "+"}


def _as_covertex_vector(data, m: Morphism) -> CovertexVector:
    if len(m.dom) != 1 or len(m.cod) != 2:
        raise ValueError("not a covertex-shaped morphism")
    c = m.dom[0]
    return CovertexVector(m.cod[0], m.cod[1], c, tuple(m.block(c)[:, 0]))


def unbend_vertex(data, v: VertexVector, sense: str) -> VertexVector:
    """Inverse bending: unbend_vertex(bend_vertex(v, s), s) == v."""
    a1, a2, a3 = v.a1, v.a2, v.a3
    a2p, a3p = data.dual(a2), data.dual(a3)
    word = (a1, a3p)
    m = gc.cup_morphism(data, word, 1, a2, a2p) * gc.categorical_dim(data, a2)
    m = v.at(data, (a1, a2, a2p, a3p), 0) @ m
    # the bent leg here is the second input strand; its ribbon twist is a
    # scalar of the opposite sense
    theta = data.twist[a2]
    m = (theta if sense == "-" else 1.0 / theta) * m
    m = gc.braid_morphism(data, (a3, a2p, a3p), 1, sense) @ m
    m = gc.cap_morphism(data, (a3, a3p, a2p), 0, a3, a3p) @ m
    return gc._as_vertex_vector(data, m)


def bend_covertex(data, f: CovertexVector, sense: str) -> CovertexVector:
    """Bend a splitting covertex, dual to ``unbend_vertex``.

    Maps hom(a3, a1 a2) to hom(a2', a1 a3') scaled by dim(a2)/dim(a3); the
    images pair to delta against bend_vertex images of the dual bases.
    """
    a1, a2, a3 = f.a1, f.a2, f.a3
    a2p, a3p = data.dual(a2), data.dual(a3)
    word = (a2p,)
    m = gc.cup_morphism(data, word, 0, a3, a3p) * gc.categorical_dim(data, a3)
    m = gc.twist_morphism(data, (a3, a3p, a2p), 0, _OPP[sense]) @ m
    m = f.at(data, (a3, a3p, a2p), 0) @ m
    m = gc.braid_morphism(data, (a1, a2, a3p, a2p), 1, _OPP[sense]) @ m
    m = gc.cap_morphism(data, (a1, a3p, a2, a2p), 2, a2, a2p) @ m
    scale = gc.categorical_dim(data, a2) / gc.categorical_dim(data, a3)
    m = scale * m
    return _as_covertex_vector(data, m)


def rotate_vertex(data, v: VertexVector) -> VertexVector:
    """Cyclic rotation hom(a1 a2, a3) -> hom(a3' a1, a2'); order three."""
    return gc.swap_vertex(data, gc.bend_vertex(data, v, "+"), "+")


def rotate_vertex_inv(data, v: VertexVector) -> VertexVector:
    """Inverse rotation: unbend after the negative-sense swap."""
    return unbend_vertex(data, gc.swap_vertex(data, v, "-"), "+")
