"""The composed completeness route, the oracle of the table-level
``completeness`` records of ``graphcalc.verify_rigidity``.

``completeness_defect`` builds a ``Morphism`` for every basis vertex of
hom(a b, c) and its covertex, composes each pair and sums the composites
into the identity of the word (a, b).  The suite reads the same sums off
the stacked unit F-blocks F(e, a, b, q) and their inverses; the test
requires the two to agree bit for bit.
"""

from mtcalc import graphcalc as gc
from mtcalc.graphcalc import Morphism


def completeness_defect(data, a, b) -> float:
    """Residual of sum_c,i covertex(c;i) . vertex(c;i) = identity on (a, b)."""
    total = Morphism.zero(data, (a, b), (a, b))
    for c in range(data.size):
        for mu in range(data.n(a, b, c)):
            down = gc.vertex_morphism(data, (a, b), 0, a, b, c, mu)
            up = gc.covertex_morphism(data, (c,), 0, a, b, c, mu)
            total = total + (up @ down)
    return total.distance(Morphism.identity(data, (a, b)))
