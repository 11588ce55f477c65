"""The full walk of the coproduct diagram, the oracle of the restricted one.

``diagonal_frobenius._comult_diagram`` gives each layer of the dual-pair
diagram only the source assignments its input reaches.  Here every layer
is the memoized full layer, which builds a block for every summand
assignment of its word (n^5 of them for the product on the 5-letter word
of a one-letter input).  The layers run on a copy of the algebra, so the
algebra's own memo keeps none of the longer intermediate words.
"""

from __future__ import annotations

import dataclasses

from mtcalc import diagonal_frobenius as df
from mtcalc.deligne_double import DoubleMorphism


def comult_diagram(alg, word, k) -> DoubleMorphism:
    """Coproduct at letter k through unrestricted layers: phi, the nested
    dual pairs, the product, the closing pairing and the inverse form
    coefficient on both outputs."""
    alg = dataclasses.replace(alg)
    word = tuple(word)
    m = df.phi_layer(alg, word, k, +1)
    m = df.coev_layer(alg, word, k + 1) @ m               # outer dual pair
    m = df.coev_layer(alg, m.cod, k + 2) @ m              # inner dual pair
    m = df.mult_layer(alg, m.cod, k + 1) @ m              # multiply into the pairs
    m = df.ev_layer(alg, m.cod, k) @ m                    # close against the input
    cod = m.cod
    m = df.phi_layer(alg, cod, k, -1) @ m
    m = df.phi_layer(alg, cod, k + 1, -1) @ m
    return m


def comult_tensor(alg) -> dict:
    """The coproduct tensor read off the full walk on the one-letter word,
    keyed as ``diagonal_frobenius.comult_tensor``."""
    delta = comult_diagram(alg, (alg.object,), 0)
    out = {}
    for (s1, s2, s3), block in alg.mult.items():
        key = ((s3,), (s1, s2)) + alg.object.summands[s3]
        mat = delta.blocks.get(key)
        if mat is not None:
            out[(s1, s2, s3)] = mat.reshape(block.shape).copy()
    return out
