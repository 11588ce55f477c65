import itertools
import json
import math
import re
import types

import numpy as np
import pytest

from mtcalc import fusion_data as fd
from mtcalc import graphcalc as gc
from mtcalc.report import emit_report
from mtcalc.table_arrays import Trees, _braid_blocks

import coherence_oracle as oracle
import validation_oracle
from conftest import edited, entries, fusion

PHI = (1 + math.sqrt(5)) / 2
BUILTINS = fd.BUILTIN_NAMES


@pytest.mark.parametrize("name", BUILTINS)
def test_builtin_coherence(categories, name):
    rep = fd.verify_coherence(categories[name], 1e-9)
    assert rep.passed, [r for r in rep.records if not r.ok]


def test_trivial_coherence_exact(categories):
    # exactly representable data: residuals are zero, not merely small
    rep = fd.verify_coherence(categories["trivial"], 1e-9)
    assert rep.max_residual == 0.0
    rep = fd.verify_coherence(categories["z2_semion"], 1e-9)
    assert rep.max_residual == 0.0


def test_unknown_builtin():
    with pytest.raises(fd.CategoryDataError):
        fd.builtin_category("su2_level_grape")


@pytest.mark.parametrize(
    "name,label,dim",
    [
        ("trivial", 0, 1.0),
        ("z2_semion", 1, 1.0),
        ("fibonacci", 1, PHI),
        ("ising", 1, math.sqrt(2.0)),
        ("ising", 2, 1.0),
    ],
)
def test_quantum_dimension(categories, name, label, dim):
    assert abs(fd.quantum_dimension(categories[name], label) - dim) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_qdim_ring_homomorphism(categories, name):
    data = categories[name]
    for a in range(data.size):
        for b in range(data.size):
            lhs = data.qdim[a] * data.qdim[b]
            rhs = sum(data.n(a, b, c) * data.qdim[c] for c in range(data.size))
            assert abs(lhs - rhs) < 1e-9


@pytest.mark.parametrize("name", BUILTINS)
def test_twist_properties(categories, name):
    data = categories[name]
    for a in range(data.size):
        assert abs(abs(data.twist[a]) - 1.0) < 1e-12
        assert data.twist[a] == data.twist[data.dual(a)]
    assert data.twist[data.unit] == 1.0


def test_fibonacci_twist_value(categories):
    import cmath

    theta = categories["fibonacci"].twist[1]
    assert abs(theta - cmath.exp(4j * math.pi / 5)) < 1e-12
    assert abs(cmath.phase(theta) / (2 * math.pi) - 0.4) < 1e-12  # weight h = 2/5


def test_semion_twist_value(categories):
    assert categories["z2_semion"].twist[1] == 1j


# -- file format ------------------------------------------------------------


@pytest.mark.parametrize("name", BUILTINS + tuple(f"z{n}" for n in range(3, 14, 2)) + (
    "rep_a4_random", "near_group_random"))
def test_emit_load_roundtrip_bit_exact(oracle_input, name):
    data = oracle_input(name)
    text = fd.emit_category(data)
    loaded = fd.loads_category(text)
    assert fd.emit_category(loaded) == text
    # numbers survive the JSON round trip exactly
    assert entries(loaded) == entries(data)
    assert loaded.twist == data.twist


def test_load_example_files(categories, tmp_path):
    import pathlib

    here = pathlib.Path(__file__).parent / "data"
    loaded = fd.load_category(here / "fibonacci.json")
    assert entries(loaded)[0] == entries(categories["fibonacci"])[0]
    assert fd.load_category(here / "trivial.json").size == 1


def test_malformed_unit_constraint():
    doc = json.loads(fd.emit_category(fd.builtin_category("trivial")))
    doc["fusion"] = [[0, 0, 0, 2]]
    with pytest.raises(fd.CategoryDataError, match="unit constraint"):
        fd.loads_category(json.dumps(doc))


def test_dual_not_involution():
    doc = json.loads(fd.emit_category(fd.builtin_category("ising")))
    doc["dual"] = [0, 2, 2]
    with pytest.raises(fd.CategoryDataError, match="involution"):
        fd.loads_category(json.dumps(doc))


def test_missing_f_entry():
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    doc["F"] = doc["F"][:-1]
    with pytest.raises(fd.CategoryDataError, match="missing F"):
        fd.loads_category(json.dumps(doc))


def test_unit_gauge_enforced(off_unit_gauge_text):
    with pytest.raises(fd.CategoryDataError, match="unit label is not the identity"):
        fd.loads_category(off_unit_gauge_text)


def test_parse_failure():
    with pytest.raises(fd.CategoryDataError, match="JSON"):
        fd.loads_category("{not json")


def test_label_range_violation():
    doc = json.loads(fd.emit_category(fd.builtin_category("trivial")))
    doc["dual"] = [5]
    with pytest.raises(fd.CategoryDataError):
        fd.loads_category(json.dumps(doc))


def test_ring_associativity_violation():
    # dropping the (t,t)->t channel of Fibonacci leaves the associative Z_2
    # ring, so that file fails on its F entries of the dropped channel
    doc = json.loads(fd.emit_category(fd.builtin_category("fibonacci")))
    doc["fusion"] = [row for row in doc["fusion"] if row[:3] != [1, 1, 1]]
    N = {(a, b, c): v for a, b, c, v in doc["fusion"]}
    assert _dense_associativity_failure(len(doc["labels"]), N) is None
    with pytest.raises(fd.CategoryDataError, match="outside multiplicity range"):
        fd.loads_category(json.dumps(doc))
    # dropping Ising's (sigma, sigma) -> psi channel breaks associativity:
    # psi (sigma sigma) = psi, but (psi sigma) sigma = 1
    doc = json.loads(fd.emit_category(fd.builtin_category("ising")))
    doc["fusion"] = [row for row in doc["fusion"] if row[:3] != [1, 1, 2]]
    N = {(a, b, c): v for a, b, c, v in doc["fusion"]}
    first = _dense_associativity_failure(len(doc["labels"]), N)
    assert first is not None
    with pytest.raises(
        fd.CategoryDataError, match=re.escape(f"associative at {first}")
    ):
        fd.loads_category(json.dumps(doc))


def _self_dual_ring(n, N):
    labels = tuple(fd.Label(i, str(i)) for i in range(n))
    return fd.FusionRing(labels, 0, tuple(range(n)), N)


def test_ring_associativity_first_failure_matches_dense_loop():
    """Random self-dual rings with the unit and duality rows fixed: the
    ring's tree counts reject the rings the dense loop rejects and name the same
    first failing (a, b, c, d).  (The oracle inputs below are rings both
    accept.)"""
    rng = np.random.default_rng(11)
    failures = 0
    for trial in range(60):
        n = 3 + trial % 2
        N = {}
        for a, b in itertools.product(range(n), repeat=2):
            if 0 in (a, b):
                N[a, b, a + b] = 1
                continue
            N[a, b, 0] = int(a == b)
            for c in range(1, n):
                N[a, b, c] = int(rng.integers(0, 2)) * int(rng.integers(1, 3))
        first = _dense_associativity_failure(n, N)
        if first is None:
            _self_dual_ring(n, N)
            continue
        failures += 1
        with pytest.raises(
            fd.CategoryDataError, match=re.escape(f"associative at {first}")
        ):
            _self_dual_ring(n, N)
    assert failures


def _su2_fusion(k):
    """SU(2)_k by the truncated Clebsch-Gordan rule, labels 0..k (twice the
    spin): N_ab^c = 1 when |a - b| <= c <= min(a + b, 2k - a - b) and
    a + b + c is even."""
    return {
        (a, b, c): 1 for a, b, c in itertools.product(range(k + 1), repeat=3)
        if abs(a - b) <= c <= min(a + b, 2 * k - a - b) and (a + b + c) % 2 == 0
    }


@pytest.mark.parametrize("k", range(2, 13))
def test_su2_tree_count_matches_dense_count(k):
    n, N = k + 1, _su2_fusion(k)
    ring = _self_dual_ring(n, N)
    want = np.zeros((n,) * 4, dtype=np.int64)
    for a, b, c, d in itertools.product(range(n), repeat=4):
        want[a, b, c, d] = sum(
            N.get((a, b, x), 0) * N.get((x, c, d), 0) for x in range(n)
        )
    assert np.array_equal(ring.tree_count, want)


@pytest.mark.parametrize("k", range(2, 7))
def test_su2_without_a_channel_pair_fails_as_the_dense_loop(k):
    """Dropping the channels (a, b, c) and (b, a, c), none of them the unit,
    keeps the unit and duality rows: the ring is accepted exactly when the
    dense loop finds no failure, and otherwise names its first one."""
    n, full = k + 1, _su2_fusion(k)
    failures = 0
    for a, b, c in full:
        if 0 in (a, b, c) or a > b:
            continue
        N = {key: v for key, v in full.items() if key not in ((a, b, c), (b, a, c))}
        first = _dense_associativity_failure(n, N)
        if first is None:
            _self_dual_ring(n, N)
            continue
        failures += 1
        with pytest.raises(fd.CategoryDataError) as exc:
            _self_dual_ring(n, N)
        assert str(exc.value) == f"fusion ring not associative at {first}"
    assert failures


def test_ring_bounds_its_multiplicities():
    # the bound comes ahead of the int64 array the ring counts trees in
    labels = (fd.Label(0, "1"), fd.Label(1, "t"))
    N = {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1, (1, 1, 1): 10 ** 30}
    with pytest.raises(fd.CategoryDataError) as exc:
        fd.FusionRing(labels, 0, (0, 1), N)
    assert str(exc.value) == f"fusion multiplicity {10 ** 30} is too large for 2 labels"


def test_rings_compare_by_identity(categories):
    """A ring keeps N only as its array, so rings that differ only in N must
    not compare equal: rings compare by identity."""
    fib, semion = (categories[name].ring for name in ("fibonacci", "z2_semion"))

    def ring(source):
        return fd.FusionRing(fib.labels, source.unit, source.dual, fusion(source))

    assert ring(fib) != ring(semion)
    assert ring(fib) != ring(fib)
    same = ring(fib)
    assert same == same
    assert len({ring(fib), ring(fib)}) == 2


@pytest.mark.parametrize("name", ["fibonacci", "ising", "rep_a4_random"])
def test_explicit_zero_entries_give_the_same_ring(oracle_input, name):
    """N listed with every zero N_ab^c spelled out is the same ring: the
    same array, chain steps and tree counts, and its category writes the
    same file."""
    data = oracle_input(name)
    ring, n = data.ring, data.size
    N = dict.fromkeys(itertools.product(range(n), repeat=3), 0)
    N.update(fusion(ring))
    zeros = fd.FusionRing(ring.labels, ring.unit, ring.dual, N)
    for got, want in ((zeros.array, ring.array), (zeros.tree_count, ring.tree_count),
                      *zip(zeros.chain_steps, ring.chain_steps)):
        assert np.array_equal(got, want)
    assert [zeros.n(*key) for key in N] == [ring.n(*key) for key in N]
    other = fd.CategoryData(zeros, *entries(data), data.twist)
    assert fd.emit_category(other) == fd.emit_category(data)


# -- negative controls -------------------------------------------------------


def test_negated_r_symbol_breaks_hexagon(categories):
    data = categories["fibonacci"]
    bad = edited(data, R={(1, 1, 0, 0, 0): lambda v: -v})
    rep = fd.verify_coherence(bad, 1e-9)
    hex_res = max(r.residual for r in rep.records if r.id == "hexagon")
    assert hex_res > 0.1


def test_perturbed_f_breaks_pentagon(categories):
    data = categories["ising"]
    bad = edited(data, F={(1, 1, 1, 1, 0, 0, 0, 0, 0, 0): lambda v: v * 1.5})
    rep = fd.verify_coherence(bad, 1e-9)
    pent = max(r.residual for r in rep.records if r.id == "pentagon")
    assert pent > 1e-2


def test_nonunitary_gauge_reported(categories):
    data = categories["z2_semion"]
    bad = edited(data, R={(1, 1, 0, 0, 0): -3j})
    rep = fd.verify_coherence(bad, 1e-9)
    runit = max(r.residual for r in rep.records if r.id == "r_unitary")
    assert runit > 1.0


# -- channel walk against the dense scans ------------------------------------
#
# The functions below are the dense loops the channel walk replaced: every
# label at every index, filtered by a multiplicity test.  They are the oracle
# of the walk, which must give the same bases, records, order and floats.


def _dense_associativity_failure(n, N):
    """First (a, b, c, d) at which (ab)c and a(bc) differ, or None."""

    def mult(a, b, c):
        return N.get((a, b, c), 0)

    for a, b, c, d in itertools.product(range(n), repeat=4):
        lhs = sum(mult(a, b, x) * mult(x, c, d) for x in range(n))
        rhs = sum(mult(b, c, y) * mult(a, y, d) for y in range(n))
        if lhs != rhs:
            return (a, b, c, d)
    return None


def _dense_f_right_basis(data, a, b, c, d):
    out = []
    for x in range(data.size):
        for i in range(data.n(a, x, d)):
            for j in range(data.n(b, c, x)):
                out.append((x, i, j))
    return out


def _dense_f_left_basis(data, a, b, c, d):
    out = []
    for y in range(data.size):
        for l in range(data.n(a, b, y)):
            for k in range(data.n(y, c, d)):
                out.append((y, k, l))
    return out


def _table_bases(data) -> dict:
    """The rows and the columns of every F-block as the F-table keys them,
    (x, i, j) and (y, k, l) triples in block order, by block labels; the
    table keys the columns by (y, l, k)."""
    F = data._f_table
    labels = list(zip(*(lab.tolist() for lab in F.labels)))
    out = {key: ([], []) for key in labels}
    g, x, i, j = np.unravel_index(F.row_keys, F.row_radix)
    h, y, l, k = np.unravel_index(F.col_keys, F.col_radix)
    for side, (blocks, cols) in enumerate(((g, (x, i, j)), (h, (y, k, l)))):
        for block, triple in zip(blocks.tolist(), zip(*(col.tolist() for col in cols))):
            out[labels[block]][side].append(triple)
    return out


def _dense_tree_basis3(data, w1, w2, w3, tot):
    out = []
    for y in range(data.size):
        for l in range(data.n(w1, w2, y)):
            for m in range(data.n(y, w3, tot)):
                out.append((y, l, m))
    return out


ORACLE_INPUTS = BUILTINS + ("z5", "rep_a4_random", "near_group_random")


@pytest.fixture
def oracle_input(categories, pointed_category, rep_a4_random, near_group_random):
    def get(name):
        if re.fullmatch(r"z\d+", name):
            return pointed_category(int(name[1:]))
        if name == "rep_a4_random":
            return rep_a4_random
        if name == "near_group_random":
            return near_group_random
        return categories[name]

    return get


def _vec_s3_parts(zeros):
    """The non-commutative Vec_S3 of ``test_cli``, built without a file;
    with ``zeros``, its ring also lists every N_ab^c = 0 as an entry."""
    from test_cli import _vec_s3_text

    doc = json.loads(_vec_s3_text())
    n = len(doc["labels"])
    N = dict.fromkeys(itertools.product(range(n), repeat=3), 0) if zeros else {}
    N.update({tuple(row[:3]): row[3] for row in doc["fusion"]})
    ring = fd.FusionRing(
        tuple(fd.Label(i, s) for i, s in enumerate(doc["labels"])), 0, tuple(doc["dual"]), N
    )
    F, R = ({tuple(e["labels"] + e["mult"]): complex(*e["value"]) for e in doc[t]}
            for t in ("F", "R"))
    return ring, F, R, [1.0] * n


F_KEY = (1, 1, 1, 1, 0, 0, 0, 0, 0, 0)
NAN, INF = complex(math.nan, 0.0), complex(0.0, math.inf)

# Inputs with bad F or R entries, built directly: a category, the entries
# (table, place in its input order or None for the end, key, value) put
# into it, and the message both the per-key route and the array checks give.
BAD_ENTRIES = {
    "f_key_short": ("fibonacci", [("F", 3, F_KEY[:9], 1.0)],
                    "malformed F key (1, 1, 1, 1, 0, 0, 0, 0, 0)"),
    "f_key_long_before_range": (
        "fibonacci", [("F", 9, (2,) + F_KEY[1:], 1.0), ("F", 3, F_KEY + (0,), 1.0)],
        "malformed F key (1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0)"),
    "f_range_before_long_key": (
        "fibonacci", [("F", 9, F_KEY + (0,), 1.0), ("F", 3, (2,) + F_KEY[1:], 1.0)],
        "F entry (2, 1, 1, 1, 0, 0, 0, 0, 0, 0) outside multiplicity range"),
    "r_key_long": ("fibonacci", [("R", 1, (1, 1, 0, 0, 0, 0), 1.0)],
                   "malformed R key (1, 1, 0, 0, 0, 0)"),
    # -1 would index the last label, and the entry would land in a block
    "f_label_negative": ("fibonacci", [("F", 0, (-1,) + F_KEY[1:], 1.0)],
                         "F entry (-1, 1, 1, 1, 0, 0, 0, 0, 0, 0) outside multiplicity range"),
    "r_label_negative": ("fibonacci", [("R", 0, (1, -1, 0, 0, 0), 1.0)],
                         "R entry (1, -1, 0, 0, 0) outside multiplicity range"),
    "f_label_n": ("fibonacci", [("F", None, (1, 1, 1, 1, 2, 0, 0, 0, 0, 0), 1.0)],
                  "F entry (1, 1, 1, 1, 2, 0, 0, 0, 0, 0) outside multiplicity range"),
    "r_label_n": ("fibonacci", [("R", None, (1, 1, 2, 0, 0), 1.0)],
                  "R entry (1, 1, 2, 0, 0) outside multiplicity range"),
    "f_index_n": ("rep_a4_random", [("F", 5, (3, 3, 3, 3, 3, 3, 0, 0, 0, 2), 1.0)],
                  "F entry (3, 3, 3, 3, 3, 3, 0, 0, 0, 2) outside multiplicity range"),
    "f_index_negative": ("rep_a4_random", [("F", 5, (3, 3, 3, 3, 3, 3, 0, -1, 0, 0), 1.0)],
                         "F entry (3, 3, 3, 3, 3, 3, 0, -1, 0, 0) outside multiplicity range"),
    "r_index_n": ("rep_a4_random", [("R", 5, (3, 3, 3, 2, 0), 1.0)],
                  "R entry (3, 3, 3, 2, 0) outside multiplicity range"),
    "f_nan": ("fibonacci", [("F", None, F_KEY, NAN)],
              "F entry (1, 1, 1, 1, 0, 0, 0, 0, 0, 0) is not finite"),
    "r_inf": ("fibonacci", [("R", None, (1, 1, 0, 0, 0), INF)],
              "R entry (1, 1, 0, 0, 0) is not finite"),
    # every value is checked before any key
    "r_nan_before_f_key": (
        "fibonacci", [("F", 0, F_KEY[:9], 1.0), ("R", None, (1, 1, 1, 0, 0), NAN)],
        "R entry (1, 1, 1, 0, 0) is not finite"),
    "r_index_past_int32": ("fibonacci", [("R", 2, (1, 1, 0, 2 ** 31, 0), 1.0)],
                           "R entry (1, 1, 0, 2147483648, 0) outside multiplicity range"),
    "f_label_past_int64": (
        "fibonacci", [("F", 2, (2 ** 63,) + F_KEY[1:], 1.0)],
        "F entry (9223372036854775808, 1, 1, 1, 0, 0, 0, 0, 0, 0) outside multiplicity range"),
    "f_index_past_int64": (
        "rep_a4_random", [("F", 2, (3, 3, 3, 3, 3, 3, 0, 0, 2 ** 64, 0), 1.0)],
        "F entry (3, 3, 3, 3, 3, 3, 0, 0, 18446744073709551616, 0) outside multiplicity range"),
    "r_label_past_int64": (
        "fibonacci", [("R", 2, (1, -2 ** 63 - 1, 0, 0, 0), 1.0)],
        "R entry (1, -9223372036854775809, 0, 0, 0) outside multiplicity range"),
    "r_index_past_int64": ("fibonacci", [("R", 2, (1, 1, 0, 10 ** 30, 0), 1.0)],
                           "R entry (1, 1, 0, 1000000000000000000000000000000, 0) "
                           "outside multiplicity range"),
    # the fusion rules are checked after the F keys, before the R keys
    "noncommutative": ("vec_s3", [("R", 0, (1, 1, 1, 1, 1), 1.0)],
                       "fusion rules not commutative at (1, 2, 4)"),
    # explicit zero entries give the same ring as no entries
    "noncommutative_zero_entries": ("vec_s3_zeros", [],
                                    "fusion rules not commutative at (1, 2, 4)"),
    "f_key_before_noncommutative": ("vec_s3", [("F", None, F_KEY[:9], 1.0)],
                                    "malformed F key (1, 1, 1, 1, 0, 0, 0, 0, 0)"),
}


@pytest.mark.parametrize("case", BAD_ENTRIES)
def test_array_checks_name_the_entry_the_per_key_route_names(oracle_input, case):
    base, edits, message = BAD_ENTRIES[case]
    if base.startswith("vec_s3"):
        ring, F, R, twist = _vec_s3_parts(zeros=base.endswith("zeros"))
    else:
        data = oracle_input(base)
        (F, R), ring, twist = entries(data), data.ring, data.twist
    tables = {"F": list(F.items()), "R": list(R.items())}
    for table, at, key, value in edits:
        tables[table].insert(len(tables[table]) if at is None else at, (key, value))
    F, R = dict(tables["F"]), dict(tables["R"])  # a repeated key keeps its place
    with pytest.raises(fd.CategoryDataError) as want:
        validation_oracle.check_entries(ring, F, R, twist)
    with pytest.raises(fd.CategoryDataError) as got:
        fd.CategoryData(ring, F, R, twist)
    assert str(got.value) == str(want.value) == message


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_per_key_route_passes_the_inputs(oracle_input, name):
    data = oracle_input(name)
    validation_oracle.check_entries(data.ring, *entries(data), data.twist)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_channel_walk_bases_match_dense_scan(oracle_input, name):
    """The F-table's row and column keys of each block are the oracle's
    channel-walk bases and the dense scan's, in order."""
    data = oracle_input(name)
    table = _table_bases(data)
    for a, b, c, d in itertools.product(range(data.size), repeat=4):
        rows, cols = table.get((a, b, c, d), ([], []))
        assert rows == oracle.f_right_basis(data, a, b, c, d) == _dense_f_right_basis(
            data, a, b, c, d
        )
        assert cols == oracle.f_left_basis(data, a, b, c, d) == _dense_f_left_basis(
            data, a, b, c, d
        )
        assert oracle.tree_basis3(data, a, b, c, d) == _dense_tree_basis3(data, a, b, c, d)
    assert _dense_associativity_failure(data.size, fusion(data.ring)) is None


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_f_columns_are_the_trees_in_tree_order(oracle_input, name):
    """The F-table keys each block's columns (y, l, k) in tree order: they
    are the trees ((y, l), (d, k)) that ``Trees`` enumerates for the
    block's word (a, b, c) -> d, in order."""
    data = oracle_input(name)
    F = data._f_table
    a, b, c, d = F.labels
    trees = Trees(data.ring, np.stack((a, b, c), axis=1), d)
    g, y, l, k = np.unravel_index(F.col_keys, F.col_radix)
    (tree_y, tree_d), (tree_l, tree_k) = trees.states, trees.mults
    for got, want in ((g, trees.word), (y, tree_y), (l, tree_l), (k, tree_k), (d[g], tree_d)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_channel_walk_coherence_matches_dense_scan(oracle_input, monkeypatch, name):
    data = oracle_input(name)
    pent = list(fd.pentagon_residuals(data))
    hexa = list(fd.hexagon_residuals(data))
    assert pent == list(oracle.dense_pentagon_residuals(data))
    if name.endswith("_random"):
        assert max(r for _, r in pent) > 0.1 and max(r for _, r in hexa) > 0.1
    # the hexagon instance over every total, on its dense bases; the
    # oracle assembles its F-blocks over the dense bases too
    monkeypatch.setattr(oracle, "tree_basis3", _dense_tree_basis3)
    monkeypatch.setattr(oracle, "f_right_basis", _dense_f_right_basis)
    monkeypatch.setattr(oracle, "f_left_basis", _dense_f_left_basis)
    assert hexa == list(oracle.dense_hexagon_residuals(data))


# -- the tree enumerator against the tuple walk -------------------------------

@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_batched_braid_is_the_braid_morphism(oracle_input, name):
    """The one batched braid, at every F-block quad (p, u, v, q) and in
    both senses, is the block at charge q of ``graphcalc.braid_morphism`` of
    the word (p, u, v) at letter 1, bit for bit."""
    data = oracle_input(name)
    F = data._f_table
    quads = np.concatenate([F.labels] * 2, axis=1)
    plus = np.arange(quads.shape[1]) < len(F.blocks)
    flat, start, size, *_ = _braid_blocks(F, data._r_table, data.ring.array, quads, plus)
    morphisms = {}
    for g, (p, u, v, q) in enumerate(zip(*quads.tolist())):
        sense = "+" if plus[g] else "-"
        if (sense, p, u, v) not in morphisms:
            morphisms[sense, p, u, v] = gc.braid_morphism(data, (p, u, v), 1, sense)
        want = morphisms[sense, p, u, v].block(q)
        got = flat[start[g]:start[g] + size[g] ** 2].reshape(size[g], size[g])
        assert np.array_equal(got, want), (sense, p, u, v, q)


@pytest.mark.parametrize("name", ORACLE_INPUTS)
def test_hexagon_braids_are_the_braid_morphisms(oracle_input, name):
    """Every hexagon reads its braids in the tree bases: at each instance
    (a, b, c, t) and in both senses, the oracle's braid (1,2) and braid
    (2,3) matrices are ``graphcalc.braid_morphism`` of (a, b, c) at letter
    0, to 1e-12 relative, and of (b, a, c) at letter 1, bit for bit, at
    charge t.  With fusion multiplicities a block's F-column order and its
    tree order differ unless the table keys the columns in tree order, so
    reading a braid's index in the one order and the other's in the other
    would fail here; the batched hexagon matches the oracle bit for bit."""
    data = oracle_input(name)
    n = data.size
    compared = 0
    for sense, sign in (("+", 1), ("-", -1)):
        for a, b, c in itertools.product(range(n), repeat=3):
            first = gc.braid_morphism(data, (a, b, c), 0, sense)
            second = gc.braid_morphism(data, (b, a, c), 1, sense)
            for t in oracle.totals(data, (a, b, c)):
                b12, b23, _ = oracle.hexagon_matrices(data, a, b, c, t, sign)
                want = first.block(t)
                assert b12.shape == want.shape
                gap = np.max(np.abs(b12 - want), initial=0.0)
                assert gap <= 1e-12 * np.max(np.abs(want), initial=0.0), (sense, a, b, c, t)
                assert np.array_equal(b23, second.block(t)), (sense, a, b, c, t)
                compared += 1
    assert compared == len(list(fd.hexagon_residuals(data)))


ENUMERATOR_INPUTS = BUILTINS +("z3", "z5", "z7", "rep_a4_random", "near_group_random") + tuple(
    f"su2_{k}" for k in range(2, 13)
)


@pytest.mark.parametrize("name", ENUMERATOR_INPUTS)
def test_tree_enumerator_matches_word_trees(oracle_input, name):
    """``Trees`` lists the trees of every 2- and 3-letter word into every
    charge as ``graphcalc.word_trees`` lists them: the same trees, states
    and multiplicities, in the same order; and ``place`` finds each one at
    its own place.  The SU(2)_k inputs are rings only, with no F-table."""
    if name.startswith("su2_"):
        k = int(name[4:])
        ring = _self_dual_ring(k + 1, _su2_fusion(k))
    else:
        ring = oracle_input(name).ring
    walk = types.SimpleNamespace(ring=ring, unit=ring.unit, _tree_cache={}, _local_cache={})
    n = ring.size
    for length in (2, 3):
        words = list(itertools.product(range(n), repeat=length))
        got = Trees(ring, np.repeat(np.array(words), n, axis=0), np.tile(np.arange(n), len(words)))
        want = [gc.trees(walk, word, d) for word in words for d in range(n)]
        assert np.array_equal(got.size, [len(trees) for trees in want])
        assert np.array_equal(got.word, np.repeat(np.arange(len(want)), got.size))
        flat = [tree for trees in want for tree in trees]
        for letter in range(length - 1):
            assert np.array_equal(got.states[letter], [tree[letter][0] for tree in flat])
            assert np.array_equal(got.mults[letter], [tree[letter][1] for tree in flat])
        at = got.place(got.word, got.states, got.mults)
        assert np.array_equal(at, np.arange(len(flat)) - got.start[got.word])


def test_coherence_visits_only_reachable_totals(pointed_category, monkeypatch):
    """On Z_7 the batched suites evaluate one pentagon per word and one
    hexagon per word and sense, each yielding one record, where the dense
    scan tried all 7 totals."""
    data = pointed_category(7)
    evaluated = {}

    def counted(kind, fn):
        def wrapper(*tables):
            keys, *residuals = out = fn(*tables)
            evaluated[kind] = sum(map(len, residuals))
            return out
        return wrapper

    for kind in ("pentagon", "hexagon"):
        name = f"{kind}_batch"
        monkeypatch.setattr(fd, name, counted(kind, getattr(fd, name)))
    assert len(list(fd.pentagon_residuals(data))) == evaluated["pentagon"] == 7 ** 4
    assert len(list(fd.hexagon_residuals(data))) == evaluated["hexagon"] == 2 * 7 ** 3


def _zero_block(data, table, block):
    """``data`` with every entry of one F- or R-block set to zero."""
    keys = entries(data)["FR".index(table)]
    zeros = {key: 0j for key in keys if key[:len(block)] == block}
    return edited(data, **{table: zeros})


INCOHERENT = {
    "ising_perturbed_f": lambda get: edited(
        get("ising"), F={(1, 1, 1, 1, 0, 0, 0, 0, 0, 0): lambda v: v * 1.5}
    ),
    "fibonacci_negated_r": lambda get: edited(
        get("fibonacci"), R={(1, 1, 0, 0, 0): lambda v: -v}
    ),
    "z3_singular_f": lambda get: _zero_block(get("z3"), "F", (1, 1, 1, 0)),
    "z3_singular_r": lambda get: _zero_block(get("z3"), "R", (1, 2, 0)),
}


@pytest.mark.parametrize("name", ORACLE_INPUTS + ("z7",) + tuple(INCOHERENT))
def test_batched_report_matches_oracle_bytes(oracle_input, name):
    """The batched suite writes the report the per-instance routes and the
    per-block loop write, byte for byte, on coherent and incoherent data."""
    make = INCOHERENT.get(name)
    data = make(oracle_input) if make else oracle_input(name)
    fresh = edited(data)
    got = emit_report(fd.verify_coherence(data, 1e-9))
    assert got == emit_report(oracle.verify_coherence(fresh, 1e-9))
    if name.startswith("z3_singular"):
        records = json.loads(got)["records"]
        assert any(r["id"] == "hexagon" and r["residual"] == math.inf for r in records)
        if name == "z3_singular_f":
            assert [
                r["residual"] for r in records
                if r["id"] == "f_invertible" and r["instance"] == [1, 1, 1, 0]
            ] == [1.0]
    elif make:
        assert not json.loads(got)["summary"]["pass"]


def _z3_twist_of_1_negated(get):
    data = get("z3")
    return edited(data, twist=[data.twist[0], -data.twist[1], data.twist[2]])


N_ONLY = (
    "reads only N and the dimensions computed from it, so no file the "
    "loader accepts fails it (ROADMAP item 10)"
)

# per check id of verify-category, a corrupted input that fails it, or the
# reason why no loadable input can
COHERENCE_NEGATIVE_CONTROLS = {
    "pentagon": INCOHERENT["ising_perturbed_f"],
    "hexagon": INCOHERENT["fibonacci_negated_r"],
    "f_unitary": INCOHERENT["ising_perturbed_f"],
    "r_unitary": lambda get: edited(get("fibonacci"), R={(1, 1, 0, 0, 0): lambda v: v * 2}),
    "f_invertible": INCOHERENT["z3_singular_f"],
    "twist_dual": _z3_twist_of_1_negated,
    "twist_unit": lambda get: edited(
        get("fibonacci"), twist=[-1.0, get("fibonacci").twist[1]]
    ),
    "qdim_pf": N_ONLY,
    "qdim_dual": N_ONLY,
    "qdim_ring_hom": N_ONLY,
}


def test_every_coherence_check_id_has_a_negative_control(categories):
    ids = {r.id for r in fd.verify_coherence(categories["ising"]).records}
    assert ids == set(COHERENCE_NEGATIVE_CONTROLS)


@pytest.mark.parametrize("check_id", [
    check_id for check_id, control in COHERENCE_NEGATIVE_CONTROLS.items()
    if callable(control)
])
def test_coherence_negative_control(oracle_input, check_id):
    """The corruption fails ``check_id``; the pass flags the columnar report
    writes, and its summary, are those of its records."""
    rep = fd.verify_coherence(COHERENCE_NEGATIVE_CONTROLS[check_id](oracle_input), 1e-9)
    records = rep.records
    assert any(r.id == check_id and not r.ok for r in records)
    doc = json.loads(emit_report(rep))
    written = [(r["id"], r["pass"]) for r in doc["records"]]
    assert written == [(r.id, r.ok) for r in records]
    assert doc["summary"]["pass"] is rep.passed is False


def _block_or_error(fn, *args):
    try:
        return fn(*args), None
    except fd.CategoryDataError as exc:
        return None, str(exc)


@pytest.mark.parametrize("name", ORACLE_INPUTS + ("z3_singular_f", "z3_singular_r"))
def test_table_blocks_match_entry_assembly(oracle_input, name):
    """The blocks and inverses ``CategoryData`` serves from its tables equal,
    bit for bit, the blocks assembled entry by entry and inverted one at a
    time, for every label tuple, unreachable ones (0 x 0) included; a
    singular block raises the same message on both routes."""
    make = INCOHERENT.get(name)
    data = make(oracle_input) if make else oracle_input(name)
    errors = set()
    for n_labels, accessors in (
        (4, ((data.f_block, oracle.f_block), (data.f_block_inv, oracle.f_block_inv))),
        (3, ((data.r_block, oracle.r_block), (data.r_block_inv, oracle.r_block_inv))),
    ):
        for labels in itertools.product(range(data.size), repeat=n_labels):
            for served, assembled in accessors:
                got, error = _block_or_error(served, *labels)
                want, want_error = _block_or_error(assembled, data, *labels)
                assert error == want_error, labels
                if error:
                    errors.add(error)
                    continue
                assert got.shape == want.shape and got.dtype == want.dtype, labels
                assert got.tobytes() == want.tobytes(), labels
                assert not got.flags.writeable
    assert errors == {
        "z3_singular_f": {"F block (1, 1, 1, 0) is singular"},
        "z3_singular_r": {"R block (1, 2, 0) is singular"},
    }.get(name, set())
