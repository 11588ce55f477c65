"""The benchmark tracer (perfbench/spans.py) wraps mtcalc functions and
methods by name; this test pins the names and signatures it relies on."""

import json
import math
import sys
from pathlib import Path

import pytest

import mtcalc.cli_io as cli_io
import mtcalc.deligne_double as dd
import mtcalc.diagonal_frobenius as df
import mtcalc.fusion_data as fd
import mtcalc.graphcalc as gc
import mtcalc.sewing_operad as so

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings():
    """Every attribute of every loaded mtcalc module and morphism class."""
    owners = [
        m for n, m in sys.modules.items()
        if m is not None and (n == "mtcalc" or n.startswith("mtcalc."))
    ]
    out = {(id(o), k): v for o in owners for k, v in vars(o).items()}
    for cls in (gc.Morphism, dd.DoubleMorphism):
        out.update({(id(cls), k): v for k, v in vars(cls).items()})
    return out


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job("verify-ffa trivial")
        status, _ = cli_io.run_suite(["verify-ffa", "builtin:trivial"])
        assert status == cli_io.EXIT_OK
        values = spans.layer_values(tracer.summary())
    finally:
        tracer.uninstall()
    assert set(values) == set(spans.layer_units())
    for name in (
        "graphcalc.trees.calls",
        "graphcalc.Morphism.matmul.calls",
        "deligne_double.add_block.calls",
        # the doubled-layer walk must reach the wrapped module globals, or
        # these per-layer counts read 0 on working code
        "deligne_double.assignments.calls",
        "deligne_double.pair_layer.calls",
        "deligne_double.add_block.kron_calls",
        "deligne_double.DoubleMorphism.matmul.calls",
        "deligne_double.DoubleMorphism.identity.calls",
    ):
        assert values[name] > 0, name
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())



@pytest.mark.parametrize("extra", [(), ("--exact",)], ids=["float", "exact"])
def test_tracer_counts_operad_layers(monkeypatch, extra):
    # the operad workload's per-layer counts come from wrapped module globals;
    # an inlined call (is_sewable inside sew, say) would read 0 on working code
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    # every triple _sample_sewable returns has passed one traced is_sewable
    # call; the suite sews those triples unchecked, so is_sewable counts
    # fall, but never below the samples
    samples = []
    sample = so._sample_sewable
    monkeypatch.setattr(so, "_sample_sewable",
                        lambda *a, **k: samples.append(1) or sample(*a, **k))
    argv = ["operad-check", "--trials", "3", *extra]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(" ".join(argv))
        status, _ = cli_io.run_suite(argv)
        assert status == cli_io.EXIT_OK
        summary = tracer.summary()
        values = spans.layer_values(summary)
    finally:
        tracer.uninstall()
    for name in ("is_sewable", "sew", "geometric_sew_oracle", "random_sphere",
                 "permute"):
        assert values[f"sewing_operad.{name}.calls"] > 0, name
    assert len(samples) >= 3 * 3  # main, associativity, equivariance
    assert values["sewing_operad.is_sewable.calls"] >= len(samples)
    assert summary["counters"]["sewing_operad.is_sewable.accepted"] >= len(samples)


def test_tracer_wraps_report_writer(monkeypatch):
    # the report counters come from the wrapped emit_report; a writer the
    # tracer did not reach would read 0 bytes on working code
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    argv = ["verify-category", "builtin:fibonacci"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(" ".join(argv))
        status, out = cli_io.run_suite(argv)
        values = spans.layer_values(tracer.summary())
    finally:
        tracer.uninstall()
    assert status == cli_io.EXIT_OK
    assert values["cli_io.emit_report.calls"] > 0
    assert values["cli_io.report_bytes"] == len(out)


def test_tracer_counts_coherence_items(monkeypatch):
    # the pentagon and hexagon counts come from the wrapped generators; a
    # batched route the wrapper did not reach would count 0 items, or fewer
    # items than records, on working code
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    argv = ["verify-category", "builtin:ising"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(" ".join(argv))
        status, out = cli_io.run_suite(argv)
        values = spans.layer_values(tracer.summary())
    finally:
        tracer.uninstall()
    assert status == cli_io.EXIT_OK
    records = json.loads(out)["records"]
    for kind in ("pentagon", "hexagon"):
        want = sum(r["id"] == kind for r in records)
        assert want > 0
        assert values[f"fusion_data.{kind}_residuals.items"] == want, kind


def test_tracer_counts_block_inverses(monkeypatch):
    # the inverse-block counts come from the wrapped CategoryData methods; a
    # caller that reached the block store past them would count 0 on
    # working code
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    argv = ["fusing-symmetries", "builtin:ising"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(" ".join(argv))
        status, _ = cli_io.run_suite(argv)
        values = spans.layer_values(tracer.summary())
    finally:
        tracer.uninstall()
    assert status == cli_io.EXIT_OK
    for name in ("f_block_inv", "r_block_inv"):
        assert values[f"fusion_data.{name}.calls"] > 0, name


def test_tracer_counts_algebra_layers(monkeypatch):
    # the algebra layer counts come from the wrapped module globals; a layer
    # that the suites reached past them would count 0 on working code
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    argv = ["verify-ffa", "builtin:ising"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(" ".join(argv))
        status, _ = cli_io.run_suite(argv)
        values = spans.layer_values(tracer.summary())
    finally:
        tracer.uninstall()
    assert status == cli_io.EXIT_OK
    for name in ("mult", "comult", "coev", "ev", "unit", "counit", "phi"):
        assert values[f"diagonal_frobenius.{name}_layer.calls"] > 0, name


def _suite_layers(monkeypatch, tmp_path, command, data, name) -> dict:
    """The per-layer values of the suite ``command`` on ``data``, written
    to a category file and run through the tracer."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    path = tmp_path / f"{name}.json"
    path.write_text(fd.emit_category(data))
    argv = [command, str(path)]
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.begin_job(" ".join(argv))
        status, _ = cli_io.run_suite(argv)
        values = spans.layer_values(tracer.summary())
    finally:
        tracer.uninstall()
    assert status == cli_io.EXIT_OK
    return values


def test_fusing_symmetries_tree_walks_scale_with_vertices(
    monkeypatch, tmp_path, pointed_category
):
    # the word stage reads the fusing words off the tables, and the basis
    # images are assembled from the tables too, their trees enumerated as
    # arrays: the suite walks no tree at all, on any size of Z_N, where a
    # walk per basis image would grow like the vertices (N^2)
    calls = {
        n: _suite_layers(
            monkeypatch, tmp_path, "fusing-symmetries", pointed_category(n), f"z{n}"
        )["graphcalc.trees.calls"]
        for n in (5, 7, 9)
    }
    assert calls == {5: 0, 7: 0, 9: 0}


@pytest.mark.parametrize("name", ["ising", "z5"])
def test_fusing_symmetries_composes_no_braid(
    monkeypatch, tmp_path, categories, pointed_category, name
):
    # the swapped and bent basis images come from one table-level
    # evaluation; a braid composed per image would count here on working
    # code
    data = pointed_category(5) if name == "z5" else categories[name]
    values = _suite_layers(monkeypatch, tmp_path, "fusing-symmetries", data, name)
    for layer in ("braid_morphism", "cup_morphism", "cap_morphism",
                  "vertex_morphism", "Morphism.matmul"):
        assert values[f"graphcalc.{layer}.calls"] == 0, layer


@pytest.mark.parametrize("name", ["ising", "z5"])
def test_rigidity_composes_no_vertex(
    monkeypatch, tmp_path, categories, pointed_category, name
):
    # completeness is read off the stacked unit F-blocks; a vertex or
    # covertex composed per label pair would count here on working code,
    # while the zigzags stay composed from cups and caps
    data = pointed_category(5) if name == "z5" else categories[name]
    values = _suite_layers(monkeypatch, tmp_path, "rigidity", data, name)
    for layer in ("vertex_morphism", "covertex_morphism", "Morphism.zero"):
        assert values[f"graphcalc.{layer}.calls"] == 0, layer
    for layer in ("cup_morphism", "cap_morphism", "evaluate_diagram"):
        assert values[f"graphcalc.{layer}.calls"] > 0, layer


def test_comult_derivation_walks_scale_with_reached_assignments(
    monkeypatch, pointed_category
):
    # each layer of the coproduct diagram walks only the assignments its
    # input reaches, n^3 of the n^5 of the product's 5-letter word on Z_n,
    # so the pair_layer calls grow like N^3; the full walk grows like N^5
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    calls = {}
    for n in (5, 7, 9):
        alg = df.build_diagonal_algebra(pointed_category(n))
        tracer = spans.Tracer()
        tracer.install()
        try:
            tracer.begin_job(f"comult_tensor z{n}")
            df.comult_tensor(alg)
            calls[n] = spans.layer_values(tracer.summary())["deligne_double.pair_layer.calls"]
        finally:
            tracer.uninstall()
    assert calls[5] > 0
    assert math.log(calls[9] / calls[5]) / math.log(9 / 5) <= 3.2, calls
