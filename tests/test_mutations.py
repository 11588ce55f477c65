"""The mutation corpus: every edited category file's exit code and first
output line, under every category subcommand, are a stored contract."""

import json

import mutations

from mtcalc.cli_io import EXIT_INPUT, EXIT_OK, EXIT_VERIFY


def test_mutation_corpus_outcomes_match_stored(tmp_path):
    corpus = mutations.mutations(mutations.base_documents(), mutations.PER_BASE, mutations.SEED)
    # run_suite catching no exception fails this test with its traceback
    rows = mutations.outcomes(corpus, tmp_path)
    assert {status for _, _, status, _ in rows} <= {EXIT_OK, EXIT_INPUT, EXIT_VERIFY}
    stored = json.loads(mutations.OUTCOMES.read_text(encoding="utf-8"))
    assert rows == stored["outcomes"]
    assert mutations.digest(rows) == stored["sha256"]
