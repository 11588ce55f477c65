"""The mutation corpora: every edited category file's exit code and first
output line under every category subcommand, every edited algebra file's
under ``verify-ffa``, and every hand-chosen file's under every category
subcommand through ``cli_io.main``, with the warnings it lets through, are a
stored contract."""

import json

import mutations
import numpy as np
import pytest

from mtcalc.cli_io import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, run_suite

from test_cli import _run_module


def _assert_stored(rows, stored):
    # run_suite catching no exception fails the test with its traceback
    assert {row[2] for row in rows} <= {EXIT_OK, EXIT_INPUT, EXIT_VERIFY}
    stored = json.loads(stored.read_text(encoding="utf-8"))
    assert rows == stored["outcomes"]
    assert mutations.digest(rows) == stored["sha256"]


def test_mutation_corpus_outcomes_match_stored(tmp_path):
    _assert_stored(mutations.category_outcomes(tmp_path), mutations.OUTCOMES)


def test_algebra_mutation_corpus_outcomes_match_stored(tmp_path):
    _assert_stored(mutations.algebra_outcomes(tmp_path), mutations.ALGEBRA_OUTCOMES)


def test_hand_mutation_outcomes_match_stored(tmp_path):
    # the block that judges the loader's mends: no row lets a warning through
    rows = mutations.hand_outcomes(tmp_path)
    assert {warnings for *_, warnings in rows} == {0}
    _assert_stored(rows, mutations.HAND_OUTCOMES)


# files run in a child process: the file (its mutation id, "algebra " and
# the id for the algebra corpus, or a hand edit), the subcommand, the exit code
CHILD_CASES = {
    "category-ok": ("z2_semion-21 dup_key F[4].value [1.0, 0.0] then [1.0, 0.0]",
                    "verify-category", EXIT_OK),
    "category-fails": ("fibonacci-03 huge F[10].value[1]=10^30", "verify-category", EXIT_VERIFY),
    "category-input-error": ('trivial-00 type F[0].labels[2]="1"', "verify-category", EXIT_INPUT),
    "algebra-ok": ("algebra fibonacci-07 category.dup_key F[5].value [1.0, 0.0] then [1.0, 0.0]",
                   "verify-ffa", EXIT_OK),
    "algebra-fails": ("algebra fibonacci-31 huge phi[0][1]=10^30", "verify-ffa", EXIT_VERIFY),
    "algebra-input-error": ("algebra fibonacci-03 huge mult[4][1]=-2^63-1", "verify-ffa",
                            EXIT_INPUT),
    "labels-string": ('fibonacci labels string "1t"', "verify-category", EXIT_INPUT),
    "huge-multiplicity": ("fibonacci multiplicity N[1,1]^1=10^30", "verify-category",
                          EXIT_INPUT),
    "overflowing-F": ("fibonacci overflowing F[1, 1, 1, 1, 0, 0]=1e300", "verify-category",
                      EXIT_VERIFY),
}


@pytest.fixture(scope="module")
def child_files():
    files = dict(mutations.mutations(mutations.base_documents(), mutations.PER_BASE,
                                     mutations.SEED))
    corpus = mutations.mutations(mutations.algebra_documents(), mutations.ALGEBRA_PER_BASE,
                                 mutations.ALGEBRA_SEED)
    files.update((f"algebra {ident}", text) for ident, text in corpus)
    files.update((ident, json.dumps(doc)) for ident, doc in mutations.hand_edits().items())
    return files


@pytest.mark.parametrize("case", CHILD_CASES)
def test_child_process_writes_only_the_report_or_the_input_error(tmp_path, child_files, case):
    """``python -m mtcalc`` on the file exits with the code ``run_suite``
    gives; a report goes to stdout alone, and an input error is exactly
    ``run_suite``'s text on stderr: no traceback, no numpy warning."""
    ident, cmd, want = CHILD_CASES[case]
    path = tmp_path / "case.json"
    path.write_text(child_files[ident], encoding="utf-8")
    with np.errstate(all="ignore"):  # as ``cli_io.main`` runs it
        status, output = run_suite([cmd, str(path)])
    proc = _run_module("mtcalc", cmd, str(path))
    assert status == proc.returncode == want
    if status == EXIT_INPUT:
        assert (proc.stdout, proc.stderr) == ("", output)
    else:
        assert proc.stderr == ""
