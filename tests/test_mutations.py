"""The mutation corpora: every edited category file's exit code and first
output line under every category subcommand, and every edited algebra
file's under ``verify-ffa``, are a stored contract."""

import copy
import json

import mutations
import numpy as np
import pytest

from mtcalc.cli_io import EXIT_INPUT, EXIT_OK, EXIT_VERIFY, run_suite

from test_cli import _run_module


def _assert_stored(rows, stored):
    # run_suite catching no exception fails the test with its traceback
    assert {status for _, _, status, _ in rows} <= {EXIT_OK, EXIT_INPUT, EXIT_VERIFY}
    stored = json.loads(stored.read_text(encoding="utf-8"))
    assert rows == stored["outcomes"]
    assert mutations.digest(rows) == stored["sha256"]


def test_mutation_corpus_outcomes_match_stored(tmp_path):
    _assert_stored(mutations.category_outcomes(tmp_path), mutations.OUTCOMES)


def test_algebra_mutation_corpus_outcomes_match_stored(tmp_path):
    _assert_stored(mutations.algebra_outcomes(tmp_path), mutations.ALGEBRA_OUTCOMES)


def _hand_edits() -> dict:
    """Three edits of Fibonacci's file, each an input the loader once
    mishandled: ``labels`` as a string (read one label per character), a
    multiplicity too large for the int64 tree keys (a traceback), and an F
    value whose residuals overflow (numpy warnings on stderr)."""
    base = mutations.base_documents()["fibonacci"]
    labels, huge, overflow = (copy.deepcopy(base) for _ in range(3))
    labels["labels"] = "1t"
    next(row for row in huge["fusion"] if row[:3] == [1, 1, 1])[3] = 10 ** 30
    next(e for e in overflow["F"] if e["labels"] == [1, 1, 1, 1, 0, 0])["value"][0] = 1e300
    return {"labels string": labels, "huge multiplicity": huge, "overflowing F": overflow}


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
    "labels-string": ("labels string", "verify-category", EXIT_INPUT),
    "huge-multiplicity": ("huge multiplicity", "verify-category", EXIT_INPUT),
    "overflowing-F": ("overflowing F", "verify-category", EXIT_VERIFY),
}


@pytest.fixture(scope="module")
def child_files():
    files = dict(mutations.mutations(mutations.base_documents(), mutations.PER_BASE,
                                     mutations.SEED))
    corpus = mutations.mutations(mutations.algebra_documents(), mutations.ALGEBRA_PER_BASE,
                                 mutations.ALGEBRA_SEED)
    files.update((f"algebra {ident}", text) for ident, text in corpus)
    files.update((ident, json.dumps(doc)) for ident, doc in _hand_edits().items())
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
