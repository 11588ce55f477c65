"""A seeded, deterministic corpus of edited category and algebra files.

``mutations(bases, per_base, seed)`` edits each base document (a category
file's dict, or a ``build-ffa`` file's) ``per_base`` times and yields
``(mutation id, file text)``.
The id names the base, the edit and its site, so the corpus reads as a list
of cases.  The edits cycle through ``KINDS``, so every kind reaches every
base; the site and the new value come from one ``random.Random(seed)``:

* ``type``: a string, null, array or object in an int or number slot;
* ``bool`` and ``float``: true or false, or a float, in an int slot;
* ``huge`` and ``negative``: ints past int64, past a float, or below 0;
* ``nonfinite``: NaN, Infinity or -Infinity in a number slot;
* ``delete_key`` and ``dup_key``: a key of the document or of an entry
  removed, or written twice with different values (the text keeps both);
* ``delete_entry`` and ``dup_entry``: an F, R or fusion entry removed, or
  repeated, as it is or with another value;
* ``short`` and ``long``: a ``labels``, ``mult`` or ``value`` array, or a
  fusion row, one item short or one item long;
* ``not_object``: an entry replaced by an array, a number, a string or null;
* ``two``: two of the edits above at once.

In an algebra file the ``summands``, ``mult`` and ``phi`` rows are its
tables, as ``fusion`` is a category file's; about a third of its edits, and
every ``dup_key`` (only the category holds objects), edit the embedded
category instead.

``outcomes`` runs each file through ``cli_io.run_suite`` with every category
subcommand, or with the given ones.  ``hand_edits`` is a separate block of
hand-chosen files, one kind per loader mend the generated edits do not
reach; ``hand_outcomes`` runs them through ``cli_io.main`` and also counts
the warnings that get through.  Run as a script, it writes the outcomes of
the corpora of ``tests/test_mutations.py``, one named step each: ``category``
to ``tests/data/mutation_outcomes.json`` (category files, every category
subcommand), ``algebra`` to ``tests/data/algebra_mutation_outcomes.json``
(algebra files, ``verify-ffa``) and ``hand`` to
``tests/data/hand_mutation_outcomes.json`` (the hand-chosen block, every
category subcommand); with no step named, all three:

    PYTHONPATH=src python tests/mutations.py [category] [algebra] [hand]

That recaptures the stored contract; do it only when a change of an exit
code or a message is meant.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import random
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

from mtcalc import diagonal_frobenius as df
from mtcalc import fusion_data as fd
from mtcalc.cli_io import main as cli_main, run_suite

CATEGORY_COMMANDS = (
    "verify-category", "rigidity", "fusing-symmetries", "build-ffa", "verify-ffa",
)
KINDS = (
    "type", "bool", "float", "huge", "negative", "nonfinite", "delete_key", "dup_key",
    "delete_entry", "dup_entry", "short", "long", "not_object", "two",
)
OUTCOMES = Path(__file__).parent / "data" / "mutation_outcomes.json"
ALGEBRA_OUTCOMES = Path(__file__).parent / "data" / "algebra_mutation_outcomes.json"

# the corpora of the stored outcomes
SEED = 20
PER_BASE = 56
ALGEBRA_SEED = 21
ALGEBRA_PER_BASE = 50

_TABLES = ("F", "R")
_DUP = "__duplicated_key__"  # stands in for an object written with a key twice
# ints past int64 (either sign), past 2^64, and past a float
_HUGE = {"2^63": 2 ** 63, "2^64": 2 ** 64, "-2^63-1": -2 ** 63 - 1, "10^30": 10 ** 30,
         "10^400": 10 ** 400}


def _int_slots(doc):
    """Paths of the int slots of a category document."""
    yield ("unit",)
    yield from (("dual", i) for i in range(len(doc["dual"])))
    for r, row in enumerate(doc["fusion"]):
        yield from (("fusion", r, k) for k in range(len(row)))
    for t in _TABLES:
        for e, ent in enumerate(doc[t]):
            for part in ("labels", "mult"):
                yield from ((t, e, part, k) for k in range(len(ent[part])))


def _number_slots(doc):
    """Paths of the float slots: entry values and twists."""
    for t in _TABLES:
        yield from ((t, e, "value", k) for e in range(len(doc[t])) for k in (0, 1))
    yield from (("twist", i, k) for i in range(len(doc["twist"])) for k in (0, 1))


def _array_slots(doc):
    """Paths of the arrays whose length the format fixes."""
    for t in _TABLES:
        yield from ((t, e, part) for e in range(len(doc[t]))
                    for part in ("labels", "mult", "value"))
    yield from (("fusion", r) for r in range(len(doc["fusion"])))
    yield from (("twist", i) for i in range(len(doc["twist"])))


# the leading int items of an algebra file's rows; the rest are numbers
_ROW_INTS = {"summands": 2, "mult": 5, "phi": 1}


def _row_int_slots(doc):
    for t, k in _ROW_INTS.items():
        yield from ((t, r, i) for r in range(len(doc[t])) for i in range(k))


def _row_number_slots(doc):
    for t, k in _ROW_INTS.items():
        yield from ((t, r, i) for r, row in enumerate(doc[t]) for i in range(k, len(row)))


def _row_array_slots(doc):
    yield from ((t, r) for t in _ROW_INTS for r in range(len(doc[t])))


class _Layout(NamedTuple):
    """Where a kind of file has its slots: its int, number and fixed-length
    array slots, the tables whose entries are deleted, repeated or replaced,
    those of them whose entries are objects, and the key of the array that
    holds one item per label."""

    ints: Callable
    numbers: Callable
    arrays: Callable
    tables: tuple
    objects: tuple
    per_label: str


CATEGORY = _Layout(
    _int_slots, _number_slots, _array_slots, ("F", "R", "fusion"), _TABLES, "labels")
ALGEBRA = _Layout(
    _row_int_slots, _row_number_slots, _row_array_slots, tuple(_ROW_INTS), (), "summands")


def _get(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def _set(doc, path, value):
    _get(doc, path[:-1])[path[-1]] = value


def _name(path) -> str:
    return path[0] + "".join(f".{p}" if isinstance(p, str) else f"[{p}]" for p in path[1:])


def _pick(rng, slots):
    slots = list(slots)
    return slots[rng.randrange(len(slots))]


def _some_entry(rng, doc, layout):
    """A table of ``layout`` that has entries, and one of its entries."""
    table = rng.choice([t for t in layout.tables if doc[t]])
    return table, rng.randrange(len(doc[table]))


def _algebra_edit(rng, doc, kind, dups) -> str:
    """``_edit`` of a build-ffa document: of its embedded category, or of
    its rows and top-level keys."""
    if kind == "dup_key" or rng.random() < 0.3:
        return "category." + _edit(rng, doc["category"], kind, dups)
    return _edit(rng, doc, kind, dups, ALGEBRA)


def _edit(rng, doc, kind, dups, layout=CATEGORY) -> str:
    """Apply one edit of ``kind`` to ``doc`` in place; its description.  An
    object to be written with a key twice is recorded in ``dups``."""
    if kind == "type":
        path = _pick(rng, rng.choice([layout.ints, layout.numbers])(doc))
        value = rng.choice(["1", None, [0], {}])
    elif kind == "bool":
        path = _pick(rng, layout.ints(doc))
        value = rng.choice([True, False])
    elif kind == "float":
        path = _pick(rng, layout.ints(doc))
        value = _get(doc, path) + rng.choice([0.0, 0.5])
    elif kind == "huge":
        path = _pick(rng, rng.choice([layout.ints, layout.numbers])(doc))
        spelled = rng.choice(sorted(_HUGE))
        _set(doc, path, _HUGE[spelled])
        return f"huge {_name(path)}={spelled}"
    elif kind == "negative":
        path = _pick(rng, rng.choice([layout.ints, layout.numbers])(doc))
        value = rng.choice([-1, -len(doc[layout.per_label])])
    elif kind == "nonfinite":
        path = _pick(rng, layout.numbers(doc))
        value = rng.choice([float("nan"), float("inf"), float("-inf")])
    elif kind == "delete_key":
        table, e = _some_entry(rng, doc, layout)
        if table not in layout.objects or rng.random() < 0.3:
            key = rng.choice(sorted(doc))
            del doc[key]
            return f"delete {key}"
        key = rng.choice(["labels", "mult", "value"])
        del doc[table][e][key]
        return f"delete {table}[{e}].{key}"
    elif kind == "dup_key":
        table = rng.choice(layout.objects)
        e = rng.randrange(len(doc[table]))
        key = rng.choice(["labels", "mult", "value"])
        # another entry's value, where the table has another entry
        others = [i for i in range(len(doc[table])) if i != e] or [e]
        other = doc[table][rng.choice(others)][key]
        first, last = (doc[table][e][key], other) if rng.random() < 0.5 else (
            other, doc[table][e][key])
        dups.append((doc[table][e], key, first, last))
        doc[table][e] = _DUP + str(len(dups) - 1)
        return f"dup_key {table}[{e}].{key} {json.dumps(first)} then {json.dumps(last)}"
    elif kind == "delete_entry":
        table, e = _some_entry(rng, doc, layout)
        del doc[table][e]
        return f"delete {table}[{e}]"
    elif kind == "dup_entry":
        table, e = _some_entry(rng, doc, layout)
        copied = copy.deepcopy(doc[table][e])
        changed = rng.random() < 0.5
        if changed and table not in layout.objects:
            copied[-1] += 1
        elif changed:
            copied["value"] = [0.5, -0.25]
        doc[table].insert(rng.randrange(len(doc[table]) + 1), copied)
        return f"dup {table}[{e}]" + (" changed" if changed else "")
    elif kind in ("short", "long"):
        path = _pick(rng, layout.arrays(doc))
        array = _get(doc, path)
        if kind == "short":
            array.pop()
        else:
            array.append(rng.choice([0, 1, 0.0]))
        return f"{kind} {_name(path)}"
    elif kind == "not_object":
        # an object entry as an array; a row as an object
        table = rng.choice(layout.objects or layout.tables)
        e = rng.randrange(len(doc[table]))
        ent = doc[table][e]
        other = [ent["labels"], ent["mult"], ent["value"]] if layout.objects else {"row": ent}
        value = rng.choice([other, 7, "F", None])
        doc[table][e] = value
        return f"not_object {table}[{e}]={json.dumps(value)}"
    else:
        raise ValueError(f"unknown edit {kind!r}")
    _set(doc, path, value)
    return f"{kind} {_name(path)}={json.dumps(value)}"


def _dumps(doc, dups) -> str:
    """The document's text, each recorded object written with its key twice."""
    text = json.dumps(doc)  # NaN and infinities as JavaScript spells them
    for i, (ent, key, first, last) in enumerate(dups):
        items = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in ent.items() if k != key]
        items += [f"{json.dumps(key)}: {json.dumps(first)}",
                  f"{json.dumps(key)}: {json.dumps(last)}"]
        text = text.replace(json.dumps(_DUP + str(i)), "{" + ", ".join(items) + "}", 1)
    return text


def mutations(bases: dict, per_base: int, seed: int):
    """Yield (mutation id, file text) for ``per_base`` edits of each of the
    documents ``bases`` (name -> category document), in order."""
    rng = random.Random(seed)
    for name, base in bases.items():
        edit = _algebra_edit if "category" in base else _edit
        for k in range(per_base):
            doc, dups = copy.deepcopy(base), []
            kind = KINDS[k % len(KINDS)]
            if kind == "two":
                first, second = rng.sample(KINDS[:-1], 2)
                # an edit of a table or key the first one removed is skipped
                what = [edit(rng, doc, first, dups)]
                try:
                    what.append(edit(rng, doc, second, dups))
                except (KeyError, IndexError, TypeError, ValueError):
                    pass
                desc = " + ".join(what)
            else:
                desc = edit(rng, doc, kind, dups)
            yield f"{name}-{k:02d} {desc}", _dumps(doc, dups)


def outcomes(corpus, workdir: Path, commands=CATEGORY_COMMANDS) -> list:
    """[mutation id, subcommand, exit code, first output line] of each file
    of ``corpus`` under each of ``commands``, the file written in
    ``workdir``."""
    out = []
    path = workdir / "mutated.json"
    for ident, text in corpus:
        path.write_text(text, encoding="utf-8")
        for cmd in commands:
            status, output = run_suite([cmd, str(path)])
            out.append([ident, cmd, status, output.split("\n", 1)[0]])
    return out


def digest(rows) -> str:
    """sha256 of the outcome rows, one JSON array per line."""
    text = "".join(json.dumps(row) + "\n" for row in rows)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def base_documents() -> dict:
    """The category documents of the builtins and of the pointed Z_5."""
    from conftest import perfbench_workloads

    cats = {name: fd.builtin_category(name) for name in fd.BUILTIN_NAMES}
    cats["z5"] = perfbench_workloads().zn_category(fd, 5)
    return {name: json.loads(fd.emit_category(data)) for name, data in cats.items()}


def algebra_documents() -> dict:
    """The build-ffa documents of Fibonacci, Ising and the pointed Z_3."""
    from conftest import perfbench_workloads

    cats = {name: fd.builtin_category(name) for name in ("fibonacci", "ising")}
    cats["z3"] = perfbench_workloads().zn_category(fd, 3)
    return {
        name: json.loads(df.emit_algebra(df.build_diagonal_algebra(data)))
        for name, data in cats.items()
    }


def category_outcomes(workdir: Path) -> list:
    """The outcomes of the stored category corpus."""
    return outcomes(mutations(base_documents(), PER_BASE, SEED), workdir)


def algebra_outcomes(workdir: Path) -> list:
    """The outcomes of the stored algebra corpus, under ``verify-ffa``."""
    corpus = mutations(algebra_documents(), ALGEBRA_PER_BASE, ALGEBRA_SEED)
    return outcomes(corpus, workdir, ("verify-ffa",))


# A hand-chosen block, apart from the generated corpora: each file is an
# input that one of the loader's mends judges, and runs through
# ``cli_io.main`` as on the command line, so that a numpy warning shows.
HAND_OUTCOMES = Path(__file__).parent / "data" / "hand_mutation_outcomes.json"
_MULTIPLICITIES = {"2^19": 2 ** 19, "2^31-1": 2 ** 31 - 1, "10^30": 10 ** 30}


def hand_edits() -> dict:
    """{id: document} of the hand-chosen block: ``labels`` as a string (one
    label per character, were it read as an array), a fusion multiplicity in
    int32 but past the ring's bound n^7 m^3 < 2^63 (the unit and
    associativity checks let it through), one past int64, and an F or R
    value whose residuals overflow."""
    bases = base_documents()
    out = {}
    for name in ("fibonacci", "ising", "z5"):
        doc = copy.deepcopy(bases[name])
        doc["labels"] = "".join(label[-1] for label in doc["labels"])
        out[f"{name} labels string {json.dumps(doc['labels'])}"] = doc
    # x x = 1 + m x is associative for every m; with 2 labels the bound is
    # m < 2^(56/3), about 2^18.7
    for name, m in (("fibonacci", "2^19"), ("fibonacci", "2^31-1"), ("z2_semion", "2^19"),
                    ("fibonacci", "10^30")):
        doc = copy.deepcopy(bases[name])
        doc["fusion"] = [row for row in doc["fusion"] if row[:3] != [1, 1, 1]]
        doc["fusion"].append([1, 1, 1, _MULTIPLICITIES[m]])
        out[f"{name} multiplicity N[1,1]^1={m}"] = doc
    for name, table, labels in (("fibonacci", "F", [1, 1, 1, 1, 0, 0]),
                                ("ising", "R", [1, 1, 0])):
        doc = copy.deepcopy(bases[name])
        next(e for e in doc[table] if e["labels"] == labels)["value"][0] = 1e300
        out[f"{name} overflowing {table}{labels}=1e300"] = doc
    return out


def hand_outcomes(workdir: Path) -> list:
    """[id, subcommand, exit code, first output line, warnings] of each file
    of the hand-chosen block under each category subcommand, through
    ``cli_io.main`` with its output streams captured and every warning
    counted."""
    out = []
    path = workdir / "mutated.json"
    for ident, doc in hand_edits().items():
        path.write_text(json.dumps(doc), encoding="utf-8")
        for cmd in CATEGORY_COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("always")
                status = cli_main([cmd, str(path)])
            text = stdout.getvalue() + stderr.getvalue()
            out.append([ident, cmd, status, text.split("\n", 1)[0], len(caught)])
    return out


# the capture steps of ``main``: stored file and the outcomes it holds
CAPTURES = {
    "category": (OUTCOMES, category_outcomes),
    "algebra": (ALGEBRA_OUTCOMES, algebra_outcomes),
    "hand": (HAND_OUTCOMES, hand_outcomes),
}


def main(steps):
    import tempfile

    for step in steps or CAPTURES:
        target, capture = CAPTURES[step]
        with tempfile.TemporaryDirectory() as tmp:
            rows = capture(Path(tmp))
        lines = ",\n".join(json.dumps(row) for row in rows)
        target.write_text(
            f'{{"sha256": "{digest(rows)}",\n"outcomes": [\n{lines}\n]}}\n', encoding="utf-8"
        )
        print(f"{target.name}: {len(rows)} outcomes, sha256 {digest(rows)}")


if __name__ == "__main__":
    import sys

    main(sys.argv[1:])
