"""A seeded sweep of mutated spec documents and family flags through `cli.main`.

Every request must return exit 0 or 2 (3 is allowed, though `build` runs no
search) without raising; one that exits 0 must print what the canonical
document of what was read prints, so a document is never read as anything
but the code or lattice it describes.
"""

import copy
import json
import random

import pytest

from codelattice.cli import main
from codelattice.codes import FAMILIES, FAMILY_KEYS, MAX_LENGTH, code_document, read_spec

SEED = 1807
MUTANTS = 400
FLAG_SETS = 150

VALID = [
    {"family": "parity_check", "n": 4, "q": 3},
    {"family": "reed_muller", "r": 1, "m": 3, "q": 2, "n": 8},
    {"family": "extended_hamming"},
    {"family": "full", "n": 3, "q": 4},
    {"family": "zero", "n": 2, "q": 5},
    {"q": 3, "n": 4, "generators": [[1, 0, 0, 1], [0, 1, 0, 2]]},
    {"q": 4, "n": 3, "generators": [[2, 2, 0], [1, 3, 1]]},
    {"rows": [[1, 0, 1], [0, 1, 1], [0, 0, 2]]},
    {"rows": [[2, 1], [1, 2]]},
]
# a key no shape takes, and keys of the other shapes
ADDED_KEYS = ("x", "rows", "generators", "family", "q", "n", "m", "r")
# integers other than the valid ones: zero, negative and over-bound sizes
SIZES = (0, -1, -7, 1, 2, MAX_LENGTH + 1, 2**40)
# values that are not integers, which no integer field may take
NOT_INTEGERS = (1.0, 2.5, True, False, None, "3", [3], {"v": 3}, [])


def _int_paths(doc, path=()):
    """Paths to every integer of a document."""
    if type(doc) is int:
        yield path
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield from _int_paths(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _int_paths(value, path + (i,))


def _replace(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _mutant(rng):
    """(document, expected exit or None) from one mutation of a valid one."""
    doc = copy.deepcopy(rng.choice(VALID))
    kind = rng.randrange(5)
    if kind == 0:  # a key outside the shape
        key = rng.choice([k for k in ADDED_KEYS if k not in doc])
        doc[key] = rng.choice(SIZES + NOT_INTEGERS)
        return doc, 2
    if kind == 1:  # a value that is not an integer where an integer goes
        paths = list(_int_paths(doc))
        if not paths:
            return doc, 0
        _replace(doc, rng.choice(paths), rng.choice(NOT_INTEGERS))
        return doc, 2
    if kind == 2:  # another integer: a zero, negative or over-bound size
        paths = list(_int_paths(doc))
        if paths:
            _replace(doc, rng.choice(paths), rng.choice(SIZES))
        return doc, None
    if kind == 3:  # a key dropped
        del doc[rng.choice(sorted(doc))]
        return doc, None
    # a top-level value or a row swapped for another type or nested
    key = rng.choice(sorted(doc))
    if isinstance(doc[key], list) and doc[key] and rng.random() < 0.5:
        doc[key][rng.randrange(len(doc[key]))] = rng.choice(SIZES + NOT_INTEGERS + ([[1, 2]],))
    else:
        doc[key] = rng.choice(NOT_INTEGERS + ([doc[key]], {"v": doc[key]}))
    return doc, None


def _build(capsys, argv) -> tuple[int, str, str]:
    try:
        code = main(["build", "--format", "json", *argv])
    except SystemExit as exc:  # argparse rejects the request
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _canonical_out(capsys, tmp_path, read) -> str:
    """What `build` prints for the canonical document of what was read."""
    code, lattice = read
    canonical = code_document(code) if code else {"rows": [list(r) for r in lattice.basis]}
    path = tmp_path / "canonical.json"
    path.write_text(json.dumps(canonical))
    rc, out, _ = _build(capsys, ["--spec", str(path)])
    assert rc == 0
    return out


def _check(capsys, tmp_path, argv, doc, expected):
    code, out, err = _build(capsys, argv)
    assert code in (0, 2, 3), (doc, code, err)
    assert "Traceback" not in err, (doc, err)
    if expected is not None:
        assert code == expected, (doc, code, err)
    if code == 0:
        assert out == _canonical_out(capsys, tmp_path, read_spec(doc)), doc
    else:
        assert out == "" and err.startswith(("error: ", "usage: ")), (doc, err)
    return code


def test_mutated_spec_documents(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("CODELATTICE_CACHE", str(tmp_path / "cache"))
    rng = random.Random(SEED)
    path = tmp_path / "spec.json"
    exits = []
    for _ in range(MUTANTS):
        doc, expected = _mutant(rng)
        path.write_text(json.dumps(doc))
        exits.append(_check(capsys, tmp_path, ["--spec", str(path)], doc, expected))
    assert exits.count(0) > MUTANTS // 10 and exits.count(2) > MUTANTS // 2


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_random_family_flags(capsys, tmp_path, monkeypatch, family):
    monkeypatch.setenv("CODELATTICE_CACHE", str(tmp_path / "cache"))
    rng = random.Random(f"{SEED}-{family}")
    values = [str(v) for v in SIZES + (3, 4, 8)] + ["1.5", "x", ""]
    exits = []
    for _ in range(FLAG_SETS // len(FAMILIES)):
        flags = {key: rng.choice(values) for key in FAMILY_KEYS if rng.random() < 0.6}
        argv = ["--family", family, *(a for k, v in flags.items() for a in (f"--{k}", v))]
        doc = {"family": family, **{k: int(v) for k, v in flags.items() if v.lstrip("-").isdigit()}}
        exits.append(_check(capsys, tmp_path, argv, doc, None))
    assert 2 in exits
