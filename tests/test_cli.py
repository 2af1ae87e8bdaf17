import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import codelattice
from codelattice.cli import _flatten, main


@pytest.fixture()
def cache(tmp_path, monkeypatch):
    d = tmp_path / "cache"
    monkeypatch.setenv("CODELATTICE_CACHE", str(d))
    return d


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_dl_family(cache, capsys):
    code, out, _ = _run(
        capsys,
        ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "json"],
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == 3
    assert doc["value_exact"] == {"num": 3, "den": 1, "root": 1, "decimal": "3.00000"}
    assert doc["cached"] is False
    assert set(doc) == {
        "l", "value", "value_exact", "witness_rows", "per_vector_bound",
        "candidates_examined", "cached",
    }


def test_cache_round_trip(cache, capsys):
    argv = ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "json"]
    _, cold_out, _ = _run(capsys, argv)
    code, warm_out, _ = _run(capsys, argv)
    assert code == 0
    cold = json.loads(cold_out)
    warm = json.loads(warm_out)
    assert warm["cached"] is True
    for key in ("value", "witness_rows", "per_vector_bound", "candidates_examined"):
        assert warm[key] == cold[key]


def test_entry_with_escalation_field_is_served(cache, capsys):
    # entries written before the field left the document still load
    argv = ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "json"]
    _, cold_out, _ = _run(capsys, argv)
    [entry] = cache.rglob("*.json")
    stored = json.loads(entry.read_text())
    assert "confirmed_by_escalation" not in stored
    entry.write_text(json.dumps(dict(stored, confirmed_by_escalation=True)))
    code, out, err = _run(capsys, argv)
    assert (code, err) == (0, "")
    assert json.loads(out) == dict(json.loads(cold_out), cached=True)


@pytest.mark.parametrize(
    "edit",
    [
        # three rows of D4 whose Gram determinant is the stored value
        pytest.param(
            {"witness_rows": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], "value": 4},
            id="three-rows",
        ),
        pytest.param({"per_vector_bound": True}, id="bool-bound"),
        pytest.param({"candidates_examined": 11.9}, id="float-count"),
        pytest.param({"value": 3.0}, id="float-value"),
        # the stored witness has determinant 3
        pytest.param({"value": 2}, id="value-below-witness"),
        # a certificate that is valid at rank 2 but says it is for rank 3
        pytest.param({"l": 3}, id="other-rank"),
    ],
)
def test_entry_of_the_wrong_shape_is_recomputed(cache, capsys, edit):
    argv = ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "json"]
    _, cold_out, _ = _run(capsys, argv)
    [entry] = cache.rglob("*.json")
    entry.write_text(json.dumps(dict(json.loads(entry.read_text()), **edit)))
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert "warning: ignoring corrupt cache entry" in err
    assert json.loads(out)["cached"] is False
    assert out == cold_out


def test_entry_copied_from_another_lattice_is_recomputed(cache, capsys):
    # 2Z^4 lies inside D4, so its certificate passes D4's membership and
    # determinant checks; only the entry's own key tells the two apart
    d4 = ["--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "csv"]
    _, cold_out, _ = _run(capsys, ["gamma", *d4])
    [d4_entry] = cache.rglob("*.json")
    _run(capsys, ["dl", "--family", "zero", "--n", "4", "--q", "2", "--l", "2"])
    [zero_entry] = set(cache.rglob("*.json")) - {d4_entry}
    d4_entry.write_bytes(zero_entry.read_bytes())
    code, out, err = _run(capsys, ["gamma", *d4])
    assert code == 0
    assert f"warning: ignoring corrupt cache entry {d4_entry}: " in err
    assert out == cold_out and ",1.50000," in out
    assert json.loads(d4_entry.read_text())["value"] == 3


def test_corrupt_cache_ignored(cache, capsys):
    argv = ["dl", "--family", "parity_check", "--n", "3", "--q", "2", "--l", "1", "--format", "json"]
    _run(capsys, argv)
    entries = list(cache.rglob("*.json"))
    assert len(entries) == 1
    entries[0].write_text("{broken")
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["cached"] is False
    assert "warning" in err


def test_entry_under_pre_version_key_is_recomputed(cache, capsys):
    import hashlib

    from codelattice.codes import parity_check_code
    from codelattice.lattices import construction_a

    argv = ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "json"]
    _, cold_out, _ = _run(capsys, argv)
    [entry] = cache.rglob("*.json")
    stored = json.loads(entry.read_text())
    basis = [list(r) for r in construction_a(parity_check_code(4, 2)).basis]
    # the key before the search version entered it (basis rows and rank
    # only), and the key of search version 2
    for tail in ([2], [2, 2]):
        blob = json.dumps(basis + tail, sort_keys=True)
        old_key = hashlib.sha256(blob.encode()).hexdigest()
        assert entry.stem != old_key
        doc = dict(stored, key=old_key, candidates_examined=999)
        old = cache / old_key[:2] / (old_key + ".json")
        old.parent.mkdir(exist_ok=True)
        old.write_text(json.dumps(doc))
        entry.unlink()
        code, out, err = _run(capsys, argv)
        assert code == 0
        assert err == ""
        warm = json.loads(out)
        assert warm["cached"] is False
        assert warm["candidates_examined"] == json.loads(cold_out)["candidates_examined"] != 999
        assert entry.exists()


def test_gamma_json_round_trip(cache, capsys):
    argv = ["gamma", "--family", "reed_muller", "--r", "1", "--m", "3", "--l", "1", "--format", "json"]
    _, out, _ = _run(capsys, argv)
    doc = json.loads(out)
    assert doc["value"] == {"num": 2, "den": 1, "root": 1, "decimal": "2.00000"}
    # canonical emitter: parse and re-render byte-identically
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == out


def test_warm_gamma_prime_computes_the_dual_once(cache, capsys, monkeypatch):
    argv = ["gamma-prime", "--family", "reed_muller", "--r", "1", "--m", "4", "--l", "1"]
    assert main(argv) == 0  # fills the cache
    counts = {"hnf": 0, "dual_basis": 0}
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "codelattice"]
    for name in counts:
        original = getattr(codelattice.lattices, name)

        def counted(*args, _name=name, _fn=original):
            counts[_name] += 1
            return _fn(*args)

        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    assert main(argv) == 0
    # the code's lattice and the dual's HNF, which is the dual's lattice
    assert counts == {"hnf": 2, "dual_basis": 1}


def test_gamma_prime(cache, capsys):
    argv = ["gamma-prime", "--family", "parity_check", "--n", "3", "--q", "2", "--l", "1", "--format", "json"]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    doc = json.loads(out)
    assert (doc["value"]["num"], doc["value"]["den"], doc["value"]["root"]) == (3, 2, 2)


def test_build_spec_file(cache, capsys, tmp_path):
    spec = tmp_path / "code.json"
    spec.write_text('{"q": 2, "n": 4, "family": "parity_check"}')
    code, out, _ = _run(capsys, ["build", "--spec", str(spec), "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["lattice"]["det_gram"] == 4
    assert doc["cardinality"] == 8


def test_build_code_document_round_trip(cache, capsys, tmp_path):
    # the `code` that `build` prints, passed back with --spec, prints the same bytes
    gens, spec = tmp_path / "gens.json", tmp_path / "code.json"
    gens.write_text('{"q": 4, "n": 3, "generators": [[6, 2, -1], [0, 0, 4]]}')
    for argv in (["--family", "reed_muller", "--r", "1", "--m", "3"], ["--spec", str(gens)]):
        code, first, _ = _run(capsys, ["build", *argv, "--format", "json"])
        assert code == 0
        spec.write_text(json.dumps(json.loads(first)["code"]))
        assert _run(capsys, ["build", "--spec", str(spec), "--format", "json"]) == (0, first, "")


def test_rank_deficient_spec_exits_2(cache, capsys, tmp_path):
    spec = tmp_path / "rows.json"
    spec.write_text('{"rows": [[1, 2], [2, 4]]}')
    code, _, err = _run(capsys, ["dl", "--spec", str(spec), "--l", "1"])
    assert code == 2
    assert "rank" in err


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("not json", id="not-json"),
        # not a JSON object
        pytest.param("null", id="null"),
        pytest.param("3", id="number"),
        pytest.param("true", id="bool"),
        pytest.param("[]", id="list"),
        # non-integer numbers, which int() would truncate
        pytest.param('{"rows": [[1.5, 0], [0, 1]]}', id="float-row-entry"),
        pytest.param('{"q": 3.5, "n": 4, "generators": [[1, 1, 1, 1]]}', id="float-q"),
        pytest.param('{"q": 2, "n": 4, "generators": [[1.9, 1, 1, 1]]}', id="float-generator"),
        pytest.param('{"q": 2, "n": 4, "generators": [[true, 1, 1, 1]]}', id="bool-generator"),
        pytest.param('{"family": "parity_check", "n": 4.7, "q": 2}', id="float-family-n"),
        # a key the family does not take, or a q or n that contradicts it
        pytest.param('{"family": "reed_muller", "r": 1, "m": 3, "q": 5, "n": 3}', id="family-q-n"),
        pytest.param('{"family": "parity_check", "n": 4, "q": 2, "r": 1}', id="family-extra-key"),
        # a key outside the shape of a generator or rows document
        pytest.param('{"q": 2, "n": 4, "generators": [[1, 1, 1, 1]], "m": 7}', id="generators-m"),
        pytest.param('{"rows": [[1, 0], [0, 1]], "q": 5, "family": "zero"}', id="rows-family"),
        # over the size bound, though small enough to build if the check were missing
        pytest.param(json.dumps({"q": 2, "n": 129, "generators": [[1] * 129]}), id="n-129"),
        pytest.param(
            json.dumps({"rows": [[int(i == j) for j in range(128)] for i in range(128)] + [[1] * 128]}),
            id="129-rows-of-128",
        ),
        # files json.load rejects with ValueError or RecursionError
        pytest.param('{"rows": [[' + "1" * 5000 + "]]}", id="5000-digit-integer"),
        pytest.param("[" * 100000 + "]" * 100000, id="deep-nesting"),
        pytest.param(b'{"rows": [[1]]}\xff', id="bad-utf8"),
    ],
)
def test_unparseable_spec_exits_2(cache, capsys, tmp_path, text):
    spec = tmp_path / "junk.json"
    spec.write_bytes(text if isinstance(text, bytes) else text.encode())
    code, _, err = _run(capsys, ["build", "--spec", str(spec)])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


def test_cap_exceeded_exits_3(cache, capsys):
    code, _, err = _run(
        capsys,
        ["dl", "--family", "full", "--n", "6", "--q", "4", "--l", "4", "--max-candidates", "5"],
    )
    assert code == 3
    assert "cap" in err


def test_bounds_command(cache, capsys):
    code, out, _ = _run(capsys, ["bounds", "--n-max", "7", "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert "berge_martinet,5,2,1.73205,2.00000,False" in lines
    assert "rankin,7,2,2.01885,3.17480,False" in lines


def test_bounds_seed_searches_obey_the_cap(cache, capsys):
    # the same D7 rank-2 search as `dl --family parity_check --n 7 --q 2 --l 2`
    code, _, err = _run(capsys, ["bounds", "--n-max", "7", "--max-candidates", "30"])
    assert code == 3
    assert "cap 30" in err


def test_rm_table_command(cache, capsys):
    code, out, _ = _run(capsys, ["rm-table", "--m-max", "5", "--format", "json"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 15
    by_key = {(r["m"], r["r"]): r for r in rows}
    assert by_key[(5, 2)]["det_rows"] == 1073741824
    assert by_key[(3, 1)]["det_lattice"] == 256
    for r in rows:
        assert r["det_lattice"] == r["det_lattice_formula"]


def test_verify_command(cache, capsys):
    code, out, _ = _run(capsys, ["verify", "--filter", "e8_gram"])
    assert code == 0
    assert "PASS" in out
    assert "note:" in out


def test_verify_failure_exit(cache, capsys, monkeypatch):
    import codelattice.verify as verify

    original = verify.CHECKS
    verify.CHECKS = (("always_fails", lambda ctx: [("a", "b")]),)
    try:
        code, out, _ = _run(capsys, ["verify"])
        assert code == 1
    finally:
        verify.CHECKS = original


def test_verify_filter_that_matches_no_check_exits_2(cache, capsys):
    # a misspelt filter must not pass with every check skipped
    code, out, err = _run(capsys, ["verify", "--filter", "e8gram"])
    assert (code, out) == (2, "")
    assert err == "error: --filter 'e8gram' matches no check\n"
    # a pattern that matches is no error
    code, out, _ = _run(capsys, ["verify", "--filter", "e8_g*"])
    assert code == 0 and "PASS    e8_gram" in out


def test_bounds_deterministic_bytes(cache, capsys):
    argv = ["bounds", "--n-max", "6", "--format", "json"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    doc = json.loads(first)
    assert json.dumps(doc, sort_keys=True, indent=2) + "\n" == first


D4 = ["--family", "parity_check", "--n", "4", "--q", "2"]
RENDER_CASES = {
    **{
        f"{command}-{fmt}": [command, *D4, "--l", "2", "--format", fmt]
        for command in ("dl", "gamma", "gamma-prime")
        for fmt in ("text", "csv", "json")
    },
    **{f"build-{fmt}": ["build", *D4, "--format", fmt] for fmt in ("text", "csv", "json")},
    **{
        f"bounds-{fmt}": ["bounds", "--n-max", "3", "--format", fmt]
        for fmt in ("text", "csv", "json")
    },
    **{
        f"rm-table-{fmt}": ["rm-table", "--m-max", "2", "--format", fmt]
        for fmt in ("text", "csv", "json")
    },
    **{
        f"verify-{fmt}": ["verify", "--filter", "e8_gram", "--format", fmt]
        for fmt in ("json", "csv", "text")
    },
}


def _runtimes_masked(report: str) -> str:
    """A verify report with every runtime_ms read as 0, in all three formats."""
    report = re.sub(r'"runtime_ms": \d+', '"runtime_ms": 0', report)
    report = re.sub(r"\[\d+ ms\]", "[0 ms]", report)
    return re.sub(r"^(\w+,\w+),\d+$", r"\1,0", report, flags=re.M)


@pytest.mark.parametrize("name", RENDER_CASES)
def test_rendered_bytes(cache, capsys, name):
    # the exact bytes of the text renderer (its list branches included), the
    # csv flattening and the three verify report formats, on a cold cache
    expected = json.loads((Path(__file__).parent / "data" / "renderings.json").read_text())
    argv = RENDER_CASES[name]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    if argv[0] == "verify":
        out = _runtimes_masked(out)
    assert out == expected[name]


CSV_CASES = {name: argv for name, argv in RENDER_CASES.items() if name.endswith("-csv")}


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
@pytest.mark.parametrize("name", CSV_CASES)
def test_csv_parses_back_under_any_line_end(cache, monkeypatch, name, newline):
    # stdout is a text stream that writes each "\n" as `newline`: the CSV
    # stays one header line and rows of its width, with no doubled "\r"
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", newline=newline)
    with monkeypatch.context() as m:
        m.setattr(sys, "stdout", out)
        code = main(CSV_CASES[name])
        out.flush()
    assert code == 0
    assert b"\r\r\n" not in raw.getvalue()
    rows = list(csv.reader(io.StringIO(raw.getvalue().decode(), newline="")))
    if name.startswith("verify"):
        assert rows.pop()[0].startswith("# note: ")
    header, *body = rows
    assert body and all(len(row) == len(header) for row in body)


def test_dl_csv_is_the_flattened_json(tmp_path, capsys):
    # both cold: the CSV row holds the JSON document's fields, lists as JSON
    outs = {}
    for fmt in ("json", "csv"):
        argv = ["dl", *D4, "--l", "2", "--format", fmt, "--cache", str(tmp_path / fmt)]
        code, outs[fmt], _ = _run(capsys, argv)
        assert code == 0
    doc = json.loads(outs["json"])
    header, row = csv.reader(io.StringIO(outs["csv"]))
    fields = dict(zip(header, row))
    assert fields == {key: str(value) for key, value in _flatten(doc).items()}
    assert json.loads(fields["witness_rows"]) == doc["witness_rows"]


def _raises(ctx):
    raise RuntimeError("synthetic failure")


@pytest.mark.parametrize("fmt", ["json", "csv", "text"])
def test_failing_verify_bytes(cache, capsys, monkeypatch, fmt):
    # a failing and a raising check: the expected, computed and detail lines
    import codelattice.verify as verify

    checks = (("always_fails", lambda ctx: [("a", "b"), ("c", "c")]), ("always_raises", _raises))
    monkeypatch.setattr(verify, "CHECKS", checks)
    expected = json.loads((Path(__file__).parent / "data" / "renderings.json").read_text())
    code, out, _ = _run(capsys, ["verify", "--random-codes", "0", "--format", fmt])
    assert code == 1
    assert _runtimes_masked(out) == expected[f"verify-failing-{fmt}"]


def test_missing_family_parameters(cache, capsys):
    code, _, err = _run(capsys, ["dl", "--family", "reed_muller", "--l", "1"])
    assert code == 2
    assert "family" in err or "parameters" in err


def test_family_flag_it_does_not_take_exits_2(cache, capsys):
    # RM(1,3) has n = 8: --n 5 contradicts it, and parity_check takes no --r
    for argv in (
        ["dl", "--family", "reed_muller", "--r", "1", "--m", "3", "--n", "5", "--l", "1"],
        ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--r", "1", "--l", "1"],
    ):
        code, out, err = _run(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: bad family parameters") and "Traceback" not in err


def test_gamma_on_raw_rows(cache, capsys, tmp_path):
    spec = tmp_path / "rows.json"
    spec.write_text('{"rows": [[1, 0, 1], [0, 1, 1], [2, 0, 0]]}')
    code, out, _ = _run(capsys, ["gamma", "--spec", str(spec), "--l", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["d_l"] == 2
    assert doc["det_gram"] == 4
    # gamma-prime needs the code layer
    code, _, err = _run(capsys, ["gamma-prime", "--spec", str(spec), "--l", "1"])
    assert code == 2


def test_precision_flag(cache, capsys):
    argv = ["gamma", "--family", "parity_check", "--n", "3", "--q", "2", "--l", "1",
            "--format", "json", "--precision", "9"]
    _, out, _ = _run(capsys, argv)
    assert json.loads(out)["value"]["decimal"] == "1.25992105"


@pytest.mark.parametrize(
    "extra",
    [
        ["--l", "7"],
        ["--l", "0"],
        ["--l", "1", "--precision", "0"],
        ["--l", "1", "--precision", "-1"],
        ["--l", "2", "--max-candidates", "0"],
        ["--l", "2", "--max-candidates", "-5"],
        # str() of an integer with more digits raises
        ["--l", "2", "--precision", str(sys.get_int_max_str_digits() + 1)],
    ],
)
def test_out_of_range_arguments_exit_2(cache, capsys, extra):
    argv = ["gamma", "--family", "parity_check", "--n", "4", "--q", "2"] + extra
    assert "error: argument" in _usage_error(capsys, argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["bounds", "--n-max", "1"],
        ["bounds", "--n-max", "-3"],
        ["bounds", "--n-max", "11", "--rules", "full"],
        ["rm-table", "--m-max", "0"],
        ["rm-table", "--m-max", "8"],
        ["bounds", "--precision", "5000"],
    ],
)
def test_out_of_range_table_sizes_exit_2(cache, capsys, argv):
    assert f"error: argument {argv[1]}" in _usage_error(capsys, argv)


def test_precision_up_to_the_integer_string_limit(cache, capsys):
    limit = sys.get_int_max_str_digits()
    argv = ["gamma", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2"]
    code, out, _ = _run(capsys, argv + ["--precision", str(limit), "--format", "json"])
    assert code == 0
    assert len(json.loads(out)["value"]["decimal"].replace(".", "")) == limit


def test_cache_location_that_is_not_a_directory_exits_2(capsys, tmp_path):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    argv = ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--cache"]
    for path in (not_a_dir, not_a_dir / "below"):
        code, out, err = _run(capsys, argv + [str(path)])
        assert code == 2 and out == ""
        assert f"error: unusable cache directory {path}: " in err
        assert "warning" not in err and "Traceback" not in err


@pytest.mark.parametrize("blocked", ["shard", "entry"])
def test_cache_entry_that_cannot_be_written_exits_2(cache, capsys, blocked):
    # a file where the shard directory goes, or a directory at the entry path
    argv = ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2"]
    _run(capsys, argv)
    [entry] = cache.rglob("*.json")
    entry.unlink()
    if blocked == "shard":
        entry.parent.rmdir()
        entry.parent.write_text("")
    else:
        entry.mkdir()
    code, out, err = _run(capsys, argv)
    assert (code, out) == (2, "")
    assert f"error: unusable cache entry {entry}: " in err
    # the blocked path is no corrupt entry: reading it is a plain miss
    assert "warning:" not in err and "Traceback" not in err
    assert not list(cache.rglob("*.tmp"))


def test_negative_random_codes_exits_2(cache, capsys):
    err = _usage_error(capsys, ["verify", "--random-codes", "-1"])
    assert "error: argument --random-codes" in err


def _usage_error(capsys, argv) -> str:
    """stderr of a request the parser rejects with exit 2 and no traceback."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("command", ["dl", "gamma", "gamma-prime"])
def test_rank_above_dimension_exits_2(cache, capsys, command):
    code, _, err = _run(
        capsys, [command, "--family", "parity_check", "--n", "3", "--q", "2", "--l", "4"]
    )
    assert code == 2
    assert "exceeds the lattice dimension" in err
    assert "Traceback" not in err


def _run_in_own_process(argv, module=("-m", "codelattice.cli")):
    """(exit code, stdout, stderr) of `python -m codelattice.cli argv`, or of
    another `module` invocation, in a fresh interpreter."""
    src = str(Path(codelattice.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, *module, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return done.returncode, done.stdout, done.stderr


def test_import_loads_neither_mpmath_nor_dataclasses():
    """A CLI process imports only what requests run; mpmath loads on the
    first `asymptotic_bounds` call, verify on the first `verify` request."""
    script = (
        "import sys, codelattice, codelattice.cli\n"
        "print(sorted({'mpmath', 'dataclasses', 'codelattice.verify'} & set(sys.modules)))\n"
        "b = codelattice.asymptotic_bounds(2)\n"
        "print('mpmath' in sys.modules, b.lower)\n"
    )
    code, out, err = _run_in_own_process([], module=("-c", script))
    assert code == 0, err
    assert out.splitlines() == ["[]", "True 0.166666"]


def test_out_of_range_rank_exits_2_from_the_shell(tmp_path):
    code, _, err = _run_in_own_process(
        ["gamma", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "7",
         "--cache", str(tmp_path)]
    )
    assert code == 2
    assert "Traceback" not in err


def test_parser_reuse_matches_separate_processes(tmp_path, capsys, monkeypatch):
    """main() reuses one parser per process; interleaved requests, an
    argparse error among them, must print what each prints on its own."""
    monkeypatch.setenv("COLUMNS", "80")  # the same usage wrapping in both
    requests = [
        ["dl", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "2", "--format", "json"],
        ["bounds", "--n-max", "5", "--format", "csv"],
        ["gamma", "--family", "parity_check", "--n", "4", "--q", "2", "--l", "9"],
        ["rm-table", "--m-max", "3"],
    ]
    requests.append(requests[0])  # a warm cache hit after the error
    alone, together = [], []
    for argv in requests:
        alone.append(_run_in_own_process([*argv, "--cache", str(tmp_path / "alone")]))
    for argv in requests:
        try:
            code = main([*argv, "--cache", str(tmp_path / "together")])
        except SystemExit as exc:
            code = exc.code
        out = capsys.readouterr()
        together.append((code, out.out, out.err))
    assert [c for c, _, _ in together] == [0, 0, 2, 0, 0]
    assert json.loads(together[-1][1])["cached"] is True
    assert together == alone


def test_one_parser_per_process_none_at_import(cache, capsys, monkeypatch):
    from codelattice import cli

    built = []

    def counted_build(real=cli.build_parser):
        built.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counted_build)
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["rm-table", "--m-max", "1"]) == 0
    assert len(built) == 1
    _, out, _ = _run_in_own_process(
        ["import codelattice.cli as cli; print(cli._parser.cache_info().currsize)"],
        module=("-c",),
    )
    assert out == "0\n"
