"""Command-line front end.

Subcommands: build, dl, gamma, gamma-prime, bounds, rm-table, verify.
Code inputs come either from a JSON spec file (--spec) or a named family
(--family plus parameters).  Every numeric output carries the exact form
(num/den/root) next to a decimal rendering.  Sublattice search results are
cached on disk keyed by the canonical HNF basis and rank.

Exit codes: 0 success, 1 verify failures, 2 unusable input (parse error, a
spec document `codes.read_spec` rejects, an out-of-range argument, a
verify --filter that selects no check, a cache location that cannot be a
directory, or a cache shard or entry that cannot be written), 3 infeasible
search (enumeration cap exceeded).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import __version__
from .codes import (
    FAMILIES,
    FAMILY_KEYS,
    MAX_LENGTH,
    code_document,
    document_int,
    is_self_dual,
    read_spec,
    reed_muller_table,
)
from .enumeration import DEFAULT_CAP, EnumerationCap
from .exact import Radical
from .invariants import (
    berge_martinet_invariant,
    propagate_bounds,
    rankin_invariant,
    standard_seeds,
)
from .lattices import IntegralLattice, canonical_json, lattice_document
from .sublattice_search import MAX_RANK, SEARCH_VERSION, SearchCertificate, minimal_sublattice

EXIT_OK = 0
EXIT_CHECK_FAILURES = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _radical_doc(value: Radical, precision: int) -> dict:
    num, den, root = value.as_triple()
    return {
        "num": num,
        "den": den,
        "root": root,
        "decimal": value.to_decimal(precision),
    }


# -- input resolution -------------------------------------------------------


def _resolve_target(args) -> tuple[object | None, IntegralLattice]:
    """(code or None, lattice) from --spec or --family arguments."""
    if args.spec:
        # ValueError includes bad UTF-8 and over-long integers, RecursionError deep nesting
        try:
            with open(args.spec, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError, RecursionError) as exc:
            raise CliError(f"cannot parse spec file: {exc}", EXIT_BAD_INPUT)
        what, missing = "bad spec document", "key {!r} is required"
    elif args.family:
        doc = {"family": args.family}
        for key in FAMILY_KEYS:
            if getattr(args, key) is not None:
                doc[key] = getattr(args, key)
        what, missing = "bad family parameters", "--{} is required"
    else:
        raise CliError("need --spec or --family", EXIT_BAD_INPUT)
    try:
        return read_spec(doc)
    except KeyError as exc:
        raise CliError(f"{what}: {missing.format(exc.args[0])}", EXIT_BAD_INPUT)
    except (TypeError, ValueError) as exc:
        raise CliError(f"{what}: {exc}", EXIT_BAD_INPUT)


# -- certificate cache ------------------------------------------------------


def _certificate_doc(cert: SearchCertificate, **after_value) -> dict:
    """The certificate document of `dl` and of a cache entry.

    `after_value` entries follow `value`, in the text rendering too.
    """
    return {
        "l": cert.l,
        "value": cert.value,
        **after_value,
        "witness_rows": [list(r) for r in cert.witness.rows],
        "per_vector_bound": cert.per_vector_bound,
        "candidates_examined": cert.candidates_examined,
    }


def _certificate_from_doc(doc: dict, lattice: IntegralLattice, l: int) -> SearchCertificate:
    """Inverse of `_certificate_doc`: integer fields only, for rank l, and a
    witness that the `SearchCertificate` constructor accepts for `lattice`."""
    if document_int(doc["l"], "l") != l:
        raise ValueError(f"certificate is for rank {doc['l']}, not {l}")
    return SearchCertificate(
        lattice,
        l,
        document_int(doc["value"], "value"),
        [[document_int(e, "witness entry") for e in r] for r in doc["witness_rows"]],
        document_int(doc["per_vector_bound"], "per_vector_bound"),
        document_int(doc["candidates_examined"], "candidates_examined"),
    )


def _cache_dir(args) -> str:
    """The cache directory, made if missing; one that cannot be exits 2."""
    base = os.environ.get("XDG_CACHE_HOME", os.path.expanduser("~/.cache"))
    path = args.cache or os.environ.get("CODELATTICE_CACHE") or os.path.join(base, "codelattice")
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:  # FileExistsError: a file is there
        raise CliError(f"unusable cache directory {path}: {exc.strerror}", EXIT_BAD_INPUT)
    return path


def _cache_key(lattice: IntegralLattice, l: int) -> str:
    """Hash of the basis, the rank and the search version: an entry written
    by an older search is a miss, not a certificate with other fields."""
    import hashlib

    blob = json.dumps([list(r) for r in lattice.basis] + [l, SEARCH_VERSION], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], key + ".json")


def _cache_load(cache_dir, lattice, l) -> SearchCertificate | None:
    """The stored certificate, or None for a miss.  An entry that cannot be
    opened or read (missing, or a file or directory in the way) is a miss;
    one that does not parse, names another key, or fails the certificate
    check is a miss with a warning."""
    key = _cache_key(lattice, l)
    path = _cache_path(cache_dir, key)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc["key"] != key:  # an entry copied from another lattice's path
            raise ValueError(f"entry is for key {doc['key']}")
        return _certificate_from_doc(doc, lattice, l)
    except OSError:
        return None
    except Exception as exc:
        print(f"warning: ignoring corrupt cache entry {path}: {exc}", file=sys.stderr)
        return None


def _cache_store(cache_dir, lattice, cert: SearchCertificate) -> None:
    """Publish the entry atomically; a shard or an entry path that cannot be
    written (a file or a directory in the way) exits 2, naming the entry."""
    import tempfile

    key = _cache_key(lattice, cert.l)
    path = _cache_path(cache_dir, key)
    doc = {**_certificate_doc(cert), "key": key}
    try:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(canonical_json(doc))
            os.replace(tmp, path)  # atomic publish
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise CliError(f"unusable cache entry {path}: {exc.strerror}", EXIT_BAD_INPUT)


def _searched(args, lattice, l) -> tuple[SearchCertificate, bool]:
    """(certificate, cached): from the cache, else from a search stored there."""
    if l > lattice.n:
        raise CliError(f"--l {l} exceeds the lattice dimension {lattice.n}", EXIT_BAD_INPUT)
    cache_dir = _cache_dir(args)
    cert = _cache_load(cache_dir, lattice, l)
    if cert is not None:
        return cert, True
    cert = minimal_sublattice(lattice, l, cap=args.max_candidates)
    _cache_store(cache_dir, lattice, cert)
    return cert, False


def _searched_input(args) -> tuple[IntegralLattice, SearchCertificate, bool]:
    """(lattice, certificate, cached) for the input at rank --l."""
    _, lat = _resolve_target(args)
    return (lat, *_searched(args, lat, args.l))


# -- output -----------------------------------------------------------------


def _emit(args, doc: dict, table=None) -> None:
    """`doc` as JSON or text.  As CSV, `table` (columns, rows), or with no
    table the flattened doc as one row."""
    if args.format == "json":
        sys.stdout.write(canonical_json(doc))
    elif args.format == "csv":
        if table is None:
            flat = _flatten(doc)
            table = sorted(flat), [flat]
        _write_table(*table)
    else:
        for line in _text_lines(doc):
            print(line)


def _write_table(columns, rows, sep=",") -> None:
    """A header line of the column names, then one line per row, each ending
    in "\n"; a field is quoted only where it needs quoting."""
    import csv

    w = csv.writer(sys.stdout, delimiter=sep, lineterminator="\n")
    w.writerow(columns)
    w.writerows([row[c] for c in columns] for row in rows)


def _flatten(doc, prefix="") -> dict:
    out = {}
    for k, v in doc.items():
        key = f"{prefix}{k}"
        if isinstance(v, dict):
            out.update(_flatten(v, key + "."))
        elif isinstance(v, list):
            out[key] = json.dumps(v)
        else:
            out[key] = v
    return out


def _text_lines(doc, indent=0):
    pad = "  " * indent
    for k, v in doc.items():
        if isinstance(v, dict):
            yield f"{pad}{k}:"
            yield from _text_lines(v, indent + 1)
        elif isinstance(v, list) and v and isinstance(v[0], (list, dict)):
            yield f"{pad}{k}:"
            for item in v:
                if isinstance(item, dict):
                    yield from _text_lines(item, indent + 1)
                    yield ""
                else:
                    yield f"{pad}  {item}"
        else:
            yield f"{pad}{k}: {v}"


# -- subcommands ------------------------------------------------------------


def _cmd_build(args) -> int:
    code, lat = _resolve_target(args)
    doc = {"lattice": lattice_document(lat)}
    if code is not None:
        doc["code"] = code_document(code)
        doc["cardinality"] = code.cardinality
    _emit(args, doc)
    return EXIT_OK


def _cmd_dl(args) -> int:
    _, cert, cached = _searched_input(args)
    exact = _radical_doc(Radical(cert.value), args.precision)
    _emit(args, {**_certificate_doc(cert, value_exact=exact), "cached": cached})
    return EXIT_OK


def _cmd_gamma(args) -> int:
    lat, cert, cached = _searched_input(args)
    doc = {
        "kind": "rankin",
        "n": lat.n,
        "l": args.l,
        "value": _radical_doc(rankin_invariant(lat, cert), args.precision),
        "d_l": cert.value,
        "det_gram": lat.det_gram,
        "cached": cached,
    }
    _emit(args, doc)
    return EXIT_OK


def _cmd_gamma_prime(args) -> int:
    code, _ = _resolve_target(args)
    if code is None:
        raise CliError("gamma-prime needs a code input, not raw rows", EXIT_BAD_INPUT)

    def search(lattice, l):
        return _searched(args, lattice, l)[0]

    value = berge_martinet_invariant(code, args.l, search=search)
    doc = {
        "kind": "berge_martinet",
        "n": code.n,
        "l": args.l,
        "value": _radical_doc(value, args.precision),
        "self_dual": is_self_dual(code),
    }
    _emit(args, doc)
    return EXIT_OK


def _cmd_bounds(args) -> int:
    search = functools.partial(minimal_sublattice, cap=args.max_candidates)
    seeds = standard_seeds(args.n_max, search)
    result = propagate_bounds(args.n_max, seeds, rules=args.rules)
    rows = []
    for (kind, n, l), cell in sorted(result.cells.items()):
        rows.append(
            {
                "kind": kind,
                "n": n,
                "l": l,
                "lower": _radical_doc(cell.lower, args.precision),
                "upper": None if cell.upper is None else _radical_doc(cell.upper, args.precision),
                "exact": cell.is_exact(),
                "provenance": cell.provenance,
            }
        )
    # the CSV table holds the decimals; no upper bound is an empty field
    decimals = [
        dict(r, lower=r["lower"]["decimal"], upper=r["upper"] and r["upper"]["decimal"]) for r in rows
    ]
    table = ("kind", "n", "l", "lower", "upper", "exact"), decimals
    _emit(args, {"n_max": args.n_max, "rules": args.rules, "cells": rows}, table)
    return EXIT_OK


def _cmd_rm_table(args) -> int:
    rows = [
        {
            "m": m,
            "r": r,
            "k": k,
            "det_rows": det_rows,
            "det_lattice": det_lattice,
            "det_lattice_formula": (2 ** ((1 << m) - k)) ** 2,
        }
        for m, r, k, det_rows, det_lattice in reed_muller_table(args.m_max)
    ]
    columns = ("m", "r", "k", "det_rows", "det_lattice", "det_lattice_formula")
    if args.format == "text":  # a space-separated table without the formula
        _write_table(columns[:-1], rows, sep=" ")
    else:
        _emit(args, {"rows": rows}, (columns, rows))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .verify import OPEN_CONSTANTS_NOTE, run_checks

    results = run_checks(args.filter, random_codes=args.random_codes, cap=args.max_candidates)
    if args.filter and all(r.status == "skipped" for r in results):
        raise CliError(f"--filter {args.filter!r} matches no check", EXIT_BAD_INPUT)
    failures = sum(1 for r in results if r.status == "fail")
    records = [r._asdict() for r in results]
    # every format carries the open-constants note
    if args.format == "text":
        print(OPEN_CONSTANTS_NOTE)
        for r in results:
            print(f"{r.status.upper():7} {r.check_id} [{r.runtime_ms} ms]")
            if r.status == "fail":
                print(f"        expected: {r.expected}\n        computed: {r.computed}")
                if r.detail:
                    print(f"        detail: {r.detail}")
        print(f"{len(results)} checks, {failures} failures")
    else:
        doc = {"note": OPEN_CONSTANTS_NOTE, "checks": records}
        _emit(args, doc, (("check_id", "status", "runtime_ms"), records))
        if args.format == "csv":
            print(f"# {OPEN_CONSTANTS_NOTE}")
    return EXIT_CHECK_FAILURES if failures else EXIT_OK


# -- parser -----------------------------------------------------------------


def _int_in(lo: int, hi: int | None = None):
    """argparse type: an integer in [lo, hi]; anything else exits 2 with usage."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo or (hi is not None and value > hi):
            span = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
            raise argparse.ArgumentTypeError(f"expected an integer {span}, got {text!r}")
        return value

    return parse


# str() of an integer with more digits raises (0: no limit, as before 3.10.7)
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()

# Arguments as (flag, add_argument keywords).  Every subcommand takes the
# common ones first; the search commands take the code input and --l.
_COMMON = (
    ("--format", dict(choices=("text", "json", "csv"), default="text")),
    ("--precision", dict(type=_int_in(1, _MAX_DIGITS or None), default=6, help="decimal display digits")),
    ("--cache", dict(help="certificate cache directory")),
    ("--max-candidates", dict(type=_int_in(1), default=DEFAULT_CAP, help="enumeration cap (>= 1)")),
)
_CODE_INPUT = (
    ("--spec", dict(help="JSON code document or {'rows': ...}")),
    ("--family", dict(choices=FAMILIES)),
    *((f"--{key}", dict(type=int)) for key in FAMILY_KEYS),
)
_SEARCH = _CODE_INPUT + (
    ("--l", dict(type=_int_in(1, MAX_RANK), required=True, help=f"sublattice rank, 1..{MAX_RANK}")),
)

# name, help, handler, arguments after the common ones
_COMMANDS = (
    ("build", "build a lattice and print its canonical form", _cmd_build, _CODE_INPUT),
    ("dl", "minimal rank-l sublattice determinant", _cmd_dl, _SEARCH),
    ("gamma", "Rankin invariant of the code lattice", _cmd_gamma, _SEARCH),
    ("gamma-prime", "Berge-Martinet invariant via the dual code", _cmd_gamma_prime, _SEARCH),
    ("bounds", "exact interval table for the constants", _cmd_bounds, (
        ("--n-max", dict(type=_int_in(2, 10), default=7)),
        ("--rules", dict(choices=("published", "full"), default="published")),
    )),
    ("rm-table", "Reed-Muller determinant table", _cmd_rm_table, (
        ("--m-max", dict(type=_int_in(1, MAX_LENGTH.bit_length() - 1), default=5)),
    )),
    ("verify", "run the reproduction checks", _cmd_verify, (
        ("--filter", dict()),
        ("--random-codes",
         dict(type=_int_in(0), default=200, help="random code corpus size (>= 0)")),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="codelattice",
        description="Exact lattices from linear codes and their invariants.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, handler, arguments in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag, kwargs in _COMMON + arguments:
            p.add_argument(flag, **kwargs)
        p.set_defaults(fn=handler)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every `main` call reuses, built on the first call."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except EnumerationCap as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())
