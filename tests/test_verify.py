import inspect
import json
from types import MappingProxyType

import pytest

import codelattice.verify as verify
from codelattice.invariants import BERGE_MARTINET, RANKIN
from codelattice.sublattice_search import minimal_sublattice
from codelattice.cli import main
from codelattice.verify import OPEN_CONSTANTS_NOTE, run_checks


def test_suite_passes():
    results = run_checks(random_codes=40)
    assert [r.check_id for r in results] == [
        "det_formula",
        "d1_formula",
        "rank2_code_bound",
        "even_lattice_rank2",
        "code_lattice_duality",
        "parity_check_family",
        "rm_table",
        "rm_row_determinants",
        "rm_first_order",
        "e8_gram",
        "rm_last_order",
        "dual_parity_check",
        "bound_intervals",
        "cardinality_bound_tightness",
        "a2_benchmark",
    ]
    failures = [r for r in results if r.status == "fail"]
    assert not failures, failures


def test_deterministic_reports():
    a = run_checks("rm_table")
    b = run_checks("rm_table")
    strip = lambda rs: [(r.check_id, r.status, r.expected, r.computed) for r in rs]
    assert strip(a) == strip(b)


def test_filter_skips():
    results = run_checks("e8_gram")
    by_id = {r.check_id: r for r in results}
    assert by_id["e8_gram"].status == "pass"
    assert by_id["rm_table"].status == "skipped"


def test_report_formats(capsys):
    def report(fmt):
        assert main(["verify", "--filter", "e8_gram", "--format", fmt]) == 0
        return capsys.readouterr().out

    text = report("text")
    assert OPEN_CONSTANTS_NOTE in text
    assert "PASS" in text
    doc = json.loads(report("json"))
    assert doc["note"] == OPEN_CONSTANTS_NOTE
    assert len(doc["checks"]) == len(verify.CHECKS)
    csv = report("csv")
    assert csv.splitlines()[0] == "check_id,status,runtime_ms"


def test_failures_recorded_not_raised():
    def boom(cfg):
        raise RuntimeError("synthetic")

    original = verify.CHECKS
    verify.CHECKS = (("synthetic_check", boom),) + original[1:2]
    try:
        results = verify.run_checks()
        assert results[0].status == "fail"
        assert "synthetic" in results[0].detail
        assert results[1].status == "pass"
    finally:
        verify.CHECKS = original


def test_checks_return_claim_lists():
    # eager functions: a timer around the call must see the check's work
    ctx = verify._Context(10_000_000, verify._family_corpus(), verify._random_codes(5))
    for check_id, fn in verify.CHECKS:
        assert not inspect.isgeneratorfunction(fn), check_id
        claims = fn(ctx)
        assert isinstance(claims, list) and claims, check_id
        for claim in claims:
            assert isinstance(claim, tuple) and len(claim) == 2, (check_id, claim)
            assert all(isinstance(side, str) for side in claim), (check_id, claim)


def test_d1_over_cap_reports_the_cap():
    # codes above the cap are not scored as zero codes
    [result] = [r for r in run_checks("d1_formula", cap=100) if r.status != "skipped"]
    assert result.status == "fail"
    assert result.detail.startswith("EnumerationCap"), result.detail
    assert "cap 100" in result.detail


def test_bound_interval_seeds_honour_the_cap():
    # the parity check seed searches reach D7, whose pool at lambda1 = 2
    # holds 42 vectors
    [result] = [r for r in run_checks("bound_intervals", cap=30) if r.status != "skipped"]
    assert result.status == "fail"
    assert result.detail.startswith("EnumerationCap"), result.detail
    assert "cap 30" in result.detail
    [result] = [r for r in run_checks("bound_intervals", cap=50) if r.status != "skipped"]
    assert result.status == "pass"


def test_verify_searches_honour_the_cap():
    # a check's searches go through the context's memo, which keeps the cap
    [result] = [r for r in run_checks("parity_check_family", cap=30) if r.status != "skipped"]
    assert result.status == "fail"
    assert result.detail.startswith("EnumerationCap"), result.detail
    assert "cap 30" in result.detail


def test_each_search_is_made_once(monkeypatch):
    # every search of a run goes through the context's memo, the bound
    # interval seeds' too: no (lattice, rank) is searched twice
    import codelattice.invariants as invariants

    searched = []

    def counted(lattice, l, **kwargs):
        searched.append((lattice.basis, l))
        return minimal_sublattice(lattice, l, **kwargs)

    monkeypatch.setattr(verify, "minimal_sublattice", counted)
    monkeypatch.setattr(invariants, "minimal_sublattice", counted)
    assert not [r for r in run_checks(random_codes=40) if r.status == "fail"]
    assert len(searched) == 99 == len(set(searched))


# Each known constant that a check recomputes, and that check.  `bounds`
# seeds from the same table, so a wrong entry must fail the check.
RECOMPUTED_FACTS = [
    (RANKIN, 3, 1, "parity_check_family"),
    (RANKIN, 4, 1, "parity_check_family"),
    (RANKIN, 5, 1, "parity_check_family"),
    (RANKIN, 4, 2, "rm_last_order"),
    (RANKIN, 8, 1, "cardinality_bound_tightness"),
    (RANKIN, 8, 2, "rm_first_order"),
    (RANKIN, 8, 3, "rm_first_order"),
    (RANKIN, 8, 4, "rm_first_order"),
    (BERGE_MARTINET, 3, 1, "dual_parity_check"),
    (BERGE_MARTINET, 4, 1, "dual_parity_check"),
    (BERGE_MARTINET, 5, 1, "dual_parity_check"),
    (BERGE_MARTINET, 4, 2, "dual_parity_check"),
    (BERGE_MARTINET, 8, 1, "rm_first_order"),
    (BERGE_MARTINET, 8, 2, "rm_first_order"),
    (BERGE_MARTINET, 8, 3, "rm_first_order"),
    (BERGE_MARTINET, 8, 4, "rm_first_order"),
]


@pytest.mark.parametrize("kind, n, l, check_id", RECOMPUTED_FACTS)
def test_a_doubled_known_constant_fails_its_check(monkeypatch, kind, n, l, check_id):
    doubled = dict(verify.KNOWN_FACTS)
    fact = doubled[kind, n, l]
    doubled[kind, n, l] = fact._replace(value=2 * fact.value)
    monkeypatch.setattr(verify, "KNOWN_FACTS", MappingProxyType(doubled))
    [result] = [r for r in run_checks(check_id, random_codes=0) if r.status != "skipped"]
    assert result.check_id == check_id
    assert result.status == "fail", result
