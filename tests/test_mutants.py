from mutants import MUTANTS, ROOT


def test_every_mutant_still_applies():
    # the mutation gate (python tests/mutants.py) runs in CI only; this keeps
    # its list in step with the source in every Tier-1 run
    for name, path, old, new, module in MUTANTS:
        assert old != new, name
        assert (ROOT / "src" / "codelattice" / path).read_text().count(old) == 1, name
        assert (ROOT / "tests" / f"{module}.py").is_file(), name
    assert len({m[0] for m in MUTANTS}) == len(MUTANTS)
