"""The mutation gate: single edits of the certified paths that a named test
module must catch.

Each mutant is (what it breaks, file under src/codelattice, old text, new
text, test module expected to fail).  The old text must occur exactly once
in its file.  Run from anywhere:

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the mutants whose description contains a NAME

Each mutant is applied to a fresh copy of src/ in a temporary directory, and
`pytest -x` runs its module against that copy.  The run fails if any mutant
survives (its module passes), if its old text no longer matches, or if its
module ends in anything but test failures (a collection error, a usage error,
a time-out).  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MUTANTS = (
    # -- the checking constructors --------------------------------------------
    (
        "Sublattice: membership check skipped",
        "lattices.py",
        "if ambient.coefficients_of(r) is None:",
        "if False:",
        "test_lattices",
    ),
    (
        "Sublattice: rank check skipped",
        "lattices.py",
        "if det <= 0:",
        "if det < 0:",
        "test_lattices",
    ),
    (
        "LinearCode: family label writable",
        "codes.py",
        'family = property(attrgetter("_family"))',
        'family = property(attrgetter("_family"), lambda self, v: setattr(self, "_family", v))',
        "test_codes",
    ),
    (
        "SearchCertificate: determinant comparison skipped",
        "sublattice_search.py",
        "if witness.det_l != value:",
        "if False:",
        "test_cli",
    ),
    (
        "SearchCertificate: row-count check skipped",
        "sublattice_search.py",
        "if len(rows) != l:",
        "if False:",
        "test_cli",
    ),
    # -- the search -----------------------------------------------------------
    (
        "Hermite floor rounded down",
        "sublattice_search.py",
        "return -(-(lam**l) * g.denominator // g.numerator)",
        "return lam**l * g.denominator // g.numerator",
        "test_search",
    ),
    (
        "leaf bisect keyed by the squared norm",
        "sublattice_search.py",
        "_POWER = (None, None, lambda v: v * v,",
        "_POWER = (None, lambda v: v * v, lambda v: v * v,",
        "test_search",
    ),
    (
        "budget off by one",
        "sublattice_search.py",
        "budget = self.hn * self.bound // (prod * self.hd)",
        "budget = self.hn * self.bound // (prod * self.hd) - 1",
        "test_search",
    ),
    (
        "leaf tie keeps the last hit, not the first",
        "sublattice_search.py",
        "if self.key is None:",
        "if True:",
        "test_search",
    ),
    (
        "adjugate update with the wrong sign",
        "sublattice_search.py",
        "(d * a00 + w0 * w0) // det,",
        "(d * a00 - w0 * w0) // det,",
        "test_search",
    ),
    (
        "3-prefix leaf term with the wrong sign",
        "sublattice_search.py",
        "- a22 * z * z",
        "+ a22 * z * z",
        "test_search",
    ),
    (
        "one-scan rule rescans every pool",
        "sublattice_search.py",
        "if scan is None or len(pool) > len(scan.norms):",
        "if True:",
        "test_search",
    ),
    (
        "one-scan rule never rescans",
        "sublattice_search.py",
        "if scan is None or len(pool) > len(scan.norms):",
        "if scan is None:",
        "test_search",
    ),
    # -- the enumeration ------------------------------------------------------
    (
        "word range stops below m/2",
        "enumeration.py",
        "hi = m // 2",
        "hi = (m - 1) // 2",
        "test_enumeration",
    ),
    (
        "lift criterion strict",
        "enumeration.py",
        "if m * (m - 2 * abs(e)) <= slack]",
        "if m * (m - 2 * abs(e)) < slack]",
        "test_enumeration",
    ),
    (
        "spent word's free set left empty",
        "enumeration.py",
        "if m * (m - 2 * abs(e)) <= slack]",
        "if m * (m - 2 * abs(e)) <= slack and slack]",
        "test_enumeration",
    ),
    (
        "spent-word completion skips a pivot that does not divide P",
        "enumeration.py",
        "if r:\n                    return",
        "if r:\n                    continue",
        "test_enumeration",
    ),
    (
        "self-negating sign rule forgets m/2",
        "enumeration.py",
        "self.words(j + 1, y, left, self_negating and (w == 0 or w + w == m))",
        "self.words(j + 1, y, left, self_negating and w == 0)",
        "test_enumeration",
    ),
    (
        "self-negating lifts emitted with both signs",
        "enumeration.py",
        "lo = 0 if positive else -s",
        "lo = -s",
        "test_enumeration",
    ),
    (
        "kept-list prefix stops one norm short",
        "enumeration.py",
        'bisect_right(known.vectors, bound, key=attrgetter("norm"))',
        'bisect_right(known.vectors, bound - 1, key=attrgetter("norm"))',
        "test_enumeration",
    ),
    (
        "grain rounding upwards",
        "enumeration.py",
        "radius = bound - bound % _grain(lattice.basis)",
        "radius = bound + bound % _grain(lattice.basis)",
        "test_enumeration",
    ),
    (
        "row grain stopped at 4 instead of 2",
        "enumeration.py",
        "if g <= 2:",
        "if g <= 4:",
        "test_enumeration",
    ),
    (
        "Hermite start one below the bound",
        "enumeration.py",
        "radius = min(radius, b)",
        "radius = min(radius, b - 1)",
        "test_enumeration",
    ),
    (
        "emitted-norm check skipped",
        "enumeration.py",
        "if not 0 < norm <= self.bound or norm != self.bound - slack:",
        "if False:",
        "test_search",
    ),
    # -- the lattice kernel ---------------------------------------------------
    (
        "HNF: cofactor row dropped after a fold",
        "lattices.py",
        "[(a * v - b * u) % mod for u, v in zip(p, r)],",
        "[0] * len(r),",
        "test_lattices",
    ),
    (
        "HNF: no reduction above the pivots",
        "lattices.py",
        "c = row[j] // p[0]",
        "c = 0",
        "test_lattices",
    ),
    (
        "HNF: pivot started at 0 instead of D e_j",
        "lattices.py",
        "p = [mod] + [0] * (n - j - 1)",
        "p = [0] * (n - j)",
        "test_lattices",
    ),
    (
        "from_rows modulus taken from the first n rows",
        "lattices.py",
        "return cls(hnf(rows, det_int(gram_matrix(list(zip(*rows))))))",
        "return cls(hnf(rows, det_int(gram_matrix(rows[: len(rows[0])]))))",
        "test_lattices",
    ),
    (
        "Gram matrix mirror dropped",
        "lattices.py",
        "g[j] = gram[j][i] = sum(map(mul, u, rows[j]))",
        "g[j] = sum(map(mul, u, rows[j]))",
        "test_lattices",
    ),
    (
        "exponent taken as lcm(d_j) alone",
        "lattices.py",
        "return low if low == gcd(modulus, prod(pivots)) else None",
        "return low",
        "test_enumeration",
    ),
    (
        "exponent taken as prod(d_j)",
        "lattices.py",
        "return low if low == gcd(modulus, prod(pivots)) else None",
        "return prod(pivots)",
        "test_enumeration",
    ),
    (
        "fallback exponent returns det B",
        "lattices.py",
        "m = self._exponent = d // gcd(d, *chain.from_iterable(dual_basis(self, d)))",
        "m = self._exponent = d",
        "test_enumeration",
    ),
    (
        "fallback exponent not kept",
        "lattices.py",
        "m = self._exponent = d // gcd(",
        "m = d // gcd(",
        "test_enumeration",
    ),
    (
        "builder's modulus dropped",
        "lattices.py",
        "lattice._exponent = _pinned_exponent(pivots, code.q)",
        "lattice._exponent = _pinned_exponent(pivots, prod(pivots))",
        "test_enumeration",
    ),
    (
        "dual determinant identity skipped",
        "codes.py",
        "if lattice.det_gram * dual.lattice().det_gram != q ** (2 * n):",
        "if False:",
        "test_search",
    ),
    # -- the known constants --------------------------------------------------
    (
        "E8's gamma(8,2) entry taken as 4",
        "invariants.py",
        '(RANKIN, 8, 2, Radical(3), "E8"),',
        '(RANKIN, 8, 2, Radical(4), "E8"),',
        "test_verify",
    ),
    (
        "E8's gamma'(8,3) entry taken as 5",
        "invariants.py",
        '(BERGE_MARTINET, 8, 3, Radical(4), "E8"),',
        '(BERGE_MARTINET, 8, 3, Radical(5), "E8"),',
        "test_verify",
    ),
    (
        "HERMITE_POWER[6] taken as 64/5",
        "enumeration.py",
        "6: Fraction(64, 3),",
        "6: Fraction(64, 5),",
        "test_search",
    ),
    # -- the verify suite -----------------------------------------------------
    (
        "ctx.search drops the cap",
        "verify.py",
        "minimal_sublattice(lattice, l, cap=cap)",
        "minimal_sublattice(lattice, l)",
        "test_verify",
    ),
    # -- the verify report ----------------------------------------------------
    (
        "verify text report drops the detail line",
        "cli.py",
        'print(f"        detail: {r.detail}")',
        "pass",
        "test_cli",
    ),
    (
        "verify filter matching no check passes",
        "cli.py",
        'if args.filter and all(r.status == "skipped" for r in results):',
        "if False:",
        "test_cli",
    ),
    # -- the CSV writer -------------------------------------------------------
    (
        "CSV lines end in CRLF",
        "cli.py",
        'lineterminator="\\n"',
        'lineterminator="\\r\\n"',
        "test_cli",
    ),
    (
        "_emit's CSV branch ignores the table",
        "cli.py",
        "if table is None:",
        "if True:",
        "test_cli",
    ),
    # -- the decimal rendering ------------------------------------------------
    (
        "to_decimal rounding carry dropped",
        "exact.py",
        "if m >= 10 ** digits:",
        "if False:",
        "test_exact",
    ),
    # -- the certificate cache ------------------------------------------------
    (
        "cache loader's rank check deleted",
        "cli.py",
        'if document_int(doc["l"], "l") != l:',
        "if False:",
        "test_cli",
    ),
    (
        "cache loader's key check deleted",
        "cli.py",
        'if doc["key"] != key:',
        "if False:",
        "test_cli",
    ),
    (
        "cache store lets OSError through",
        "cli.py",
        'raise CliError(f"unusable cache entry {path}: {exc.strerror}", EXIT_BAD_INPUT)',
        "raise",
        "test_cli",
    ),
    # -- the invariants -------------------------------------------------------
    (
        "lattice seeds capped at n = 8",
        "invariants.py",
        "for n in range(3, n_max + 1):",
        "for n in range(3, min(n_max, 8) + 1):",
        "test_invariants",
    ),
    (
        "every code taken as self-dual",
        "invariants.py",
        "dual = primal if is_self_dual(code) else",
        "dual = primal if True else",
        "test_invariants",
    ),
)

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 600


def run(name, path, old, new, module) -> str | None:
    """None if `module` fails on the mutant, else why the gate fails."""
    source = ROOT / "src" / "codelattice" / path
    text = source.read_text()
    if text.count(old) != 1:
        return f"old text occurs {text.count(old)} times in {path}, not once"
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        (src / "codelattice" / path).write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
        try:
            done = subprocess.run(
                argv + [f"tests/{module}.py"],
                cwd=ROOT,
                env=env,
                capture_output=True,
                text=True,
                timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return f"{module} timed out after {TIMEOUT_S} s"
    if done.returncode == 0:
        return f"survived {module}"
    if done.returncode != 1:  # 1: tests failed; anything else is no verdict
        tail = (done.stdout + done.stderr).strip().splitlines()[-3:]
        return f"{module} exited {done.returncode}: " + " | ".join(tail)
    return None


def main(names) -> int:
    chosen = [m for m in MUTANTS if not names or any(n in m[0] for n in names)]
    bad = 0
    for mutant in chosen:
        t0 = time.perf_counter()
        problem = run(*mutant)
        verdict = "killed" if problem is None else "FAILED: " + problem
        print(f"{time.perf_counter() - t0:6.1f} s  {mutant[0]}: {verdict}", flush=True)
        bad += problem is not None
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
