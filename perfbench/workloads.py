"""The benchmark's workloads: seeded inputs, one timed pass, and the checks.

Every workload is a list of jobs.  `prepare(seed, workdir)` builds the
inputs (this is what `setup_s` measures); `run_pass(inputs, tracer,
scratch)` runs every job once, times each request, checks each output
against an exact reference after the timing, and returns a `PassResult`.

The seed never changes how much work a pass does.  It picks a chain of
elementary row operations for every code, so each run sees different
generator matrices of the same codes: the lattices, the certified values,
the enumerated vector counts and the leaves are the same for every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import time
import types
from fractions import Fraction

from codelattice import cli, codes, exact, invariants, lattices, sublattice_search

# The only references through which the benchmark reaches the package, so
# the tracer can patch them like any importing module's attributes.
api = types.SimpleNamespace(
    code_from_document=codes.code_from_document,
    construction_a=lattices.construction_a,
    minimal_sublattice=sublattice_search.minimal_sublattice,
    rankin_invariant=invariants.rankin_invariant,
    main=cli.main,
)


class PassResult:
    """What one pass did: job times, failures and repeatable counts.

    spans maps each job label to its (start, end) perf_counter interval;
    the labels in requests are the requests whose latency percentiles are
    reported.
    """

    def __init__(self):
        self.spans: dict[str, tuple[float, float]] = {}
        self.requests: set[str] = set()
        self.attempted = 0
        self.failures: list[str] = []
        self.counts: dict[str, object] = {}
        self.steps_s: dict[str, float] = {}
        self.wall_s = 0.0  # the requests only, without the checks

    def record(self, label, t0, t1, request):
        self.spans[label] = (t0, t1)
        if request:
            self.requests.add(label)

    def job(self, label, error):
        self.attempted += 1
        if error:
            self.failures.append(f"{label}: {error}")


def disguise(rng: random.Random, q: int, generators) -> list[list[int]]:
    """Other generators of the same code, by elementary row operations.

    The Construction A lattice and its HNF basis stay the same, and the
    search work with them: `minimal_sublattice` starts from the Gram
    determinant of the first basis rows, so an isometric but differently
    reduced code would change the enumeration radius.
    """
    rows = [[a % q for a in g] for g in generators]
    for _ in range(2 * len(rows)):
        if len(rows) < 2:
            break
        i, j = rng.sample(range(len(rows)), 2)
        c = rng.randrange(1, q)
        rows[j] = [(a + c * b) % q for a, b in zip(rows[j], rows[i])]
    rng.shuffle(rows)
    return rows


def _code_doc(q, rows):
    return {"q": q, "n": len(rows[0]), "generators": rows}


# -- search workloads --------------------------------------------------------


class SearchWorkload:
    """Certified d_l (and the Rankin invariant) through the public API.

    Each job is one request: load the code document, build the Construction
    A lattice, run `minimal_sublattice` with upper_hint = q^(2l) and take the
    Rankin invariant of the certificate.
    """

    def __init__(self, name, jobs):
        # jobs: (label, q, generators, l, reference d_l)
        self.name = name
        self.jobs = jobs

    def prepare(self, seed, workdir):
        rng = random.Random(seed)
        return [
            (label, _code_doc(q, disguise(rng, q, gens)), l, ref)
            for label, q, gens, l, ref in self.jobs
        ]

    def run_pass(self, inputs, tracer, scratch):
        result = PassResult()
        done = []
        start = time.perf_counter()
        for label, doc, l, ref in inputs:
            tracer.job = label
            q = doc["q"]
            t0 = time.perf_counter()
            try:
                code = api.code_from_document(doc)
                lattice = api.construction_a(code)
                cert = api.minimal_sublattice(lattice, l, upper_hint=q ** (2 * l))
                gamma = api.rankin_invariant(lattice, cert)
            except Exception as exc:  # a raising request is a failed job
                result.job(label, f"{type(exc).__name__}: {exc}")
                continue
            finally:
                result.record(label, t0, time.perf_counter(), request=True)
            done.append((label, lattice, l, ref, cert, gamma))
        result.wall_s = time.perf_counter() - start
        tracer.job = None
        with paused(tracer):
            for label, lattice, l, ref, cert, gamma in done:
                result.job(label, check_search(lattice, l, ref, cert, gamma))
                result.counts[label] = [
                    cert.value,
                    cert.candidates_examined,
                    cert.per_vector_bound,
                    cert.confirmed_by_escalation,
                ]
        return result


def check_search(lattice, l, ref, cert, gamma):
    """None if the certificate matches the reference, else what is wrong."""
    if cert.value != ref:
        return f"d_{l} = {cert.value}, reference {ref}"
    rows = [list(r) for r in cert.witness.rows]
    if lattices.sublattice_from_rows(lattice, rows).det_l != cert.value:
        return "witness determinant differs from the value"
    expected = exact.Radical(Fraction(ref ** lattice.n, lattice.det_gram ** l), lattice.n)
    if gamma.as_triple() != expected.as_triple():
        return f"Rankin invariant {gamma}, reference {expected}"
    return None


@contextlib.contextmanager
def paused(tracer):
    """Checks run with tracing off, so they add no spans."""
    enabled = tracer.enabled
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = enabled


E8_ROWS = codes.reed_muller_generators(1, 3)
D8_ROWS = [list(g) for g in codes.parity_check_code(8, 2).generators]
RM14_ROWS = codes.reed_muller_generators(1, 4)
Q4_ROWS = [
    [3, 2, 3, 3, 0, 0, 2, 3],
    [2, 3, 1, 2, 0, 2, 1, 3],
    [0, 1, 0, 3, 1, 0, 1, 3],
]

SCAN_HEAVY = SearchWorkload(
    "scan-heavy",
    [
        ("E8-l1", 2, E8_ROWS, 1, 4),
        ("E8-l2", 2, E8_ROWS, 2, 12),
        ("E8-l3", 2, E8_ROWS, 3, 32),
        ("D8-l4", 2, D8_ROWS, 4, 4),
    ],
)

ENUM_HEAVY = SearchWorkload(
    "enum-heavy",
    [
        # tight radius, n = 16: 4,128 vectors enumerated
        ("RM14-l2", 2, RM14_ROWS, 2, 16),
        # loose radius: the hint gives radius 83 (95,150 vectors), the
        # certified radius is 6
        ("Q4N8-l2", 4, Q4_ROWS, 2, 20),
    ],
)


# -- CLI session -------------------------------------------------------------

CORPUS_SEED = 0  # fixed base corpus; the run seed only disguises it
RANDOM_CODES = 42
# (family, parameters, d_2 of the code lattice where it is known: D_n has
# d_2 = 3 from its A_2 planes, and sqrt(2) E8 has d_2 = 12)
NAMED_TARGETS = [
    ("parity_check", {"n": 3, "q": 2}, 3),
    ("parity_check", {"n": 4, "q": 2}, 3),
    ("parity_check", {"n": 5, "q": 2}, 3),
    ("parity_check", {"n": 6, "q": 2}, 3),
    ("parity_check", {"n": 7, "q": 2}, 3),
    ("parity_check", {"n": 4, "q": 3}, None),
    ("reed_muller", {"r": 1, "m": 3}, 12),
    ("extended_hamming", {}, 12),
    ("full", {"n": 4, "q": 3}, 1),
]
RANKS = (1, 2)


def base_corpus():
    """Random codes with n in [3,7], q in {2,3,4}, drawn from a fixed seed."""
    rng = random.Random(CORPUS_SEED)
    out = []
    for _ in range(RANDOM_CODES):
        n = rng.randint(3, 7)
        q = rng.choice((2, 3, 4))
        k = rng.randint(1, n - 1)
        out.append((q, [[rng.randrange(q) for _ in range(n)] for _ in range(k)]))
    return out


class Target:
    """One code the session asks about, with the spec of its dual code."""

    def __init__(self, label, argv, code, dual_spec, d2_ref):
        self.label = label
        self.argv = argv
        self.code = code
        self.dual_spec = dual_spec
        self.d2_ref = d2_ref
        self._refs = None

    def references(self):
        """Lattices and the d_1 reference from the codeword closure, which
        is independent of enumeration: d_1(L_C) = min(q^2, d_E(C))."""
        if self._refs is None:
            q = self.code.q
            dual = codes.dual_code(self.code)

            def d1(code):
                try:
                    return min(q * q, codes.weight_report(code).d_euclidean)
                except ValueError:  # zero code: L_C = qZ^n
                    return q * q

            self._refs = {
                "primal": lattices.construction_a(self.code),
                "dual": lattices.construction_a(dual),
                "d1": (d1(self.code), d1(dual)),
            }
        return self._refs


def _write_json(path, doc):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def prepare_session(seed, workdir):
    rng = random.Random(seed)
    targets = []
    for family, params, d2 in NAMED_TARGETS:
        code = codes.code_from_document({"family": family, **params})
        label = family + "".join(f"-{k}{v}" for k, v in params.items())
        argv = ["--family", family] + [a for k, v in params.items() for a in (f"--{k}", str(v))]
        targets.append((label, argv, code, d2))
    for i, (q, gens) in enumerate(base_corpus()):
        doc = _code_doc(q, disguise(rng, q, gens))
        path = os.path.join(workdir, f"code{i:02d}.json")
        _write_json(path, doc)
        targets.append((f"code{i:02d}", ["--spec", path], codes.code_from_document(doc), None))
    out = []
    for label, argv, code, d2 in targets:
        dual_spec = os.path.join(workdir, f"{label}.dual.json")
        _write_json(dual_spec, codes.code_document(codes.dual_code(code)))
        out.append(Target(label, argv, code, dual_spec, d2))
    return out


def run_cli(argv):
    """(exit code, stdout, stderr, start, end) of one in-process CLI request."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = api.main(argv)
    except SystemExit as exc:  # argparse rejected the request
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising request is a failed job
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), t0, time.perf_counter()


class SessionWorkload:
    """A user session through `cli.main` with a fresh cache directory."""

    name = "cli-session"

    def prepare(self, seed, workdir):
        return prepare_session(seed, workdir)

    def run_pass(self, targets, tracer, scratch):
        cache = os.path.join(scratch, "cache")
        os.makedirs(cache)
        result = PassResult()
        fmt = ["--format", "json", "--cache", cache]
        records = []  # (label, kind, target, l, rc, stdout)
        warnings = 0

        def request(label, kind, target, l, argv):
            nonlocal warnings
            tracer.job = label
            rc, out, err, t0, t1 = run_cli(argv)
            tracer.job = None
            warnings += err.count("warning:")
            records.append((label, kind, target, l, rc, out))
            result.record(label, t0, t1, request=target is not None)

        steps = {}
        t0 = t = time.perf_counter()
        for target in targets:
            for l in RANKS:
                request(f"{target.label}/cold-gp/l{l}", "cold-gp", target, l,
                        ["gamma-prime", *target.argv, "--l", str(l), *fmt])
        steps["cold_s"], t = time.perf_counter() - t, time.perf_counter()
        for target in targets:
            for l in RANKS:
                for kind, argv in (
                    ("dl", ["dl", *target.argv]),
                    ("dual-dl", ["dl", "--spec", target.dual_spec]),
                    ("gamma", ["gamma", *target.argv]),
                    ("warm-gp", ["gamma-prime", *target.argv]),
                ):
                    request(f"{target.label}/{kind}/l{l}", kind, target, l,
                            [*argv, "--l", str(l), *fmt])
        steps["warm_s"], t = time.perf_counter() - t, time.perf_counter()
        for rules in ("published", "full"):
            request(f"bounds/{rules}", "bounds", None, None,
                    ["bounds", "--n-max", "8", "--rules", rules, *fmt])
        steps["bounds_s"], t = time.perf_counter() - t, time.perf_counter()
        request("rm-table", "rm-table", None, None, ["rm-table", "--m-max", "5", *fmt])
        steps["rm_table_s"], t = time.perf_counter() - t, time.perf_counter()
        request("verify", "verify", None, None, ["verify", *fmt])
        steps["verify_s"] = time.perf_counter() - t
        result.wall_s = time.perf_counter() - t0
        result.steps_s = steps
        with paused(tracer):
            check_session(records, result)
            misses = sum(len(files) for _, _, files in os.walk(cache))
            result.counts["cache_misses"] = misses
            result.counts["cache_warnings"] = warnings
        return result


def check_session(records, result):
    """Check every session output; fills result jobs and repeatable counts.

    Requests are checked in two rounds, so that each gamma-prime output can
    be compared with the d_l values of the code and of its dual."""
    cold = {}
    dl = {}
    hits = 0
    digest = hashlib.sha256()
    gp_last = sorted(records, key=lambda rec: rec[1] in ("cold-gp", "warm-gp"))
    for label, kind, target, l, rc, out in gp_last:
        if kind != "verify":
            digest.update(out.encode())
        if rc != 0:
            result.job(label, f"exit {rc}")
            continue
        try:
            doc = json.loads(out)
            error = _check_output(kind, target, l, doc, dl)
        except (ValueError, KeyError, TypeError) as exc:
            result.job(label, f"unreadable output: {type(exc).__name__}: {exc}")
            continue
        if kind in ("dl", "dual-dl", "gamma") and doc["cached"] is True:
            hits += 1
        if kind == "cold-gp":
            cold[(target.label, l)] = out
        elif kind == "warm-gp" and out != cold.get((target.label, l)):
            error = error or "warm gamma-prime output differs from the cold one"
        result.job(label, error)
    result.counts["cache_hits"] = hits
    result.counts["outputs_sha256"] = digest.hexdigest()


def _check_output(kind, target, l, doc, dl):
    if kind == "verify":
        passed = sum(1 for c in doc["checks"] if c["status"] == "pass")
        return None if passed == 15 == len(doc["checks"]) else f"{passed} of 15 checks pass"
    if kind == "rm-table":
        bad = [r for r in doc["rows"] if r["det_lattice"] != r["det_lattice_formula"]]
        return f"{len(bad)} rows disagree with (2^(n-k))^2" if bad else None
    if kind == "bounds":
        return None if doc["cells"] else "empty bounds table"
    refs = target.references()
    if kind in ("dl", "dual-dl"):
        side = "primal" if kind == "dl" else "dual"
        lattice = refs[side]
        value = doc["value"]
        if doc["cached"] is not True:
            return "warm request missed the cache"
        if lattices.sublattice_from_rows(lattice, doc["witness_rows"]).det_l != value:
            return "witness determinant differs from the value"
        if l == 1 and value != refs["d1"][side == "dual"]:
            return f"d_1 = {value}, reference {refs['d1'][side == 'dual']}"
        if l == 2 and side == "primal" and target.d2_ref not in (None, value):
            return f"d_2 = {value}, reference {target.d2_ref}"
        dl[(target.label, side, l)] = value
        return None
    if kind == "gamma":
        if doc["cached"] is not True:
            return "warm request missed the cache"
        if doc["d_l"] != dl.get((target.label, "primal", l)):
            return "gamma d_l differs from dl"
        return None
    # gamma-prime: sqrt(d_l(L_C) d_l(L_C dual)) / q^l, cold and warm
    primal = dl.get((target.label, "primal", l))
    dual = dl.get((target.label, "dual", l))
    if primal is None or dual is None:
        return "no dl outputs to check against"
    q = target.code.q
    want = exact.Radical(Fraction(primal * dual, q ** (2 * l)), 2).as_triple()
    got = (doc["value"]["num"], doc["value"]["den"], doc["value"]["root"])
    return None if got == want else f"gamma' {got}, from d_l {want}"


CLI_SESSION = SessionWorkload()

WORKLOADS = {w.name: w for w in (SCAN_HEAVY, ENUM_HEAVY, CLI_SESSION)}
