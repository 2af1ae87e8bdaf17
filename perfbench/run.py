"""codelattice benchmark: one workload, one process, one thread.

    python3 perfbench/run.py --workload scan-heavy --seed 1 --seconds 36 --trace 0

Run from the root of a checkout; the package is imported from ./src.  The
command repeats whole passes of the workload until the next one would end
after --seconds, checks every output against an exact reference, and prints
as its last line one JSON object with `correct`, `attempted`, `failed` and
`metrics`.  --trace 0 reports the end-to-end metrics, in nominal seconds
(see speed.py); --trace 1 alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, plus the tracing overhead.  Exit code 0 means every output was
correct and every repeatable count repeated.
"""

from __future__ import annotations

import argparse
import bisect
import json
import operator
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata

import spans
import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 7


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package():
    """Import codelattice from this checkout's src, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "codelattice", "__init__.py")):
        raise SystemExit(f"error: no codelattice package under {SRC}")
    sys.path.insert(0, SRC)
    import codelattice

    if os.path.dirname(os.path.dirname(os.path.abspath(codelattice.__file__))) != SRC:
        raise SystemExit(f"error: imported codelattice from {codelattice.__file__}")
    return codelattice


def setup_probe(args):
    """Child process: time the import plus the input generation once."""
    meter = speed.Speedometer()
    meter.start()
    t0 = time.perf_counter()
    import_package()
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    work = tempfile.mkdtemp(prefix="probe-", dir=OUT)
    try:
        workload.prepare(args.seed, work)
        t1 = time.perf_counter()
        meter.stop()
        print(meter.nominal(t0, t1))
    finally:
        shutil.rmtree(work)
    return 0


def measure_setup(args):
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"],
            capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment():
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "numpy": numpy,
    }


# -- traced passes ------------------------------------------------------------


class LayerProbe:
    """Installs the tracer with the observers that turn spans into counts."""

    def __init__(self, package, api):
        self.package = package
        self.api = api
        self.tracer = spans.Tracer()
        self.pools: dict[int, list] = {}
        self.check_ids = [cid for cid, _ in package.verify.CHECKS]

    def _vectors(self, index, args, kwargs, result):
        span = self.tracer.spans[index]
        span.counts = {"vectors": len(result.vectors)}
        self.pools.setdefault(span.parent, []).append(result.vectors)

    def _search(self, index, args, kwargs, cert):
        pools = self.pools.pop(index, [])
        norm = operator.attrgetter("norm")
        bound = cert.per_vector_bound
        self.tracer.spans[index].counts = {
            "leaves": cert.candidates_examined,
            "unconfirmed": int(not cert.confirmed_by_escalation),
            "useful": max((bisect.bisect_right(v, bound, key=norm) for v in pools), default=0),
            "enumerated": sum(len(v) for v in pools),
        }

    def _sweeps(self, index, args, kwargs, result):
        self.tracer.spans[index].counts = {"sweeps": result.sweeps}

    def install(self):
        tracer = self.tracer
        tracer.reset()
        self.pools.clear()
        tracer.install(
            self.package,
            importers=[self.api],
            observers={
                "enumeration.short_vectors": self._vectors,
                "sublattice_search.minimal_sublattice": self._search,
                "invariants.propagate_bounds": self._sweeps,
            },
        )
        verify = self.package.verify
        tracer.patch(verify, "CHECKS", tuple(
            (cid, tracer.wrap("verify", cid, fn, force=True)) for cid, fn in verify.CHECKS
        ))
        tracer.enabled = True

    def uninstall(self):
        self.tracer.enabled = False
        self.tracer.uninstall()

    def metrics(self, result):
        trace = self.tracer.spans
        tot = spans.layer_totals(trace)
        enum, search = tot["enumeration"], tot["sublattice_search"]
        vectors = enum.get("vectors", 0)
        leaves = search.get("leaves", 0)

        def total_s(pred):
            return sum((s.end - s.start for s in trace if pred(s)), 0.0)

        m = {f"{layer}.self_s": tot[layer]["self_s"] for layer in spans.LAYERS}
        m.update({
            "enumeration.calls": enum["calls"],
            "enumeration.vectors": vectors,
            "enumeration.max_pool": max(
                (s.counts["vectors"] for s in trace if s.counts and "vectors" in s.counts),
                default=0,
            ),
            "enumeration.vectors_per_s": vectors / enum["self_s"] if enum["self_s"] else 0.0,
            "enumeration.cap_hits": enum.get("raised:EnumerationCap", 0),
            "enumeration.useful_ratio": (
                search.get("useful", 0) / search["enumerated"] if search.get("enumerated") else 0.0
            ),
            "sublattice_search.calls": search["calls"],
            "sublattice_search.leaves": leaves,
            "sublattice_search.leaves_per_s": leaves / search["self_s"] if search["self_s"] else 0.0,
            "sublattice_search.unconfirmed": search.get("unconfirmed", 0),
            "codes.calls": tot["codes"]["calls"],
            "lattices.calls": tot["lattices"]["calls"],
            "exact.calls": tot["exact"]["calls"],
            "invariants.propagate_s": total_s(lambda s: s.name == "propagate_bounds"),
            "invariants.sweeps": tot["invariants"].get("sweeps", 0),
            "cli.cache_hits": result.counts.get("cache_hits", 0),
            "cli.cache_misses": result.counts.get("cache_misses", 0),
            "cli.cache_warnings": result.counts.get("cache_warnings", 0),
        })
        for cid in self.check_ids:
            m[f"verify.{cid}_ms"] = 1e3 * total_s(
                lambda s, cid=cid: s.layer == "verify" and s.name == cid
            )
        return m

    def per_job(self):
        """Per job: enumerated vectors, useful ones and leaves, for the file."""
        jobs: dict[str, dict[str, int]] = {}
        for span in self.tracer.spans:
            if span.layer == "sublattice_search" and span.counts:
                row = jobs.setdefault(str(span.job), {})
                for key, value in span.counts.items():
                    row[key] = row.get(key, 0) + value
        for row in jobs.values():
            if row.get("enumerated"):
                row["useful_ratio"] = row.get("useful", 0) / row["enumerated"]
        return jobs


# Counts from the trace that must repeat exactly in every traced pass.
REPEATABLE = (
    "enumeration.calls",
    "enumeration.vectors",
    "enumeration.max_pool",
    "enumeration.useful_ratio",
    "sublattice_search.calls",
    "sublattice_search.leaves",
    "invariants.sweeps",
)


def run(args):
    codelattice = import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}")
    workload = workloads.WORKLOADS[args.workload]
    # Every request names a fresh --cache; no inherited location may leak in,
    # here or in the set-up probes.
    os.environ.pop("CODELATTICE_CACHE", None)
    os.environ.pop("XDG_CACHE_HOME", None)
    os.makedirs(OUT, exist_ok=True)
    setup_s = None if args.trace else measure_setup(args)
    work = tempfile.mkdtemp(prefix=f"run-{workload.name}-", dir=OUT)
    probe = LayerProbe(codelattice, workloads.api)
    passes = []  # (traced, PassResult, layer metrics or None)
    peak_rss_mb = None
    meter = speed.Speedometer()
    try:
        inputs = workload.prepare(args.seed, work)
        if not args.trace:
            meter.start()
        started = time.perf_counter()
        longest = 0.0
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            scratch = tempfile.mkdtemp(dir=work)
            t0 = time.perf_counter()
            if traced:
                probe.install()
            try:
                result = workload.run_pass(inputs, probe.tracer, scratch)
            finally:
                if traced:
                    probe.uninstall()
            shutil.rmtree(scratch)
            layer = probe.metrics(result) if traced else None
            passes.append((traced, result, layer))
            if peak_rss_mb is None:
                # What one run of the workload needs; later passes would add
                # the heap fragmentation of their kept results.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            longest = max(longest, time.perf_counter() - t0)
            elapsed = time.perf_counter() - started
            enough = len(passes) >= (2 if args.trace else 1)
            if enough and elapsed + longest > args.seconds:
                break
    finally:
        meter.stop()
        shutil.rmtree(work, ignore_errors=True)

    failures = [f for _, r, _ in passes for f in r.failures]
    attempted = sum(r.attempted for _, r, _ in passes)
    first = passes[0][1].counts
    for i, (_, r, _) in enumerate(passes[1:], 2):
        if r.counts != first:
            failures.append(f"pass {i} counts {r.counts} differ from pass 1 {first}")
    plain = [r for traced, r, _ in passes if not traced]
    if args.trace:
        layers = [m for traced, _, m in passes if traced]
        for i, m in enumerate(layers[1:], 2):
            for key in REPEATABLE:
                if m[key] != layers[0][key]:
                    failures.append(f"traced pass {i}: {key} = {m[key]}, pass 1 had {layers[0][key]}")
        metrics = {
            key: statistics.median(m[key] for m in layers) for key in layers[0]
        }
        traced_wall = statistics.median(r.wall_s for traced, r, _ in passes if traced)
        metrics["trace.overhead_ratio"] = traced_wall / statistics.median(r.wall_s for r in plain)
        write_trace(workload.name, args.seed, probe)
    else:
        # Each job's time is its mean over the run's passes in nominal
        # milliseconds (see speed.py); a pass is the sum of its jobs.
        samples: dict[str, list[float]] = {}
        for r in plain:
            for label, (t0, t1) in r.spans.items():
                samples.setdefault(label, []).append(meter.nominal(t0, t1) * 1e3)
        mean = {label: statistics.fmean(times) for label, times in samples.items()}
        requests = [mean[label] for label in plain[0].requests]
        metrics = {
            "pass_s": sum(mean.values()) / 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "req_p50_ms": statistics.median(requests),
            "req_p90_ms": percentile90(requests),
        }
    return passes, attempted, failures, metrics


def percentile90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def unit(name):
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "count"


def write_trace(name, seed, probe):
    """Spans of the last traced pass, with per-job counts, as JSON."""
    doc = {
        "workload": name,
        "seed": seed,
        "environment": environment(),
        "jobs": probe.per_job(),
        "spans": [s.as_dict(i) for i, s in enumerate(probe.tracer.spans)],
    }
    with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def main(argv=None):
    args = parse_args(argv)
    if args.setup_probe:
        return setup_probe(args)
    passes, attempted, failures, metrics = run(args)
    steps = {}
    for _, r, _ in passes:
        for key, value in r.steps_s.items():
            steps.setdefault(key, []).append(value)
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "passes": len(passes),
        "pass_wall_s": [r.wall_s for _, r, _ in passes],
        "steps_s": {k: statistics.median(v) for k, v in steps.items()},
        "failed_frac": len(failures) / max(attempted, 1),
        "environment": environment(),
    }
    print(json.dumps(summary))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = not failures
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
