"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import codelattice  # noqa: E402
from codelattice import construction_a, parity_check_code, sublattice_search  # noqa: E402

import pytest  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def _span(layer, parent, start, end):
    s = spans.Span(layer, layer, None, parent, start)
    s.end = end
    return s


def test_self_time_on_nested_trace():
    # cli [0,10] -> enumeration [1,4] -> exact [2,3]; cli -> enumeration [5,7]
    trace = [
        _span("cli", None, 0.0, 10.0),
        _span("enumeration", 0, 1.0, 4.0),
        _span("exact", 1, 2.0, 3.0),
        _span("enumeration", 0, 5.0, 7.0),
    ]
    assert spans.self_times(trace) == [5.0, 2.0, 1.0, 2.0]
    totals = spans.layer_totals(trace)
    assert totals["cli"]["self_s"] == 5.0
    assert totals["enumeration"] == {"self_s": 4.0, "calls": 2}
    assert totals["exact"]["self_s"] == 1.0
    assert sum(t["self_s"] for t in totals.values()) == 10.0


def test_covered_merges_overlaps():
    assert spans.covered([(1.0, 3.0), (0.0, 2.0), (5.0, 6.0)]) == 4.0
    assert spans.covered([]) == 0.0


def test_nominal_time_weights_each_sample():
    meter = speed.Speedometer()
    meter.times.extend([0.0, 0.005, 0.010, 1.0])
    meter.loops.extend([speed.NOMINAL_LOOP_S, 2 * speed.NOMINAL_LOOP_S, speed.NOMINAL_LOOP_S, 1.0])
    # the middle sample ran at half speed: 0.01 s of wall time is
    # (1 + 0.5 + 1) / 3 of that at nominal speed
    assert meter.nominal(0.0, 0.010) == pytest.approx(0.010 * 2.5 / 3)
    with pytest.raises(RuntimeError):
        meter.nominal(0.5, 0.6)


def test_tracer_records_layer_crossings_and_restores():
    original = sublattice_search.short_vectors
    tracer = spans.Tracer()
    tracer.install(codelattice, importers=[workloads.api])
    try:
        tracer.enabled = True
        lattice = construction_a(parity_check_code(4, 2))
        workloads.api.minimal_sublattice(lattice, 2, upper_hint=16)
    finally:
        tracer.uninstall()
    assert sublattice_search.short_vectors is original
    assert workloads.api.minimal_sublattice is sublattice_search.minimal_sublattice
    layers = [s.layer for s in tracer.spans]
    assert layers[0] == "sublattice_search"
    assert layers.count("sublattice_search") == 1  # inner calls are its own work
    assert all(tracer.spans[i].parent == 0 for i, l in enumerate(layers) if l == "enumeration")


def _run_tiny(monkeypatch, capsys, reference, trace=0):
    tiny = workloads.SearchWorkload(
        "tiny", [("E8-l1", 2, workloads.E8_ROWS, 1, reference)]
    )
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", tiny)
    monkeypatch.setattr(run, "measure_setup", lambda args: 0.5)
    argv = ["--workload", "tiny", "--seed", "7", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv)
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_wrong_reference_fails_the_run(monkeypatch, capsys):
    code, result = _run_tiny(monkeypatch, capsys, reference=5)  # d_1(E8) is 4
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] >= 1 and result["attempted"] >= 1


def test_right_reference_passes(monkeypatch, capsys):
    code, result = _run_tiny(monkeypatch, capsys, reference=4)
    assert code == 0
    assert result["correct"] is True and result["failed"] == 0


def test_metrics_match_benchmark_json(monkeypatch, capsys):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        code, result = _run_tiny(monkeypatch, capsys, reference=4, trace=trace)
        assert code == 0
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in spec[section]}
