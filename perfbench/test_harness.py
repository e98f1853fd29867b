"""Tests of the benchmark harness itself.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import sys
import threading
from pathlib import Path

import pytest

import layers
import run
import workloads
from tracer import Span, Tracer, is_wrapper, self_times

ROOT = Path(__file__).resolve().parent.parent


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_of_synthetic_nested_spans():
    root = Span("root", None, 0.0, 10.0)
    a = Span("a", root, 1.0, 4.0)
    b = Span("b", root, 3.0, 6.0)       # overlaps a: covered once
    late = Span("late", root, 9.0, 12.0)  # clipped to root's end
    inner = Span("inner", a, 2.0, 3.0)
    b.counted_s = 0.5                   # counted calls made directly in b
    own = self_times([root, a, b, late, inner])
    assert own[root] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[a] == pytest.approx(3.0 - 1.0)
    assert own[b] == pytest.approx(3.0 - 0.5)
    assert own[late] == pytest.approx(3.0)
    assert own[inner] == pytest.approx(1.0)


def test_span_wrapper_records_parents_and_self_time():
    tracer = Tracer(clock=_ticks(0.0, 1.0, 3.0, 4.0, 7.0, 10.0))

    def leaf():
        return 1

    def outer():
        return wrapped_leaf() + wrapped_leaf()

    wrapped_leaf = tracer.span_wrapper("leaf", leaf)
    wrapped_outer = tracer.span_wrapper("outer", outer)
    assert wrapped_outer() == 2
    spans = {(s.name, s.start): s for s in tracer.spans}
    top = spans["outer", 0.0]
    assert spans["leaf", 1.0].parent is top and spans["leaf", 4.0].parent is top
    own = self_times(tracer.spans)
    assert own[top] == pytest.approx(10.0 - 2.0 - 3.0)


def test_outermost_only_span_skips_recursion():
    tracer = Tracer()

    def depth(n):
        return 0 if n == 0 else 1 + wrapped(n - 1)

    wrapped = tracer.span_wrapper("depth", depth, outermost_only=True)
    assert wrapped(5) == 5
    assert [s.name for s in tracer.spans] == ["depth"]


def test_counted_wrapper_times_outermost_calls_only():
    tracer = Tracer(clock=_ticks(0.0, 10.0), cpu_clock=_ticks(1.0, 3.0))

    def inner():
        return 1

    def outer():
        return counted_inner() + counted_inner()

    counted_inner = tracer.counted_wrapper("inner", inner, group="g")
    counted_outer = tracer.counted_wrapper("outer", outer, group="g")
    span = tracer.span_wrapper("span", counted_outer)
    assert span() == 2
    assert tracer.counts == {"outer": 1, "inner": 2}
    assert tracer.counted_s == {"g": 2.0}
    assert self_times(tracer.spans)[tracer.spans[0]] == pytest.approx(8.0)


def test_counts_exact_across_threads():
    tracer = Tracer()
    counted = tracer.counted_wrapper("f", lambda: None, group="g")
    n_threads, n_calls = 8, 2000

    def work():
        for _ in range(n_calls):
            counted()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert tracer.counts["f"] == n_threads * n_calls
    assert tracer.counted_s[None] == pytest.approx(tracer.counted_s["g"])


def _bindings():
    """Every (module, attribute) -> object binding in the kgstab package."""
    return {(name, attr): value
            for name, mod in list(sys.modules.items())
            if name == "kgstab" or name.startswith("kgstab.")
            for attr, value in vars(mod).items()}


def test_traced_pass_restores_every_wrapped_function():
    from kgstab import cli, evolve, spectrum

    before = _bindings()
    tracer = Tracer()
    targets = layers.make_targets(tracer)
    with tracer.installed(targets, layers.PACKAGE):
        assert is_wrapper(spectrum.spectral_report)
        assert is_wrapper(cli.render_json) and is_wrapper(evolve.run)
        workloads._run_cli(["tau-star", "--json"])
        with pytest.raises(ValueError):
            evolve.run(None, 0.9, "none", -1.0)  # raises inside a span
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not any(is_wrapper(value) for value in after.values())
    names = {s.name for s in tracer.spans}
    assert {"cli.main", "cli.render_json", "stability.tau_star",
            "evolve.run"} <= names
    metrics = layers.layer_metrics(tracer)
    assert set(metrics) == set(layers.METRICS) - {"trace.overhead_ratio"}


def test_node_counts_do_not_depend_on_seed():
    from kgstab import spectrum

    sizes = set()
    for seed in (1, 2, 3):
        rng = workloads.random.Random(seed)
        for regime in workloads.REGIMES:
            wave = workloads.draw_wave(rng, regime)
            op = spectrum.assemble(wave.params, wave.omega,
                                   workloads.SPECTRUM_STEP)
            sizes.add(op.size)
    assert len(sizes) == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
