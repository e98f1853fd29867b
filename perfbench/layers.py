"""The kgstab functions the traced run wraps, and the per-layer metrics.

Layers are kgstab's modules: ``model``, ``soliton``, ``stability``,
``spectrum``, ``evolve``, ``_kernels`` (named ``kernels`` in metrics) and
``cli``.  ``model`` is only call-counted, because it does almost no work.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from tracer import Tracer, self_times

PACKAGE = "kgstab"
CLOSED_FORM = "stability.closed_form"
SAMPLERS = ("evolve.field_energy", "evolve.field_charge",
            "evolve.orbital_distance")


def _rows(args, kwargs, result):
    return {"rows": len(args[0])}


def _leapfrog(args, kwargs, result):
    phi = args[0]
    node_steps = (phi.size - 2) * int(result)
    # read phi and phi_prev, write both: computed from the array sizes,
    # not measured traffic
    return {"taken": int(result), "node_steps": node_steps,
            "bytes_computed": 4 * phi.itemsize * node_steps}


def _eigenpairs(args, kwargs, result):
    return {"eigenpairs": len(result)}


def _nodes(args, kwargs, result):
    return {"nodes": result.values.size}


def _cli_main(args, kwargs, result):
    argv = args[0] if args else kwargs["argv"]
    return {"command": argv[0], "exit": result}


def _text_bytes(args, kwargs, result):
    return {"bytes": len(result.encode())}


# (module, function, measure, outermost_only): one span per call
SPANS = [
    ("_kernels", "sturm_count", _rows, False),
    ("_kernels", "tridiag_solve", None, False),
    ("_kernels", "leapfrog_steps", _leapfrog, False),
    ("spectrum", "assemble", None, False),
    ("spectrum", "lowest_eigenpairs", _eigenpairs, False),
    ("spectrum", "eigenvalue_count_below", None, False),
    ("spectrum", "spectral_report", None, False),
    ("soliton", "build_profile", _nodes, False),
    ("soliton", "closed_form_profile", None, False),
    ("soliton", "composite_simpson", None, False),
    ("soliton", "d_second_numeric", None, False),
    ("evolve", "init_state", None, False),
    ("evolve", "run", None, False),
    ("evolve", "field_energy", None, False),
    ("evolve", "field_charge", None, False),
    ("evolve", "orbital_distance", None, False),
    ("stability", "classify", None, False),
    ("stability", "tau_star", None, False),
    ("cli", "main", _cli_main, False),
    # render_json recurses through its module global; one span per document
    ("cli", "render_json", _text_bytes, True),
]

# (module, function, timing group): called ~10^4 times per pass, so counted
# rather than spanned
COUNTED = [
    ("stability", "k2", CLOSED_FORM),
    ("stability", "sigma_closed", CLOSED_FORM),
    ("stability", "d_second_sign", CLOSED_FORM),
    ("model", "alpha_of_omega", None),
]

# name -> unit, in report order
METRICS = {
    "kernels.sturm_count.calls": "count",
    "kernels.sturm_count.rows": "count",
    "kernels.sturm_count.self_s": "s",
    "spectrum.lowest_eigenpairs.self_s": "s",
    "spectrum.lowest_eigenpairs.eigenpairs": "count",
    "spectrum.sturm_per_eigenpair": "ratio",
    "spectrum.eigenvalue_count_below.self_s": "s",
    "kernels.tridiag_solve.calls": "count",
    "kernels.tridiag_solve.self_s": "s",
    "spectrum.solves_per_eigenpair": "ratio",
    "spectrum.assemble.self_s": "s",
    "spectrum.spectral_report.self_s": "s",
    "kernels.leapfrog_steps.calls": "count",
    "kernels.leapfrog_steps.node_steps": "count",
    "kernels.leapfrog_steps.bytes_computed": "B",
    "kernels.leapfrog_steps.self_s": "s",
    "evolve.samples": "count",
    "evolve.sampling.self_s": "s",
    "evolve.sampling.probe_steps": "count",
    "evolve.probe_ratio": "ratio",
    "evolve.init_state.self_s": "s",
    "evolve.run.self_s": "s",
    "stability.k2.calls": "count",
    "stability.sigma_closed.calls": "count",
    "stability.d_second_sign.calls": "count",
    "stability.closed_form.self_s": "s",
    "stability.classify.self_s": "s",
    "stability.tau_star.self_s": "s",
    "model.alpha_of_omega.calls": "count",
    "cli.sweep.pool_s": "s",
    "cli.render_json.self_s": "s",
    "cli.render_json.bytes": "B",
    "cli.oracle_refusals": "count",
    "soliton.build_profile.calls": "count",
    "soliton.build_profile.nodes": "count",
    "soliton.build_profile.self_s": "s",
    "soliton.closed_form_profile.self_s": "s",
    "soliton.composite_simpson.calls": "count",
    "soliton.composite_simpson.self_s": "s",
    "soliton.d_second_numeric.calls": "count",
    "soliton.d_second_numeric.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def metric_name(module: str, function: str) -> str:
    return f"{module.lstrip('_')}.{function}"


def make_targets(tracer: Tracer) -> dict:
    """Wrappers for every SPANS and COUNTED entry, keyed by id(original)."""
    targets = {}
    for module, function, measure, outermost in SPANS:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), function)
        targets[id(fn)] = tracer.span_wrapper(
            metric_name(module, function), fn, measure, outermost)
    for module, function, group in COUNTED:
        fn = getattr(importlib.import_module(f"{PACKAGE}.{module}"), function)
        targets[id(fn)] = tracer.counted_wrapper(
            metric_name(module, function), fn, group)
    return targets


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced pass, except trace.overhead_ratio."""
    own = self_times(tracer.spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    total = defaultdict(int)  # (span name, attribute) -> sum
    probe_steps = sturm_in_solver = refusals = 0
    sweep_self = 0.0
    for span in tracer.spans:
        calls[span.name] += 1
        self_s[span.name] += own[span]
        if span.name != "cli.main":
            for key, value in span.attrs.items():
                total[span.name, key] += value
        above = {s.name for s in span.ancestors()}
        if (span.name == "kernels.leapfrog_steps"
                and above.intersection(SAMPLERS)):
            probe_steps += span.attrs.get("taken", 0)
        if (span.name == "kernels.sturm_count"
                and "spectrum.lowest_eigenpairs" in above):
            sturm_in_solver += 1
        if span.name == "cli.main":
            refusals += span.attrs.get("exit") == 4
            if span.attrs.get("command") == "sweep":
                sweep_self += own[span]
    counts = tracer.counts
    counted_s = tracer.counted_s
    eigenpairs = total["spectrum.lowest_eigenpairs", "eigenpairs"]
    leap = "kernels.leapfrog_steps"
    values = {
        "kernels.sturm_count.calls": calls["kernels.sturm_count"],
        "kernels.sturm_count.rows": total["kernels.sturm_count", "rows"],
        "kernels.sturm_count.self_s": self_s["kernels.sturm_count"],
        "spectrum.lowest_eigenpairs.self_s":
            self_s["spectrum.lowest_eigenpairs"],
        "spectrum.lowest_eigenpairs.eigenpairs": eigenpairs,
        "spectrum.sturm_per_eigenpair": _ratio(sturm_in_solver, eigenpairs),
        "spectrum.eigenvalue_count_below.self_s":
            self_s["spectrum.eigenvalue_count_below"],
        "kernels.tridiag_solve.calls": calls["kernels.tridiag_solve"],
        "kernels.tridiag_solve.self_s": self_s["kernels.tridiag_solve"],
        "spectrum.solves_per_eigenpair":
            _ratio(calls["kernels.tridiag_solve"], eigenpairs),
        "spectrum.assemble.self_s": self_s["spectrum.assemble"],
        "spectrum.spectral_report.self_s": self_s["spectrum.spectral_report"],
        f"{leap}.calls": calls[leap],
        f"{leap}.node_steps": total[leap, "node_steps"],
        f"{leap}.bytes_computed": total[leap, "bytes_computed"],
        f"{leap}.self_s": self_s[leap],
        "evolve.samples": calls["evolve.field_energy"],
        "evolve.sampling.self_s": sum(self_s[name] for name in SAMPLERS),
        "evolve.sampling.probe_steps": probe_steps,
        "evolve.probe_ratio": _ratio(probe_steps, total[leap, "taken"]),
        "evolve.init_state.self_s": self_s["evolve.init_state"],
        "evolve.run.self_s": self_s["evolve.run"],
        "stability.k2.calls": counts["stability.k2"],
        "stability.sigma_closed.calls": counts["stability.sigma_closed"],
        "stability.d_second_sign.calls": counts["stability.d_second_sign"],
        "stability.closed_form.self_s": counted_s[CLOSED_FORM],
        "stability.classify.self_s": self_s["stability.classify"],
        "stability.tau_star.self_s": self_s["stability.tau_star"],
        "model.alpha_of_omega.calls": counts["model.alpha_of_omega"],
        # closed-form calls from the sweep's pool threads have no enclosing
        # span; take them out of the sweep's cli.main self time here
        "cli.sweep.pool_s": sweep_self - counted_s[None],
        "cli.render_json.self_s": self_s["cli.render_json"],
        "cli.render_json.bytes": total["cli.render_json", "bytes"],
        "cli.oracle_refusals": refusals,
        "soliton.build_profile.calls": calls["soliton.build_profile"],
        "soliton.build_profile.nodes": total["soliton.build_profile", "nodes"],
        "soliton.build_profile.self_s": self_s["soliton.build_profile"],
        "soliton.closed_form_profile.self_s":
            self_s["soliton.closed_form_profile"],
        "soliton.composite_simpson.calls": calls["soliton.composite_simpson"],
        "soliton.composite_simpson.self_s": self_s["soliton.composite_simpson"],
        "soliton.d_second_numeric.calls": calls["soliton.d_second_numeric"],
        "soliton.d_second_numeric.self_s": self_s["soliton.d_second_numeric"],
    }
    return values


def repeats_exactly(name: str) -> bool:
    """Metrics that must read the same on every traced pass and run.

    Not the rendered JSON size: its provenance carries a wall time whose
    digit count varies.
    """
    return METRICS[name] != "s" and name not in ("trace.overhead_ratio",
                                                 "cli.render_json.bytes")
