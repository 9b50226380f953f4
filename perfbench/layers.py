"""Per-layer metrics of the traced run, aggregated from spans.

``*.self_s`` metrics are owned time (see :meth:`Tracer.owned_times`) of the
named spans; counts marked *computed* are derived from the span arguments
(point sets, measures, grid functions) after the run, never read from the
program.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

STAR = "discrepancy.star_discrepancy"
SEARCH = "discrepancy.random_search_lower_bound"
INTEGRAL = "integrate.integral_under_measure"
SIGNED_INIT = "measures.DiscreteSignedMeasure.__init__"

#: span name -> the self-time metric it feeds
SELF_METRIC = {
    STAR: "discrepancy.star.self_s",
    SEARCH: "discrepancy.search.self_s",
    "integrate.kh_certificate": "integrate.certificate.self_s",
    INTEGRAL: "integrate.reference.self_s",
    "integrate.qmc_estimate": "integrate.estimate.self_s",
    "transforms.chelson_identity_check": "transforms.identity_check.self_s",
    "transforms.conditional_transform_2d": "transforms.conditional.self_s",
    "transforms.product_transform": "transforms.product.self_s",
    SIGNED_INIT: "measures.signed.build_s",
    "variation.hk_variation": "variation.hk.self_s",
    "variation.vitali_variation": "variation.hk.self_s",
    "variation.leonov_decompose": "variation.decompose.self_s",
    "variation.jordan_decompose_function": "variation.decompose.self_s",
    "variation.is_completely_monotone": "variation.cm_check.self_s",
    "variation.function_to_measure": "variation.roundtrip.self_s",
    "variation.measure_to_function": "variation.roundtrip.self_s",
    "cli.main": "cli.main.self_s",
    "sequences.halton": "sequences.halton.self_s",
}
JSONIO_LOADS = ("jsonio.load_points", "jsonio.load_measure", "jsonio.load_grid_function")
VERTEX_SPANS = ("variation.hk_variation", "variation.vitali_variation",
                "variation.leonov_decompose", "variation.jordan_decompose_function",
                "variation.is_completely_monotone", "variation.function_to_measure")

#: spans whose owned time is reported; same-layer helpers fold into them
ROOTS = frozenset(SELF_METRIC) | frozenset(JSONIO_LOADS)
#: spans whose arguments are kept for the computed counts
KEEP_ARGS = frozenset({STAR, SEARCH, INTEGRAL, SIGNED_INIT,
                       "transforms.product_transform"}) | frozenset(VERTEX_SPANS)
MEMORY_SPANS = frozenset({STAR})

#: (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = (
    ("discrepancy.star.self_s", "s"),
    ("discrepancy.star.calls", "count"),
    ("discrepancy.cells", "count"),
    ("discrepancy.ns_per_cell", "ns"),
    ("discrepancy.star.peak_mib", "MiB"),
    ("discrepancy.bytes_per_cell", "B"),
    ("measures.analytic.cdf_calls", "count"),
    ("measures.analytic.callback_s", "s"),
    ("measures.analytic.us_per_cell", "us"),
    ("integrate.certificate.self_s", "s"),
    ("integrate.reference.self_s", "s"),
    ("integrate.estimate.self_s", "s"),
    ("integrate.cells", "count"),
    ("transforms.identity_check.self_s", "s"),
    ("transforms.conditional.self_s", "s"),
    ("transforms.product.self_s", "s"),
    ("transforms.points", "count"),
    ("measures.signed.build_s", "s"),
    ("measures.signed.atoms", "count"),
    ("measures.signed.us_per_atom", "us"),
    ("variation.hk.self_s", "s"),
    ("variation.hk.faces", "count"),
    ("variation.decompose.self_s", "s"),
    ("variation.cm_check.self_s", "s"),
    ("variation.roundtrip.self_s", "s"),
    ("variation.vertices", "count"),
    ("discrepancy.search.self_s", "s"),
    ("discrepancy.search.trials", "count"),
    ("discrepancy.search.us_per_trial", "us"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("jsonio.load_s", "s"),
    ("cli.main.self_s", "s"),
    ("sequences.halton.self_s", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.job_p50_overhead_frac", "frac"),
)


def grid_cells(ps, m) -> int:
    """Critical-grid size: product over axes of the unique count of {0, 1},
    the point coordinates and the measure coordinates."""
    cells = 1
    for s in range(ps.dimension):
        axis = np.concatenate([[0.0, 1.0], ps.points[:, s],
                               np.asarray(m.axis_coordinates(s), dtype=float)])
        cells *= np.unique(axis).size
    return cells


def _is_analytic(m) -> bool:
    return type(m).__name__ == "AnalyticCdfMeasure"


def accumulate(spans, owned, acc=None) -> dict:
    """Add the spans' times and computed counts into ``acc``."""
    acc = defaultdict(float) if acc is None else acc
    for span, own in zip(spans, owned):
        name = span.name
        metric = SELF_METRIC.get(name)
        if metric:
            acc[metric] += own
        if name in JSONIO_LOADS:
            acc["jsonio.load_s"] += span.end - span.start
        elif name == "transforms.conditional_transform_2d":
            acc["transforms.points"] += 1
        if span.args is None:
            continue
        args, kwargs = span.args
        if name == STAR:
            cells = grid_cells(args[0], args[1])
            acc["discrepancy.star.calls"] += 1
            acc["discrepancy.cells"] += cells
            if _is_analytic(args[1]):
                acc["analytic.inclusive_s"] += span.end - span.start
                acc["analytic.cells"] += cells
        elif name == INTEGRAL:
            f, m = args[0], args[1]
            if type(m).__name__ != "DiscreteMeasure":
                cells = int(np.prod([b.size + 1 for b in f.breakpoints]))
                acc["integrate.cells"] += cells
                if _is_analytic(m):
                    acc["analytic.inclusive_s"] += span.end - span.start
                    acc["analytic.cells"] += cells
        elif name == SEARCH:
            acc["discrepancy.search.trials"] += kwargs.get("trials", args[2] if len(args) > 2 else 0)
        elif name == SIGNED_INIT:
            acc["measures.signed.atoms"] += len(args[0])
        elif name == "transforms.product_transform":
            acc["transforms.points"] += args[0].n
        if name in VERTEX_SPANS:
            f = args[0]
            acc["variation.vertices"] += f.values.size
            if name == "variation.hk_variation":
                acc["variation.hk.faces"] += 2 ** f.dimension - 1
            elif name == "variation.vitali_variation":
                acc["variation.hk.faces"] += 1
    return acc


def memory_metrics(spans) -> dict:
    peaks = [(s.peak, grid_cells(s.args[0][0], s.args[0][1])) for s in spans if s.name == STAR]
    if not peaks:
        return {"discrepancy.star.peak_mib": 0.0, "discrepancy.bytes_per_cell": 0.0}
    return {
        "discrepancy.star.peak_mib": max(p for p, _ in peaks) / 2**20,
        "discrepancy.bytes_per_cell": sum(p for p, _ in peaks) / sum(c for _, c in peaks),
    }


def finish(acc) -> dict:
    """Every per-layer metric, zero where a workload does not exercise the
    layer (the trace and memory metrics are filled in by the caller)."""
    acc = defaultdict(float, acc)
    out = {name: 0.0 for name, _ in PER_LAYER}
    for key, value in acc.items():
        if key in out:
            out[key] = value

    def ratio(num, den, factor):
        return num * factor / den if den else 0.0

    out["discrepancy.ns_per_cell"] = ratio(acc["discrepancy.star.self_s"], acc["discrepancy.cells"], 1e9)
    out["measures.analytic.us_per_cell"] = ratio(acc["analytic.inclusive_s"], acc["analytic.cells"], 1e6)
    out["measures.signed.us_per_atom"] = ratio(acc["measures.signed.build_s"], acc["measures.signed.atoms"], 1e6)
    out["discrepancy.search.us_per_trial"] = ratio(acc["discrepancy.search.self_s"],
                                                   acc["discrepancy.search.trials"], 1e6)
    return out
