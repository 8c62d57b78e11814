"""End-to-end and per-layer metrics from the load generator's records.

End-to-end metrics come from the untraced pass.  Per-layer metrics come from
the spans of the traced pass, which repeats the untraced pass's operations.
Times are medians over operations of the per-operation total; counts are
means over operations; a share is a per-operation total over the operation's
wall time times its worker threads, median over operations.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from tracing import OP_SPAN

#: Units of the metrics BENCHMARK.json lists as end_to_end.
END_TO_END_UNITS = {
    "op_s_p50": "s",
    "op_s_tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

SMOOTHERS = ("weights.np_weights", "weights.sp_index_weights", "weights.sp_projected_weights")
FITS = ("estimators.fit_wls", "estimators.fit_weighted_m")
ESTIMATORS = FITS + ("estimators.sandwich_covariance",)
LAYERS = ("cli", "dataio", "weights", "bandwidth", "kernels", "estimators", "simulation")

#: Boundaries each workload was chosen to exercise.  One of them recording no
#: span means the trace lost it, and its metrics read ``None`` ("missing").
EXPECTED = {
    "fit-cv": {
        OP_SPAN, "dataio.read_csv", "dataio.to_json_text", "weights.first_step",
        "bandwidth.cv_bandwidth", "kernels.profile", *SMOOTHERS,
        "weights.smoothing_coordinates", "weights.pairwise_sq_dists",
        "estimators.fit_wls", "estimators.sandwich_covariance",
    },
    "fit-ingest": {
        OP_SPAN, "dataio.read_csv", "dataio.to_json_text", "weights.first_step",
        "weights.evaluate_weight_map", "weights.clamp_weights", *ESTIMATORS,
    },
    "sim-cv": {
        OP_SPAN, "simulation.run_study", "simulation.run_replication",
        "simulation.generate_sample", "weights.first_step", "bandwidth.cv_bandwidth",
        "kernels.profile", "weights.np_weights", "weights.sp_projected_weights",
        "weights.parametric_weights", "weights.oracle_weights",
        "estimators.fit_wls", "dataio.write_errors_csv", "dataio.to_json_text",
        "simulation.scaling_baseline",
    },
    "sim-mest": {
        OP_SPAN, "simulation.run_study", "simulation.run_replication",
        "simulation.generate_sample", "weights.first_step", "weights.parametric_weights",
        "weights.oracle_weights", "estimators.fit_weighted_m", "dataio.write_errors_csv",
        "dataio.to_json_text",
    },
}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    That is the 11th-largest sample, at percentile ``100 * (n - 10) / n``;
    with ten samples or fewer it is the maximum, labelled 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def rate(records: list[dict]) -> float:
    """Operations per second of operation wall time."""
    return len(records) / sum(r["seconds"] for r in records)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_hi is None or start > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = start, end
        else:
            cur_hi = max(cur_hi, end)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def per_layer(workload, spans: list, passes: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics ``{name: (value or None, unit)}`` and missing boundaries."""
    names = {s[3] for s in spans}
    name_of = {s[0]: s[3] for s in spans}
    children = defaultdict(list)
    for span_id, parent, _, _, start, end, _ in spans:
        children[parent].append((start, end))

    ops = defaultdict(lambda: {"total": defaultdict(float), "self": defaultdict(float),
                               "count": defaultdict(float), "wall": None})
    peaks = defaultdict(list)
    durations = defaultdict(list)
    for span_id, parent, op, name, start, end, info in spans:
        acc = ops[op]
        dur = end - start
        if name == OP_SPAN:
            acc["wall"] = dur
        acc["total"][name] += dur
        acc["self"][name.split(".")[0]] += dur - _covered(children[span_id], start, end)
        acc["count"][name] += 1
        durations[name].append(dur)
        if name in FITS and name_of.get(parent) != "weights.first_step":
            acc["total"]["final_fit"] += dur
        if "evals" in info:
            acc["count"]["evals"] += info["evals"]
        if "iterations" in info:
            acc["count"]["iterations"] += info["iterations"]
            acc["count"]["nonconverged"] += not info["converged"]
        if "peak_mb" in info:
            peaks[name].append(info["peak_mb"])

    accs = [acc for acc in ops.values() if acc["wall"]]
    base = [acc["wall"] * workload.workers for acc in accs]

    def op_median(key, kind="total", over=(), share=False):
        keys = over or (key,)
        values = [sum(acc[kind][k] for k in keys) for acc in accs]
        if share:
            values = [v / b for v, b in zip(values, base)]
        return statistics.median(values) if values else 0.0

    def op_mean(key, over=()):
        keys = over or (key,)
        values = [sum(acc["count"][k] for k in keys) for acc in accs]
        return statistics.fmean(values) if values else 0.0

    def span_median(table, over):
        values = [v for k in over for v in table[k]]
        return statistics.median(values) if values else 0.0

    untraced = passes["untraced"]
    traced = passes["traced"]
    single = passes.get("single_worker")
    if single:
        names.add("simulation.scaling_baseline")
        scaling = rate(untraced) / (workload.workers * rate(single))
    else:
        scaling = 0.0
    overhead = statistics.median(t["seconds"] - u["seconds"] for t, u in zip(traced, untraced))
    expected = EXPECTED[workload.name]
    layer_names = {layer: [n for n in names | expected if n.startswith(layer + ".")]
                   for layer in LAYERS}

    table = {
        # name: (value, unit, boundaries it depends on)
        **{f"{layer}.self_s": (op_median(layer, "self"), "s", layer_names[layer])
           for layer in LAYERS},
        "bandwidth.cv_s": (op_median("bandwidth.cv_bandwidth"), "s", ["bandwidth.cv_bandwidth"]),
        "bandwidth.cv_share": (op_median("bandwidth.cv_bandwidth", share=True), "ratio",
                               ["bandwidth.cv_bandwidth"]),
        "bandwidth.cv_peak_mb": (span_median(peaks, ["bandwidth.cv_bandwidth"]), "MB",
                                 ["bandwidth.cv_bandwidth"]),
        "kernels.profile_s": (op_median("kernels.profile"), "s", ["kernels.profile"]),
        "kernels.profile_calls": (op_mean("kernels.profile"), "count", ["kernels.profile"]),
        "kernels.profile_evals": (op_mean("evals"), "count", ["kernels.profile"]),
        "weights.smoother_s": (op_median(None, over=SMOOTHERS), "s", SMOOTHERS),
        "weights.smoother_peak_mb": (span_median(peaks, SMOOTHERS), "MB", SMOOTHERS),
        "weights.smoothing_coordinates_calls": (op_mean("weights.smoothing_coordinates"),
                                                "count", ["weights.smoothing_coordinates"]),
        "weights.pairwise_sq_dists_calls": (op_mean("weights.pairwise_sq_dists"), "count",
                                            ["weights.pairwise_sq_dists"]),
        "weights.first_step_s": (op_median("weights.first_step"), "s", ["weights.first_step"]),
        "estimators.final_fit_s": (op_median("final_fit"), "s", FITS),
        "estimators.newton_iters": (op_mean("iterations"), "count",
                                    ["estimators.fit_weighted_m"]),
        "estimators.nonconverged": (op_mean("nonconverged"), "count", FITS),
        "estimators.sandwich_s": (op_median("estimators.sandwich_covariance"), "s",
                                  ["estimators.sandwich_covariance"]),
        "estimators.share": (op_median(None, over=ESTIMATORS, share=True), "ratio", ESTIMATORS),
        "dataio.read_csv_s": (op_median("dataio.read_csv"), "s", ["dataio.read_csv"]),
        "dataio.to_json_s": (op_median("dataio.to_json_text"), "s", ["dataio.to_json_text"]),
        "simulation.replication_s": (span_median(durations, ["simulation.run_replication"]),
                                     "s", ["simulation.run_replication"]),
        "simulation.generate_sample_s": (span_median(durations, ["simulation.generate_sample"]),
                                         "s", ["simulation.generate_sample"]),
        "simulation.scaling_eff": (scaling, "ratio", ["simulation.scaling_baseline"]),
        "trace.op_s": (statistics.median(r["seconds"] for r in traced), "s", [OP_SPAN]),
        "trace.untraced_op_s": (statistics.median(r["seconds"] for r in untraced), "s", [OP_SPAN]),
        "trace.overhead_s": (overhead, "s", [OP_SPAN]),
    }

    missing = sorted(n for n in expected if n not in names)
    metrics = {}
    for name, (value, unit, needs) in table.items():
        if needs and not any(n in names for n in needs) and any(n in expected for n in needs):
            value = None
        metrics[name] = (value, unit)
    return metrics, missing

