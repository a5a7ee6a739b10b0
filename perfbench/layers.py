"""Per-layer metrics from the spans and counters a traced CLI run records.

The layers are the package modules: ``cli``, ``traffic`` (with
``scenario``), ``allocation``, ``game`` and ``montecarlo``.  A span's
self time is its duration minus the durations of its direct children on
the same thread; children nest, so on one thread they never overlap.
"""

from __future__ import annotations

import statistics

# The layer metric that should take the largest self time on each
# workload, and the candidates it is compared against.
PREDICTED_DOMINANT = {
    "bounded-sim": "traffic.draw_s",
    "fbm-payback": "allocation.numeric_s",
    "wide-sim": "montecarlo.settle_self_s",
    "bounded-plan": "cli.self_s",
}
SELF_TIME_METRICS = (
    "cli.self_s",
    "cli.load_config_s",
    "game.value_table_self_s",
    "game.shapley_s",
    "game.stability_s",
    "allocation.closed_form_s",
    "allocation.numeric_s",
    "traffic.draw_s",
    "traffic.expected_loads_s",
    "montecarlo.settle_self_s",
    "montecarlo.summarize_s",
)

UNITS = {
    "allocation.closed_form_calls": "count",
    "allocation.closed_form_rejects": "count",
    "allocation.closed_form_hit_ratio": "ratio",
    "allocation.numeric_calls": "count",
    "allocation.closed_form_s": "s",
    "allocation.numeric_s": "s",
    "allocation.numeric_ms_p50": "ms",
    "traffic.draws": "count",
    "traffic.draw_s": "s",
    "traffic.draw_ms_p50": "ms",
    "traffic.draw_ms_p95": "ms",
    "traffic.draw_bytes_computed": "bytes",
    "traffic.expected_loads_calls": "count",
    "traffic.expected_loads_s": "s",
    "montecarlo.realizations": "count",
    "montecarlo.simulate_s": "s",
    "montecarlo.settle_self_s": "s",
    "montecarlo.settle_us_per_realization": "us",
    "montecarlo.summarize_s": "s",
    "montecarlo.rss_growth_mb": "MB",
    "montecarlo.kept_bytes_computed": "bytes",
    "montecarlo.weights_bytes_computed": "bytes",
    "montecarlo.settle_flops_computed": "count",
    "game.coalitions": "count",
    "game.value_table_s": "s",
    "game.value_table_self_s": "s",
    "game.shapley_s": "s",
    "game.stability_s": "s",
    "cli.load_config_s": "s",
    "cli.self_s": "s",
    "cli.rows": "count",
    "cli.output_bytes": "bytes",
    "cli.us_per_row": "us",
    "trace.overhead_s": "s",
}


def self_times(spans) -> list:
    """Self time of every span, in span order."""
    out = [end - start for _, _, start, end, _ in spans]
    for _, _, start, end, parent in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def _percentile(values, q: int) -> float:
    """Inclusive percentile ``q`` in 1..99; 0.0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, counts: dict, rows: int, output_bytes: int) -> dict:
    """Every per-layer metric except ``trace.overhead_s``, from one run."""
    selfs = self_times(spans)
    busy, own, durations = {}, {}, {}
    for (name, _, start, end, _), self_s in zip(spans, selfs):
        busy[name] = busy.get(name, 0.0) + (end - start)
        own[name] = own.get(name, 0.0) + self_s
        durations.setdefault(name, []).append(end - start)

    def calls(name):
        return len(durations.get(name, ()))

    closed = calls("allocation.closed_form")
    rejects = counts.get("allocation.closed_form_rejects", 0)
    realizations = counts.get("montecarlo.realizations", 0)
    draws_ms = [d * 1e3 for d in durations.get("traffic.sample_loads", ())]
    cli_self = own.get("cli.main", 0.0)
    return {
        "allocation.closed_form_calls": closed,
        "allocation.closed_form_rejects": rejects,
        "allocation.closed_form_hit_ratio": (closed - rejects) / closed if closed else 0.0,
        "allocation.numeric_calls": calls("allocation.numeric"),
        "allocation.closed_form_s": busy.get("allocation.closed_form", 0.0),
        "allocation.numeric_s": busy.get("allocation.numeric", 0.0),
        "allocation.numeric_ms_p50": _percentile([d * 1e3 for d in durations.get("allocation.numeric", ())], 50),
        "traffic.draws": len(draws_ms),
        "traffic.draw_s": busy.get("traffic.sample_loads", 0.0),
        "traffic.draw_ms_p50": _percentile(draws_ms, 50),
        "traffic.draw_ms_p95": _percentile(draws_ms, 95),
        "traffic.draw_bytes_computed": counts.get("traffic.draw_bytes", 0),
        "traffic.expected_loads_calls": calls("traffic.expected_load_matrix"),
        "traffic.expected_loads_s": busy.get("traffic.expected_load_matrix", 0.0),
        "montecarlo.realizations": realizations,
        "montecarlo.simulate_s": busy.get("montecarlo.simulate", 0.0),
        "montecarlo.settle_self_s": own.get("montecarlo.simulate", 0.0),
        "montecarlo.settle_us_per_realization": (
            own.get("montecarlo.simulate", 0.0) / realizations * 1e6 if realizations else 0.0
        ),
        "montecarlo.summarize_s": busy.get("montecarlo.summarize", 0.0),
        "montecarlo.rss_growth_mb": counts.get("montecarlo.rss_growth_bytes", 0) / (1 << 20),
        "montecarlo.kept_bytes_computed": counts.get("montecarlo.kept_bytes", 0),
        "montecarlo.weights_bytes_computed": counts.get("montecarlo.weights_bytes", 0),
        "montecarlo.settle_flops_computed": counts.get("montecarlo.settle_flops", 0),
        "game.coalitions": counts.get("game.coalitions", 0),
        "game.value_table_s": busy.get("game.build_value_table", 0.0),
        "game.value_table_self_s": own.get("game.build_value_table", 0.0),
        "game.shapley_s": busy.get("game.shapley", 0.0),
        "game.stability_s": busy.get("game.stability_value_hat", 0.0) + busy.get("game.deviation_threshold", 0.0),
        "cli.load_config_s": busy.get("cli.load_config", 0.0),
        "cli.self_s": cli_self,
        "cli.rows": rows,
        "cli.output_bytes": output_bytes,
        "cli.us_per_row": cli_self / rows * 1e6 if rows else 0.0,
    }


def dominant(metrics: dict) -> str:
    """The self-time metric with the largest value."""
    return max(SELF_TIME_METRICS, key=lambda name: metrics[name])
