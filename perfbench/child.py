"""Child processes the benchmark starts besides the plain CLI.

    python3 perfbench/child.py setup CONFIG
        Imports ``coinvest.cli``, loads CONFIG and prints the
        CLOCK_MONOTONIC time at which the scenario is ready.

    python3 perfbench/child.py run CLI_ARG...
        Runs ``coinvest.cli.main(CLI_ARG...)``: the untraced side of a
        traced pair, started the same way as the traced side.

    python3 perfbench/child.py trace TRACE_JSON CLI_ARG...
        Runs ``coinvest.cli.main(CLI_ARG...)`` with a span recorded
        around every call one module makes into another, and writes the
        spans and counters to TRACE_JSON.

Spans wrap the names where the caller looks them up (``coinvest.cli``
for the commands, ``coinvest.game.optimal_plan`` for the value table,
and so on), so nothing under ``src/`` changes.  A span is
``[name, thread, start, end, parent]`` with ``parent`` the index of the
enclosing span on the same thread, or ``None``.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import threading
import time


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def root_nbytes(arrays) -> int:
    """Bytes of the distinct buffers ``arrays`` keep alive (views share one)."""
    seen = {}
    for a in arrays:
        while getattr(a, "base", None) is not None and hasattr(a.base, "nbytes"):
            a = a.base
        seen[id(a)] = a.nbytes
    return sum(seen.values())


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    def add(self, name: str, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, module, attr: str, span: str, before=None, after=None):
        """Replace ``module.attr`` by a traced version.

        ``before(args)`` runs ahead of the call and its result is handed
        to ``after(args, result, state)``; both run outside the span.
        """
        fn = getattr(module, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            stack = self._stack()
            record = [span, threading.get_ident(), 0.0, 0.0, stack[-1] if stack else None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
            if after:
                after(args, result, state)
            return result

        setattr(module, attr, traced)

    def _stack(self) -> list:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack


def install(tracer: Tracer):
    """Wrap every cross-layer call the CLI commands make."""
    import coinvest.allocation as allocation
    import coinvest.cli as cli
    import coinvest.game as game
    import coinvest.montecarlo as montecarlo
    import coinvest.scenario as scenario

    def closed_form_done(args, plan, state):
        tracer.add("allocation.closed_form_rejects", plan is None)

    def draw_done(args, loads, state):
        tracer.add("traffic.draw_bytes", loads.values.nbytes)

    def table_done(args, table, state):
        tracer.add("game.coalitions", len(table.plans))

    def simulate_done(args, outcomes, rss_before):
        table = args[1]
        coalitions = len(table.plans)
        n_sp, slots = table.plans[0].shares.shape
        realizations = len(outcomes)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        tracer.add("montecarlo.realizations", realizations)
        tracer.add("montecarlo.rss_growth_bytes", max(0, peak - rss_before))
        tracer.add(
            "montecarlo.kept_bytes",
            root_nbytes(
                a
                for o in outcomes
                for a in (o.loads.values, o.values, o.payoffs, o.deviations, o.collected, o.payments, o.rewards)
            ),
        )
        tracer.add("montecarlo.weights_bytes", coalitions * n_sp * slots * 8)
        # Per realization: revenue of every coalition (multiply-add over
        # SPs x slots), grand-coalition slot cash and its running sum, and
        # the Shapley product values @ M.
        n = n_sp + 1
        per = 2 * coalitions * n_sp * slots + 2 * n_sp * slots + slots + 2 * coalitions * n
        tracer.add("montecarlo.settle_flops", realizations * per)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "build_value_table", "game.build_value_table", after=table_done)
    tracer.wrap(cli, "optimal_plan", "allocation.optimal_plan")
    tracer.wrap(cli, "shapley", "game.shapley")
    tracer.wrap(cli, "stability_value_hat", "game.stability_value_hat")
    tracer.wrap(cli, "deviation_threshold", "game.deviation_threshold")
    tracer.wrap(cli, "simulate", "montecarlo.simulate", before=lambda args: rss_bytes(), after=simulate_done)
    tracer.wrap(cli, "summarize", "montecarlo.summarize")
    tracer.wrap(game, "optimal_plan", "allocation.optimal_plan")
    tracer.wrap(allocation, "optimal_plan_closed_form", "allocation.closed_form", after=closed_form_done)
    tracer.wrap(allocation, "optimal_plan_numeric", "allocation.numeric")
    tracer.wrap(montecarlo, "sample_loads", "traffic.sample_loads", after=draw_done)
    tracer.wrap(scenario, "expected_load_matrix", "traffic.expected_load_matrix")
    return cli


def main(argv) -> int:
    mode = argv[0] if argv else ""
    if mode == "setup" and len(argv) == 2:
        import coinvest.cli

        coinvest.cli.load_config(argv[1])
        print(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))
        return 0
    if mode == "run" and len(argv) >= 2:
        import coinvest.cli

        return coinvest.cli.main(argv[1:])
    if mode == "trace" and len(argv) >= 3:
        tracer = Tracer()
        cli = install(tracer)
        rc = cli.main(argv[2:])
        with open(argv[1], "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts}, fh)
        return rc
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
