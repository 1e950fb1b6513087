"""The traced run: which dtnspeed functions are wrapped, and how their
spans and counts become the per-layer metrics.

Spans sit only at layer boundaries.  The per-evaluation kernel calls
(`theta_of_rho`, `psi`, `xi`) get bare counters, and nothing below them
(`bessel_*`) is wrapped: counting every Bessel call doubled sweep's wall
time.  Every `.s` metric is a self time: the span minus its children.
"""

import dtnspeed.cli as cli
import dtnspeed.kernel as kernel
import dtnspeed.sim as sim

from tracer import Tracer

# (module, attribute, span name); cli's own imported names are what the
# commands call, kernel.speed_bound is wrapped for library callers too
SPANS = [
    (cli, "run_epidemic", "sim.run_epidemic"),
    (sim, "init_world", "sim.init_world"),
    (sim, "advance", "sim.advance"),
    (sim, "flood", "sim.flood"),
    (cli, "speed_bound", "kernel.speed_bound"),
    (kernel, "speed_bound", "kernel.speed_bound"),
    (kernel, "pole_rho", "kernel.pole_rho"),
    (cli, "front_records", "stats.front_records"),
    (cli, "fit_slope", "stats.fit_slope"),
    (cli, "build_curve", "stats.build_curve"),
    (cli, "write_records", "cli.write_records"),
    (cli, "write_curve", "cli.write_curve"),
]
COUNTERS = [
    (kernel, "theta_of_rho", "kernel.theta_of_rho"),
    (kernel, "psi", "specfun.calls"),
    (kernel, "xi", "specfun.calls"),
]


def _per(num, den):
    return num / den if den else 0.0


def traced_pass(ops, run_pass, spans_path=None):
    """Run one pass with every wrapper installed; returns the op results
    and the per-layer metrics (trace_overhead_frac is the caller's)."""
    tracer = Tracer()
    worlds = []
    flood_hits = [0]
    window = []

    def on_world(args, world):
        worlds.append(world)

    def on_flood(args, records):
        if records:
            flood_hits[0] += 1

    def on_fit(args, fit):
        records, d_min, d_max = args[:3]
        window.append(sum(1 for r in records if d_min <= r.distance <= d_max))

    hooks = {"sim.init_world": on_world, "sim.flood": on_flood,
             "stats.fit_slope": on_fit}
    with tracer:
        for module, attr, name in SPANS:
            fn = getattr(module, attr)
            tracer.install(module, attr, tracer.span(name, fn, hooks.get(name)))
        for module, attr, name in COUNTERS:
            tracer.install(module, attr, tracer.counter(name, getattr(module, attr)))
        results = run_pass(ops, tracer.span("cli.command", cli.main))

    own = tracer.self_times()

    def self_s(name):
        return own.get(name, (0.0, 0))[0]

    def calls(name):
        return own.get(name, (0.0, 0))[1]

    node_steps = sum(w.config.n * round(w.time / w.config.dt) for w in worlds)
    metrics = {
        "sim.flood.s": self_s("sim.flood"),
        "sim.flood.calls": calls("sim.flood"),
        "sim.flood.us_per_call": 1e6 * _per(self_s("sim.flood"), calls("sim.flood")),
        "sim.flood.hit_ratio": _per(flood_hits[0], calls("sim.flood")),
        "sim.advance.s": self_s("sim.advance"),
        "sim.advance.calls": calls("sim.advance"),
        "sim.advance.us_per_call": 1e6
        * _per(self_s("sim.advance"), calls("sim.advance")),
        "sim.turns": sum(int(w.turn_count.sum()) for w in worlds),
        "sim.node_steps_per_s": _per(node_steps, tracer.total_time("sim.run_epidemic")),
        "sim.init_world.s": self_s("sim.init_world"),
        "sim.run_epidemic.s": self_s("sim.run_epidemic"),
        "sim.infected_frac": _per(sum(float(w.infected.mean()) for w in worlds), len(worlds)),
        "kernel.speed_bound.s": self_s("kernel.speed_bound"),
        "kernel.pole_rho.s": self_s("kernel.pole_rho"),
        "kernel.theta_evals_per_bound": _per(
            tracer.count("kernel.theta_of_rho"), calls("kernel.speed_bound")
        ),
        "specfun.calls": tracer.count("specfun.calls"),
        "stats.front_records.s": self_s("stats.front_records"),
        "stats.fit_slope.s": self_s("stats.fit_slope"),
        "stats.build_curve.s": self_s("stats.build_curve"),
        "stats.fit.records_in_window": _per(sum(window), len(window)),
        "cli.write_records.s": self_s("cli.write_records"),
        "cli.write_curve.s": self_s("cli.write_curve"),
        "cli.csv_bytes": sum(r["csv_bytes"] for r in results),
        "cli.self.s": self_s("cli.command"),
    }
    metrics["self_sum_s"] = sum(total for total, _ in own.values())
    if spans_path:
        tracer.write_spans(spans_path)
    return results, metrics
