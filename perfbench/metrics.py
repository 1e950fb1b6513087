"""Metric names and units the benchmark reports (BENCHMARK.json lists the
same names; smoke.py checks that they agree)."""

# untraced run, one value per workload
END_TO_END = {
    "pass_s": "s",
    "work_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# traced run, name -> unit, in report order
PER_LAYER = {
    "sim.flood.s": "s",
    "sim.flood.calls": "count",
    "sim.flood.us_per_call": "us",
    "sim.flood.hit_ratio": "ratio",
    "sim.advance.s": "s",
    "sim.advance.calls": "count",
    "sim.advance.us_per_call": "us",
    "sim.turns": "count",
    "sim.node_steps_per_s": "1/s",
    "sim.init_world.s": "s",
    "sim.run_epidemic.s": "s",
    "sim.infected_frac": "ratio",
    "kernel.speed_bound.s": "s",
    "kernel.pole_rho.s": "s",
    "kernel.theta_evals_per_bound": "count",
    "specfun.calls": "count",
    "stats.front_records.s": "s",
    "stats.fit_slope.s": "s",
    "stats.build_curve.s": "s",
    "stats.fit.records_in_window": "count",
    "cli.write_records.s": "s",
    "cli.write_curve.s": "s",
    "cli.csv_bytes": "bytes",
    "cli.self.s": "s",
    "trace_overhead_frac": "ratio",
}


