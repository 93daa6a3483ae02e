"""Which library calls the traced run wraps, and the per-layer metrics
computed from them.

Every wrapper sits on a public name in the namespace of the module that
calls it, because ``from .x import f`` binds its own reference. Decisions
are labelled by solver path from `decide`'s inputs (strategy type, network
count, free-space family), never from solver function names.
"""

from __future__ import annotations

import numpy as np

from tracer import Tracer, median

DECIDE_PATHS = ("fcc", "sbd", "swo_box", "swo_grid", "swo_multinet")


def decide_path(lib, strategy, views) -> str:
    if isinstance(strategy, lib.strategies.FCC):
        return "fcc"
    if isinstance(strategy, lib.strategies.SBD):
        return "sbd"
    if len(views) >= 3:
        return "swo_multinet"
    if all(isinstance(v.space_dist, lib.distributions.Uniform) for v in views):
        return "swo_box"
    return "swo_grid"


def install(tracer: Tracer, lib) -> None:
    """Wrap the library's layer boundaries. `lib` holds the cascnet modules."""
    cli, core, meanfield, montecarlo, search, strategies = (
        lib.cli, lib.core, lib.meanfield, lib.montecarlo, lib.search,
        lib.strategies)
    counts = tracer.counts

    def span(module, attr, name, **hooks):
        tracer.patch(module, attr, lambda fn: tracer.span(name, fn, **hooks))

    def decide_label(strategy, views, t):
        return "strategies.decide." + decide_path(lib, strategy, views)

    def mf_post(_, args, kwargs, traj):
        counts["meanfield.steps"] += traj.steps_taken
        counts["meanfield.non_converged"] += (
            traj.outcome == meanfield.Outcome.NON_CONVERGED)

    def graph_label(topology, node_count, seed):
        kind = {core.ErdosRenyi: "er", core.BarabasiAlbert: "ba"}.get(
            type(topology), "other")
        return "montecarlo.generate_graph." + kind

    def graph_post(_, args, kwargs, graph):
        if graph is not None:
            counts["montecarlo.graph_edges"] += graph.edge_count

    def alive(pops):
        return sum(int(np.count_nonzero(p.alive)) for p in pops)

    def complete_pre(args, kwargs):
        return alive(args[0])

    def complete_post(before, args, kwargs, _):
        pops = args[0]
        counts["montecarlo.front_nodes"] += before - alive(pops)
        counts["montecarlo.front_capacity"] += sum(p.alive.size for p in pops)

    def local_post(_, args, kwargs, out):
        pops, (next_dead, _pools) = args[0], out
        counts["montecarlo.front_nodes"] += sum(d.size for d in next_dead)
        counts["montecarlo.front_capacity"] += sum(p.alive.size for p in pops)

    def runner_factory(fn):
        def make(*args, **kwargs):
            return tracer.span("search.probe", fn(*args, **kwargs))
        return make

    for module in (search, cli):
        span(module, "critical_attack_size", "search.critical")
        for attr in ("make_meanfield_runner", "make_montecarlo_runner"):
            tracer.patch(module, attr, runner_factory)
    for module in (search, cli, meanfield):
        span(module, "mf_run", "meanfield.mf_run", post=mf_post)
    for module in (search, cli, montecarlo):
        span(module, "mc_run", "montecarlo.mc_run")
    span(search, "generate_graph", graph_label, post=graph_post)
    for attr in ("compare_strategies", "attack_sweep", "fcc_grid_sweep"):
        span(cli, attr, "cli.library")
    span(cli, "main", lambda argv=None: "cli.main." + (argv or ["?"])[0])
    for module in (meanfield, montecarlo, strategies):
        span(module, "decide", decide_label)
    span(montecarlo, "sample_population", "montecarlo.sample_population")
    span(montecarlo, "apply_attack", "montecarlo.apply_attack")
    span(montecarlo, "mc_step_complete", "montecarlo.mc_step_complete",
         pre=complete_pre, post=complete_post)
    span(montecarlo, "mc_step_local", "montecarlo.mc_step_local",
         post=local_post)
    for module, attr in ((meanfield, "dist_sf_geq"), (strategies, "dist_sf_geq"),
                         (strategies, "dist_sf_geq_arr")):
        tracer.patch(module, attr, lambda fn: tracer.counter("distributions.sf_geq", fn))


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for marker, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s")):
        if name.endswith(marker) or marker + "." in name or marker + "_total" in name:
            return unit
    if any(w in name for w in ("ratio", "fraction", "coverage", "_per_")):
        return "ratio"
    return "count"


# Which wrapped names each metric needs; a metric is omitted when any of
# them was absent at install time.
_NEEDS = {
    "search.": ["cascnet.search.critical_attack_size"],
    "meanfield.": ["cascnet.search.mf_run"],
    "strategies.": ["cascnet.strategies.decide"],
    "montecarlo.step_complete_us": ["cascnet.montecarlo.mc_step_complete"],
    "montecarlo.steps_complete": ["cascnet.montecarlo.mc_step_complete"],
    "montecarlo.step_local_ms": ["cascnet.montecarlo.mc_step_local"],
    "montecarlo.steps_local": ["cascnet.montecarlo.mc_step_local"],
    "montecarlo.sample_population_ms": ["cascnet.montecarlo.sample_population"],
    "montecarlo.apply_attack_ms": ["cascnet.montecarlo.apply_attack"],
    "montecarlo.generate_graph_s": ["cascnet.search.generate_graph"],
    "montecarlo.graph_edges": ["cascnet.search.generate_graph"],
    "montecarlo.": ["cascnet.search.mc_run"],
    "distributions.": ["cascnet.meanfield.dist_sf_geq", "cascnet.strategies.dist_sf_geq",
                       "cascnet.strategies.dist_sf_geq_arr"],
    "cli.": ["cascnet.cli.main"],
}


def metrics(timed: list[list], timed_counts, setup: list[list],
            setup_counts, absent: set[str], extra: dict) -> dict[str, float]:
    """Per-layer metrics of one traced timed phase (graph generation comes
    from the traced set-up, where the graph cache is warmed)."""
    agg = Tracer.summarize(timed)
    setup_agg = Tracer.summarize(setup)

    def calls(name, source=agg):
        return source.get(name, {}).get("calls", 0)

    def total(name, key="durations", source=agg):
        entry = source.get(name)
        if entry is None:
            return 0.0
        return sum(entry["durations"]) if key == "durations" else entry[key]

    def mean(name, key="durations", source=agg):
        n = calls(name, source)
        return total(name, key, source) / n if n else 0.0

    out: dict[str, float] = {}
    crit = calls("search.critical")
    out["search.critical_calls"] = crit
    out["search.probes"] = calls("search.probe")
    out["search.probes_per_critical"] = calls("search.probe") / crit if crit else 0.0
    out["search.critical_self_ms"] = 1e3 * mean("search.critical", "self_s")
    out["search.graph_cache_misses"] = sum(
        calls(n, src) for src in (agg, setup_agg) for n in src
        if n.startswith("montecarlo.generate_graph."))

    steps = timed_counts["meanfield.steps"]
    out["meanfield.mf_run_calls"] = calls("meanfield.mf_run")
    out["meanfield.steps"] = steps
    out["meanfield.mf_run_self_ms"] = 1e3 * mean("meanfield.mf_run", "self_s")
    out["meanfield.step_us"] = (
        1e6 * total("meanfield.mf_run", "self_s") / steps if steps else 0.0)
    out["meanfield.non_converged"] = timed_counts["meanfield.non_converged"]

    for path in DECIDE_PATHS:
        name = "strategies.decide." + path
        out[f"strategies.decide_calls.{path}"] = calls(name)
        out[f"strategies.decide_us.{path}"] = 1e6 * median(
            agg.get(name, {}).get("durations", []))
        out[f"strategies.decide_s_total.{path}"] = total(name)
    multinet = agg.get("strategies.decide.swo_multinet", {"calls": 0, "ok": 0})
    out["strategies.multinet_calls"] = multinet["calls"]
    out["strategies.multinet_converged_ratio"] = (
        multinet["ok"] / multinet["calls"] if multinet["calls"] else 0.0)
    out["strategies.deadline_misses"] = extra["deadline_misses"]
    out["strategies.nan_warnings"] = extra["nan_warnings"]

    out["montecarlo.mc_run_calls"] = calls("montecarlo.mc_run")
    out["montecarlo.mc_run_self_ms"] = 1e3 * mean("montecarlo.mc_run", "self_s")
    out["montecarlo.steps_complete"] = calls("montecarlo.mc_step_complete")
    out["montecarlo.step_complete_us"] = 1e6 * mean("montecarlo.mc_step_complete")
    out["montecarlo.steps_local"] = calls("montecarlo.mc_step_local")
    out["montecarlo.step_local_ms"] = 1e3 * mean("montecarlo.mc_step_local")
    out["montecarlo.sample_population_ms"] = 1e3 * mean("montecarlo.sample_population")
    out["montecarlo.apply_attack_ms"] = 1e3 * mean("montecarlo.apply_attack")
    capacity = timed_counts["montecarlo.front_capacity"]
    out["montecarlo.front_fraction"] = (
        timed_counts["montecarlo.front_nodes"] / capacity if capacity else 0.0)
    for kind in ("er", "ba"):
        out[f"montecarlo.generate_graph_s.{kind}"] = mean(
            "montecarlo.generate_graph." + kind, source=setup_agg)
    out["montecarlo.graph_edges"] = (
        setup_counts["montecarlo.graph_edges"] + timed_counts["montecarlo.graph_edges"])

    out["distributions.sf_geq_calls"] = timed_counts["distributions.sf_geq"]
    out["cli.main_ms.compare"] = 1e3 * mean("cli.main.compare")
    main_calls = sum(calls(n) for n in agg if n.startswith("cli.main."))
    out["cli.self_ms"] = 1e3 * (
        sum(total(n, "self_s") for n in agg if n.startswith("cli.main."))
        / main_calls if main_calls else 0.0)

    for prefix, needs in _NEEDS.items():
        if any(need in absent for need in needs):
            for key in [k for k in out if k.startswith(prefix)]:
                del out[key]
    return out
