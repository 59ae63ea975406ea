"""Per-layer metrics from one traced unit's spans.

Each layer's figures come from the spans named after its functions: counts
of calls, inclusive time of the calls, self time of the layer, and the
counts that the span extractors read off arguments and results (rows
evaluated, chain sweeps, ascent iterations, entries drawn).  A layer that a
workload does not reach reports zero counts and zero time.
"""

from __future__ import annotations

import numpy as np

from bench_trace import Summary, parallel_efficiency

FE_SPANS = ("thermo.fe_thermo_integration", "thermo.exact_fe_quadrature",
            "thermo.exact_fe_enumeration", "thermo.restricted_fe",
            "thermo.multi_replica_fe")


def _fe_info(args, kwargs, est) -> dict:
    meta = est.meta
    info = {"chain_sweeps": 0}
    if "node_means" in meta:  # a tempering run happened
        info["chain_sweeps"] = len(meta["beta_grid"]) * meta.get("replicas", 1) * meta["sweeps"]
        info["accept"] = min(meta["accept_rates"])
        if meta["swap_rates"]:
            info["swap"] = min(meta["swap_rates"])
        info["node_se"] = max(meta["node_std_errors"])
    if "pairwise_trials" in meta:
        info["hits"], info["trials"] = meta["pairwise_hits"], meta["pairwise_trials"]
    return info


def _instance_info(args, kwargs, h) -> dict:
    arrays = list(h.tensors) + list(h.raw_disorder)
    if h.field is not None:
        arrays += [h.field.normals, h.field.vector]
    unique = {id(a): a for a in arrays}.values()
    return {"entries": int(sum(a.size for a in h.raw_disorder)),
            "bytes": int(sum(a.nbytes for a in unique))}


def _ascent_info(args, kwargs, res) -> dict:
    return {"iterations": int(sum(res.iteration_counts)), "restarts": res.restarts,
            "converged": res.converged_fraction * res.restarts}


EXTRACTORS = {
    **{name: _fe_info for name in FE_SPANS},
    "hamiltonian.build_instance": _instance_info,
    "hamiltonian.load_instance": _instance_info,
    "hamiltonian.energy_many": lambda args, kwargs, result: int(np.shape(args[1])[0]),
    "ground_state.ascend": _ascent_info,
    "cli._run_tasks": lambda args, kwargs, result: int(args[1]),
}

# name -> (unit, better); the order is the order of BENCHMARK.json
END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "instances_per_s": ("1/s", "higher"),
}

PER_LAYER = {
    "cli.self_s": ("s", "lower"),
    "cli.parallel_efficiency": ("ratio", "higher"),
    "tap.evaluate_calls": ("count", "lower"),
    "tap.self_s": ("s", "lower"),
    "thermo.fe_calls": ("count", "lower"),
    "thermo.self_s": ("s", "lower"),
    "thermo.chain_sweeps": ("count", "lower"),
    "thermo.us_per_chain_sweep": ("us", "lower"),
    "thermo.accept_rate_min": ("ratio", "higher"),
    "thermo.swap_rate_min": ("ratio", "higher"),
    "thermo.node_se_max": ("per-spin", "lower"),
    "thermo.oracle_z": ("SE", "lower"),
    "geometry.band_draws": ("count", "lower"),
    "geometry.band_draw_s": ("s", "lower"),
    "geometry.us_per_band_draw": ("us", "lower"),
    "geometry.pair_hit_rate": ("ratio", "higher"),
    "geometry.band_volume_s": ("s", "lower"),
    "geometry.sample_s": ("s", "lower"),
    "hamiltonian.gradient_calls": ("count", "lower"),
    "hamiltonian.gradient_s": ("s", "lower"),
    "hamiltonian.us_per_gradient": ("us", "lower"),
    "hamiltonian.energy_calls": ("count", "lower"),
    "hamiltonian.energy_s": ("s", "lower"),
    "hamiltonian.energy_many_calls": ("count", "lower"),
    "hamiltonian.energy_many_rows": ("count", "lower"),
    "hamiltonian.us_per_row": ("us", "lower"),
    "hamiltonian.build_calls": ("count", "lower"),
    "hamiltonian.build_s": ("s", "lower"),
    "hamiltonian.entries_drawn": ("count", "lower"),
    "hamiltonian.held_mib": ("MiB-computed", "lower"),
    "hamiltonian.checkpoint_s": ("s", "lower"),
    "ground_state.ascend_calls": ("count", "lower"),
    "ground_state.iterations": ("count", "lower"),
    "ground_state.self_s": ("s", "lower"),
    "ground_state.us_per_iteration": ("us", "lower"),
    "ground_state.converged_fraction": ("ratio", "higher"),
    "mixture.calls": ("count", "lower"),
    "mixture.s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.coverage": ("ratio", "higher"),
    "fail_rate": ("ratio", "lower"),
}


def _fe_infos(s: Summary) -> list:
    return [i for name in FE_SPANS for i in s.infos.get(name, ())]


def _per(total: float, count: float, scale: float = 1.0) -> float:
    return scale * total / count if count else 0.0


def layer_metrics(s: Summary) -> dict:
    """Per-layer figures of one traced unit (trace.* and fail_rate excluded)."""
    calls = lambda name: s.calls.get(name, 0)  # noqa: E731
    incl = lambda *names: sum(s.inclusive.get(n, 0.0) for n in names)  # noqa: E731
    fe = _fe_infos(s)
    sweeps = sum(i["chain_sweeps"] for i in fe)
    builds = s.infos.get("hamiltonian.build_instance", []) + s.infos.get(
        "hamiltonian.load_instance", [])
    ascents = s.infos.get("ground_state.ascend", [])
    iterations = sum(a["iterations"] for a in ascents)
    restarts = sum(a["restarts"] for a in ascents)
    trials = sum(i.get("trials", 0) for i in fe)
    rows = sum(s.infos.get("hamiltonian.energy_many", []))
    mixture_spans = [n for n in s.calls if n.startswith("mixture.")]
    return {
        "cli.self_s": s.self_by_layer["cli"],
        "cli.parallel_efficiency": parallel_efficiency(s),
        "tap.evaluate_calls": calls("tap.tap_evaluate"),
        "tap.self_s": s.self_by_layer["tap"],
        "thermo.fe_calls": sum(calls(n) for n in FE_SPANS),
        "thermo.self_s": s.self_by_layer["thermo"],
        "thermo.chain_sweeps": sweeps,
        "thermo.us_per_chain_sweep": _per(s.self_by_layer["thermo"], sweeps, 1e6),
        "geometry.band_draws": calls("geometry.sample_uniform_in_band"),
        "geometry.band_draw_s": incl("geometry.sample_uniform_in_band"),
        "geometry.us_per_band_draw": _per(incl("geometry.sample_uniform_in_band"),
                                          calls("geometry.sample_uniform_in_band"), 1e6),
        "geometry.pair_hit_rate": _per(sum(i.get("hits", 0) for i in fe), trials),
        "geometry.band_volume_s": incl("geometry.log_band_volume"),
        "geometry.sample_s": incl("geometry.sample_uniform", "geometry.sample_on_shell"),
        "hamiltonian.gradient_calls": calls("hamiltonian.gradient"),
        "hamiltonian.gradient_s": incl("hamiltonian.gradient"),
        "hamiltonian.us_per_gradient": _per(incl("hamiltonian.gradient"),
                                            calls("hamiltonian.gradient"), 1e6),
        "hamiltonian.energy_calls": calls("hamiltonian.energy"),
        "hamiltonian.energy_s": incl("hamiltonian.energy"),
        "hamiltonian.energy_many_calls": calls("hamiltonian.energy_many"),
        "hamiltonian.energy_many_rows": rows,
        "hamiltonian.us_per_row": _per(incl("hamiltonian.energy_many"), rows, 1e6),
        "hamiltonian.build_calls": calls("hamiltonian.build_instance"),
        "hamiltonian.build_s": incl("hamiltonian.build_instance"),
        "hamiltonian.entries_drawn": sum(b["entries"] for b in builds),
        "hamiltonian.held_mib": max((b["bytes"] for b in builds), default=0) / 2**20,
        "hamiltonian.checkpoint_s": incl("hamiltonian.save_instance",
                                         "hamiltonian.load_instance"),
        "ground_state.ascend_calls": calls("ground_state.ascend"),
        "ground_state.iterations": iterations,
        "ground_state.self_s": s.self_by_layer["ground_state"],
        "ground_state.us_per_iteration": _per(incl("ground_state.ascend"), iterations, 1e6),
        "ground_state.converged_fraction": _per(sum(a["converged"] for a in ascents),
                                                restarts),
        "mixture.calls": sum(calls(n) for n in mixture_spans),
        "mixture.s": incl(*mixture_spans),
    }


def health_metrics(s: Summary, gate_health: dict) -> dict:
    """Sampler health over every tempering run of the traced unit and the
    gate's corner-scale TI run, so each workload reports them."""
    fe = _fe_infos(s)
    return {
        "thermo.accept_rate_min": min([i["accept"] for i in fe if "accept" in i]
                                      + [gate_health["accept"]]),
        "thermo.swap_rate_min": min([i["swap"] for i in fe if "swap" in i]
                                    + [gate_health["swap"]]),
        "thermo.node_se_max": max([i["node_se"] for i in fe if "node_se" in i]
                                  + [gate_health["node_se"]]),
        "thermo.oracle_z": gate_health["oracle_z"],
    }
