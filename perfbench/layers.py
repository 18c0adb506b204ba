"""The program's layers as the traced run instruments them.

Every layer is timed at the public function (or method) its callers
resolve; :data:`LAYERS` is the single list the tracer installs and the
per-layer metric names derive from.  ``NOTES.md`` maps each layer to the
end-to-end metric it should move and the workload that shows it.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from perfbench.tracer import Layer, Tracer


def _truthy(result) -> bool:
    return bool(result)


def _committed(delta) -> bool:
    return delta > 0.0


def _refused(decision) -> bool:
    allowed, _ = decision
    return not allowed


_ENGINE = "repro.service.engine:AllocationService"

LAYERS: Tuple[Layer, ...] = (
    Layer(
        "workload.generate",
        (
            "repro.workload.generator:generate_system",
            "repro.workload.overload:overload_system",
            "repro.service.driver:generate_epoch_events",
            "repro.service.loadgen:generate_load",
        ),
    ),
    Layer("core.sharded.plan", ("repro.core.sharded:plan_shards",)),
    Layer("core.sharded.shard_subsystem", ("repro.core.sharded:shard_subsystem",)),
    Layer("core.sharded.merge", ("repro.model.allocation:AllocationRows.concatenate",)),
    Layer("core.sharded.shard_solve", ("repro.core.sharded:_shard_solve_task",)),
    Layer("core.initial.build", ("repro.core.initial:build_initial_solution",)),
    Layer("core.local_search.pass", ("repro.core.local_search:reassignment_pass",)),
    Layer("core.shares.adjust", ("repro.core.shares:adjust_resource_shares",)),
    Layer("core.dispersion.adjust", ("repro.core.dispersion:adjust_dispersion_rates",)),
    Layer("optim.dp.combine_curve_batches", ("repro.optim.dp:combine_curve_batches",)),
    Layer("optim.kkt.waterfill_shares", ("repro.optim.kkt:waterfill_shares",)),
    Layer("optim.kkt.optimal_dispersion", ("repro.optim.kkt:optimal_dispersion",)),
    Layer("core.assign.best_placement", ("repro.core.assign:best_placement",)),
    Layer(
        "core.assign.estimate_marginal_profit",
        ("repro.core.assign:estimate_marginal_profit",),
    ),
    Layer(
        "core.power.try_shutdown",
        ("repro.core.power:try_shutdown_server",),
        ("commits", _committed),
    ),
    Layer("core.power.turn_on", ("repro.core.power:turn_on_servers",)),
    Layer("core.state.snapshot", ("repro.core.state:WorkingState.snapshot",)),
    Layer("core.state.restore", ("repro.core.state:WorkingState.restore",)),
    Layer("core.state.canonicalize", ("repro.core.state:WorkingState.canonicalize",)),
    Layer("core.delta.profit", ("repro.core.delta:DeltaScorer.profit",)),
    Layer("core.delta.resync", ("repro.core.delta:DeltaScorer.resync",)),
    Layer(
        "core.repair.place",
        ("repro.core.repair:place_client",),
        ("successes", _truthy),
    ),
    Layer(
        "core.repair.reseat",
        ("repro.core.repair:reseat_client",),
        ("successes", _truthy),
    ),
    Layer("core.repair.rebalance", ("repro.core.repair:rebalance_servers",)),
    Layer("core.repair.consolidate", ("repro.core.repair:consolidate_servers",)),
    Layer("core.repair.drain", ("repro.core.repair:drain_server",)),
    Layer("service.engine.apply", (f"{_ENGINE}.apply",), starts_event=True),
    Layer("service.engine.apply.admit", (f"{_ENGINE}._admit",)),
    Layer("service.engine.apply.depart", (f"{_ENGINE}._depart",)),
    Layer("service.engine.apply.rate_update", (f"{_ENGINE}._rate_update",)),
    Layer("service.engine.apply.server_fail", (f"{_ENGINE}._server_fail",)),
    Layer("service.engine.apply.server_recover", (f"{_ENGINE}._server_recover",)),
    Layer("service.router.offer", ("repro.service.router:ServiceRouter.offer",)),
    Layer(
        "service.admission.decide",
        (
            "repro.service.admission:AdmissionPolicy.decide",
            "repro.service.admission:RevenueThreshold.decide",
            "repro.service.admission:OpportunityCost.decide",
        ),
        ("refusals", _refused),
    ),
    Layer("service.admission.reprice", ("repro.service.admission:PricingSchedule.reprice",)),
    Layer("service.journal.append", ("repro.service.journal:EventJournal.append",)),
    Layer("gap.dual.bound", ("repro.gap.dual:dual_bound",)),
)

#: Per-layer metrics read from program state rather than spans, with units.
STATE_METRICS: Tuple[Tuple[str, str], ...] = (
    ("core.sharded.shards", "count"),
    ("core.sharded.shard_solve_max_s", "s"),
    ("core.power.try_shutdown.commit_ratio", "ratio"),
    ("core.cache.curve_hit_ratio", "ratio"),
    ("core.repair.place.success_ratio", "ratio"),
    ("core.repair.reseat.success_ratio", "ratio"),
    ("service.engine.reopt_swaps", "count"),
    ("service.engine.stranded", "count"),
    ("service.router.shed", "count"),
    ("service.router.peak_queue_depth", "count"),
    ("service.admission.decide.refusal_ratio", "ratio"),
    ("gap.dual.iterations", "count"),
    ("bench.failed_share", "ratio"),
    ("bench.latency_samples", "count"),
    ("trace.work_s", "s"),
    ("trace.untraced_work_s", "s"),
    ("trace.overhead_share", "ratio"),
    ("trace.attributed_share", "ratio"),
    ("trace.spans", "count"),
)


def per_layer_names() -> List[Tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    names: List[Tuple[str, str]] = []
    for layer in LAYERS:
        names.append((f"{layer.name}.calls", "count"))
        names.append((f"{layer.name}.self_s", "s"))
        if layer.outcome is not None:
            names.append((f"{layer.name}.{layer.outcome[0]}", "count"))
    return names + list(STATE_METRICS)


def _outcome_share(tracer: Tracer, layer: str) -> float:
    """Share of a layer's calls that had its counted outcome."""
    calls = tracer.count(layer)
    return tracer.outcome_count(layer) / calls if calls else 0.0


def per_layer_metrics(tracer: Tracer, state: Dict[str, float]) -> Dict[str, Dict]:
    """Assemble every per-layer metric from the tracer plus ``state``.

    ``state`` carries the values only the workload can read (telemetry,
    engine counters, cache statistics, the untraced timing); missing
    entries report 0 — the layer was idle on this workload.
    """
    values: Dict[str, Tuple[float, str]] = tracer.layer_metrics()
    derived = {
        "core.power.try_shutdown.commit_ratio": _outcome_share(
            tracer, "core.power.try_shutdown"
        ),
        "core.repair.place.success_ratio": _outcome_share(tracer, "core.repair.place"),
        "core.repair.reseat.success_ratio": _outcome_share(tracer, "core.repair.reseat"),
        "service.admission.decide.refusal_ratio": _outcome_share(
            tracer, "service.admission.decide"
        ),
        "trace.spans": float(tracer.spans_total),
    }
    for name, unit in STATE_METRICS:
        value = derived.get(name, state.get(name, 0.0))
        values[name] = (float(value), unit)
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}
