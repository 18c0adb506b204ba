"""The benchmark's three workloads, their correctness checks and metrics.

* ``solve-10k`` — a 10k-client instance solved by the sharded hierarchy
  under the scale profile, then certified with the Lagrangian dual bound.
* ``serve-churn`` — a closed loop of random-walk epochs (rate drift,
  departures and returns, server failures and recoveries) into a 4-shard
  router with journaling on.
* ``serve-overload`` — logical open-loop episodes of admit-heavy bursts
  into a 4-shard router with opportunity-cost admission, surge pricing
  and a pending budget.

Every workload builds its inputs from ``seed`` alone, repeats its set-up
several times (``setup_s`` is the median), runs ``gc.collect()`` before
each timed phase and checks its outputs untimed.  ``NOTES.md`` records
why each workload was chosen and which layer moves which metric.
"""

from __future__ import annotations

import asyncio
import contextlib
import dataclasses
import gc
import os
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.core.sharded as sharded
from repro.audit.invariants import find_violations
from repro.config import SolverConfig
from repro.core.cache import MemoCache
from repro.core.sharded import ShardedAllocator
from repro.exceptions import ServiceError
from repro.gap.dual import dual_bound
from repro.model.datacenter import CloudSystem
from repro.model.profit import evaluate_profit
from repro.service.admission import OpportunityCost, PricingSchedule
from repro.service.driver import TraceDriverConfig, empty_copy, generate_epoch_events
from repro.service.engine import AllocationService, ServicePolicy
from repro.service.loadgen import LoadGenConfig, generate_load
from repro.service.router import RouterPolicy, ServiceRouter
from repro.workload.generator import generate_system
from repro.workload.overload import overload_system

from perfbench.layers import LAYERS, per_layer_metrics
from perfbench.tracer import Tracer

#: The datacenter (fleet, server SKUs, SLA price list) is the same on
#: every seed; the seed draws what a provider does not control — the
#: client population, the trace, the arrival stream.  Seed-to-seed
#: spread then measures the program, not which handful of server SKUs
#: and utility classes the generator happened to draw.
FLEET_SEED = 20110620

#: Relative tolerance of the independent profit re-score.
PROFIT_AGREEMENT = 1e-9

#: Scheduler rounds without any progress (no event fed, applied,
#: rejected or shed, no engine sequence number moved) after which a
#: serve run with undisposed events is declared stalled.  A live shard
#: consumer with queued work applies a batch every round, so only a dead
#: consumer can stay silent this long; this counts rounds, not seconds.
QUIET_ROUNDS = 64

CLIENT_COLUMNS = (
    "client_uclass",
    "rate_agreed",
    "rate_predicted",
    "t_proc",
    "t_comm",
    "storage_req",
)


@dataclass(frozen=True)
class Sizes:
    """Workload sizes; the self-tests shrink them."""

    solve_clients: int = 10_000
    #: Scale-profile shard size (the measured sweet spot at n=10k).
    shard_size: int = 160
    churn_clients: int = 400
    overload_clients: int = 200
    overload_warmup_events: int = 1000
    overload_timed_events: int = 1000
    #: Set-up repetitions on workloads whose set-up is not already
    #: repeated per episode.
    setup_repeats: int = 5


TINY = Sizes(
    solve_clients=240,
    shard_size=60,
    churn_clients=16,
    overload_clients=12,
    overload_warmup_events=60,
    overload_timed_events=120,
    setup_repeats=2,
)


@dataclass
class Run:
    """One pass over a workload: what the metrics and checks need."""

    setup_s: List[float] = field(default_factory=list)
    work_s: float = 0.0
    #: Items disposed in the timed phase (events, or clients on solve).
    disposed_timed: int = 0
    latencies_s: List[float] = field(default_factory=list)
    profit: float = 0.0
    bound: float = 0.0
    offered: int = 0
    applied: int = 0
    shed: int = 0
    rejected: int = 0
    failures: List[str] = field(default_factory=list)
    #: Per-layer values read from program state (traced pass only).
    state: Dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return self.offered - self.applied - self.shed - self.rejected

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _quantile_ms(values: Sequence[float], q: float) -> float:
    if not values:
        return 0.0
    return float(np.quantile(np.asarray(values), q)) * 1e3


def _seeded_system(num_clients: int, seed: int) -> CloudSystem:
    """The fixed datacenter serving a seed-drawn client population."""
    fleet = generate_system(num_clients, seed=FLEET_SEED)
    draw = generate_system(num_clients, seed=seed)
    arrays = dataclasses.replace(
        fleet.arrays,
        **{name: getattr(draw.arrays, name) for name in CLIENT_COLUMNS},
    )
    return CloudSystem.from_arrays(arrays, name=f"fleet{FLEET_SEED}-clients{seed}")


def scale_config(num_clients: int, shard_size: int, seed: int) -> SolverConfig:
    """The scale profile of ``benchmarks/bench_scale.py`` (n > 1k)."""
    return SolverConfig(
        seed=seed,
        num_shards=max(2, num_clients // shard_size),
        num_workers=1,
        num_initial_solutions=1,
        max_improvement_rounds=1,
        shard_coordination_rounds=0,
        shard_final_rounds=0,
        use_txn_shutdown=True,
        shard_levels=2,
    )


def _profit_agrees(reported: float, rescored: float) -> bool:
    return abs(reported - rescored) <= PROFIT_AGREEMENT * max(1.0, abs(rescored))


class _Patch:
    """Swap one module attribute for the duration of a ``with`` block."""

    def __init__(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        self.owner, self.name, self.make = owner, name, make

    def __enter__(self) -> None:
        self.original = getattr(self.owner, self.name)
        setattr(self.owner, self.name, self.make(self.original))

    def __exit__(self, *exc_info) -> None:
        setattr(self.owner, self.name, self.original)


class _CacheStats:
    """Curve-cache hits and misses of the memo caches inside timed phases.

    Collects the statistics dict of every memo cache created meanwhile;
    :meth:`begin` and :meth:`end` bracket a timed phase and add the hits
    and misses it made to the totals, so set-up traffic is left out.
    """

    def __init__(self) -> None:
        self.stats: List[Dict[str, int]] = []
        self.hits = 0
        self.misses = 0
        self._base: List[Tuple[int, int]] = []

    def __enter__(self) -> "_CacheStats":
        original = self.original = MemoCache.__init__
        collected = self.stats

        def init(cache, *args, **kwargs):
            original(cache, *args, **kwargs)
            collected.append(cache.stats)

        MemoCache.__init__ = init
        return self

    def __exit__(self, *exc_info) -> None:
        MemoCache.__init__ = self.original

    def begin(self) -> None:
        self._base = [(s["curve_hits"], s["curve_misses"]) for s in self.stats]

    def end(self) -> None:
        base = self._base + [(0, 0)] * (len(self.stats) - len(self._base))
        for stats, (hits, misses) in zip(self.stats, base):
            self.hits += stats["curve_hits"] - hits
            self.misses += stats["curve_misses"] - misses

    def curve_hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class Probe:
    """What the traced pass instruments: layer spans and curve caches."""

    tracer: Tracer
    caches: _CacheStats


class _TimedPhase:
    """``gc.collect()``, then time the block inside the tracer's root span."""

    def __init__(self, probe: Optional[Probe]) -> None:
        self.probe = probe
        self.span = (
            probe.tracer.root() if probe is not None else contextlib.nullcontext()
        )
        self.seconds = 0.0

    def __enter__(self) -> "_TimedPhase":
        gc.collect()
        if self.probe is not None:
            self.probe.caches.begin()
        self.span.__enter__()
        self.started = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self.started
        self.span.__exit__(*exc_info)
        if self.probe is not None:
            self.probe.caches.end()


class _untraced:
    """Suspend the tracer (if any) around untimed checks and extra set-ups."""

    def __init__(self, probe: Optional[Probe]) -> None:
        self.probe = probe

    def __enter__(self) -> None:
        if self.probe is not None:
            self.probe.tracer.uninstall()

    def __exit__(self, *exc_info) -> None:
        if self.probe is not None:
            self.probe.tracer.install()


def _setup_scope(probe: Optional[Probe], last: bool):
    """Trace only the last set-up, the one the timed phase goes on from.

    The per-layer counts then cover one set-up plus the timed phase,
    however often set-up is repeated for ``setup_s``.
    """
    return contextlib.nullcontext() if last else _untraced(probe)


# -- solve-10k -----------------------------------------------------------------


def run_solve(seed: int, seconds: float, sizes: Sizes, probe: Optional[Probe]) -> Run:
    run = Run()
    for attempt in range(sizes.setup_repeats):
        with _setup_scope(probe, attempt == sizes.setup_repeats - 1):
            started = time.perf_counter()
            system = _seeded_system(sizes.solve_clients, seed)
            run.setup_s.append(time.perf_counter() - started)
    config = scale_config(sizes.solve_clients, sizes.shard_size, seed)

    def timed_shard(task_fn):
        def shard_task(task):
            result = task_fn(task)
            run.latencies_s.append(result.solve_seconds)
            return result

        return shard_task

    with _Patch(sharded, "_shard_solve_task", timed_shard), _TimedPhase(probe) as phase:
        with ShardedAllocator(config) as allocator:
            result = allocator.solve(system)
            telemetry = dict(allocator.last_telemetry)
        dual = dual_bound(system, target=result.breakdown.total_profit)
    run.work_s = phase.seconds

    allocation = result.allocation
    with _untraced(probe):
        rescored = evaluate_profit(system, allocation, require_all_served=False)
        violations = find_violations(system, allocation, require_all_served=False)
    served = sum(
        1 for cid in system.client_ids() if allocation.entries_of_client(cid)
    )
    # An unserved client is the solve's failure: offered, never applied.
    run.offered = sizes.solve_clients
    run.applied = run.disposed_timed = served
    run.profit = rescored.total_profit
    run.bound = dual.bound
    run.check(
        _profit_agrees(result.breakdown.total_profit, rescored.total_profit),
        f"reported profit {result.breakdown.total_profit!r} != "
        f"re-scored {rescored.total_profit!r}",
    )
    run.check(not violations, f"{len(violations)} violations, first: {violations[:1]}")
    run.check(dual.bound >= run.profit, f"dual bound {dual.bound} < profit {run.profit}")
    run.state.update(
        {
            "core.sharded.shards": telemetry.get("shard_count", 0),
            "core.sharded.shard_solve_max_s": telemetry.get(
                "shard_solve_seconds_max", 0.0
            ),
            "gap.dual.iterations": dual.iterations,
        }
    )
    return run


# -- serve workloads: shared driving -----------------------------------------------


class _Flow:
    """Accounting around one router: what was fed, applied, rejected.

    Each engine's ``apply`` is wrapped on the instance to count outcomes
    and time successful applies; a non-:class:`ServiceError` exception
    marks the shard dead (its consumer task dies with it).  The wrapper
    looks ``apply`` up on the class at every call, so it is traced
    exactly while the tracer is installed.
    """

    def __init__(self, router: ServiceRouter) -> None:
        self.router = router
        self.fed = 0
        self.applied = 0
        self.rejected = 0
        self.crashed = 0
        self.dead: Dict[int, str] = {}
        self.timing = False
        self.latencies_s: List[float] = []
        for shard_id, engine in enumerate(router.engines):
            self._instrument(shard_id, engine)

    def _instrument(self, shard_id: int, engine: AllocationService) -> None:
        cls = type(engine)
        clock = time.perf_counter

        def counted(event):
            started = clock()
            try:
                outcome = cls.apply(engine, event)
            except ServiceError:
                self.rejected += 1
                raise
            except Exception as exc:
                self.crashed += 1
                self.dead.setdefault(shard_id, f"{type(exc).__name__}: {exc}")
                raise
            if self.timing:
                self.latencies_s.append(clock() - started)
            self.applied += 1
            return outcome

        engine.apply = counted

    @property
    def shed(self) -> int:
        return len(self.router.shed_log)

    def disposed(self) -> int:
        return self.applied + self.rejected + self.shed

    def progress(self) -> Tuple:
        return (
            self.fed,
            self.applied + self.rejected + self.crashed,
            self.shed,
            tuple(engine.seq for engine in self.router.engines),
        )

    async def guard(self, run_coro, target: int) -> bool:
        """Await one router run; False if it stalled behind a dead shard.

        ``target`` is the disposition count at which every event fed so
        far has been applied, rejected or shed.  While it is not reached
        and nothing moves for :data:`QUIET_ROUNDS` scheduler rounds, the
        run is cancelled: the undisposed events stay counted as failed.
        """
        task = asyncio.ensure_future(run_coro)
        last = None
        quiet = 0
        while not task.done():
            await asyncio.sleep(0)
            current = self.progress()
            quiet = quiet + 1 if current == last else 0
            last = current
            if quiet >= QUIET_ROUNDS and self.disposed() < target:
                task.cancel()
                break
        try:
            await task
        except asyncio.CancelledError:
            return False
        except Exception:
            # A consumer that died on its last queued event surfaces here
            # (its crash is already recorded); anything else is a bug.
            if not self.dead:
                raise
        return not self.dead


def _shard_checks(run: Run, flow: _Flow, closed_loop: bool) -> None:
    """Profit re-score, invariants and dual bound on every live shard."""
    for shard_id, engine in enumerate(flow.router.engines):
        if shard_id in flow.dead:
            continue
        rescored = evaluate_profit(
            engine.system, engine.allocation, require_all_served=False
        ).total_profit
        run.check(
            _profit_agrees(engine.profit(), rescored),
            f"shard {shard_id}: reported profit {engine.profit()!r} != "
            f"re-scored {rescored!r}",
        )
        violations = find_violations(engine.system, engine.allocation)
        run.check(
            not violations,
            f"shard {shard_id}: {len(violations)} violations, first: {violations[:1]}",
        )
        bound = dual_bound(engine.system).bound if engine.system.clients else 0.0
        run.check(bound >= rescored, f"shard {shard_id}: dual {bound} < profit {rescored}")
        run.profit += rescored
        run.bound += bound
    if closed_loop:
        run.check(flow.shed == 0, f"closed loop shed {flow.shed} events")


def _absorb(run: Run, flow: _Flow) -> None:
    run.applied += flow.applied
    run.rejected += flow.rejected
    run.shed += flow.shed
    run.latencies_s.extend(flow.latencies_s)


def _engine_state(run: Run, routers: Sequence[Tuple[ServiceRouter, _Flow]]) -> None:
    """Engine/router counters for the per-layer report (traced pass)."""
    swaps = stranded = shed = peak = 0
    for router, flow in routers:
        shed += flow.shed
        for engine in router.engines:
            swaps += engine.metrics.counters.get("reoptimizations_swapped", 0)
            stranded += engine.metrics.counters.get("clients_stranded", 0)
        report = router.report()
        peak = max([peak] + [s["peak_queue_depth"] for s in report["shards"]])
    run.state.update(
        {
            "service.engine.reopt_swaps": swaps,
            "service.engine.stranded": stranded,
            "service.router.shed": shed,
            "service.router.peak_queue_depth": peak,
        }
    )


# -- serve-churn ---------------------------------------------------------------


def run_churn(
    seed: int,
    seconds: float,
    sizes: Sizes,
    probe: Optional[Probe],
    workdir: str,
    verify_replay: bool,
) -> Run:
    run = Run()
    epochs = max(2, round(seconds))
    driver = TraceDriverConfig(
        pattern="random_walk",
        num_epochs=epochs,
        seed=seed,
        churn_probability=1.0,
        failure_probability=0.5,
    )

    async def main() -> None:
        router: Optional[ServiceRouter] = None
        for attempt in range(sizes.setup_repeats):
            journal_dir = os.path.join(workdir, f"churn-{attempt}")
            os.makedirs(journal_dir)
            if router is not None:
                router.close()
            with _setup_scope(probe, attempt == sizes.setup_repeats - 1):
                started = time.perf_counter()
                system = generate_system(sizes.churn_clients, seed=FLEET_SEED)
                batches = generate_epoch_events(system, driver)
                router = ServiceRouter(
                    empty_copy(system),
                    router=RouterPolicy(num_shards=4),
                    config=SolverConfig(seed=seed),
                    journal_dir=journal_dir,
                )
                flow = _Flow(router)
                flow.fed += len(batches[0])
                alive = await flow.guard(
                    router.run_closed_loop_async(batches[0]), len(batches[0])
                )
                run.setup_s.append(time.perf_counter() - started)
        run.offered = sum(len(batch) for batch in batches)
        flow.timing = True
        before = flow.disposed()
        with _TimedPhase(probe) as phase:
            for batch in batches[1:]:
                if not alive:
                    break
                flow.fed += len(batch)
                alive = await flow.guard(
                    router.run_closed_loop_async(batch), flow.disposed() + len(batch)
                )
        run.work_s = phase.seconds
        run.disposed_timed = flow.disposed() - before
        _absorb(run, flow)
        with _untraced(probe):
            _shard_checks(run, flow, closed_loop=True)
            for shard_id in range(router.num_shards) if verify_replay else ():
                if shard_id in flow.dead:
                    continue
                live, replayed = router.verify_shard_replay(shard_id)
                run.check(
                    live == replayed,
                    f"shard {shard_id} replay diverged: {live[:12]} != {replayed[:12]}",
                )
        if probe is not None:
            _engine_state(run, [(router, flow)])
        for shard_id, reason in flow.dead.items():
            print(f"serve-churn: shard {shard_id} died: {reason}", file=sys.stderr)
        router.close()

    asyncio.run(main())
    return run


# -- serve-overload --------------------------------------------------------------


def run_overload(
    seed: int, seconds: float, sizes: Sizes, probe: Optional[Probe]
) -> Run:
    run = Run()
    episodes = max(2, round(seconds))
    templates = overload_system(sizes.overload_clients, seed=FLEET_SEED)
    routers: List[Tuple[ServiceRouter, _Flow]] = []

    async def episode(index: int) -> None:
        episode_seed = seed * 1_000 + index
        num_events = sizes.overload_warmup_events + sizes.overload_timed_events
        with _setup_scope(probe, index == episodes - 1):
            started = time.perf_counter()
            bursts = generate_load(
                templates,
                LoadGenConfig(
                    num_events=num_events,
                    arrival_rate=500.0,
                    burst_mean=6.0,
                    admit_weight=0.6,
                    depart_weight=0.2,
                    rate_update_weight=0.2,
                    seed=episode_seed,
                ),
            )
            split = 0
            warm = 0
            while warm < sizes.overload_warmup_events:
                warm += len(bursts[split].events)
                split += 1
            router = ServiceRouter(
                empty_copy(templates),
                router=RouterPolicy(
                    num_shards=4, queue_budget=64, batch_size=16, pending_budget=64
                ),
                config=SolverConfig(seed=episode_seed),
                policy=ServicePolicy(drift_threshold=50.0),
                admission=OpportunityCost(),
                pricing=PricingSchedule.surge(),
            )
            flow = _Flow(router)
            flow.fed += warm
            alive = await flow.guard(router.run_open_loop_async(bursts[:split]), warm)
            run.setup_s.append(time.perf_counter() - started)
        run.offered += sum(len(burst.events) for burst in bursts)

        flow.timing = True
        before = flow.disposed()
        timed = sum(len(burst.events) for burst in bursts[split:])
        with _TimedPhase(probe) as phase:
            if alive:
                flow.fed += timed
                await flow.guard(
                    router.run_open_loop_async(bursts[split:]), flow.disposed() + timed
                )
        run.work_s += phase.seconds
        run.disposed_timed += flow.disposed() - before
        _absorb(run, flow)
        with _untraced(probe):
            _shard_checks(run, flow, closed_loop=False)
        for shard_id, reason in flow.dead.items():
            print(
                f"serve-overload: episode {index} shard {shard_id} died: {reason}",
                file=sys.stderr,
            )
        if probe is not None:
            routers.append((router, flow))
        router.close()

    async def main() -> None:
        for index in range(episodes):
            await episode(index)

    asyncio.run(main())
    # Profit is a rate of one fleet: report the episodes' mean, not their sum.
    run.profit /= episodes
    run.bound /= episodes
    if probe is not None:
        _engine_state(run, routers)
    return run


# -- metrics -----------------------------------------------------------------------

WORKLOADS = ("solve-10k", "serve-churn", "serve-overload")

#: End-to-end metrics with units, as BENCHMARK.json lists them.
END_TO_END = (
    ("setup_s", "s"),
    ("work_s", "s"),
    ("events_per_s", "1/s"),
    ("event_p50_ms", "ms"),
    ("event_p90_ms", "ms"),
    ("profit", "usd/t"),
    ("profit_gap", "ratio"),
    ("served_share", "ratio"),
    ("disposed_share", "ratio"),
    ("peak_rss_mb", "MB"),
)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run) -> Dict[str, float]:
    offered = max(1, run.offered)
    return {
        "setup_s": _median(run.setup_s),
        "work_s": run.work_s,
        "events_per_s": run.disposed_timed / run.work_s if run.work_s > 0 else 0.0,
        "event_p50_ms": _quantile_ms(run.latencies_s, 0.50),
        "event_p90_ms": _quantile_ms(run.latencies_s, 0.90),
        "profit": run.profit,
        "profit_gap": 1.0 - run.profit / run.bound if run.bound > 0 else 1.0,
        "served_share": run.applied / offered,
        "disposed_share": 1.0 - run.failed / offered,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _run_once(
    workload: str,
    seed: int,
    seconds: float,
    sizes: Sizes,
    probe: Optional[Probe],
    workdir: str,
    verify_replay: bool,
) -> Run:
    if workload == "solve-10k":
        return run_solve(seed, seconds, sizes, probe)
    if workload == "serve-churn":
        return run_churn(seed, seconds, sizes, probe, workdir, verify_replay)
    if workload == "serve-overload":
        return run_overload(seed, seconds, sizes, probe)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    sizes: Sizes = Sizes(),
) -> Dict[str, Any]:
    """One benchmark invocation; returns the result object to print.

    Untraced: one pass, every end-to-end metric.  Traced: an untraced
    pass (the overhead reference), then a pass with every layer wrapped,
    reporting every per-layer metric; the trace is written to
    ``workdir/trace-<workload>-<seed>.json``.
    """
    os.makedirs(workdir, exist_ok=True)
    scratch = os.path.join(workdir, f"run-{os.getpid()}")
    passes: List[Run] = []
    try:
        os.makedirs(scratch)
        plain_dir = os.path.join(scratch, "plain")
        os.makedirs(plain_dir)
        plain = _run_once(
            workload, seed, seconds, sizes, None, plain_dir, verify_replay=False
        )
        passes.append(plain)
        print(
            f"{workload}: event_p50_ms/event_p90_ms over "
            f"{len(plain.latencies_s)} samples",
            flush=True,
        )
        if not trace:
            values = end_to_end(plain)
            metrics = {
                name: {"value": values[name], "unit": unit} for name, unit in END_TO_END
            }
        else:
            tracer = Tracer(LAYERS)
            traced_dir = os.path.join(scratch, "traced")
            os.makedirs(traced_dir)
            gc.collect()
            with _CacheStats() as cache_stats, tracer:
                traced = _run_once(
                    workload,
                    seed,
                    seconds,
                    sizes,
                    Probe(tracer, cache_stats),
                    traced_dir,
                    verify_replay=True,
                )
            passes.append(traced)
            state = dict(traced.state)
            state["core.cache.curve_hit_ratio"] = cache_stats.curve_hit_ratio()
            state["bench.failed_share"] = traced.failed / max(1, traced.offered)
            state["bench.latency_samples"] = len(traced.latencies_s)
            state["trace.work_s"] = traced.work_s
            state["trace.untraced_work_s"] = plain.work_s
            state["trace.overhead_share"] = (
                traced.work_s / plain.work_s - 1.0 if plain.work_s > 0 else 0.0
            )
            root_self = tracer.self_s[0]
            state["trace.attributed_share"] = (
                1.0 - root_self / tracer.root_s if tracer.root_s > 0 else 0.0
            )
            metrics = per_layer_metrics(tracer, state)
            tracer.write(
                os.path.join(workdir, f"trace-{workload}-{seed}.json"),
                {name: entry["value"] for name, entry in metrics.items()},
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failures = [message for run in passes for message in run.failures]
    for message in failures:
        print(f"{workload}: check failed: {message}", file=sys.stderr)
    last = passes[-1]
    return {
        "correct": not failures,
        "attempted": max(1, last.offered),
        "failed": last.failed,
        "metrics": metrics,
    }
