"""Configuration dataclasses shared across the library.

:class:`SolverConfig` collects every tunable of the paper's heuristic in
one validated place.  Paper defaults are used wherever the paper states a
value (e.g. 3 randomized initial solutions, section VI); the rest are
engineering knobs documented field by field.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class SolverConfig:
    """Tunables of the ``Resource_Alloc`` heuristic (section V).

    Attributes:
        num_initial_solutions: randomized greedy passes; the best one seeds
            the local search.  The paper uses 3.
        alpha_granularity: grid size ``G`` for the traffic-portion DP in
            ``Assign_Distribute``; alpha takes values ``g / G``.  The
            paper's complexity analysis is linear in this granularity.
        max_improvement_rounds: upper bound on the while-not-steady local
            search loop (a safety net; the loop normally exits on a
            sub-``improvement_tolerance`` round).
        improvement_tolerance: minimum absolute profit gain for a round of
            local search to count as progress.
        bandwidth_shadow_price: marginal cost assigned to one unit of a
            server's *communication* share inside the greedy constructor.
            Bandwidth has no energy cost in the paper's model, so without
            a shadow price the constructor would greedily exhaust it.
        capacity_price_factor: fraction of a server's fixed cost ``P0``
            folded into the constructor's per-share capacity price (for
            both resources, on top of ``P1`` / the bandwidth shadow
            price).  This is the "approximated profit ... captur[ing]
            incompleteness of information" of section V.A: a client that
            monopolizes a server's share at its myopically optimal level
            forces the next client onto a fresh server at cost ``P0``, so
            capacity must be priced at its system-wide opportunity cost
            for consolidation to emerge.  0 disables the amortization.
        min_share: numerical floor for any positive GPS share (the paper's
            constraint (7) epsilon).
        stability_margin: multiplicative headroom over the M/M/1 stability
            bound when computing the smallest admissible share, keeping
            response times finite under later perturbations.
        include_cluster_reassignment: run a cluster-level client
            reassignment pass inside each improvement round (section V:
            the local search "changes client assignment to decrease the
            resource saturation in some of clusters").  Disable to
            measure the contribution of the per-cluster moves alone.
        seed: seed for the randomized client orderings; ``None`` draws one
            from the OS.
        parallel_clusters: evaluate candidate clusters with a process pool
            (the paper's "distributed decision making").  Pure speed knob;
            results are identical.
        num_workers: pool size when ``parallel_clusters`` is set; ``None``
            means one worker per cluster.
        use_vectorized_kernels: compute the eq.-(16) profit curves and the
            traffic-split DP with the NumPy kernels
            (:func:`repro.core.assign.batched_server_curves`,
            :func:`repro.optim.dp.combine_curve_batches`), serving the
            curves from the working state's
            :class:`~repro.core.cache.MemoCache`, instead of the scalar
            reference loops.  Pure speed knob: the kernels evaluate the
            same IEEE-754 expressions element-wise and the store serves
            only rows whose inputs are unchanged, so results are
            bit-identical (property-tested).  ``False`` selects the
            scalar reference oracle the differential audit and the tests
            compare against.
        use_delta_scoring: attach a
            :class:`~repro.core.delta.DeltaScorer` to the solver's working
            state so accept-if-better gates re-score only the clients and
            servers a move touched, instead of re-evaluating the whole
            datacenter.  Pure speed knob; the delta path is held to the
            exact evaluator within 1e-9 (see ``validate_delta_scoring``).
        validate_delta_scoring: debug flag — on every incremental profit
            query, recompute the full :func:`repro.model.profit.evaluate_profit`
            score and raise if the two disagree beyond 1e-9.  Slow;
            intended for tests and for diagnosing scorer drift.
        cluster_bandwidth_prices: per-cluster overrides of
            ``bandwidth_shadow_price`` as a sorted tuple of
            ``(cluster_id, price)`` pairs; clusters not listed keep the
            flat price.  This is the coordination signal of the sharded
            solver: the coordinator raises a congested cluster's price
            between rounds, and every shard's eq.-(16) curves respond by
            steering traffic elsewhere.  ``None`` (the default) keeps the
            flat price and the kernels' arithmetic bit-identical to
            previous releases.
        num_shards: client partitions for the sharded hierarchical solver
            (:class:`~repro.core.sharded.ShardedAllocator`); 1 disables
            sharding.  Each shard solves a disjoint slice of clients and
            servers, so merged allocations are feasible by construction.
        shard_coordination_rounds: price-coordination rounds after the
            initial shard solves (each round re-prices clusters from the
            merged usage summary and lets every shard warm-improve).
        shard_price_gain: sensitivity of the per-cluster price update,
            ``price_k = base * (1 + gain * utilization_k)``.
        shard_final_rounds: full improvement rounds run sequentially on
            the *merged* allocation after coordination ends — the
            hierarchy's repair step (the per-cluster distributed solver
            does the same with its final reassignment passes).  Each
            round sees the whole system, so moves the partition forbade
            (cross-shard placements, global share rebalancing) become
            available; this is what closes most of the sharding gap.
        shard_levels: depth of the sharded solver's coordinator tree.
            1 (the default) is the flat PR-6 topology: one coordinator
            sees every shard spec and merges every row set.  2 groups
            shards into super-shards: the root coordinates super-shard
            summaries only, each super-shard coordinates its own member
            shards, and row merges climb the tree pairwise — so no
            single merge call ever materializes more than one level's
            rows.  The shard *plan* is identical at every level (the
            tree only changes who coordinates whom), and the merged
            allocation is bitwise-identical to the flat merge of the
            same plan (property-tested).
        adaptive_shard_sizing: re-plan the shard size from measured
            per-shard solve cost.  The first coordination round times
            every shard solve; if the observed cost per client is
            superlinear in shard size (it is — the local search's
            shutdown sweep is quadratic-ish in hosted clients), the
            plan is re-cut toward the measured sweet spot before the
            remaining rounds.  Off by default: re-cutting changes which
            clients share a shard, hence the merged result (still
            audit-clean, but not bit-comparable to the fixed plan).
        use_txn_shutdown: roll back rejected server-shutdown candidates
            with the undo-log transaction machinery instead of a full
            snapshot/restore.  A rejected candidate then costs
            O(mutations it made) instead of O(live entries) — the
            dominant win inside large-shard solves, where
            ``turn_off_servers`` tries dozens of victims per round and
            rejects most of them.  Off by default because undo-replay
            is not *bitwise* identical to snapshot/restore (dict
            iteration order after remove/re-add, incremental aggregate
            ulp drift) even though it is semantically exact; profiles
            that require bit-reproducibility with historical runs keep
            the snapshot path.
        parallel_polish: partition each merged-state polish round
            (``shard_final_rounds``) by cluster across the persistent
            worker pool — the DistributedAllocator pattern applied to
            the sharded solver's repair step — instead of improving the
            merged state sequentially.  A final sequential reassignment
            pass restores the cross-cluster move, exactly as in
            :class:`~repro.core.distributed.DistributedAllocator`.
    """

    num_initial_solutions: int = 3
    alpha_granularity: int = 10
    max_improvement_rounds: int = 25
    improvement_tolerance: float = 1e-6
    bandwidth_shadow_price: float = 0.25
    capacity_price_factor: float = 1.0
    min_share: float = 1e-6
    stability_margin: float = 1.05
    include_cluster_reassignment: bool = True
    seed: Optional[int] = None
    parallel_clusters: bool = False
    num_workers: Optional[int] = None
    use_vectorized_kernels: bool = True
    use_delta_scoring: bool = True
    validate_delta_scoring: bool = False
    cluster_bandwidth_prices: Optional[Tuple[Tuple[int, float], ...]] = None
    num_shards: int = 1
    shard_coordination_rounds: int = 1
    shard_price_gain: float = 0.5
    shard_final_rounds: int = 3
    shard_levels: int = 1
    adaptive_shard_sizing: bool = False
    use_txn_shutdown: bool = False
    parallel_polish: bool = False

    def __post_init__(self) -> None:
        if self.num_initial_solutions < 1:
            raise ConfigurationError("num_initial_solutions must be >= 1")
        if self.alpha_granularity < 1:
            raise ConfigurationError("alpha_granularity must be >= 1")
        if self.max_improvement_rounds < 0:
            raise ConfigurationError("max_improvement_rounds must be >= 0")
        if self.improvement_tolerance < 0:
            raise ConfigurationError("improvement_tolerance must be >= 0")
        if self.bandwidth_shadow_price < 0:
            raise ConfigurationError("bandwidth_shadow_price must be >= 0")
        if self.capacity_price_factor < 0:
            raise ConfigurationError("capacity_price_factor must be >= 0")
        if not 0 < self.min_share < 1:
            raise ConfigurationError("min_share must lie in (0, 1)")
        if self.stability_margin < 1.0:
            raise ConfigurationError("stability_margin must be >= 1")
        if self.num_workers is not None and self.num_workers < 1:
            raise ConfigurationError("num_workers must be >= 1 when given")
        if self.cluster_bandwidth_prices is not None:
            seen = set()
            for pair in self.cluster_bandwidth_prices:
                if len(pair) != 2:
                    raise ConfigurationError(
                        "cluster_bandwidth_prices entries must be "
                        "(cluster_id, price) pairs"
                    )
                cluster_id, price = pair
                if cluster_id in seen:
                    raise ConfigurationError(
                        f"duplicate cluster id {cluster_id} in "
                        "cluster_bandwidth_prices"
                    )
                seen.add(cluster_id)
                if price < 0:
                    raise ConfigurationError(
                        "cluster_bandwidth_prices prices must be >= 0"
                    )
        if self.num_shards < 1:
            raise ConfigurationError("num_shards must be >= 1")
        if self.shard_coordination_rounds < 0:
            raise ConfigurationError("shard_coordination_rounds must be >= 0")
        if self.shard_price_gain < 0:
            raise ConfigurationError("shard_price_gain must be >= 0")
        if self.shard_final_rounds < 0:
            raise ConfigurationError("shard_final_rounds must be >= 0")
        if self.shard_levels not in (1, 2):
            raise ConfigurationError("shard_levels must be 1 or 2")
