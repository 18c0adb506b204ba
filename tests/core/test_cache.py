"""Tests for the eq.-(16) curve store (MemoCache / CurveBlock).

The store's contract is *bitwise transparency*: every curve row served
from it must be exactly what a fresh evaluation would have produced.
These tests pin the machinery that contract rests on — two-tier
curve-block validation (epoch filter, then value compare), client
rate-epoch tokens, eviction, the per-block placement
slot, survival of blocks across snapshot/restore churn — and a property
over random mutation interleavings that compares the warm store against
a fresh one and against the scalar oracle after every step.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.assign as assign_module
from repro.config import SolverConfig
from repro.core.assign import (
    _client_curve_block,
    apply_placement,
    assign_distribute,
    best_placement,
)
from repro.core.cache import MemoCache
from repro.core.scoring import score_state
from repro.core.state import WorkingState
from repro.workload.generator import generate_system


@pytest.fixture
def cached_state(two_cluster_system):
    state = WorkingState(two_cluster_system)
    return state, state.cache


class TestAttachment:
    def test_cache_is_single_owner(self, two_cluster_system):
        # Epochs are state-local, so every state owns its own store.
        state = WorkingState(two_cluster_system)
        other = WorkingState(two_cluster_system)
        assert isinstance(state.cache, MemoCache)
        assert state.cache is not other.cache

    def test_no_cache_on_scalar_path(self, two_cluster_system):
        # The scalar path never consults the store: it is the reference
        # oracle the differential harness compares the production path to.
        state = WorkingState(two_cluster_system)
        cfg = SolverConfig(seed=0, use_vectorized_kernels=False)
        for client in two_cluster_system.clients:
            best_placement(state, client, cfg)
        assert not state.cache._blocks
        assert state.cache.stats["curve_misses"] == 0


class TestCurveBlockValidation:
    def test_rebuild_then_hit(self, cached_state, solver_config):
        state, cache = cached_state
        client = state.system.clients[0]
        block = _client_curve_block(state, client, solver_config, cache)
        assert cache.stats["curve_misses"] == 1
        again = _client_curve_block(state, client, solver_config, cache)
        assert again is block
        assert cache.stats["curve_hits"] == 1
        assert cache.stats["curve_patches"] == 0

    def test_epoch_churn_with_restored_values_is_a_hit(
        self, cached_state, solver_config
    ):
        # A rejected move bumps server epochs but returns the aggregates
        # to bitwise the same values; the block must revalidate, not
        # recompute (this is what makes warm replay passes all-hit).
        state, cache = cached_state
        client = state.system.clients[0]
        block = _client_curve_block(state, client, solver_config, cache)
        state.assign_client(1, 0)
        state.set_entry(1, 0, 1.0, 0.3, 0.2)
        state.remove_entry(1, 0)
        state.unassign_client(1)
        assert state._epoch_arr[state._sid_index[0]] > 0  # epochs did move
        again = _client_curve_block(state, client, solver_config, cache)
        assert again is block
        assert cache.stats["curve_patches"] == 0
        assert cache.stats["curve_hits"] == 1

    def test_changed_input_patches_only_that_row(
        self, cached_state, solver_config
    ):
        state, cache = cached_state
        client = state.system.clients[0]
        block = _client_curve_block(state, client, solver_config, cache)
        before = block.values.copy()
        state.assign_client(1, 0)
        state.set_entry(1, 0, 1.0, 0.3, 0.2)  # server 0 genuinely changed
        patched = _client_curve_block(state, client, solver_config, cache)
        assert patched is block
        assert cache.stats["curve_patches"] == 1
        idx = state._sid_index[0]
        others = np.delete(np.arange(len(block.values)), idx)
        assert np.array_equal(block.values[others], before[others])
        assert not np.array_equal(block.values[idx], before[idx])

    def test_patched_block_matches_fresh_build_bitwise(
        self, cached_state, solver_config
    ):
        state, cache = cached_state
        client = state.system.clients[0]
        _client_curve_block(state, client, solver_config, cache)
        state.assign_client(1, 0)
        state.set_entry(1, 0, 1.0, 0.3, 0.2)
        patched = _client_curve_block(state, client, solver_config, cache)

        fresh = _client_curve_block(state, client, solver_config, MemoCache())
        assert np.array_equal(patched.values, fresh.values)
        assert np.array_equal(patched.phi_p, fresh.phi_p)
        assert np.array_equal(patched.phi_b, fresh.phi_b)
        assert np.array_equal(patched.row_ok, fresh.row_ok)

    def test_client_token_bump_forces_rebuild(self, cached_state, solver_config):
        state, cache = cached_state
        client = state.system.clients[0]
        _client_curve_block(state, client, solver_config, cache)
        cache.invalidate_client(client.client_id)
        _client_curve_block(state, client, solver_config, cache)
        assert cache.stats["curve_misses"] == 2
        assert cache.stats["client_epoch_bumps"] == 1

    def test_eviction_clears_block_store(
        self, cached_state, solver_config, monkeypatch
    ):
        monkeypatch.setattr(assign_module, "MAX_CURVE_BLOCKS", 1)
        state, cache = cached_state
        for client in state.system.clients[:2]:
            best_placement(state, client, solver_config)
        assert cache.stats["evictions"] >= 1
        assert len(cache._blocks) <= 1


class TestPlacementSlot:
    def test_repeat_placement_is_served_from_the_block(
        self, cached_state, solver_config
    ):
        state, cache = cached_state
        client = state.system.clients[0]
        first = best_placement(state, client, solver_config)
        block = cache._blocks[client.client_id]
        assert block.placement is not None
        assert best_placement(state, client, solver_config) is first

    def test_other_exclusions_are_solved_afresh(
        self, cached_state, solver_config
    ):
        state, _ = cached_state
        client = state.system.clients[0]
        first = best_placement(state, client, solver_config)
        excluded = frozenset(first.entries)
        around = best_placement(
            state, client, solver_config, excluded_server_ids=excluded
        )
        assert around is not first
        assert around is None or not set(around.entries) & excluded

    def test_recomputed_row_drops_the_slot(self, cached_state, solver_config):
        state, cache = cached_state
        client, other = state.system.clients[:2]
        first = best_placement(state, client, solver_config)
        apply_placement(state, best_placement(state, other, solver_config))
        again = best_placement(state, client, solver_config)
        assert cache.stats["curve_patches"] >= 1
        assert again is not first
        fresh = best_placement(
            WorkingState(state.system, state.snapshot()), client, solver_config
        )
        assert again.entries == fresh.entries
        assert again.estimated_profit == fresh.estimated_profit


class TestStateReset:
    def test_restore_keeps_blocks_serving(self, cached_state, solver_config):
        # restore bumps every epoch, but value validation finds the
        # inputs came back.
        state, cache = cached_state
        client = state.system.clients[0]
        start = state.snapshot()
        placement = best_placement(state, client, solver_config)
        apply_placement(state, placement)
        state.restore(start)
        assert cache._blocks  # survived the reset
        patches = cache.stats["curve_patches"]
        misses = cache.stats["curve_misses"]
        _client_curve_block(state, client, solver_config, cache)
        assert cache.stats["curve_misses"] == misses
        assert cache.stats["curve_patches"] == patches

    def test_cached_solve_is_transparent_after_restore(
        self, two_cluster_system, solver_config
    ):
        state = WorkingState(two_cluster_system)
        start = state.snapshot()
        for client in two_cluster_system.clients:
            placement = best_placement(state, client, solver_config)
            if placement is not None:
                apply_placement(state, placement)
        state.restore(start)
        # Replay against the scalar oracle: every step must agree bitwise.
        scalar_cfg = SolverConfig(seed=0, use_vectorized_kernels=False)
        oracle = WorkingState(two_cluster_system)
        for client in two_cluster_system.clients:
            warm = best_placement(state, client, solver_config)
            plain = best_placement(oracle, client, scalar_cfg)
            assert (warm is None) == (plain is None)
            if warm is not None:
                assert warm.entries == plain.entries
                assert warm.estimated_profit == plain.estimated_profit
                apply_placement(state, warm)
                apply_placement(oracle, plain)
        assert score_state(state) == score_state(oracle)
        assert state.allocation == oracle.allocation


# -- property: warm store == fresh store == scalar oracle, bitwise ----------

_NUM_CLIENTS = 6
_GRANULARITY = 5

_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("set"),
            st.integers(0, _NUM_CLIENTS - 1),
            st.integers(0, 63),
            st.sampled_from([0.25, 0.5, 1.0]),
            st.sampled_from([0.02, 0.1, 0.3]),
        ),
        st.tuples(st.just("remove"), st.integers(0, _NUM_CLIENTS - 1)),
        st.tuples(
            st.just("move"), st.integers(0, _NUM_CLIENTS - 1), st.booleans()
        ),
        st.just(("snapshot",)),
        st.just(("restore",)),
        st.just(("canonicalize",)),
        st.tuples(
            st.just("swap"),
            st.integers(0, _NUM_CLIENTS - 1),
            st.sampled_from([1.0, 0.8, 1.25]),
            st.booleans(),
        ),
        st.tuples(st.just("price"), st.sampled_from([None, 0.0, 2.5])),
        st.tuples(st.just("fail"), st.integers(0, 63)),
    ),
    max_size=10,
)


def _same(warm, other) -> None:
    assert (warm is None) == (other is None)
    if warm is not None:
        assert warm.cluster_id == other.cluster_id
        assert warm.entries == other.entries
        assert warm.estimated_profit == other.estimated_profit


def _probe(state, client, config, failed):
    """Every placement question the solver and the service ask."""
    return [
        best_placement(state, client, config),
        best_placement(state, client, config, excluded_server_ids=failed),
    ] + [
        assign_distribute(state, client, kid, config, excluded_server_ids=failed)
        for kid in state.system.cluster_ids()
    ]


def _check_step(state: WorkingState, config: SolverConfig, failed) -> None:
    """Warm store vs a fresh store on the same state vs the scalar oracle."""
    scalar = dataclasses.replace(config, use_vectorized_kernels=False)
    for client in state.system.clients:
        warm = _probe(state, client, config, failed)
        store = state.cache
        state.cache = MemoCache()
        try:
            fresh = _probe(state, client, config, failed)
        finally:
            state.cache = store
        oracle = _probe(state, client, scalar, failed)
        for placed, other, reference in zip(warm, fresh, oracle):
            _same(placed, other)
            _same(placed, reference)


class TestStoreTransparencyProperty:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(ops=_ops)
    def test_warm_store_matches_fresh_store_and_scalar_oracle(self, ops):
        system = generate_system(num_clients=_NUM_CLIENTS, seed=3)
        base = SolverConfig(seed=0, alpha_granularity=_GRANULARITY)
        config = base
        state = WorkingState(system)
        saved = state.snapshot()
        server_ids = [s.server_id for s in system.servers()]
        failed = set()
        _check_step(state, config, failed)
        for op in ops:
            kind = op[0]
            if kind == "set":
                _, ci, si, alpha, share = op
                cid = system.clients[ci].client_id
                sid = server_ids[si % len(server_ids)]
                state.assign_client(cid, system.cluster_of_server(sid))
                state.set_entry(cid, sid, alpha, share, share)
            elif kind == "remove":
                cid = system.clients[op[1]].client_id
                for sid in list(state.allocation.entries_of_client(cid)):
                    state.remove_entry(cid, sid)
                    break
            elif kind == "move":
                _, ci, commit = op
                client = system.clients[ci]
                state.begin_txn()
                state.unassign_client(client.client_id)
                placement = best_placement(
                    state, client, config, excluded_server_ids=failed
                )
                if placement is not None:
                    apply_placement(state, placement)
                if commit:
                    state.commit_txn()
                else:
                    state.rollback_txn()
            elif kind == "snapshot":
                saved = state.snapshot()
            elif kind == "restore":
                state.restore(saved)
            elif kind == "canonicalize":
                state.canonicalize()
            elif kind == "swap":
                _, ci, factor, notify = op
                old = system.clients[ci]
                system.replace_client(
                    dataclasses.replace(
                        old, rate_predicted=old.rate_predicted * factor
                    )
                )
                if notify:
                    state.note_client_replaced(old.client_id)
            elif kind == "fail":
                failed ^= {server_ids[op[1] % len(server_ids)]}
            else:
                # Blocks do not key on prices: like the sharded runtime,
                # drop the store when the bandwidth prices change.
                price = op[1]
                state.cache.clear()
                config = dataclasses.replace(
                    base,
                    cluster_bandwidth_prices=(
                        None
                        if price is None
                        else ((system.cluster_ids()[0], price),)
                    ),
                )
            _check_step(state, config, failed)
