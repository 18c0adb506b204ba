"""Behavioural tests for the stochastic optimizers' mechanics."""

import numpy as np
import pytest

from repro.baselines.annealing import (
    SimulatedAnnealingConfig,
    simulated_annealing,
)
from repro.baselines.genetic import GeneticConfig, genetic_search
from repro.config import SolverConfig
from repro.audit.invariants import find_violations


class TestAnnealingMechanics:
    def test_accepts_some_moves_when_warm(self, tiny, solver_config):
        result = simulated_annealing(
            tiny,
            SimulatedAnnealingConfig(iterations=60, initial_temperature=10.0),
            solver_config,
            seed=1,
        )
        # A warm schedule explores: a healthy fraction of moves accepted.
        assert result.accepted_moves > 5

    def test_cold_schedule_is_greedy(self, tiny, solver_config):
        greedy = simulated_annealing(
            tiny,
            SimulatedAnnealingConfig(
                iterations=60, initial_temperature=1e-4, min_temperature=1e-5
            ),
            solver_config,
            seed=1,
        )
        warm = simulated_annealing(
            tiny,
            SimulatedAnnealingConfig(iterations=60, initial_temperature=10.0),
            solver_config,
            seed=1,
        )
        # Near-zero temperature accepts (almost) only improvements.
        assert greedy.accepted_moves <= warm.accepted_moves

    def test_best_allocation_feasible_resources(self, tiny, solver_config):
        result = simulated_annealing(
            tiny,
            SimulatedAnnealingConfig(iterations=40),
            solver_config,
            seed=2,
        )
        assert result.best_allocation is not None
        hard = find_violations(
            tiny, result.best_allocation, require_all_served=False
        )
        assert hard == []


class TestGeneticMechanics:
    def test_elites_survive(self, tiny, solver_config):
        """Elitism: best fitness never decreases across generations."""
        short = genetic_search(
            tiny,
            GeneticConfig(population_size=8, generations=1, elite_count=2),
            solver_config,
            seed=5,
        )
        long = genetic_search(
            tiny,
            GeneticConfig(population_size=8, generations=6, elite_count=2),
            solver_config,
            seed=5,
        )
        assert long.best_profit >= short.best_profit - 1e-9

    def test_population_genomes_cover_all_clients(self, tiny, solver_config):
        result = genetic_search(
            tiny,
            GeneticConfig(population_size=6, generations=2),
            solver_config,
            seed=1,
        )
        assert set(result.best_assignment) == set(tiny.client_ids())

    def test_best_allocation_feasible_resources(self, tiny, solver_config):
        result = genetic_search(
            tiny,
            GeneticConfig(population_size=6, generations=3),
            solver_config,
            seed=3,
        )
        assert result.best_allocation is not None
        hard = find_violations(
            tiny, result.best_allocation, require_all_served=False
        )
        assert hard == []
