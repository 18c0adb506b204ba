"""Self-tests of the benchmark at tiny sizes.

Run from the repository root with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.service.engine import AllocationService

from perfbench import workloads
from perfbench.layers import per_layer_names
from perfbench.workloads import TINY, WORKLOADS, run_workload

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _units(section):
    return {entry["name"]: entry["unit"] for entry in SPEC[section]}


def test_spec_lists_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _units("end_to_end") == dict(workloads.END_TO_END)
    assert _units("per_layer") == dict(per_layer_names())
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tmp_path):
    result = run_workload(workload, seed=3, seconds=1, trace=False,
                          workdir=str(tmp_path), sizes=TINY)
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)
    json.dumps(result)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_emits_every_per_layer_metric(workload, tmp_path):
    result = run_workload(workload, seed=4, seconds=1, trace=True,
                          workdir=str(tmp_path), sizes=TINY)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    trace_file = tmp_path / f"trace-{workload}-4.json"
    spans = json.loads(trace_file.read_text())["spans"]
    assert len(spans["id"]) == len(spans["layer"]) == len(spans["parent"]) > 0
    assert set(spans["parent"]) <= set(spans["id"]) | {-1}


def test_traced_solve_attributes_its_work(tmp_path):
    metrics = run_workload("solve-10k", seed=5, seconds=1, trace=True,
                           workdir=str(tmp_path), sizes=TINY)["metrics"]
    assert metrics["core.sharded.shard_solve.calls"]["value"] > 0
    assert metrics["gap.dual.bound.calls"]["value"] == 1
    assert 0.0 < metrics["trace.attributed_share"]["value"] <= 1.0


def test_traced_counts_cover_one_setup(tmp_path):
    def traced(workload, sizes, seconds):
        metrics = run_workload(workload, seed=6, seconds=seconds, trace=True,
                               workdir=str(tmp_path), sizes=sizes)["metrics"]
        return {name: metrics[name]["value"] for name in (
            "workload.generate.calls", "service.engine.apply.admit.calls")}

    once = dataclasses.replace(TINY, setup_repeats=1)
    assert traced("serve-churn", TINY, 2) == traced("serve-churn", once, 2)
    # Overload sets up per episode: more episodes, more timed admits, but
    # only the last episode's set-up is traced.
    assert (traced("serve-overload", TINY, 2)["workload.generate.calls"]
            == traced("serve-overload", TINY, 3)["workload.generate.calls"])


def _raise_on_third_depart(monkeypatch):
    original = AllocationService._depart
    calls = {"n": 0}

    def depart(self, client_id):
        calls["n"] += 1
        if calls["n"] == 3:
            raise RuntimeError("injected engine fault")
        return original(self, client_id)

    monkeypatch.setattr(AllocationService, "_depart", depart)


def test_dead_shard_on_closed_loop_counts_as_failed(monkeypatch, capsys, tmp_path):
    _raise_on_third_depart(monkeypatch)
    run = workloads.run_churn(1, 8, TINY, None, str(tmp_path), verify_replay=True)
    assert "died: RuntimeError: injected engine fault" in capsys.readouterr().err
    assert run.failed > 0
    assert run.applied + run.shed + run.rejected + run.failed == run.offered
    assert not run.failures


def test_dead_shard_on_open_loop_counts_as_failed(monkeypatch, capsys):
    _raise_on_third_depart(monkeypatch)
    run = workloads.run_overload(2, 2, TINY, None)
    assert "died: RuntimeError: injected engine fault" in capsys.readouterr().err
    assert run.failed > 0
    assert run.applied + run.shed + run.rejected + run.failed == run.offered
    assert workloads.end_to_end(run)["disposed_share"] < 1.0


def test_command_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-10k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
