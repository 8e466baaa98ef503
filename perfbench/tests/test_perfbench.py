"""Tests of the benchmark itself: its contract, metric sets, checks and tracer.

Runs are shortened by lowering the step and setup counts; the seconds are 0,
so each run does just its minimum number of operations.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import mac
from mac import pipeline
from perfbench import run as runner
from perfbench import workloads
from perfbench.tracer import Tracer, mac_targets

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def quick(monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_POINTS", 2)
    monkeypatch.setattr(workloads, "SETUP_REPEATS", 2)
    monkeypatch.setattr(workloads, "LOSS_STEPS", (2, 4))
    monkeypatch.setattr(workloads, "MIN_OPS", 4)
    monkeypatch.setattr(workloads, "RSS_OPS", 2)


def run_cli(capsys, workload, seed=0, trace=0):
    assert runner.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                        "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    names = NAMES[:]
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in SPEC[section]:
            assert set(m) == keys
            assert UNIT_RE.match(m["unit"]) and m["better"] in ("lower", "higher")
            names.append(m["name"])
    assert all(NAME_RE.match(n) for n in names)
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert bounds["setup_s"] == max(bounds.values())
    assert set(NAMES) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", NAMES)
def test_every_end_to_end_metric_with_its_unit(quick, capsys, workload):
    meta, result = run_cli(capsys, workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert meta["meta"]["seed"] == 0 and meta["meta"]["src_lines"] > 0
    assert meta["meta"]["threads"]["MAC_NUM_THREADS"] == "1"


@pytest.mark.parametrize("workload", NAMES)
def test_every_per_layer_metric_and_self_times_fit_the_op(quick, capsys, workload):
    _, result = run_cli(capsys, workload, trace=1)
    assert result["correct"]
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    self_ms = sum(v for k, v in metrics.items() if k.endswith(".self_ms"))
    assert self_ms <= metrics["trace.op_ms"]
    assert 0 < metrics["trace.coverage"] <= 1
    # the mel front-end runs only for clips the captioner has never seen
    assert (metrics["audio.mel.calls"] > 0) == (workload == "caption_decode")
    training = workload.startswith("train_")
    assert (metrics["tensor.tape_nodes"] > 0) == training
    assert (metrics["pipeline.decode_steps"] > 0) == (not training)


def test_blocks_average_whole_blocks(monkeypatch):
    monkeypatch.setattr(workloads, "BLOCK_S", 1.0)
    monkeypatch.setattr(workloads, "reference_s", lambda: 0.5)
    blocks = workloads.Blocks()
    for seconds, items in zip([0.25, 0.25, 0.5, 0.2, 0.9, 0.1], [2, 2, 4, 1, 1, 1]):
        blocks.add(seconds, items)
    blocks.finish()
    # the short last block (0.1 s) is dropped
    assert blocks.blocks == [(1.0 / 3, 8.0, 0.5), (0.55, 2 / 1.1, 0.5)]
    only = workloads.Blocks()
    only.add(0.1, 1)
    only.add(0.3, 1)
    only.finish()
    assert only.blocks == [(0.2, 5.0, 0.5)]


def test_reference_kernel_does_not_touch_the_program():
    tracer = Tracer(mac_targets(mac))
    with tracer.installed():
        assert workloads.reference_s() > 0
    assert not tracer.calls


def test_seed_changes_inputs_but_not_the_metric_set(quick, capsys, tmp_path):
    inputs, metric_sets = [], []
    for seed in (0, 1):
        train = workloads.WORKLOADS["train_time_major"](seed, str(tmp_path))
        train.setup()
        caption = workloads.WORKLOADS["caption_decode"](seed, str(tmp_path))
        caption.prepare()
        inputs.append((
            [s.audio["synthetic"] for s in train.batch],
            [s.audio["synthetic"] for s in caption.eval_set],
            [caption.next_input() for _ in range(3)],
        ))
        metric_sets.append(set(run_cli(capsys, "train_concat", seed)[1]["metrics"]))
    for a, b in zip(*inputs):
        assert a != b
    assert metric_sets[0] == metric_sets[1]


def test_tracing_leaves_training_bit_identical(quick, tmp_path):
    losses, nodes = [], []
    for traced in (False, True, True):
        w = workloads.WORKLOADS["train_concat"](3, str(tmp_path))
        w.setup()
        tracer = Tracer(mac_targets(mac))
        for _ in range(3):
            if traced:
                with tracer.installed(), tracer.op():
                    w.check_op(w.batch, w.op(w.batch))
            else:
                w.check_op(w.batch, w.op(w.batch))
        losses.append(w.losses)
        nodes.append(dict(tracer.counts))
    assert losses[0] == losses[1] == losses[2]
    assert nodes[1] == nodes[2] and nodes[1]["tensor.tape_nodes"] > 0


def test_tracer_restores_every_wrapped_function():
    targets = mac_targets(mac)
    before = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer(targets)
    with pytest.raises(KeyError):
        with tracer.installed():
            assert vars(targets[0][0])[targets[0][1]] is not before[0]
            raise KeyError("leave the block early")
    assert [vars(owner)[attr] for owner, attr, _, _ in targets] == before


def test_failed_checks_count_against_attempted(quick, capsys, monkeypatch):
    monkeypatch.setattr(pipeline, "generate_greedy", lambda *a, **k: "")
    _, result = run_cli(capsys, "caption_decode")
    assert not result["correct"]
    assert result["failed"] == workloads.MIN_OPS
    assert result["attempted"] == workloads.MIN_OPS + workloads.DECODE_CHECKS


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", NAMES[0],
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert done.stdout == ""
