"""Tests of the benchmark itself: run with `python3 -m pytest perfbench -q`."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

import twistchar  # noqa: E402
from twistchar import characters, cyclotomic, factorization, linalg, partitions  # noqa: E402

COUNTS = (
    "cyclotomic.mul_calls",
    "cyclotomic.inv_calls",
    "linalg.det_calls",
    *(f"linalg.det_calls.n{k}" for k in range(1, 10)),
    "characters.weyl_calls",
    "characters.point_reuse_share",
    "factorization.vanish_share",
    "partitions.calls",
    "series.calls",
)


@pytest.mark.parametrize(
    "workload, limit, busy",
    [
        ("scan-standing", 160, "linalg.det_calls"),
        ("scan-t5-seeds", 70, "cyclotomic.mul_calls"),
        ("series-census", 2, "partitions.calls"),
    ],
)
def test_counts_repeat_across_traced_runs(workload, limit, busy):
    first, second = (run.run_child(workload, 0, 0, True, limit=limit) for _ in range(2))
    assert first["failed"] == second["failed"] == 0
    assert first["missing"] == []
    assert first["layer"][busy] > 0
    assert {k: first["layer"][k] for k in COUNTS} == {k: second["layer"][k] for k in COUNTS}


def test_every_reference_is_rebound_and_restored():
    det, mul = linalg.det, cyclotomic.CycloElem.__mul__
    tracer = Tracer()
    tracer.install()
    try:
        assert linalg.det is not det
        assert characters.det is factorization.det is twistchar.det is linalg.det
        assert cyclotomic.CycloElem.__rmul__ is cyclotomic.CycloElem.__mul__ is not mul
        fld = cyclotomic.field(3)
        x = fld.omega
        assert 2 * x == x * 2
        assert tracer.count("cyclotomic.CycloElem.__mul__") == 2
        assert characters.det([[x, fld.one], [fld.one, x]]) == x * x - 1
        assert tracer.totals()["linalg.det/n2"]["spans"] == 1
    finally:
        tracer.uninstall()
    assert characters.det is factorization.det is twistchar.det is linalg.det is det
    assert cyclotomic.CycloElem.__rmul__ is cyclotomic.CycloElem.__mul__ is mul


def test_generator_resumptions_are_spans_and_calls_are_counted():
    tracer = Tracer()
    tracer.install(function_targets=(), module_targets=("twistchar.partitions",))
    try:
        assert len(list(partitions.partitions_of(5))) == 7
    finally:
        tracer.uninstall()
    assert tracer.count("partitions.partitions_of") == 1
    # Seven yields plus the resumption that ends the generator.
    assert tracer.totals()["partitions.partitions_of/next"]["spans"] == 8


def test_missing_targets_are_reported_not_raised():
    tracer = Tracer()
    tracer.install(
        function_targets=(
            ("twistchar.linalg", "no_such_function"),
            ("twistchar.no_such_module", "f"),
            ("twistchar.cyclotomic", "NoSuchClass.method"),
        ),
        module_targets=("twistchar.no_such_module",),
    )
    tracer.uninstall()
    assert tracer.missing == [
        "twistchar.linalg:no_such_function",
        "twistchar.no_such_module:f",
        "twistchar.cyclotomic:NoSuchClass.method",
        "twistchar.no_such_module:*",
    ]
    assert tracer.layer_metrics()["linalg.det_calls"] == 0


def test_workload_inputs_depend_only_on_seed():
    for name in workloads.WORKLOADS:
        assert workloads.ops_for_pass(name, 3, 1) == workloads.ops_for_pass(name, 3, 1)
        assert workloads.ops_for_pass(name, 3, 1) != workloads.ops_for_pass(name, 4, 1)
    assert workloads.tail_percentile(1107) == 99
    assert workloads.tail_percentile(36) == 72


def test_fails_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", "scan-standing", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
