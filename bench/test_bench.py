"""Tests of the benchmark itself, each workload at a tiny size.

Run from the repository root:

    python -m pytest bench/test_bench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import limitalg as la  # noqa: E402
from limitalg import cli, detect  # noqa: E402
from limitalg.errors import NotReflexive  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_spec_names_the_workloads_and_metrics(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.per_layer_units(tracing)
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_untraced_run_is_correct_and_reports_every_metric(name, tmp_path):
    rec = run.measure(name, 3, 0, False, tiny=True, min_ops=1,
                      scratch=str(tmp_path))
    assert rec["failed"] == 0, rec["failures"]
    assert rec["correct"] and rec["attempted"] > 0
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == run.END_TO_END
    assert rec["metrics"]["success_ratio"]["value"] == 1.0
    assert all(m["value"] > 0 for m in rec["metrics"].values())
    assert all(op["kind"] for op in rec["round"])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_reports_layers_and_unwraps(name, tmp_path):
    rec = run.measure(name, 3, 0, True, tiny=True, min_ops=1,
                      scratch=str(tmp_path))
    assert rec["failed"] == 0, rec["failures"]
    assert {k: m["unit"] for k, m in rec["metrics"].items()} == \
        run.per_layer_units(tracing)
    assert rec["metrics"]["trace.overhead_ratio"]["value"] > 0
    table = rec["per_layer_all"]
    for layer, names in tracing.TRACED.items():
        for fn in names:
            for key in ("calls", "busy_s", "self_s"):
                assert f"{layer}.{fn}.{key}" in table
            assert (table[f"{layer}.{fn}.self_s"]["value"]
                    <= table[f"{layer}.{fn}.busy_s"]["value"] + 1e-12)
    assert tracing.leftover_wrappers() == []
    assert la.is_regular is detect.is_regular
    assert not hasattr(cli.main, "__wrapped__")


def test_same_seed_gives_same_inputs():
    def outcome(seed):
        ops = workloads.build("census", seed, tiny=True)
        return [(op.kind, op.sizes, op.run()[0].multiset()) for op in ops]
    assert outcome(4) == outcome(4)


def test_tracer_self_time_and_layer_errors():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.active = True
        phi = la.to_numeric(la.refinement_map(2, 1, 2))
        assert la.is_regular(phi).regular
        with pytest.raises(NotReflexive):
            la.build_digraph_algebra(2, [(1, 1)])
    finally:
        tracer.uninstall()
    s = tracer.summary()
    assert s["detect.is_regular.calls"] == 1
    assert s["detect.summand_census.calls"] == 1  # called from is_regular
    assert s["detect.is_regular.self_s"] < s["detect.is_regular.busy_s"]
    assert s["core.errors"] == 1
    assert s["detect.errors"] == 0
    assert s["detect.kernel_rows"] > 0
    parents = {row["name"]: row["parent"] for row in tracer.span_rows()}
    assert parents["detect.is_regular"] == -1
    assert parents["detect.summand_census"] >= 0
    assert tracing.leftover_wrappers() == []


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "census", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
