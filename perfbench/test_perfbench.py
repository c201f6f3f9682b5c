"""Tests of the benchmark's own code.

Run from the repository root: python3 -m pytest -q perfbench
"""

import dataclasses
import json
import multiprocessing
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import refkernel  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from horizon_lab.homogeneity import FieldSpec, Monomial  # noqa: E402
from oracle import oracle_tmax  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_identical_config(name):
    wl = workloads.WORKLOADS[name]
    first = workloads.config_text(wl, 7, wl.runs)
    assert workloads.config_text(wl, 7, wl.runs) == first
    assert workloads.config_text(wl, 8, wl.runs) != first


def test_kk_w1_sits_at_stratum_midpoints():
    # kk's type-I verdict fails for |w1| above about 0.23, so every seed
    # must put exactly half its runs beyond 0.25 and none near the edge
    wl = workloads.WORKLOADS["kk_sweep"]
    for seed in range(20):
        runs = workloads.config_document(wl, seed, wl.runs)["runs"]
        assert sorted(abs(r["y0"][3]) for r in runs) == [
            0.0625, 0.0625, 0.1875, 0.1875, 0.3125, 0.3125, 0.4375, 0.4375
        ]


def test_parallel_reference_stops_its_processes():
    with refkernel.ParallelReference(2, 1) as reference:
        wall, cpu = reference()
    assert wall > 0 and cpu > 0
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("y0,t0", [(0.5, 0.0), (2.0, 1.0), (10.0, -3.0)])
def test_oracle_scalar_quadratic(y0, t0):
    field = FieldSpec(
        variable_names=("y",),
        components=((Monomial(coeff=1.0, exponents=(2,)),),),
    )
    t_max = oracle_tmax(field, [y0], t0, 0, 1.0)
    assert t_max == pytest.approx(t0 + 1.0 / y0, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_prints_every_metric(name, trace, monkeypatch, capsys):
    tiny = dataclasses.replace(workloads.WORKLOADS[name], runs=2)
    monkeypatch.setitem(workloads.WORKLOADS, name, tiny)
    argv = ["--workload", name, "--seed", "0", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert not list(ROOT.glob(".perfbench-*"))
