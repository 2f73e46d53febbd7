"""Tests of the benchmark itself.

    python3 -m pytest bench -q

They run every workload for one round, so they take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
from workloads import WORKLOADS, CertifyD2  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_names_match_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", ["fill", "certify-d2"])
def test_corrupted_reference_counts_as_failure(name, tmp_path):
    _, wl = run.set_up(name, tmp_path)
    frozen, refs = run.frozen_and_refs(name, tmp_path)
    first = next(wl.rounds(0))
    bad = dict(refs)
    bad[first[0]] = "corrupted"
    m = run.measure(wl, frozen, bad, wl.rounds(0), 0, None)
    assert m["attempted"] == len(first)
    assert m["failed"] == 1
    assert "differs from the reference" in m["errors"][0]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_every_metric_prints_with_its_unit(name, trace, capsys):
    code = run.main(["--workload", name, "--seed", "5", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result, record = json.loads(lines[-1]), json.loads(lines[-2])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for k, v in record["metrics"].items():
        assert v["unit"] == expected[k] and v["samples"]
    for key in ("nproc", "cpu_model", "python", "git_commit", "seed"):
        assert record[key] not in (None, "")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        # module self times and the unattributed residual add up to the wall time
        modules = sum(values[f"{m}.self_s"] for m in run.MODULES)
        assert modules + values["trace.residual_s"] == pytest.approx(values["trace.op_wall_s"])
        assert 0 <= values["trace.residual_s"] < 0.05 * values["trace.op_wall_s"]
    else:
        assert all(v > 0 for v in values.values())
        timings = record["timings"]
        assert set(timings) == {"op_per_s", "op_s_p50", "op_s_tail", "frozen_op_per_s", "frozen_op_s_tail"}
        assert all(v["value"] > 0 and v["unit"] and v["samples"] for v in timings.values())


def test_frozen_package_is_separate_from_src():
    current = run.load_lib()
    frozen = run.load_lib("cubecolor_frozen", run.FROZEN)
    assert Path(frozen.package.__file__).parent.parent == run.FROZEN
    assert frozen.chains.RectChain is not current.chains.RectChain
    g = frozen.gridcolor.parse_coloring("2 2 2\n0 1\n1 0\n")
    assert frozen.gridcolor.components(g).max_size == 2


@pytest.mark.parametrize("name", [n for n, w in WORKLOADS.items() if w.pool_size > 1])
def test_seed_changes_the_inputs(name, tmp_path):
    wl = WORKLOADS[name](None, tmp_path)

    def first_rounds(seed):
        gen = wl.rounds(seed)
        return [next(gen) for _ in range(4)]

    assert first_rounds(1) == first_rounds(1)
    assert first_rounds(1) != first_rounds(2)


def test_certify_d2_inputs_never_share_n_and_delta(tmp_path):
    wl = CertifyD2(None, tmp_path)
    pairs = []
    for key in wl.all_keys():
        argv = wl.prepare(key)
        n = int(Path(argv[1]).read_text().split()[1])
        delta = Fraction(argv[3])
        assert 0 < delta < Fraction(1, 4 * n)
        pairs.append((n, delta))
    assert len(set(pairs)) == len(pairs)
    gen = wl.rounds(7)
    keys = [k for _ in range(wl.pool_size) for k in next(gen)]
    assert len(set(keys)) == len(keys) == len(pairs)


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    xs = [float(i) for i in range(1, 41)]
    assert run.tail(xs) == (30.0, 75.0)
    assert run.tail(xs[:20]) == (10.0, 50.0)
    assert run.tail(xs[:19]) == (19.0, 100.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fill", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
