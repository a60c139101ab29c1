"""Smoke test of the benchmark: every workload on tiny inputs, untraced and traced.

Checks that each run reports exactly the metrics BENCHMARK.json names, with
their units, and that the workload's correctness checks ran and passed.
Timings are not checked. Run with: python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "train_b8_p64": dict(size=16, images=4, batch=2),
    "denoise_p256": dict(size=32, files=2),
    "evaluate_mixed": dict(shapes=((32, 32), (16, 48)), per_shape=1),
}
CHECKS = {
    "train_b8_p64": {"corpus_decodes_exactly", "train_reference_trace", "losses_finite"},
    "denoise_p256": {"corpus_decodes_exactly", "denoised_png_roundtrip"},
    "evaluate_mixed": {"corpus_decodes_exactly", "evaluate_reference_all_row",
                       "evaluate_passes_agree"},
}


def test_workload_names_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = tuple(w["name"] for w in json.load(f)["workloads"])
    assert declared == tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES


def _declared(kind: str) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_reports_every_metric(name, trace, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    args = run.parse_args(["--workload", name, "--seed", "5", "--seconds", "0.01",
                           "--trace", str(trace)])
    result = run.run_one(args, workloads.WORKLOADS[name](**TINY[name]))

    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == _declared("per_layer" if trace else "end_to_end")
    out_dir = tmp_path / f"{name}-seed5-trace{trace}"
    with open(out_dir / "record.json", encoding="utf-8") as f:
        record = json.load(f)
    assert set(record["checks"]) == CHECKS[name]
    assert record["seed"] == 5 and "OPENBLAS_NUM_THREADS" in record["blas_thread_env"]
    assert not (out_dir / "work").exists()
    if trace:
        assert (out_dir / "trace.json").exists()
        assert result["metrics"]["model.forward_s"]["value"] > 0
        assert result["metrics"]["layers.conv3x3.calls"]["value"] > 0
    printed = capsys.readouterr().out
    assert all(metric in printed for metric in units)


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory holding only the benchmark, the run fails and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "denoise_p256", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=60)
    assert child.returncode != 0
    assert "correct" not in child.stdout
