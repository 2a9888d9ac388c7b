"""Self-test of the benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Every workload runs at its shortest length (``--seconds 0``) and must
pass its checks; a deliberately wrong oracle answer must make the
command fail; the metric names and units must match BENCHMARK.json.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import query_phase  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(workload, trace=0):
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return completed.returncode, json.loads(completed.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_workload_passes_its_checks_at_its_shortest(workload):
    code, result = _run(workload)
    assert code == 0 and result["correct"], result
    assert result["failed"] == 0 and result["attempted"] > 0
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_every_per_layer_metric():
    code, result = _run("serve_mixed", trace=1)
    assert code == 0 and result["correct"], result
    declared = {m["name"]: m["unit"] for m in _benchmark_json()["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Transport is the round trip minus the server's time, so the two
    # account for the whole measured round trip.
    assert metrics["serve.server_mean_ms"] + metrics["serve.transport_mean_ms"] == (
        pytest.approx(metrics["serve.rtt_mean_ms"])
    )


def test_a_wrong_oracle_answer_fails_the_command(monkeypatch, capsys):
    real = query_phase.oracle

    def wrong_oracle(originals, queries):
        answers, calls = real(originals, queries)
        return [frozenset()] + answers[1:], calls

    monkeypatch.setattr(query_phase, "oracle", wrong_oracle)
    assert run.main(["--workload", "serve_mixed", "--seed", "7", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] >= 1


def test_benchmark_json_matches_the_benchmark():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == session.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == session.END_TO_END_UNITS
    serve = next(w for w in spec["workloads"] if w["name"] == "serve_mixed")
    assert f"{session.OFFERED_RATE:g} req/s" in serve["why"]


def test_missing_program_sources_fail_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench")
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve_mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0 and completed.stdout == ""


def test_a_pacer_reports_kernel_times_and_stops():
    import serve_phase

    pacer = serve_phase.Pacer(min(os.sched_getaffinity(0)))
    try:
        pacer.wait_ready()
        assert all(seconds > 0 for _at, seconds in pacer.samples)
        start, end = pacer.samples[0][0], pacer.samples[-1][0]
        assert pacer.factor(start, end) > 0
    finally:
        pacer.stop()
    assert pacer.process.returncode is not None
