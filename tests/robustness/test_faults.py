"""The deterministic fault-injection harness and the site matrix.

The 9-cell acceptance matrix — {raise, hang, exhaust} × {engine.call,
phase.build, calibration.worker} — is driven end to end through the
CLI: every cell must finish with a clean one-line error (or a degraded
but complete result), never an unhandled traceback. Calling
``main()`` in-process makes that literal: an escaped exception fails
the test.
"""

import os

import pytest

from repro.cli import EXIT_ERROR, EXIT_RESOURCE, main
from repro.errors import BudgetExceededError, FaultInjected
from repro.robustness import faults
from repro.robustness.faults import FaultPlan


class TestSpecParsing:
    def test_basic_spec(self):
        plan = FaultPlan.from_spec("engine.call:raise@5")
        rule = plan.rules["engine.call"]
        assert rule.kind == "raise" and rule.at == 5

    def test_seconds_field(self):
        plan = FaultPlan.from_spec("phase.build:hang:0.2@1")
        assert plan.rules["phase.build"].seconds == 0.2

    def test_multiple_sites(self):
        plan = FaultPlan.from_spec("engine.call:raise@1, phase.build:exhaust@2")
        assert set(plan.rules) == {"engine.call", "phase.build"}

    def test_seed_derives_trigger_position(self):
        for seed in range(10):
            plan = FaultPlan.from_spec("engine.call:raise", seed=seed)
            assert plan.rules["engine.call"].at == 1 + seed % 7

    def test_bad_spec_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.from_spec("nonsense")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="raise|hang|exhaust|crash"):
            FaultPlan.from_spec("engine.call:explode@1")

    def test_crash_kind_parses(self):
        plan = FaultPlan.from_spec("serve.worker:crash@2")
        rule = plan.rules["serve.worker"]
        assert rule.kind == "crash" and rule.at == 2

    def test_kind_catalog(self):
        assert faults.FAULT_KINDS == ("raise", "hang", "exhaust", "crash")

    def test_worker_sites_in_catalog(self):
        assert "serve.worker" in faults.FAULT_SITES
        assert "serve.request" in faults.FAULT_SITES


class TestFiring:
    def test_counter_site_trips_on_nth_hit(self):
        plan = FaultPlan.from_spec("engine.call:raise@3")
        plan.hit("engine.call")
        plan.hit("engine.call")
        with pytest.raises(FaultInjected):
            plan.hit("engine.call")
        assert plan.trips == [("engine.call", "raise")]

    def test_rule_fires_at_most_once(self):
        plan = FaultPlan.from_spec("engine.call:raise@1")
        with pytest.raises(FaultInjected):
            plan.hit("engine.call")
        plan.hit("engine.call")  # spent: now a no-op
        assert len(plan.trips) == 1

    def test_keyed_site_matches_task_index(self):
        plan = FaultPlan.from_spec("calibration.worker:raise@3")
        plan.hit("calibration.worker", key=0)
        plan.hit("calibration.worker", key=5)
        with pytest.raises(FaultInjected):
            plan.hit("calibration.worker", key=2)  # key + 1 == at

    def test_exhaust_raises_budget_error(self):
        plan = FaultPlan.from_spec("engine.call:exhaust@1")
        with pytest.raises(BudgetExceededError, match="injected"):
            plan.hit("engine.call")

    def test_unarmed_site_is_noop(self):
        plan = FaultPlan.from_spec("engine.call:raise@1")
        for _ in range(5):
            plan.hit("phase.build")
        assert plan.trips == []

    def test_install_and_clear(self):
        plan = faults.install_from_spec("engine.call:raise@1")
        assert faults.ACTIVE is plan
        faults.clear()
        assert faults.ACTIVE is None

    def test_crash_kind_exits_the_process_without_unwinding(self, tmp_path):
        """``crash`` is ``os._exit(13)`` — no exception, no cleanup.

        Proven in a subprocess: a sentinel file written by an
        ``atexit``/``finally`` handler must NOT appear, and the exit
        code is the raw 13, not an interpreter traceback's 1.
        """
        import subprocess
        import sys

        sentinel = tmp_path / "unwound"
        script = (
            "import sys\n"
            "from repro.robustness.faults import FaultPlan\n"
            "plan = FaultPlan.from_spec('serve.worker:crash@1')\n"
            "try:\n"
            "    plan.hit('serve.worker')\n"
            "finally:\n"
            f"    open({str(sentinel)!r}, 'w').write('unwound')\n"
            "sys.exit(0)\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": "src"},
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__)
            ))),
            capture_output=True,
            timeout=60,
        )
        assert result.returncode == 13, result.stderr.decode()
        assert not sentinel.exists(), "crash kind unwound the stack"

    def test_same_spec_and_seed_reproduce_trips(self):
        def run_once():
            plan = FaultPlan.from_spec("engine.call:raise", seed=4)
            trips = []
            for _ in range(10):
                try:
                    plan.hit("engine.call")
                    trips.append(False)
                except FaultInjected:
                    trips.append(True)
            return trips

        assert run_once() == run_once()


# -- the 9-cell acceptance matrix, end to end through the CLI ------------

#: (site, kind) → the CLI invocation and its accepted exit codes.
def _matrix_invocation(site, kind, family_file):
    if site == "engine.call":
        spec = f"engine.call:{kind}:0.05@3"
        argv = ["run", family_file, "grandmother(X, Y)", "--faults", spec]
        expected = {
            "raise": {EXIT_ERROR},     # FaultInjected → one-line error
            "exhaust": {EXIT_RESOURCE},  # as if a budget ran out
            "hang": {0},               # a short stall; the run completes
        }[kind]
    elif site == "phase.build":
        spec = f"phase.build:{kind}:0.05@1"
        argv = ["reorder", family_file, "--faults", spec]
        # Per-predicate isolation: every kind degrades (or stalls) one
        # predicate and the reorder still completes.
        expected = {0}
    else:  # calibration.worker
        spec = f"calibration.worker:{kind}:2@1"
        argv = [
            "profile", family_file, "grandmother(X, Y)",
            "--jobs", "2", "--task-timeout", "0.5", "--faults", spec,
        ]
        # Failures/quarantines surface as warnings; profiling completes.
        expected = {0}
    return argv, expected


@pytest.mark.parametrize("kind", ["raise", "hang", "exhaust"])
@pytest.mark.parametrize(
    "site", ["engine.call", "phase.build", "calibration.worker"]
)
def test_fault_matrix_no_unhandled_traceback(site, kind, family_file, capsys):
    argv, expected = _matrix_invocation(site, kind, family_file)
    exit_code = main(argv)
    captured = capsys.readouterr()
    assert exit_code in expected, (
        f"{site}:{kind} exited {exit_code}, wanted {expected}\n"
        f"stderr: {captured.err}"
    )
    assert "Traceback" not in captured.err
    if exit_code != 0:
        error_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(error_lines) == 1


@pytest.mark.parametrize("kind", ["raise", "hang", "exhaust"])
def test_fault_matrix_generator_engine_call(kind, family_file, capsys):
    """The engine.call row of the matrix, re-run on the generator path.

    A plain ``run`` executes on the bytecode VM; ``--profile`` attaches
    an event bus, which sends every call to the generator clause loop.
    Both charge ``engine.call`` through the same ``Engine._charge_call``
    hook, so an armed fault must surface identically: one ``error:``
    line, the mapped exit code, never a traceback.
    """
    argv, expected = _matrix_invocation("engine.call", kind, family_file)
    argv = argv[:3] + ["--profile"] + argv[3:]
    exit_code = main(argv)
    captured = capsys.readouterr()
    assert exit_code in expected, (
        f"generator engine.call:{kind} exited {exit_code}, wanted {expected}\n"
        f"stderr: {captured.err}"
    )
    assert "Traceback" not in captured.err
    if exit_code != 0:
        error_lines = [
            line for line in captured.err.splitlines()
            if line.startswith("error:")
        ]
        assert len(error_lines) == 1


def test_cli_exports_fault_plan_to_environment(family_file, capsys):
    main(["run", family_file, "girl(X)", "--faults", "phase.build:raise@1",
          "--fault-seed", "3"])
    assert os.environ["REPRO_FAULTS"] == "phase.build:raise@1"
    assert os.environ["REPRO_FAULTS_SEED"] == "3"


def test_degraded_predicate_surfaces_in_reorder_report(family_file, capsys):
    exit_code = main(["reorder", family_file, "--report",
                      "--faults", "phase.build:raise@2"])
    captured = capsys.readouterr()
    assert exit_code == 0
    assert "degraded" in captured.err
    assert "to source order" in captured.err
