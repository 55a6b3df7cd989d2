"""Exit-code matrix for ``repro chaos``.

Mirrors tests/lint/test_cli.py: every exit path of the command pinned
by a direct ``main([...])`` call, plus one end-to-end subprocess through
``python -m repro`` to prove the wiring.
"""

import pathlib
import subprocess  # lint: ignore[blocking-call]
import sys

import pytest

from repro.faults.cli import main as chaos_main

REPO = pathlib.Path(__file__).resolve().parents[2]

SMALL = ["--clusters", "2", "--cluster-size", "2"]


# ----------------------------------------------------------------------
# repro chaos
# ----------------------------------------------------------------------
def test_chaos_clean_completion_exits_zero(capsys):
    assert chaos_main(["water", "--loss", "0.05", *SMALL]) == 0
    out = capsys.readouterr().out
    assert "runtime:" in out


def test_chaos_replay_check_exits_zero(capsys):
    assert chaos_main(["water", "--loss", "0.1", "--replay-check",
                       *SMALL]) == 0
    assert "replay: identical" in capsys.readouterr().out


def test_chaos_unprotected_loss_exits_one(capsys):
    assert chaos_main(["water", "--loss", "0.3", "--no-transport",
                       *SMALL]) == 1
    assert "DeadlockError" in capsys.readouterr().out


def test_chaos_exhausted_retries_exits_one(capsys):
    rc = chaos_main(["water", "--outage", "0:9999", "--max-retries", "1",
                     *SMALL])
    assert rc == 1
    assert "TransportError" in capsys.readouterr().out


def test_chaos_event_budget_exits_one(capsys):
    assert chaos_main(["water", "--loss", "0.05", "--max-events", "50",
                       *SMALL]) == 1
    assert "TimeoutError" in capsys.readouterr().out


def test_chaos_unknown_app_exits_two(capsys):
    assert chaos_main(["nosuchapp", *SMALL]) == 2
    assert "ValueError" in capsys.readouterr().out


def test_chaos_crash_outside_topology_exits_two(capsys):
    assert chaos_main(["water", "--crash", "9:0.1:0.2", *SMALL]) == 2


@pytest.mark.parametrize("bad_args", [
    ["water", "--spike", "nonsense"],
    ["water", "--outage", "0.5"],
    ["water", "--crash", "1:2"],
    ["--loss", "0.1"],  # missing the app
])
def test_chaos_usage_errors_exit_two(bad_args):
    with pytest.raises(SystemExit) as excinfo:
        chaos_main(bad_args)
    assert excinfo.value.code == 2


def test_chaos_end_to_end_subprocess():
    proc = subprocess.run(  # lint: ignore[blocking-call]
        [sys.executable, "-m", "repro", "chaos", "water",
         "--loss", "0.05", *SMALL],
        cwd=REPO, capture_output=True, text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "runtime:" in proc.stdout
