"""CLI dispatcher and example-script smoke tests."""

import ast
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import COMMANDS, main, resolve

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


class TestCli:
    def test_help_lists_all_experiments(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        for name in COMMANDS:
            assert name in out

    def test_no_args_prints_help(self, capsys):
        assert main([]) == 0
        assert "experiments:" in capsys.readouterr().out

    def test_unknown_command_fails(self, capsys):
        assert main(["nope"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_dispatch_runs_experiment(self, capsys):
        assert main(["clusters", "--apps", "water"]) == 0
        assert "8x4" in capsys.readouterr().out

    def test_trace_command_writes_trace_and_report(self, capsys, tmp_path,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "asp", "--clusters", "2",
                     "--cluster-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "timeline 0 .." in out
        assert "inter-cluster traffic matrix" in out

        trace = json.loads((tmp_path / "asp-optimized.trace.json").read_text())
        assert trace["traceEvents"]
        report_path = tmp_path / "asp-optimized.report.jsonl"
        records = [json.loads(l) for l in report_path.read_text().splitlines()]
        assert len(records) == 1
        assert records[0]["meta"]["app"] == "asp"
        assert records[0]["meta"]["harness"] == "trace"
        assert "metrics" in records[0]

    def test_trace_metrics_flag_dumps_snapshot(self, capsys, tmp_path,
                                               monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "asp", "--clusters", "2", "--cluster-size", "2",
                     "--metrics", "metrics.json"]) == 0
        snap = json.loads((tmp_path / "metrics.json").read_text())
        assert snap["messages.total"] > 0
        assert "message.latency_s" in snap
        assert snap["message.latency_s"]["count"] > 0

    def test_profile_command_reports_attribution(self, capsys):
        assert main(["profile", "water", "--variant", "unoptimized",
                     "--clusters", "2", "--cluster-size", "2"]) == 0
        out = capsys.readouterr().out
        assert "dominant bottleneck:" in out


def run_example(name, argv=()):
    path = EXAMPLES / name
    old_argv = sys.argv
    sys.argv = [str(path), *argv]
    try:
        runpy.run_path(str(path), run_name="__main__")
    finally:
        sys.argv = old_argv


class TestExamples:
    def test_quickstart(self, capsys):
        run_example("quickstart.py")
        out = capsys.readouterr().out
        assert "allreduce on all 32 ranks -> 496" in out
        assert "water optimized" in out

    def test_custom_application(self, capsys):
        run_example("custom_application.py")
        out = capsys.readouterr().out
        assert "hierarchical" in out
        assert "Same numerics" in out

    def test_magpie_collectives(self, capsys):
        run_example("magpie_collectives.py", ["10", "1"])
        out = capsys.readouterr().out
        assert "MagPIe speedup" in out
        assert "flat" in out and "magpie" in out

    def test_orca_objects(self, capsys):
        run_example("orca_objects.py")
        out = capsys.readouterr().out
        assert "RTS-style placement wins" in out

    def test_trace_timeline(self, capsys):
        run_example("trace_timeline.py")
        out = capsys.readouterr().out
        assert "timeline 0 .." in out
        assert "WAN messages" in out

    @pytest.mark.slow
    def test_grid_feasibility(self, capsys):
        run_example("grid_feasibility.py")
        out = capsys.readouterr().out
        assert "fft (unopt)" in out

    @pytest.mark.slow
    def test_gap_sensitivity(self, capsys):
        run_example("gap_sensitivity.py", ["tsp"])
        out = capsys.readouterr().out
        assert "bandwidth gap" in out


class TestFrontDoor:
    """``python -m repro <command>`` loads only the command it runs, and
    every module of the package is reachable from some command."""

    SRC = Path(__file__).resolve().parent.parent / "src"

    #: ``python -m repro <argv>`` in a fresh interpreter, then the names
    #: in ``sys.modules`` as the last line of stderr
    DISPATCH = ("import json, sys\n"
                "from repro.__main__ import main\n"
                "try:\n"
                "    main(sys.argv[1:])\n"
                "except SystemExit:\n"
                "    pass\n"
                "print(json.dumps(sorted(sys.modules)), file=sys.stderr)\n")

    def imported(self, *argv):
        """Modules a fresh ``python -m repro *argv`` has imported."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(self.SRC), *filter(None, [env.get("PYTHONPATH")])])
        err = subprocess.run([sys.executable, "-c", self.DISPATCH, *argv],
                             env=env, capture_output=True, text=True,
                             check=True).stderr
        return set(json.loads(err.splitlines()[-1]))

    def test_every_command_resolves_to_a_callable(self):
        for name in COMMANDS:
            assert callable(resolve(name)), name

    def test_help_imports_no_numpy(self):
        modules = self.imported("--help")
        assert "repro" in modules
        assert "numpy" not in modules

    def test_figure3_imports_no_other_subsystem(self):
        modules = self.imported("figure3", "--help")
        assert "repro.experiments.figure3" in modules
        for package in ("serve", "lint", "replay", "critpath"):
            assert not {m for m in modules
                        if m.startswith(f"repro.{package}")}, package

    def test_every_module_is_reachable_from_a_command(self):
        """Follow imports from every command's module (function-level
        ones included): no module under ``src/repro`` is left over."""
        package = self.SRC / "repro"

        def name_of(path):
            parts = path.relative_to(self.SRC).with_suffix("").parts
            return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)

        files = {name_of(p): p for p in package.rglob("*.py")}

        def imports_of(name):
            path = files[name]
            base = name if path.name == "__init__.py" else \
                name.rpartition(".")[0]
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    yield from (alias.name for alias in node.names)
                elif isinstance(node, ast.ImportFrom):
                    pkg = base
                    for _ in range(node.level - 1):
                        pkg = pkg.rpartition(".")[0]
                    module = ".".join(filter(None, [
                        pkg if node.level else "", node.module or ""]))
                    yield module
                    yield from (f"{module}.{alias.name}"
                                for alias in node.names)

        todo = [spec.split(":")[0] for spec, _ in COMMANDS.values()]
        todo.append("repro.__main__")
        reached = set()
        while todo:
            name = todo.pop()
            while name and name not in reached:
                if name in files:
                    reached.add(name)
                    todo.extend(m for m in imports_of(name) if m in files)
                name = name.rpartition(".")[0]   # its packages run too
        assert set(files) - reached == set()
