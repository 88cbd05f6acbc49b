"""The two-CPU probe of ``tools/cpu_probe.py``."""

import importlib.util
import json
import subprocess
import time
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cpu_probe.py"
_spec = importlib.util.spec_from_file_location("cpu_probe", TOOL)
cpu_probe = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cpu_probe)


def test_the_probe_prints_one_line_from_three_processes(monkeypatch, capsys):
    # the children start fast because neither they nor the probe import numpy
    assert "numpy" not in TOOL.read_text(encoding="utf-8")
    started, real = [], subprocess.Popen

    def popen(*args, **kwargs):
        started.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(cpu_probe.subprocess, "Popen", popen)
    monkeypatch.setattr(cpu_probe, "LOOPS", 100_000)
    start = time.perf_counter()
    assert cpu_probe.main() == 0
    assert time.perf_counter() - start < 2.0
    assert len(started) <= 3
    (line,) = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert sorted(record) == ["one_s", "ratio", "two_s"]
    assert record["one_s"] > 0 and record["two_s"] > 0 and record["ratio"] > 0
