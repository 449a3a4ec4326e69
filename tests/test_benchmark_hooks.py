"""The benchmark's hooks into majdyn, checked from the library side.

``perfbench/spans.py`` wraps majdyn functions at fixed module attributes,
and its traced run fails when an expected span records no call.  These
tests read the benchmark's files without changing them, so a refactor
that moves a hooked function or stops calling it through the hooked name
fails here rather than in the benchmark.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import majdyn
from majdyn import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", PERFBENCH / "spans.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def workload_spans(class_name: str) -> tuple[str, ...]:
    """The literal ``SPANS`` of a workload class, read from the source so
    the benchmark's own imports never run here."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == class_name:
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "SPANS" for t in stmt.targets
                ):
                    return ast.literal_eval(stmt.value)
    raise AssertionError(f"{class_name}.SPANS not found")


def test_every_target_resolves():
    spans = load_spans()
    for mod_name, attr, _ in spans.TARGETS:
        module = importlib.import_module(f"majdyn.{mod_name}")
        assert callable(getattr(module, attr, None)), f"majdyn.{mod_name}.{attr}"


def test_quenched_run_records_every_expected_span(tmp_path):
    spans = load_spans()
    config = tmp_path / "swing.json"
    config.write_text(json.dumps({
        "n": 400, "p": 0.03, "trials": 2, "master_seed": 0,
        "model": {"kind": "morning_evening", "c": 1.0}, "gamma": 0.1,
        "day_cap": 64, "quenched": True, "workers": 1,
    }))
    recorder = spans.Recorder(majdyn.__name__)
    recorder.install()
    try:
        # the benchmark calls the CLI through the module attribute, which
        # the recorder has wrapped
        rc = cli.main(["run", "--config", str(config), "-o", str(tmp_path / "r.csv"), "-q"])
    finally:
        recorder.uninstall()
    assert rc == 0
    spans.require(recorder.spans, workload_spans("QuenchedSwing"))
    assert cli.main.__module__ == "majdyn.cli" and not hasattr(cli.main, "__wrapped__")
