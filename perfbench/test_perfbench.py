"""Self-test of the benchmark: deterministic inputs and checks that bite.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_bytes(tmp_path, workload):
    first = gen.generate(workload, 5, tmp_path / "a")
    second = gen.generate(workload, 5, tmp_path / "b")
    other = gen.generate(workload, 6, tmp_path / "c")
    assert first == second
    assert _bytes(tmp_path / "a") == _bytes(tmp_path / "b")
    assert _bytes(tmp_path / "a")["events.jsonl"] != _bytes(tmp_path / "c")["events.jsonl"]
    assert first["records"] == other["records"]


@pytest.fixture(scope="module")
def speech_run(tmp_path_factory):
    """Reports of one real run on the speech-heavy inputs."""
    from radscales import cli

    inputs = tmp_path_factory.mktemp("speech")
    gen.generate("speech-heavy", 3, inputs)
    out = inputs / "out"
    with redirect_stdout(io.StringIO()):
        assert cli.main(["run", "--config", str(inputs / "config.json"), "--out-dir", str(out)]) == 0
    return inputs, out


def _tampered(out: Path, tmp_path: Path, report: str, edit) -> Path:
    """Copy of the reports in *out* with *edit* applied to one report."""
    copy = tmp_path / "out"
    copy.mkdir()
    for path in out.iterdir():
        (copy / path.name).write_bytes(path.read_bytes())
    reports = json.loads((copy / report).read_text(encoding="utf-8"))
    edit(reports)
    (copy / report).write_text(json.dumps(reports), encoding="utf-8")
    return copy


def test_checker_accepts_real_reports(speech_run):
    inputs, out = speech_run
    assert check.check_reports(inputs, out) == []


@pytest.mark.parametrize("report, key", [("structural.json", "label"), ("speech.json", "community")])
def test_checker_rejects_a_flipped_frontier_flag(speech_run, tmp_path, report, key):
    inputs, out = speech_run

    def flip(reports):
        community = reports[0]["communities"][0]
        community["onFrontier"] = not community["onFrontier"]

    errors = check.check_reports(inputs, _tampered(out, tmp_path, report, flip))
    flipped = json.loads((out / report).read_text(encoding="utf-8"))[0]["communities"][0][key]
    assert errors and all(flipped in e for e in errors)


def test_checker_rejects_a_changed_d_modularity(speech_run, tmp_path):
    inputs, out = speech_run

    def nudge(reports):
        reports[1]["communities"][2]["dModularity"] *= 1 + 1e-6

    errors = check.check_reports(inputs, _tampered(out, tmp_path, "structural.json", nudge))
    assert any("dModularity" in e for e in errors)


def test_missing_hook_reads_zero(monkeypatch):
    monkeypatch.setattr(spans, "HOOKS", [("radscales.pipeline", "no_such_function", "events.slice", None)])
    tracer = spans.Tracer()
    with spans.traced(tracer):
        pass
    assert tracer.hooked == []
    metrics = tracer.metrics()
    assert metrics["events.slice_calls"] == 0 and metrics["events.slice_s"] == 0


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert spec["per_layer"] == [spans.metric_spec(name) for name in spans.METRICS]
