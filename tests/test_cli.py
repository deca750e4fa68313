import hashlib
import json
import logging
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import radscales
from radscales import Graph, PlantedPartitionParams, load_edge_list, planted_partition
from radscales.cli import main, parse_window
from radscales.graph import write_edge_list
from radscales.events import EVENT_KINDS, parse_timestamp
from radscales.pipeline import RUN_KEYS

from .oracles import closed_coverage, greedy_pick_order, sorted_induced_rows
from .streams import RUN_DIR_SHA256, TEST_DIC, write_run_dir, write_stream, written_sha256


def run_cli(*argv):
    return main([str(a) for a in argv])


def update_config(config_path, **changes):
    """Rewrite a run config; a change to None deletes the key."""
    config = json.loads(config_path.read_text(encoding="utf-8"))
    for key, value in changes.items():
        if value is None:
            config.pop(key, None)
        else:
            config[key] = value
    config_path.write_text(json.dumps(config), encoding="utf-8")


def test_parse_window_date_only():
    w = parse_window("D1:2022-09-19:2022-10-03")
    assert w.label == "D1"
    assert w.start == parse_timestamp("2022-09-19")
    assert w.end == parse_timestamp("2022-10-03")


def test_parse_window_full_timestamps():
    w = parse_window("D1:2022-09-19T00:00:00+00:00:2022-10-03T12:30:00Z")
    assert w.start == parse_timestamp("2022-09-19")
    assert w.end == parse_timestamp("2022-10-03T12:30:00Z")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("no-such-command")
    assert exc.value.code == 1


def test_missing_file_is_data_error(tmp_path, capsys):
    code = run_cli("dmod", "--edges", tmp_path / "nope.tsv", "--partition", tmp_path / "nope2.tsv")
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_fixtures_roundtrip_dmod(tmp_path, capsys):
    assert run_cli("fixtures", "--name", "three-groups", "--out-dir", tmp_path) == 0
    capsys.readouterr()
    code = run_cli(
        "dmod",
        "--edges", tmp_path / "three-groups_edges.tsv",
        "--partition", tmp_path / "three-groups_partition.tsv",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["Q"] == pytest.approx(0.402, abs=1e-3)
    by_label = {g["label"]: g for g in payload["groups"]}
    assert by_label["black"]["di"] == pytest.approx(0.448, abs=2e-3)


def test_fixtures_hubs_dominate(tmp_path, capsys):
    assert run_cli("fixtures", "--name", "hubs", "--out-dir", tmp_path) == 0
    capsys.readouterr()
    code = run_cli("dominate", "--edges", tmp_path / "hubs_edges.tsv", "--rho", "1.0")
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    (result,) = payload["results"]
    assert result["size"] == 3
    assert result["covered"] == 15
    assert result["authorities"] == ["h2", "h1", "h3"]


def test_dominate_per_community(tmp_path, capsys):
    run_cli("fixtures", "--name", "three-groups", "--out-dir", tmp_path)
    capsys.readouterr()
    code = run_cli(
        "dominate",
        "--edges", tmp_path / "three-groups_edges.tsv",
        "--partition", tmp_path / "three-groups_partition.tsv",
        "--rho", "1.0",
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["label"] for c in payload["communities"]] == ["black", "red", "blue"]
    for community in payload["communities"]:
        assert community["results"][0]["n"] == 4


def _oracle_sweep(graph, rhos) -> list[dict]:
    """What dominate prints for *graph*: the greedy picks by definition, per rho."""
    results = []
    for rho in rhos:
        picks = greedy_pick_order(graph, rho)
        results.append(
            {
                "rho": rho,
                "size": len(picks),
                "covered": closed_coverage(graph, picks),
                "n": graph.n,
                "authorities": [graph.labels[v] for v in picks],
            }
        )
    return results


SWEEP = [1.0, 0.3, 0.75, 0.3, 0.5, 0.1 * 3]


def test_dominate_sweep_is_the_greedy_prefix_per_rho(tmp_path, capsys):
    run_cli("fixtures", "--name", "hubs", "--out-dir", tmp_path)
    planted, _ = planted_partition(PlantedPartitionParams(4, 9, 0.45, 0.06, seed=17))
    with (tmp_path / "planted_edges.tsv").open("w", encoding="utf-8") as fh:
        write_edge_list(planted, fh)
    capsys.readouterr()
    rho_flags = [arg for rho in SWEEP for arg in ("--rho", repr(rho))]
    for name in ("hubs", "planted"):
        edges = tmp_path / f"{name}_edges.tsv"
        assert run_cli("dominate", "--edges", edges, *rho_flags) == 0
        with edges.open(encoding="utf-8") as fh:
            graph = load_edge_list(fh)
        assert json.loads(capsys.readouterr().out) == {"results": _oracle_sweep(graph, SWEEP)}

    # per community, on the planted graph as its edge list has it
    groups = {label: f"g{int(label[1:]) // 9}" for label in graph.labels}
    partition = tmp_path / "planted_partition.tsv"
    partition.write_text("".join(f"{u}\t{g}\n" for u, g in groups.items()), encoding="utf-8")
    assert run_cli("dominate", "--edges", edges, "--partition", partition, *rho_flags) == 0
    expected = []
    for group in dict.fromkeys(groups.values()):
        members = [v for v, label in enumerate(graph.labels) if groups[label] == group]
        sub = Graph(tuple(graph.labels[v] for v in members), sorted_induced_rows(graph, members))
        expected.append({"label": group, "results": _oracle_sweep(sub, SWEEP)})
    assert json.loads(capsys.readouterr().out) == {"communities": expected}


# sha256 of what dominate writes for a seeded planted graph, taken while each
# community still went through an induced subgraph.
DOMINATE_SHA256 = {
    "per_community.json": "b2d532b14c96c01abba6d02b0a5860de797445f4ada3caa2cd6944652c4a1114",
    "whole.json": "5e4ba251275e60c56e82093f0b4218a25e116255522a6148d4bfd7163017480c",
}


def test_dominate_matches_golden_hashes(tmp_path):
    assert run_cli("fixtures", "--name", "planted", "--out-dir", tmp_path, "--groups", "12", "--size", "60",
                   "--p-in", "0.2", "--p-out", "0.01", "--seed", "5") == 0
    edges = tmp_path / "planted_edges.tsv"
    assert run_cli("dominate", "--edges", edges, "--partition", tmp_path / "planted_partition.tsv",
                   "--rho", "0.3", "--rho", "0.75", "--rho", "1.0", "--out", tmp_path / "per_community.json") == 0
    assert run_cli("dominate", "--edges", edges, "--rho", "0.5", "--out", tmp_path / "whole.json") == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DOMINATE_SHA256} == DOMINATE_SHA256


def test_detect_on_edge_list(tmp_path, capsys):
    run_cli("fixtures", "--name", "planted", "--out-dir", tmp_path,
            "--groups", "2", "--size", "8", "--p-in", "0.9", "--p-out", "0.05", "--seed", "7")
    capsys.readouterr()
    out = tmp_path / "detected.tsv"
    log = tmp_path / "log.json"
    code = run_cli(
        "detect", "--edges", tmp_path / "planted_edges.tsv", "--out", out, "--log", log
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 16
    groups = {line.split("\t")[1] for line in lines}
    assert len(groups) == 2
    qs = json.loads(log.read_text(encoding="utf-8"))
    assert isinstance(qs, list)
    assert all(b >= a for a, b in zip(qs, qs[1:]))


def test_ingest_summary(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    write_stream(events)
    code = run_cli("ingest", "--events", events)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["skipped"] == 0
    assert payload["events"] == sum(payload["byKind"].values())
    assert set(payload["byKind"]) == {"retweet", "other"}


def test_lexicon_score_command(tmp_path, capsys):
    dic = tmp_path / "test.dic"
    dic.write_text(TEST_DIC, encoding="utf-8")
    docs = tmp_path / "docs.jsonl"
    docs.write_text(
        json.dumps({"community": "x", "text": "ordem e progresso"})
        + "\n"
        + json.dumps({"community": "y", "text": "dia comum"})
        + "\n",
        encoding="utf-8",
    )
    code = run_cli("lexicon-score", "--dic", dic, "--docs", docs)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert [s["community"] for s in payload] == ["x", "y"]
    assert payload[0]["scores"]["Authority"] == pytest.approx(1 / 3)


@pytest.mark.parametrize(
    "bad",
    [
        {"community": ["a"], "text": "ordem"},
        {"community": "a", "text": 5},
        {"community": None, "text": "ordem"},
        {"community": "a", "text": None},
        5,
        "community text",
        None,
    ],
)
def test_lexicon_score_rejects_badly_typed_records(tmp_path, capsys, bad):
    dic = tmp_path / "test.dic"
    dic.write_text(TEST_DIC, encoding="utf-8")
    docs = tmp_path / "docs.jsonl"
    good = json.dumps({"community": "x", "text": "ordem"})
    docs.write_text(f"{good}\n{json.dumps(bad)}\n", encoding="utf-8")
    assert run_cli("lexicon-score", "--dic", dic, "--docs", docs) == 2
    assert "line 2: expected {community, text} record" in capsys.readouterr().err


def test_lexicon_score_rejects_a_label_utf8_cannot_encode_before_writing(tmp_path, capsys):
    dic = tmp_path / "test.dic"
    dic.write_text(TEST_DIC, encoding="utf-8")
    docs = tmp_path / "docs.jsonl"
    records = [{"community": "x", "text": "ordem"}, {"community": "\ud800", "text": "ordem"}]
    docs.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    assert run_cli("lexicon-score", "--dic", dic, "--docs", docs, "--out", tmp_path / "scores.json") == 2
    assert "line 2: community '\\ud800' cannot be written" in capsys.readouterr().err
    assert not (tmp_path / "scores.json").exists()


def test_pareto_command(tmp_path, capsys):
    points = tmp_path / "points.json"
    points.write_text(
        json.dumps(
            {
                "criteria": [
                    {"name": "dmod", "direction": "HIGHER_IS_MORE_RADICAL"},
                    {"name": "pds", "direction": "LOWER_IS_MORE_RADICAL"},
                ],
                "points": [
                    {"label": "a", "values": [0.6, 5]},
                    {"label": "b", "values": [0.4, 3]},
                    {"label": "c", "values": [0.5, 9]},
                ],
            }
        ),
        encoding="utf-8",
    )
    code = run_cli("pareto", "--points", points)
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    flags = {p["label"]: p["onFrontier"] for p in payload["points"]}
    assert flags == {"a": True, "b": True, "c": False}


def test_run_pipeline_outputs(tmp_path, capsys):
    config = write_run_dir(tmp_path)
    code = run_cli("run", "--config", config)
    assert code == 0
    out = tmp_path / "out"
    expected = {
        "structural.json",
        "speech.json",
        "detection_log.json",
        "membership.tsv",
        "structural_w1.csv",
        "structural_w2.csv",
        "structural_w3.csv",
        "structural_w4.csv",
        "speech_w1.csv",
        "speech_w2.csv",
        "speech_w3.csv",
        "speech_w4.csv",
    }
    assert {p.name for p in out.iterdir()} == expected
    structural = json.loads((out / "structural.json").read_text(encoding="utf-8"))
    assert [r["window"] for r in structural] == ["w1", "w2", "w3", "w4"]
    for report in structural[-2:]:
        assert len(report["frontier"]) == 1
    speech = json.loads((out / "speech.json").read_text(encoding="utf-8"))
    assert all(len(r["communities"][0]["scores"]) == 4 for r in speech)


def test_run_window_override(tmp_path, capsys):
    config = write_run_dir(tmp_path)
    code = run_cli(
        "run", "--config", config,
        "--window", "only:2022-09-19:2022-10-03",
        "--out-dir", tmp_path / "alt",
    )
    assert code == 0
    structural = json.loads((tmp_path / "alt" / "structural.json").read_text(encoding="utf-8"))
    assert [r["window"] for r in structural] == ["only"]


def test_run_with_external_membership(tmp_path):
    config_path = write_run_dir(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    lines = []
    for name in ("a", "b", "c"):
        lines += [f"{name}{i:02d}\t{name}" for i in range(30)]
    (tmp_path / "membership.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config["membership"] = "membership.tsv"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    assert run_cli("run", "--config", config_path) == 0
    out = tmp_path / "out"
    assert not (out / "detection_log.json").exists()
    structural = json.loads((out / "structural.json").read_text(encoding="utf-8"))
    assert {c["label"] for c in structural[0]["communities"]} == {"a", "b", "c"}


# Each record has one present field that is not a string; each reached a
# traceback (exit 3) in a different stage when it was accepted.
NON_STRING_RECORDS = {
    # scored as speech: TypeError in tokenize
    "list-text": {"author": "a00", "text": ["ordem"], "timestamp": "2022-09-20T00:00:00Z", "kind": "other"},
    # AttributeError in parse_timestamp
    "int-timestamp": {"source": "a00", "target": "a01", "timestamp": 5, "kind": "retweet"},
    # a graph vertex: TypeError when sorting user ids
    "int-source": {"source": 7, "target": "a00", "timestamp": "2022-09-20T00:00:00Z", "kind": "retweet"},
}


@pytest.mark.parametrize("shape", sorted(NON_STRING_RECORDS))
def test_run_skips_non_string_fields(tmp_path, capsys, shape):
    config = write_run_dir(tmp_path)
    events = tmp_path / "events.jsonl"
    bad = json.dumps(NON_STRING_RECORDS[shape]) + "\n"
    with events.open("a", encoding="utf-8") as fh:
        fh.write(bad)
    assert run_cli("run", "--config", config) == 0
    events.write_text(bad, encoding="utf-8")
    assert run_cli("run", "--config", config) == 2
    assert "no valid event records" in capsys.readouterr().err


def test_run_rejects_primary_rho_outside_rhos(tmp_path, capsys):
    config = write_run_dir(tmp_path)
    code = run_cli("run", "--config", config, "--rho", "0.5", "--rho", "1.0")
    assert code == 1
    err = capsys.readouterr().err
    assert "primaryRho 0.75" in err and "[0.5, 1.0]" in err
    assert not (tmp_path / "out").exists()


def test_run_without_primary_rho_takes_middle_rho(tmp_path):
    config_path = write_run_dir(tmp_path)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    del config["primaryRho"]
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", config_path, "--rho", "0.5", "--rho", "1.0") == 0
    structural = json.loads((tmp_path / "out" / "structural.json").read_text(encoding="utf-8"))
    assert {r["parameters"]["primaryRho"] for r in structural} == {1.0}


def test_run_rejects_empty_rhos(tmp_path, capsys):
    config_path = write_run_dir(tmp_path)
    update_config(config_path, rhos=[], primaryRho=None)
    assert run_cli("run", "--config", config_path) == 1
    assert "rhos must list at least one coverage fraction" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Valid ISO text whose UTC conversion leaves the datetime range.
OUT_OF_RANGE = "0001-01-01T00:00:00+01:00"


def test_run_window_flag_out_of_range(tmp_path, capsys):
    config = write_run_dir(tmp_path)
    code = run_cli("run", "--config", config, "--window", f"w:{OUT_OF_RANGE}:2022-01-01")
    assert code == 2
    assert "has no parseable start:end" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["windows", "detectionRange"])
def test_run_config_bound_out_of_range(tmp_path, capsys, key):
    config_path = write_run_dir(tmp_path)
    bounds = {"start": OUT_OF_RANGE, "end": "2022-01-01"}
    if key == "windows":
        update_config(config_path, windows=[{"label": "w", **bounds}])
    else:
        update_config(config_path, detectionRange=bounds)
    assert run_cli("run", "--config", config_path) == 2
    assert "out of range" in capsys.readouterr().err


def test_detect_bound_out_of_range(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    write_stream(events)
    code = run_cli(
        "detect", "--events", events, "--start", OUT_OF_RANGE, "--end", "2022-10-31",
        "--out", tmp_path / "membership.tsv",
    )
    assert code == 2
    assert "out of range" in capsys.readouterr().err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
odd_timestamps = st.sampled_from(
    [
        "2022-09-20T00:00:00Z",
        "2022-09-20",
        OUT_OF_RANGE,
        "9999-12-31T23:30:00-01:00",
        "2022-02-30",
        "2022-09-20T24:00:00",
        "2022-09-20T00:00:00+24:00",
        "20220920T000000Z",
        "z",
        "",
        " ",
    ]
)
field_values = json_values | odd_timestamps | st.sampled_from(["u1", "u2", "ordem justo", ""])
records = json_values | st.fixed_dictionaries(
    {},
    optional={
        **{name: field_values for name in ("source", "target", "author", "text", "timestamp")},
        "kind": st.sampled_from(EVENT_KINDS) | json_values,
    },
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(records, min_size=1, max_size=6))
def test_ingest_exit_code_over_record_shapes(tmp_path, batch):
    events = tmp_path / "events.jsonl"
    events.write_text("".join(json.dumps(r) + "\n" for r in batch), encoding="utf-8")
    code = run_cli(
        "ingest", "--events", events, "--keywords", "ordem", "u1", "--out", tmp_path / "summary.json"
    )
    assert code in (0, 2)


doc_records = json_values | st.fixed_dictionaries(
    {},
    optional={
        "community": json_values | st.sampled_from(["x", "y", ""]),
        "text": json_values | st.sampled_from(["ordem justo", "dia comum", ""]),
    },
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(doc_records, min_size=1, max_size=6))
def test_lexicon_score_exit_code_over_record_shapes(tmp_path, batch):
    dic = tmp_path / "test.dic"
    dic.write_text(TEST_DIC, encoding="utf-8")
    docs = tmp_path / "docs.jsonl"
    docs.write_text("".join(json.dumps(r) + "\n" for r in batch), encoding="utf-8")
    code = run_cli("lexicon-score", "--dic", dic, "--docs", docs, "--out", tmp_path / "scores.json")
    assert code in (0, 2)


def test_run_include_shares_from_flag_or_config(tmp_path):
    shared = {"source": "a00", "target": "a01", "text": "justo justo", "timestamp": "2022-09-20T00:00:00Z", "kind": "retweet"}

    def sharer_fairness(name, extra_args=(), config_update=None) -> float:
        base = tmp_path / name
        config_path = write_run_dir(base)
        with (base / "events.jsonl").open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(shared) + "\n")
        if config_update:
            config = json.loads(config_path.read_text(encoding="utf-8"))
            config.update(config_update)
            config_path.write_text(json.dumps(config), encoding="utf-8")
        assert run_cli("run", "--config", config_path, *extra_args) == 0
        membership = (base / "out" / "membership.tsv").read_text(encoding="utf-8")
        community = dict(line.split("\t") for line in membership.splitlines())["a00"]
        speech = json.loads((base / "out" / "speech.json").read_text(encoding="utf-8"))
        (row,) = [c for c in speech[0]["communities"] if c["community"] == community]
        return row["scores"]["Fairness"]

    assert sharer_fairness("posts") == 0.0
    assert sharer_fairness("flag", ["--include-shares"]) > 0.0
    assert sharer_fairness("config", config_update={"includeShares": True}) > 0.0


def test_detect_on_event_range(tmp_path, capsys):
    events = tmp_path / "events.jsonl"
    write_stream(events)
    out = tmp_path / "membership.tsv"
    code = run_cli(
        "detect",
        "--events", events,
        "--start", "2022-09-19",
        "--end", "2022-10-31",
        "--out", out,
    )
    assert code == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 90
    assert len({line.split("\t")[1] for line in lines}) == 3


def _tsv_map(path: Path) -> dict[str, str]:
    return dict(line.split("\t") for line in path.read_text(encoding="utf-8").splitlines())


def test_detect_on_events_matches_run_membership(tmp_path):
    config_path = write_run_dir(tmp_path)
    events = tmp_path / "events.jsonl"
    # replies make no edge by default, in `run` (kinds ["retweet"]) and in `detect` alike
    with events.open("a", encoding="utf-8") as fh:
        for source, target in (("a00", "b00"), ("r1", "r2")):
            fh.write(json.dumps({"source": source, "target": target, "timestamp": "2022-09-20T00:00:00Z", "kind": "reply"}) + "\n")
    detection = json.loads(config_path.read_text(encoding="utf-8"))["detectionRange"]
    detected = tmp_path / "detected.tsv"
    assert run_cli("detect", "--events", events, "--start", detection["start"], "--end", detection["end"],
                   "--out", detected) == 0
    assert run_cli("run", "--config", config_path) == 0
    assert _tsv_map(detected) == _tsv_map(tmp_path / "out" / "membership.tsv")


@pytest.mark.parametrize(
    "source, flags, message",
    [
        ("events", ["--start", "2022-09-19"], "--start and --end must be given together"),
        ("events", ["--end", "2022-10-31"], "--start and --end must be given together"),
        ("edges", ["--start", "2022-09-19"], "--start cannot be used with --edges"),
        ("edges", ["--end", "2022-10-31"], "--end cannot be used with --edges"),
        ("edges", ["--kinds", "retweet"], "--kinds cannot be used with --edges"),
    ],
    ids=["start-alone", "end-alone", "edges-start", "edges-end", "edges-kinds"],
)
def test_detect_range_flag_misuse_is_a_usage_error(tmp_path, capsys, source, flags, message):
    write_stream(tmp_path / "events.jsonl")
    run_cli("fixtures", "--name", "three-groups", "--out-dir", tmp_path)
    inputs = {"events": tmp_path / "events.jsonl", "edges": tmp_path / "three-groups_edges.tsv"}
    capsys.readouterr()
    out = tmp_path / "partition.tsv"
    assert run_cli("detect", f"--{source}", inputs[source], *flags, "--out", out) == 1
    assert f"radscales: error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["ingest", "--kinds", "retweet", "quote"], ["detect", "--kinds", "quote"]],
    ids=["ingest", "detect"],
)
def test_unknown_kinds_flag_is_a_usage_error(tmp_path, capsys, command):
    write_stream(tmp_path / "events.jsonl")
    out = tmp_path / "written"
    with pytest.raises(SystemExit) as exc:
        run_cli(*command, "--events", tmp_path / "events.jsonl", "--out", out)
    assert exc.value.code == 1
    assert "--kinds" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, key",
    [(["--max-passes", "0"], "maxPasses"), (["--min-gain", "0"], "minGainEpsilon"), (["--min-gain", "-1"], "minGainEpsilon")],
    ids=["max-passes-0", "min-gain-0", "min-gain-negative"],
)
def test_detect_settings_fail_before_input_is_read(tmp_path, capsys, flags, key):
    # The inputs do not exist: reading either would be a data error (exit 2).
    out = tmp_path / "partition.tsv"
    for source in ("--events", "--edges"):
        assert run_cli("detect", source, tmp_path / "missing", *flags, "--out", out) == 1
        assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("rho", ["1.5", "0", "-0.5", "nan"])
def test_dominate_rejects_rho_outside_unit_interval(tmp_path, capsys, rho):
    run_cli("fixtures", "--name", "hubs", "--out-dir", tmp_path)
    capsys.readouterr()
    out = tmp_path / "dominate.json"
    assert run_cli("dominate", "--edges", tmp_path / "hubs_edges.tsv", "--rho", "0.5", "--rho", rho, "--out", out) == 1
    assert "radscales: error: --rho: coverage fraction" in capsys.readouterr().err
    assert not out.exists()


# sha256 of what detect writes, taken before detection on an event log went
# through pipeline.detect_membership.
DETECT_SHA256 = {
    "p.tsv": "34165a60080ff25ed8dcf7b1a5da0b54235b41c4843734add4d3497be2642ebd",
    "l.json": "6c708f8a22e01710a86865bbedd82f809937d6d7640613cdb9e7902eefea7b62",
    "e.tsv": "0803944bcd9130e52eaaded2d5c9b00ccd90d3cbe2d56c3e636d4bd190314448",
    "el.json": "88b05d366d1b74d03e7c72807f9ef40bc1ac18c17f78ac963219fbc4fe2cefa5",
}


def test_detect_matches_golden_hashes(tmp_path):
    write_stream(tmp_path / "events.jsonl")
    assert run_cli("detect", "--events", tmp_path / "events.jsonl", "--start", "2022-09-19", "--end", "2022-10-31",
                   "--seed", "0", "--out", tmp_path / "p.tsv", "--log", tmp_path / "l.json") == 0
    assert run_cli("fixtures", "--name", "planted", "--out-dir", tmp_path, "--groups", "12", "--size", "60",
                   "--p-in", "0.2", "--p-out", "0.01", "--seed", "5") == 0
    assert run_cli("detect", "--edges", tmp_path / "planted_edges.tsv", "--seed", "3",
                   "--out", tmp_path / "e.tsv", "--log", tmp_path / "el.json") == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in DETECT_SHA256} == DETECT_SHA256


@pytest.mark.parametrize("window", ["garbage", "w:2022-09-19"])
def test_malformed_window_flag_names_the_flag(tmp_path, capsys, window):
    config = write_run_dir(tmp_path)
    assert run_cli("run", "--config", config, "--window", window) == 2
    err = capsys.readouterr().err
    assert f"radscales: error: --window {window!r}" in err
    assert "line 1" not in err
    assert not (tmp_path / "out").exists()


def _version_line():
    return f"radscales {radscales.__version__}\n"


def test_console_script_installed():
    """The declared ``radscales`` script runs the way pip's wrapper runs it.

    The declaration is read from ``pyproject.toml`` rather than from
    ``importlib.metadata``, which may report a stale ``*.egg-info`` left
    on ``sys.path``; the child process imports the package under test.
    """
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert "radscales" in scripts
    module, _, attr = scripts["radscales"].partition(":")
    wrapper = (
        "import sys; sys.argv[0] = 'radscales'; "
        f"from {module} import {attr}; sys.exit({attr}())"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(radscales.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-c", wrapper, "--version"],
        capture_output=True, text=True, check=False, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == _version_line()


@pytest.mark.skipif(shutil.which("radscales") is None, reason="no radscales executable on PATH")
def test_console_script_on_path():
    result = subprocess.run(
        ["radscales", "--version"], capture_output=True, text=True, check=False
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == _version_line()


def _three_record_run_dir(base: Path, *windows: str) -> Path:
    """Window w1 holds a->x and b->y, w2 holds a->b, w3 holds nothing; only a
    and b have a membership."""
    base.mkdir(parents=True, exist_ok=True)
    records = [("a", "x", "2022-01-01"), ("b", "y", "2022-01-02"), ("a", "b", "2022-02-01")]
    (base / "events.jsonl").write_text(
        "".join(json.dumps({"source": s, "target": t, "timestamp": d, "kind": "retweet"}) + "\n" for s, t, d in records),
        encoding="utf-8",
    )
    (base / "membership.tsv").write_text("a\tg\nb\th\n", encoding="utf-8")
    bounds = {"w1": ("2022-01-01", "2022-02-01"), "w2": ("2022-02-01", "2022-03-01"), "w3": ("2022-03-01", "2022-04-01")}
    config = {
        "events": "events.jsonl",
        "membership": "membership.tsv",
        "windows": [{"label": w, "start": bounds[w][0], "end": bounds[w][1]} for w in windows],
        "minCommunitySize": 1,
    }
    (base / "config.json").write_text(json.dumps(config), encoding="utf-8")
    return base / "config.json"


@pytest.mark.parametrize(
    "windows, message",
    [
        (("w2", "w1"), "window w1: no edge between two users with a membership"),
        (("w2", "w3"), "window w3: no interaction events match the requested kinds"),
    ],
)
def test_run_window_error_names_the_window(tmp_path, capsys, windows, message):
    config = _three_record_run_dir(tmp_path, "w2")
    assert run_cli("run", "--config", config) == 0
    shutil.rmtree(tmp_path / "out")
    config = _three_record_run_dir(tmp_path, *windows)
    assert run_cli("run", "--config", config) == 2
    err = capsys.readouterr().err
    assert f"radscales: error: {message}\n" in err
    assert "Traceback" not in err
    assert not list((tmp_path / "out").glob("structural*"))


def test_run_deterministic_byte_identical(tmp_path):
    config_a = write_run_dir(tmp_path / "a")
    config_b = write_run_dir(tmp_path / "b")
    assert run_cli("run", "--config", config_a) == 0
    assert run_cli("run", "--config", config_b) == 0
    for name in ("structural.json", "speech.json", "detection_log.json", "membership.tsv"):
        first = (tmp_path / "a" / "out" / name).read_bytes()
        second = (tmp_path / "b" / "out" / name).read_bytes()
        assert first == second, name


# sha256 of every file `run` writes for the tests/streams run dir with its
# event lines shuffled by random.Random(9), taken before the columnar event
# store: a window must keep file order, which seeds Louvain's vertex shuffle
# and breaks greedy ties, whatever the order of the timestamps.
SHUFFLED_STREAM_SHA256 = {
    "detection_log.json": "6c708f8a22e01710a86865bbedd82f809937d6d7640613cdb9e7902eefea7b62",
    "membership.tsv": "6b8b8a9d1d601b0c4cef03e0486b7817fcd0315404baf6055c13e08f5f9163f0",
    "speech.json": "552ed0f85554d33daa165776bdee5eefb57ebcb7dc36a58afb41c5f02ee2ee24",
    "speech_w1.csv": "9077c436ecc1f9411db6a215b63a0b1cef528781b99b96867dc9cf1244cedd91",
    "speech_w2.csv": "9077c436ecc1f9411db6a215b63a0b1cef528781b99b96867dc9cf1244cedd91",
    "speech_w3.csv": "9077c436ecc1f9411db6a215b63a0b1cef528781b99b96867dc9cf1244cedd91",
    "speech_w4.csv": "9077c436ecc1f9411db6a215b63a0b1cef528781b99b96867dc9cf1244cedd91",
    "structural.json": "4080a387f223b93ab013d30a14eb5033a8fd90a68446b6fa178787b2f62d08b0",
    "structural_w1.csv": "435b2813bec93685d4cfc82679efebc930a629603a0b7b918a89cc79ffa62613",
    "structural_w2.csv": "e18484a6eef33a8b6f33cc5732c8e91b2a99e6b4cfdbc41ff4a0a02f3e48913d",
    "structural_w3.csv": "b9a91d850d6eee01775bc0e7e029827393d4ab2a3c9d07cb37ec7b67bbe6bca2",
    "structural_w4.csv": "3d90802ba14eb090a7b671be1de50292332020c0f14bb7da030a85524edbe6e4",
}


def test_run_on_shuffled_stream_matches_golden_hashes(tmp_path):
    config = write_run_dir(tmp_path)
    events = tmp_path / "events.jsonl"
    lines = events.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(9).shuffle(lines)
    events.write_text("".join(lines), encoding="utf-8")
    assert run_cli("run", "--config", config) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in (tmp_path / "out").iterdir()}
    assert written == SHUFFLED_STREAM_SHA256


@pytest.mark.parametrize("hash_seed", ["0", "1"])
def test_run_reports_do_not_depend_on_the_hash_seed(tmp_path, hash_seed):
    config = write_run_dir(tmp_path)
    env = dict(os.environ, PYTHONPATH=str(Path(radscales.__file__).resolve().parents[1]), PYTHONHASHSEED=hash_seed)
    result = subprocess.run(
        [sys.executable, "-m", "radscales", "run", "--config", str(config)],
        capture_output=True, text=True, check=False, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert written_sha256(tmp_path / "out") == RUN_DIR_SHA256


def test_ingest_and_run_skip_an_over_deep_line(tmp_path, capsys):
    config = write_run_dir(tmp_path)
    events = tmp_path / "events.jsonl"
    assert run_cli("ingest", "--events", events) == 0
    skipped = json.loads(capsys.readouterr().out)["skipped"]
    with events.open("a", encoding="utf-8") as fh:
        fh.write("[" * 100_000 + "]" * 100_000 + "\n")
    assert run_cli("ingest", "--events", events) == 0
    assert json.loads(capsys.readouterr().out)["skipped"] == skipped + 1
    assert run_cli("run", "--config", config) == 0
    assert written_sha256(tmp_path / "out") == RUN_DIR_SHA256


def test_run_warns_of_the_records_ingest_skipped(tmp_path, caplog):
    config = write_run_dir(tmp_path)
    events = tmp_path / "events.jsonl"
    with caplog.at_level(logging.WARNING):
        assert run_cli("run", "--config", config) == 0
    assert [m for m in caplog.messages if "skipped" in m] == []
    with events.open("a", encoding="utf-8") as fh:
        fh.write('{"kind": "retweet"}\n[1]\nnot json\n')
    caplog.clear()
    with caplog.at_level(logging.WARNING):
        assert run_cli("run", "--config", config) == 0
    assert [m for m in caplog.messages if "skipped" in m] == [f"{events}: skipped 3 invalid event records"]
    assert written_sha256(tmp_path / "out") == RUN_DIR_SHA256


@pytest.mark.parametrize("user", ["a\tb", "#x", " y"])
def test_run_membership_file_round_trips(tmp_path, user):
    # two triangles; the id under test sits in the first one
    triangles = [("u1", "u2", user), ("v1", "v2", "v3")]
    records = [
        {"source": a, "target": b, "timestamp": "2022-09-20T00:00:00Z", "kind": "retweet"}
        for triangle in triangles
        for a, b in ((triangle[0], triangle[1]), (triangle[0], triangle[2]), (triangle[1], triangle[2]))
    ]
    events = tmp_path / "events.jsonl"
    events.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "events": "events.jsonl",
        "windows": [{"label": "w", "start": "2022-09-19", "end": "2022-09-21"}],
        "minCommunitySize": 1,
    }), encoding="utf-8")
    assert run_cli("run", "--config", config) == 0
    update_config(config, membership="out/membership.tsv", outDir="again")
    assert run_cli("run", "--config", config) == 0
    first = (tmp_path / "out" / "structural.json").read_bytes()
    assert (tmp_path / "again" / "structural.json").read_bytes() == first
    assert run_cli("ingest", "--events", events, "--out", tmp_path / "ingest.json") == 0
    assert json.loads((tmp_path / "ingest.json").read_text(encoding="utf-8"))["skipped"] == 2


@pytest.mark.parametrize("field", ["source", "target", "author"])
def test_run_skips_lone_surrogate_user_ids(tmp_path, field):
    valid = {"source": "u1", "target": "u2", "timestamp": "2022-09-20T00:00:00Z", "kind": "retweet"}
    bad = {**valid, "author": "u3", "text": "ordem justo", field: "\ud800"}
    events = tmp_path / "events.jsonl"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "events": "events.jsonl",
        "windows": [{"label": "w", "start": "2022-09-19", "end": "2022-09-21"}],
        "minCommunitySize": 1,
    }), encoding="utf-8")
    events.write_text(json.dumps(valid) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    assert run_cli("run", "--config", config) == 0
    membership = (tmp_path / "out" / "membership.tsv").read_text(encoding="utf-8")
    assert [line.split("\t")[0] for line in membership.splitlines()] == ["u1", "u2"]
    events.write_text(json.dumps(bad) + "\n", encoding="utf-8")
    assert run_cli("run", "--config", config) == 2


def write_points(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


HIGHER = {"name": "c", "direction": "HIGHER_IS_MORE_RADICAL"}


def test_pareto_rejects_duplicate_labels(tmp_path, capsys):
    points = write_points(
        tmp_path / "points.json",
        {"criteria": [HIGHER], "points": [{"label": "x", "values": [1]}, {"label": "x", "values": [2]}]},
    )
    assert run_cli("pareto", "--points", points) == 2
    assert "'x'" in capsys.readouterr().err


# Each shape reached a traceback (exit 3) when it was accepted, or names
# the criterion or point it is about.
BAD_POINTS_FILES = {
    "list-top-level": ([], "criteria"),
    "no-points": ({"criteria": [HIGHER]}, "criteria"),
    "list-label": ({"criteria": [HIGHER], "points": [{"label": ["x"], "values": [1]}]}, "point 0"),
    "number-values": ({"criteria": [HIGHER], "points": [{"label": "x", "values": 3}]}, "point 0"),
    "bool-value": ({"criteria": [HIGHER], "points": [{"label": "x", "values": [1]}, {"label": "y", "values": [True]}]}, "point 1"),
    "huge-value": ({"criteria": [HIGHER], "points": [{"label": "x", "values": [10**400]}]}, "point 0"),
    "nameless-criterion": ({"criteria": [HIGHER, {"direction": "HIGHER_IS_MORE_RADICAL"}], "points": []}, "criterion 1"),
    "bad-direction": ({"criteria": [{"name": "c", "direction": "UP"}], "points": []}, "criterion 0"),
    "list-direction": ({"criteria": [{"name": "c", "direction": ["UP"]}], "points": []}, "criterion 0"),
}


@pytest.mark.parametrize("shape", sorted(BAD_POINTS_FILES))
def test_pareto_rejects_malformed_points_file(tmp_path, capsys, shape):
    payload, named = BAD_POINTS_FILES[shape]
    assert run_cli("pareto", "--points", write_points(tmp_path / "points.json", payload)) == 2
    assert named in capsys.readouterr().err


points_files = json_values | st.fixed_dictionaries(
    {},
    optional={
        "criteria": json_values | st.lists(
            json_values | st.fixed_dictionaries(
                {},
                optional={
                    "name": json_values | st.just("c"),
                    "direction": json_values | st.sampled_from([d.value for d in radscales.Direction]),
                },
            ),
            max_size=3,
        ),
        "points": json_values | st.lists(
            json_values | st.fixed_dictionaries(
                {},
                optional={
                    "label": json_values | st.sampled_from(["x", "y"]),
                    "values": json_values | st.lists(st.integers() | st.floats() | st.booleans(), max_size=3),
                },
            ),
            max_size=4,
        ),
    },
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(points_files)
def test_pareto_exit_code_over_points_file_shapes(tmp_path, payload):
    points = write_points(tmp_path / "points.json", payload)
    assert run_cli("pareto", "--points", points, "--out", tmp_path / "frontier.json") in (0, 2)


# Config edits that reached a traceback (exit 3), split a string into
# characters, ignored a mistyped key, or ran with a value other than the one
# written. Each is a usage error that names the key and writes nothing.
BAD_CONFIG_EDITS = [
    ("rhos", 5),
    ("windows", "w1"),
    ("events", ["a"]),
    ("detectionRange", [1]),
    ("outDir", 5),
    ("kinds", "retweet"),
    ("keywords", "vote"),
    ("minCommunitysize", 3),
    ("seed", 1.7),
    ("minCommunitySize", 2.9),
    ("minCommunitySize", True),
    ("includeShares", "false"),
    ("primaryRho", "0.75"),
    ("rhos", [0.5, 0.75, 1.5]),
    ("detectionRange", {"start": "2022-09-19"}),
    ("windows", [{"label": "w", "start": "2022-09-19", "end": "2022-10-03", "extra": 1}]),
    ("windows", []),
    ("kinds", ["retweet", "like"]),
    ("maxPasses", 0),
    ("minGainEpsilon", 0),
    ("minGainEpsilon", -1),
    ("kinds", []),
]


@pytest.mark.parametrize("key, value", BAD_CONFIG_EDITS, ids=[f"{k}={json.dumps(v)}" for k, v in BAD_CONFIG_EDITS])
def test_run_rejects_bad_config_value(tmp_path, capsys, key, value):
    config_path = write_run_dir(tmp_path)
    update_config(config_path, **{key: value})
    assert run_cli("run", "--config", config_path) == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_config_that_is_not_an_object(tmp_path, capsys):
    config_path = write_run_dir(tmp_path)
    config_path.write_text("[]", encoding="utf-8")
    assert run_cli("run", "--config", config_path) == 1
    assert "must be a JSON object" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_requires_windows(tmp_path, capsys):
    config_path = write_run_dir(tmp_path)
    update_config(config_path, windows=None)
    assert run_cli("run", "--config", config_path) == 1
    assert "windows is required" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_null_max_passes_takes_the_default(tmp_path):
    default = write_run_dir(tmp_path / "default")
    null = write_run_dir(tmp_path / "null")
    config = json.loads(null.read_text(encoding="utf-8"))
    config["maxPasses"] = None
    null.write_text(json.dumps(config), encoding="utf-8")
    assert run_cli("run", "--config", default, "--out-dir", tmp_path / "default" / "out") == 0
    assert run_cli("run", "--config", null, "--out-dir", tmp_path / "null" / "out") == 0
    for name in ("detection_log.json", "structural.json"):
        assert (tmp_path / "null" / "out" / name).read_bytes() == (tmp_path / "default" / "out" / name).read_bytes()


@pytest.mark.parametrize(
    "windows, labels",
    [
        (["a:2022-09-19:2022-10-03", "a:2022-10-03:2022-10-17"], ("'a'", "'a'")),
        (["a b:2022-09-19:2022-10-03", "a_b:2022-10-03:2022-10-17"], ("'a b'", "'a_b'")),
    ],
    ids=["equal-labels", "equal-file-names"],
)
def test_run_rejects_colliding_window_labels(tmp_path, capsys, windows, labels):
    config = write_run_dir(tmp_path)
    flags = [arg for window in windows for arg in ("--window", window)]
    assert run_cli("run", "--config", config, *flags) == 1
    err = capsys.readouterr().err
    assert all(label in err for label in labels)
    assert not (tmp_path / "out").exists()


def test_run_flags_get_the_config_checks(tmp_path, capsys):
    config = write_run_dir(tmp_path)
    assert run_cli("run", "--config", config, "--rho", "1.5") == 1
    assert "rhos" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--config", config, "--min-community-size", "2.5")
    assert exc.value.code == 1
    assert "--min-community-size" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


config_edit_values = json_values | st.sampled_from(
    [
        [0.5, 1],
        {"start": "2022-09-19", "end": "2022-10-31"},
        {"start": OUT_OF_RANGE, "end": "2022-10-31"},
        [{"label": "w", "start": "2022-09-19", "end": "2022-10-03"}],
        [{"label": "w", "start": "2022-10-03", "end": "2022-09-19"}],
        ["retweet", "reply"],
        "auto",
    ]
)
# Paths name files in the run directory and a fresh output directory only,
# so that a run reads and writes nowhere else.
not_strings = json_values.filter(lambda v: not isinstance(v, str))
key_values = {
    key: not_strings | st.sampled_from(["events.jsonl", "mfd_test.dic", "config.json", "missing", ""])
    for key in ("events", "membership", "lexicon", "foundationMap")
}
key_values["outDir"] = not_strings | st.sampled_from(["out", "res", ""])
config_edits = st.dictionaries(
    st.sampled_from(sorted(RUN_KEYS) + ["minCommunitysize", ""]), st.none(), max_size=3
).flatmap(
    lambda keys: st.fixed_dictionaries({key: key_values.get(key, config_edit_values) for key in keys})
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(config_edits)
def test_run_exit_code_over_config_shapes(tmp_path, edits):
    base = Path(tempfile.mkdtemp(dir=tmp_path))
    config_path = write_run_dir(base)
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config.update(edits)
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out_dir = base / (config["outDir"] if isinstance(config.get("outDir"), str) and config["outDir"] else "out")
    code = run_cli("run", "--config", config_path)
    assert code in (0, 1, 2)
    if code == 1:
        assert not out_dir.exists()
    shutil.rmtree(base)


@pytest.mark.parametrize("fmap", [[], {"Fairness": 5}, {"Fairness": [1]}, {"Fairness": "FairnessVirtue"}])
def test_lexicon_score_rejects_malformed_foundation_map(tmp_path, capsys, fmap):
    dic = tmp_path / "test.dic"
    dic.write_text(TEST_DIC, encoding="utf-8")
    docs = tmp_path / "docs.jsonl"
    docs.write_text(json.dumps({"community": "x", "text": "ordem"}) + "\n", encoding="utf-8")
    fmap_path = tmp_path / "map.json"
    fmap_path.write_text(json.dumps(fmap), encoding="utf-8")
    assert run_cli("lexicon-score", "--dic", dic, "--docs", docs, "--map", fmap_path) == 2
    assert "list of category names" in capsys.readouterr().err


@pytest.mark.parametrize("reader", ["run --config", "pareto --points", "lexicon-score --map", "lexicon-score --docs"])
def test_over_deep_json_is_a_data_error(tmp_path, capsys, reader):
    # JSON nested past the decoder's recursion limit ended each reader with a
    # RecursionError traceback (exit 3); it is a data error naming its file or line.
    deep = "[" * 100_000 + "]" * 100_000 + "\n"
    good = json.dumps({"community": "x", "text": "ordem"}) + "\n"
    dic, docs, deep_docs, deep_file = (tmp_path / name for name in ("test.dic", "docs.jsonl", "deep.jsonl", "deep.json"))
    dic.write_text(TEST_DIC, encoding="utf-8")
    docs.write_text(good, encoding="utf-8")
    deep_docs.write_text(good + deep, encoding="utf-8")
    deep_file.write_text(deep, encoding="utf-8")
    argv, named = {
        "run --config": (["run", "--config", deep_file], str(deep_file)),
        "pareto --points": (["pareto", "--points", deep_file], str(deep_file)),
        "lexicon-score --map": (["lexicon-score", "--dic", dic, "--docs", docs, "--map", deep_file], str(deep_file)),
        "lexicon-score --docs": (["lexicon-score", "--dic", dic, "--docs", deep_docs], "line 2"),
    }[reader]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reader, code", [("run --config", 1), ("pareto --points", 2), ("lexicon-score --map", 2)])
def test_a_key_given_twice_in_one_object_is_an_error(tmp_path, capsys, reader, code):
    # The JSON decoder keeps the last of two equal keys, so a run config with
    # "seed": 0, "seed": 5 ran with seed 5 and no word about the 0.
    config_path = write_run_dir(tmp_path)
    docs, twice = tmp_path / "docs.jsonl", tmp_path / "twice.json"
    docs.write_text(json.dumps({"community": "x", "text": "ordem"}) + "\n", encoding="utf-8")
    config = config_path.read_text(encoding="utf-8")
    argv, key, text = {
        "run --config": (["run", "--config", twice], "seed", config.replace('"seed": 0', '"seed": 0, "seed": 5')),
        "pareto --points": (
            ["pareto", "--points", twice],
            "points",
            json.dumps({"criteria": [HIGHER]})[:-1] + ', "points": [], "points": [{"label": "x", "values": [1]}]}',
        ),
        "lexicon-score --map": (
            ["lexicon-score", "--dic", tmp_path / "mfd_test.dic", "--docs", docs, "--map", twice],
            "Fairness",
            '{"Fairness": ["FairnessVirtue"], "Fairness": ["FairnessVice"]}',
        ),
    }[reader]
    twice.write_text(text, encoding="utf-8")
    assert run_cli(*argv) == code
    err = capsys.readouterr().err
    assert repr(key) in err and str(twice) in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "fmap, named", [(None, "map.json"), ({"Fairness": ["NoSuchCategory"]}, "'Fairness'")], ids=["missing", "empty-axis"]
)
def test_run_checks_the_foundation_map_before_ingest(tmp_path, capsys, fmap, named):
    # A missing or unusable foundation map was found only after detection and
    # the structural windows; it is a data error before the events are read.
    config_path = write_run_dir(tmp_path)
    if fmap is not None:
        (tmp_path / "map.json").write_text(json.dumps(fmap), encoding="utf-8")
    update_config(config_path, foundationMap="map.json")
    with mock.patch("radscales.pipeline.ingest_events") as ingest:
        assert run_cli("run", "--config", config_path) == 2
    assert not ingest.called
    assert named in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing", ["events", "membership"])
def test_run_with_a_missing_input_makes_no_out_dir(tmp_path, capsys, missing):
    # The out dir was made before the events were read, so a missing input
    # left an empty one behind.
    config_path = write_run_dir(tmp_path)
    (tmp_path / "membership.tsv").write_text("a00\ta\n", encoding="utf-8")
    update_config(config_path, **{"membership": "membership.tsv", missing: "missing.jsonl"})
    assert run_cli("run", "--config", config_path) == 2
    assert "missing.jsonl" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Each label below left a report cut short at itself, the speech report only
# after the whole analysis: UTF-8 cannot encode a lone surrogate.
@pytest.mark.parametrize("source", ["config", "flag"])
def test_run_rejects_a_window_label_utf8_cannot_encode(tmp_path, capsys, source):
    config_path = write_run_dir(tmp_path)
    flags = []
    if source == "config":
        update_config(config_path, windows=[{"label": "\ud800", "start": "2022-09-19", "end": "2022-10-03"}])
    else:
        flags = ["--window", "\udcff:2022-09-19:2022-10-03"]  # an undecodable argv byte
    with mock.patch("radscales.pipeline.ingest_events") as ingest:
        assert run_cli("run", "--config", config_path, *flags) == 1
    assert not ingest.called
    assert "UTF-8 cannot encode" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_rejects_a_foundation_axis_utf8_cannot_encode(tmp_path, capsys):
    config_path = write_run_dir(tmp_path)
    (tmp_path / "map.json").write_text(json.dumps({"\ud800": ["FairnessVirtue"]}), encoding="utf-8")
    update_config(config_path, foundationMap="map.json")
    with mock.patch("radscales.pipeline.ingest_events") as ingest:
        assert run_cli("run", "--config", config_path) == 2
    assert not ingest.called
    assert "axis '\\ud800'" in capsys.readouterr().err
    assert not (tmp_path / "out" / "speech.json").exists()


@pytest.mark.parametrize(
    "payload, named",
    [
        ({"criteria": [HIGHER], "points": [{"label": "x", "values": [1]}, {"label": "\ud800", "values": [2]}]}, "point 1"),
        ({"criteria": [{"name": "\udfff", "direction": "HIGHER_IS_MORE_RADICAL"}], "points": []}, "criterion 0"),
    ],
    ids=["point-label", "criterion-name"],
)
def test_pareto_rejects_a_label_utf8_cannot_encode(tmp_path, capsys, payload, named):
    out = tmp_path / "frontier.json"
    assert run_cli("pareto", "--points", write_points(tmp_path / "points.json", payload), "--out", out) == 2
    err = capsys.readouterr().err
    assert named in err and "UTF-8 cannot encode" in err
    assert not out.exists()
