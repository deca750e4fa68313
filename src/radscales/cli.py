"""Command-line interface.

Subcommands: ingest, detect, dmod, dominate, lexicon-score, pareto, run,
fixtures. Exit codes: 0 success, 1 usage error, 2 data error, 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import traceback
from collections import Counter
from pathlib import Path
from typing import Sequence

from . import __version__
from .community import DetectionConfig, detect
from .domination import _check_rho, _greedy_sweep
from .errors import ConfigError, MalformedLineError, RadscalesError
from .events import EVENT_KINDS, WindowSpec, ingest_events, parse_timestamp
from .graph import community_rows, load_edge_list, load_partition, read_json, utf8_encodable, write_edge_list, write_partition
from .lexicon import load_foundation_map, parse_mfd_dic, score_by_community
from .modularity import d_modularity_report
from .pareto import pareto_frontier, read_points
from .pipeline import (
    AUTO, DEFAULT_KINDS, DEFAULT_RHOS, AnalysisConfig, RunConfig, detect_membership, membership_from_partition, run, write_json
)
from .synth import PlantedPartitionParams, hub_hierarchy_graph, planted_partition, three_group_graph

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    """argparse with exit code 1 on usage errors (default would be 2)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def parse_window(arg: str) -> WindowSpec:
    """Parse ``label:start:end`` where start/end are ISO timestamps.

    Timestamps may themselves contain colons, so every split position is
    tried until both sides parse.
    """
    label, sep, rest = arg.partition(":")
    if not sep or not label:
        raise ValueError(f"--window {arg!r} is not label:start:end")
    for pos in (i for i, ch in enumerate(rest) if ch == ":"):
        start, end = rest[:pos], rest[pos + 1 :]
        try:
            parse_timestamp(start), parse_timestamp(end)
        except ValueError:
            continue
        return WindowSpec.from_strings(label, start, end)
    raise ValueError(f"--window {arg!r} has no parseable start:end")


def _auto_or_int(text: str) -> int | str:
    """``--min-community-size`` value: "auto" or an integer."""
    if text == AUTO:
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected {AUTO!r} or an integer, got {text!r}") from None


def _load_events(path: Path, kinds=None, keywords=None):
    with path.open("r", encoding="utf-8") as fh:
        return ingest_events(fh, kinds=kinds, keywords=keywords)


def _write_payload(payload: object, out: str | None) -> None:
    if out:
        write_json(payload, Path(out))
    else:
        json.dump(payload, sys.stdout, indent=2, ensure_ascii=False)
        sys.stdout.write("\n")


def _cmd_ingest(args) -> int:
    log = _load_events(Path(args.events), kinds=args.kinds, keywords=args.keywords)
    kinds_seen = Counter(EVENT_KINDS[k] for k in log.kinds)
    _write_payload(
        {"events": len(log), "skipped": log.skipped, "byKind": dict(sorted(kinds_seen.items()))},
        args.out,
    )
    return EXIT_OK


def _cmd_detect(args) -> int:
    detection = DetectionConfig(seed=args.seed, max_passes=args.max_passes, min_gain_epsilon=args.min_gain)
    if args.edges:
        given = [f"--{flag}" for flag in ("start", "end", "kinds") if getattr(args, flag) is not None]
        if given:
            raise ConfigError(f"{', '.join(given)} cannot be used with --edges")
        with open(args.edges, "r", encoding="utf-8") as fh:
            graph = load_edge_list(fh)
        result = detect(graph, detection)
        membership = membership_from_partition(graph.labels, result.partition)
    else:
        if (args.start is None) != (args.end is None):
            raise ConfigError("--start and --end must be given together")
        config = AnalysisConfig(kinds=tuple(args.kinds or DEFAULT_KINDS), detection=detection)
        window = None if args.start is None else WindowSpec.from_strings("detection", args.start, args.end)
        membership, result = detect_membership(_load_events(Path(args.events)), config, window)
    with open(args.out, "w", encoding="utf-8") as fh:  # in vertex order
        fh.writelines(f"{user}\t{label}\n" for user, label in membership.items())
    if args.log:
        write_json(list(result.pass_modularity), Path(args.log))
    print(f"{result.partition.group_count} communities, Q={result.pass_modularity[-1]:.6f} -> {args.out}")
    return EXIT_OK


def _cmd_dmod(args) -> int:
    with open(args.edges, "r", encoding="utf-8") as fh:
        graph = load_edge_list(fh)
    with open(args.partition, "r", encoding="utf-8") as fh:
        partition = load_partition(fh, graph)
    _write_payload(d_modularity_report(graph, partition).to_dict(), args.out)
    return EXIT_OK


def _cmd_dominate(args) -> int:
    rhos = args.rho or DEFAULT_RHOS
    for rho in rhos:
        _check_rho(rho, "--rho")
    with open(args.edges, "r", encoding="utf-8") as fh:
        graph = load_edge_list(fh)

    def sweep(adjacency, labels) -> list[dict]:  # one greedy run answers every rho
        return [result.to_dict(labels) for result in _greedy_sweep(adjacency, rhos)]

    if args.partition:
        with open(args.partition, "r", encoding="utf-8") as fh:
            partition = load_partition(fh, graph)
        rows = community_rows(partition, graph.edges(), partition.group_count)
        payload = {
            "communities": [
                {
                    "label": partition.group_label(i),
                    "results": sweep(adjacency, [graph.labels[v] for v in partition.members(i)]),
                }
                for i, adjacency in enumerate(rows)
            ]
        }
    else:
        payload = {"results": sweep(graph.adjacency, graph.labels)}
    _write_payload(payload, args.out)
    return EXIT_OK


def _cmd_lexicon_score(args) -> int:
    with open(args.dic, "r", encoding="utf-8") as fh:
        lexicon = parse_mfd_dic(fh)
    foundation_map = load_foundation_map(args.map)
    docs: dict[str, list[str]] = {}
    with open(args.docs, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except RecursionError:
                raise MalformedLineError(line_no, "JSON nested too deeply to decode") from None
            if not isinstance(record, dict) or not all(
                isinstance(record.get(key), str) for key in ("community", "text")
            ):
                raise MalformedLineError(line_no, "expected {community, text} record of strings")
            if not utf8_encodable(record["community"]):
                raise MalformedLineError(line_no, f"community {record['community']!r} cannot be written: UTF-8 cannot encode it")
            docs.setdefault(record["community"], []).append(record["text"])
    scores = score_by_community(lexicon, foundation_map, docs)
    _write_payload([s.to_dict() for s in scores], args.out)
    return EXIT_OK


def _cmd_pareto(args) -> int:
    criteria, points = read_points(read_json(args.points))
    frontier = pareto_frontier(points, criteria)
    _write_payload(
        {
            "criteria": [{"name": c.name, "direction": c.direction.value} for c in criteria],
            "points": [
                {"label": p.label, "values": list(p.values), "onFrontier": p.label in frontier}
                for p in points
            ],
        },
        args.out,
    )
    return EXIT_OK


def _cmd_run(args) -> int:
    config_path = Path(args.config)
    raw = read_json(config_path, ConfigError)
    overrides = {
        "seed": args.seed,
        "rhos": args.rho,
        "minCommunitySize": args.min_community_size,
        "windows": [parse_window(w) for w in args.window] if args.window else None,
        "includeShares": args.include_shares,
        "outDir": args.out_dir,
    }
    config = RunConfig.from_json(raw, config_path.parent, overrides)
    run(config)
    print(f"reports written to {config.out_dir}")
    return EXIT_OK


def _cmd_fixtures(args) -> int:
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.name == "three-groups":
        graph, partition = three_group_graph()
    elif args.name == "hubs":
        graph, partition = hub_hierarchy_graph(), None
    else:
        graph, partition = planted_partition(
            PlantedPartitionParams(
                group_count=args.groups,
                group_size=args.size,
                p_in=args.p_in,
                p_out=args.p_out,
                seed=args.seed,
            )
        )
    edges_path = out_dir / f"{args.name}_edges.tsv"
    with edges_path.open("w", encoding="utf-8") as fh:
        write_edge_list(graph, fh)
    written = [str(edges_path)]
    if partition is not None:
        part_path = out_dir / f"{args.name}_partition.tsv"
        with part_path.open("w", encoding="utf-8") as fh:
            write_partition(partition, graph.labels, fh)
        written.append(str(part_path))
    print("\n".join(written))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    detection = DetectionConfig()
    parser = _Parser(prog="radscales", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="validate and summarize a JSONL event stream")
    p.add_argument("--events", required=True)
    p.add_argument("--kinds", nargs="+", choices=EVENT_KINDS, default=None)
    p.add_argument("--keywords", nargs="+", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("detect", help="community detection on an edge list or event range")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--edges")
    src.add_argument("--events")
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--kinds", nargs="+", choices=EVENT_KINDS, default=None)
    p.add_argument("--seed", type=int, default=detection.seed)
    p.add_argument("--max-passes", type=int, default=detection.max_passes)
    p.add_argument("--min-gain", type=float, default=detection.min_gain_epsilon)
    p.add_argument("--out", required=True, help="partition file to write")
    p.add_argument("--log", help="detection log JSON (per-pass modularity)")
    p.set_defaults(func=_cmd_detect)

    p = sub.add_parser("dmod", help="modularity and group contributions")
    p.add_argument("--edges", required=True)
    p.add_argument("--partition", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dmod)

    p = sub.add_parser("dominate", help="greedy partial dominating sets")
    p.add_argument("--edges", required=True)
    p.add_argument("--partition", help="run per community instead of whole graph")
    p.add_argument("--rho", type=float, action="append")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dominate)

    p = sub.add_parser("lexicon-score", help="foundation-word frequencies per community")
    p.add_argument("--dic", required=True, help="LIWC-style dictionary file")
    p.add_argument("--docs", required=True, help="JSONL of {community, text}")
    p.add_argument("--map", help="foundation map JSON (default: standard axes)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_lexicon_score)

    p = sub.add_parser("pareto", help="frontier of a criteria/points JSON file")
    p.add_argument("--points", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_pareto)

    p = sub.add_parser("run", help="full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--rho", type=float, action="append")
    p.add_argument("--min-community-size", type=_auto_or_int, default=None)
    p.add_argument("--window", action="append", help="label:start:end (repeatable)")
    p.add_argument("--include-shares", action="store_true", default=None)
    p.add_argument("--out-dir")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("fixtures", help="dump built-in demo graphs")
    p.add_argument("--name", required=True, choices=["three-groups", "hubs", "planted"])
    p.add_argument("--out-dir", required=True)
    p.add_argument("--groups", type=int, default=3)
    p.add_argument("--size", type=int, default=4)
    p.add_argument("--p-in", type=float, default=0.9)
    p.add_argument("--p-out", type=float, default=0.1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RadscalesError, OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"radscales: error: {exc}", file=sys.stderr)
        return EXIT_USAGE if isinstance(exc, ConfigError) else EXIT_DATA
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
