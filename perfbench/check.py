"""Output checks that share no code with ``radscales``.

Each check recomputes what a report states from the generated inputs, or
from the report's own values, with plain loops written for this file:

- cohesion: every window's groups, sizes and ``dModularity`` from the
  window's retweet edges and the membership, including the fold of small
  groups into ``other``;
- speech: ``tokenCount`` and the per-axis word frequencies from the posts
  and the dictionary text;
- frontiers: every ``onFrontier`` flag and ``frontier`` list by an
  all-pairs dominance loop over the values the report itself gives;
- planted groups (workloads with detection): each planted group lands in
  one detected community, and most groups in a community of their own.

``check_reports`` returns a list of failure messages; empty means correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from bisect import bisect_right
from collections import Counter, defaultdict
from pathlib import Path

AXES = {
    "Fairness": ("FairnessVirtue", "FairnessVice"),
    "IngroupLoyalty": ("IngroupVirtue", "IngroupVice"),
    "Authority": ("AuthorityVirtue", "AuthorityVice"),
    "Purity": ("PurityVirtue", "PurityVice"),
}
PLAIN_WORD = re.compile(r"[a-z]+")
D_MODULARITY_TOLERANCE = 1e-9
ZERO_Q = 1e-12
RECOVERED_SHARE = 0.9  # of a planted group's users in its main community
DISTINCT_SHARE = 0.9  # distinct main communities per planted group; Louvain merges a few


def report_hashes(out_dir: Path) -> dict[str, str]:
    """sha256 of every file the run wrote, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.is_file()
    }


def _read_membership(path: Path) -> dict[str, str]:
    membership = {}
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            user, label = line.rstrip("\n").split("\t")
            membership[user] = label
    return membership


def _read_windows(work_dir: Path, config: dict):
    """Per window label: retweet pairs, and (speaker, text) of other posts."""
    windows = config["windows"]
    starts = [w["start"] for w in windows]
    pairs = {w["label"]: [] for w in windows}
    posts = {w["label"]: [] for w in windows}
    with (work_dir / config["events"]).open(encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            # Uniform "YYYY-MM-DDTHH:MM:SSZ" stamps order as strings.
            stamp = record["timestamp"]
            i = bisect_right(starts, stamp) - 1
            if i < 0 or stamp >= windows[i]["end"]:
                continue
            label = windows[i]["label"]
            if record["kind"] == "retweet":
                pairs[label].append((record["source"], record["target"]))
            elif record.get("text"):
                posts[label].append((record.get("author") or record.get("source"), record["text"]))
    return pairs, posts


def _frontier(points: dict[str, tuple[float, ...]]) -> set[str]:
    """Labels no other point dominates; greater is more radical everywhere."""
    return {
        a
        for a, va in points.items()
        if not any(
            all(x >= y for x, y in zip(vb, va)) and any(x > y for x, y in zip(vb, va))
            for b, vb in points.items()
            if b != a
        )
    }


def _check_flags(where: str, flags: dict[str, bool], listed: list, front: set[str]) -> list[str]:
    errors = [f"{where}: onFrontier of {label} is wrong" for label, flag in flags.items() if flag != (label in front)]
    if listed != sorted(front):
        errors.append(f"{where}: frontier list {listed} != recomputed {sorted(front)}")
    return errors


def _expected_cohesion(pairs, membership, min_size):
    """Kept groups with their sizes and d_i, from the window's edges."""
    vertices = {u for pair in pairs for u in pair if u in membership}
    edges = {
        (min(a, b), max(a, b))
        for a, b in pairs
        if a != b and a in membership and b in membership
    }
    size = Counter(membership[u] for u in vertices)
    kept = sorted(g for g, s in size.items() if s >= min_size)
    kept_set = set(kept)

    def group(u):
        return membership[u] if membership[u] in kept_set else "other"

    m = len(edges)
    internal: Counter = Counter()
    degree_sum: Counter = Counter()
    for a, b in edges:
        degree_sum[group(a)] += 1
        degree_sum[group(b)] += 1
        if group(a) == group(b):
            internal[group(a)] += 1
    qi = {g: internal[g] / m - (degree_sum[g] / (2 * m)) ** 2 for g in degree_sum} if m else {}
    q = sum(qi.values())
    d = {g: (qi.get(g, 0.0) / q if abs(q) >= ZERO_Q else None) for g in kept} if m else {}
    return kept, size, d


def check_structural(config: dict, reports: list[dict], pairs, membership) -> list[str]:
    errors = []
    primary = str(config["primaryRho"])
    if [r["window"] for r in reports] != [w["label"] for w in config["windows"]]:
        return ["structural: windows differ from the config"]
    for report in reports:
        where = f"structural {report['window']}"
        kept, size, d = _expected_cohesion(pairs[report["window"]], membership, config["minCommunitySize"])
        communities = report["communities"]
        if [c["label"] for c in communities] != kept:
            errors.append(f"{where}: groups {len(communities)} != expected {len(kept)}")
            continue
        if report["degenerate"] != (len(kept) < 2):
            errors.append(f"{where}: degenerate flag is wrong")
        for c in communities:
            label, got, want = c["label"], c["dModularity"], d.get(c["label"])
            if c["size"] != size[label]:
                errors.append(f"{where}: size of {label} {c['size']} != {size[label]}")
            if (got is None) != (want is None) or (
                got is not None and not math.isclose(got, want, rel_tol=D_MODULARITY_TOLERANCE, abs_tol=ZERO_Q)
            ):
                errors.append(f"{where}: dModularity of {label} {got} != {want}")
            pds = [c["pdsSizes"][str(r)] for r in config["rhos"]]
            if pds != sorted(pds) or not 1 <= pds[0] <= pds[-1] <= c["size"]:
                errors.append(f"{where}: pdsSizes of {label} {pds} are not monotone within 1..size")
        points = {
            c["label"]: (c["dModularity"], -c["pdsSizes"][primary])
            for c in communities
            if c["dModularity"] is not None
        }
        flags = {c["label"]: c["onFrontier"] for c in communities}
        errors += _check_flags(where, flags, report["frontier"], _frontier(points))
    return errors


def _read_dic(path: Path) -> tuple[dict[int, str], list[tuple[str, bool, set[int]]]]:
    names: dict[int, str] = {}
    entries = []
    section = 0
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            if parts == ["%"]:
                section += 1
            elif section == 1 and parts:
                names[int(parts[0])] = " ".join(parts[1:])
            elif section == 2 and parts:
                pattern = parts[0].lower()
                prefix = pattern.endswith("*")
                entries.append((pattern.rstrip("*"), prefix, {int(p) for p in parts[1:]}))
    return names, entries


def check_speech(config: dict, reports: list[dict], posts, membership, dic_path: Path) -> list[str]:
    names, entries = _read_dic(dic_path)
    axis_ids = {
        axis: {cid for cid, name in names.items() if name in cats} for axis, cats in AXES.items()
    }
    axes_of: dict[str, tuple[str, ...]] = {}

    def word_axes(word: str) -> tuple[str, ...]:
        if word not in axes_of:
            if not PLAIN_WORD.fullmatch(word):
                raise ValueError(f"word {word!r} is not plain lowercase; cannot recount")
            ids = set()
            for pattern, prefix, cids in entries:
                if word == pattern or (prefix and word.startswith(pattern)):
                    ids |= cids
            axes_of[word] = tuple(a for a, a_ids in axis_ids.items() if ids & a_ids)
        return axes_of[word]

    errors = []
    if [r["window"] for r in reports] != [w["label"] for w in config["windows"]]:
        return ["speech: windows differ from the config"]
    for report in reports:
        where = f"speech {report['window']}"
        if report["axes"] != list(AXES):
            errors.append(f"{where}: axes {report['axes']} != {list(AXES)}")
            continue
        words: dict[str, Counter] = defaultdict(Counter)
        for speaker, text in posts[report["window"]]:
            if speaker in membership:
                words[membership[speaker]].update(text.split())
        expected = {}
        for label in sorted(words):
            tokens = sum(words[label].values())
            if not tokens:
                continue  # the pipeline drops a corpus without tokens
            hits = Counter()
            for word, n in words[label].items():
                for axis in word_axes(word):
                    hits[axis] += n
            expected[label] = (tokens, {axis: hits[axis] / tokens for axis in AXES})
        communities = report["communities"]
        if [c["community"] for c in communities] != list(expected):
            errors.append(f"{where}: communities {len(communities)} != expected {len(expected)}")
            continue
        for c in communities:
            tokens, scores = expected[c["community"]]
            if c["tokenCount"] != tokens or c["scores"] != scores:
                errors.append(f"{where}: scores of {c['community']} differ from the recount")
        points = {c["community"]: tuple(c["scores"][a] for a in AXES) for c in communities}
        flags = {c["community"]: c["onFrontier"] for c in communities}
        errors += _check_flags(where, flags, report["frontier"], _frontier(points))
    return errors


def check_planted(membership: dict[str, str], detection_log: list[float]) -> list[str]:
    """Planted group of ``u{g}_{i}`` is g; each lands in one community."""
    by_group: dict[str, Counter] = defaultdict(Counter)
    for user, label in membership.items():
        by_group[user[1:].split("_")[0]][label] += 1
    errors = []
    main = {}
    for group, counts in by_group.items():
        label, n = counts.most_common(1)[0]
        main[group] = label
        if n < RECOVERED_SHARE * sum(counts.values()):
            errors.append(f"planted group {group}: only {n} of {sum(counts.values())} users together")
    if len(set(main.values())) < DISTINCT_SHARE * len(main):
        errors.append(f"planted groups: {len(main)} groups land in {len(set(main.values()))} communities")
    if detection_log != sorted(detection_log):
        errors.append("detection log: modularity decreases between passes")
    return errors


def check_reports(work_dir: Path, out_dir: Path) -> list[str]:
    """All checks that apply to the run whose inputs are in *work_dir*."""
    config = json.loads((work_dir / "config.json").read_text(encoding="utf-8"))
    detected = "membership" not in config
    membership = _read_membership(out_dir / "membership.tsv" if detected else work_dir / config["membership"])
    pairs, posts = _read_windows(work_dir, config)
    structural = json.loads((out_dir / "structural.json").read_text(encoding="utf-8"))
    errors = check_structural(config, structural, pairs, membership)
    if config.get("lexicon"):
        speech = json.loads((out_dir / "speech.json").read_text(encoding="utf-8"))
        errors += check_speech(config, speech, posts, membership, work_dir / config["lexicon"])
    if detected:
        log = json.loads((out_dir / "detection_log.json").read_text(encoding="utf-8"))
        errors += check_planted(membership, log)
    return errors
