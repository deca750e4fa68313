"""Seeded, byte-deterministic inputs for the benchmark workloads.

Kept apart from ``tests/streams.py`` on purpose: the test stream is tuned
for the acceptance suite and must not change when the benchmark does.

``generate(workload, seed, out_dir)`` writes ``config.json``,
``events.jsonl`` and, depending on the workload, ``lexicon.dic`` and
``membership.tsv``. The same workload and seed always give the same bytes.
Users are named ``u{group}_{i}``, so the planted group of every user can be
read back from its id.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

EPOCH = datetime(2023, 1, 2, tzinfo=timezone.utc)
RHOS = [0.5, 0.75, 1.0]
PRIMARY_RHO = 0.75


@dataclass(frozen=True)
class Shape:
    groups: int
    group_size: int
    windows: int
    window_days: int
    retweets: int  # per window
    posts: int  # per window
    post_words: int
    min_size: int  # explicit: "auto" folds every group on these shapes
    detect_windows: int  # 0: a membership file is given instead
    lexicon: str | None  # "test", "mfd" or None
    in_group: float = 0.85


SHAPES = {
    # ROADMAP scale M: the only workload that runs detection.
    "planted-m": Shape(200, 100, 4, 14, 50_000, 10_000, 12, 10, 3, "test"),
    # Many small communities over many windows: slicing, graph and domination.
    "many-windows": Shape(500, 24, 16, 7, 10_000, 0, 0, 5, 0, None),
    # Long posts against a large dictionary: the lexicon layer.
    "speech-heavy": Shape(200, 50, 4, 14, 5_000, 40_000, 20, 5, 0, "mfd"),
}
WORKLOADS = tuple(SHAPES)

# A small dictionary in the style of the test fixture, with its vocabulary.
TEST_CATEGORIES = (
    "FairnessVirtue", "FairnessVice", "IngroupVirtue", "IngroupVice",
    "AuthorityVirtue", "AuthorityVice", "PurityVirtue", "PurityVice",
)
TEST_ENTRIES = (
    ("justo", 1), ("injusto", 2), ("leal*", 3), ("traidor*", 4),
    ("autoridade", 5), ("obedec*", 5), ("ordem", 5), ("desobedec*", 6),
    ("puro", 7), ("impuro", 8),
)
TEST_VOCABULARY = (
    "autoridade manda ordem hoje obedecer sempre chefe fala justo debate tema "
    "atual conversa aberta puro campo injusto leal traidores desobedecer impuro"
).split()

# MFD-like layout: Care and MoralityGeneral exist but map to no axis.
MFD_CATEGORIES = (
    "CareVirtue", "CareVice", "FairnessVirtue", "FairnessVice", "IngroupVirtue",
    "IngroupVice", "AuthorityVirtue", "AuthorityVice", "PurityVirtue",
    "PurityVice", "MoralityGeneral",
)
MFD_ENTRIES = 320
MFD_FILLER_WORDS = 600
MFD_MATCH_SHARE = 0.3
SUFFIXES = ("", "s", "ed", "ing", "ly", "ness")
LETTERS = "abcdefghijklmnopqrstuvwxyz"


def _stamp(seconds: int) -> str:
    return (EPOCH + timedelta(seconds=seconds)).strftime("%Y-%m-%dT%H:%M:%SZ")


def _word(rng: random.Random, low: int, high: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(low, high)))


def _dic_text(categories, entries) -> str:
    lines = ["%"]
    lines += [f"{i}\t{name}" for i, name in enumerate(categories, start=1)]
    lines.append("%")
    lines += [f"{pattern}\t{' '.join(map(str, ids))}" for pattern, *ids in entries]
    return "\n".join(lines) + "\n"


def _mfd_lexicon(rng: random.Random) -> tuple[str, list[str], list[str]]:
    """Dictionary text, words that match an entry, and words that match none.

    Stems are prefix-free, two thirds of them are prefix patterns, and
    filler words neither equal a stem nor start with a prefix stem.
    """
    stems: list[str] = []
    while len(stems) < MFD_ENTRIES:
        stem = _word(rng, 4, 7)
        if not any(stem.startswith(s) or s.startswith(stem) for s in stems):
            stems.append(stem)
    entries = []
    matching: list[str] = []
    for i, stem in enumerate(stems):
        ids = sorted(rng.sample(range(1, len(MFD_CATEGORIES) + 1), rng.choice((1, 1, 1, 2))))
        if i % 3:
            entries.append((stem + "*", *ids))
            matching += [stem + suffix for suffix in rng.sample(SUFFIXES, 2)]
        else:
            entries.append((stem, *ids))
            matching.append(stem)
    filler: list[str] = []
    while len(filler) < MFD_FILLER_WORDS:
        word = _word(rng, 3, 8)
        if not any(word.startswith(s) for s in stems) and word not in filler:
            filler.append(word)
    return _dic_text(MFD_CATEGORIES, entries), matching, filler


def _window_iso(shape: Shape, index: int) -> str:
    return _stamp(index * shape.window_days * 86_400)


def _config(shape: Shape, seed: int) -> dict:
    config = {
        "events": "events.jsonl",
        "kinds": ["retweet"],
        "windows": [
            {
                "label": f"w{i + 1:02d}",
                "start": _window_iso(shape, i),
                "end": _window_iso(shape, i + 1),
            }
            for i in range(shape.windows)
        ],
        "seed": seed,
        "rhos": RHOS,
        "primaryRho": PRIMARY_RHO,
        "minCommunitySize": shape.min_size,
        "outDir": "out",
    }
    if shape.detect_windows:
        config["detectionRange"] = {
            "start": _window_iso(shape, 0),
            "end": _window_iso(shape, shape.detect_windows),
        }
    else:
        config["membership"] = "membership.tsv"
    if shape.lexicon:
        config["lexicon"] = "lexicon.dic"
    return config


def generate(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's inputs into *out_dir*; return their sizes."""
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)

    post_words = None  # no posts without a lexicon
    if shape.lexicon == "test":
        dic = _dic_text(TEST_CATEGORIES, TEST_ENTRIES)

        def post_words() -> list[str]:
            return rng.choices(TEST_VOCABULARY, k=shape.post_words)

    elif shape.lexicon == "mfd":
        dic, matching, filler = _mfd_lexicon(rng)

        def post_words() -> list[str]:
            return [
                rng.choice(matching) if rng.random() < MFD_MATCH_SHARE else rng.choice(filler)
                for _ in range(shape.post_words)
            ]

    if shape.lexicon:
        (out_dir / "lexicon.dic").write_text(dic, encoding="utf-8")

    users = [[f"u{g}_{i}" for i in range(shape.group_size)] for g in range(shape.groups)]
    if not shape.detect_windows:
        with (out_dir / "membership.tsv").open("w", encoding="utf-8") as fh:
            for g, members in enumerate(users):
                for user in members:
                    fh.write(f"{user}\tg{g:03d}\n")

    seen: set[str] = set()
    records = 0
    span = shape.window_days * 86_400
    per_window = shape.retweets + shape.posts
    with (out_dir / "events.jsonl").open("w", encoding="utf-8", newline="\n") as fh:
        for w in range(shape.windows):
            kinds = [True] * shape.retweets + [False] * shape.posts
            rng.shuffle(kinds)
            for i, is_retweet in enumerate(kinds):
                stamp = _stamp(w * span + i * span // per_window)
                g = rng.randrange(shape.groups)
                if is_retweet:
                    if rng.random() < shape.in_group:
                        a, b = rng.sample(users[g], 2)
                    else:
                        h = (g + 1 + rng.randrange(shape.groups - 1)) % shape.groups
                        a, b = rng.choice(users[g]), rng.choice(users[h])
                    seen.update((a, b))
                    fh.write(
                        f'{{"source": "{a}", "target": "{b}", '
                        f'"timestamp": "{stamp}", "kind": "retweet"}}\n'
                    )
                else:
                    author = rng.choice(users[g])
                    seen.add(author)
                    fh.write(
                        f'{{"author": "{author}", "text": "{" ".join(post_words())}", '
                        f'"timestamp": "{stamp}", "kind": "other"}}\n'
                    )
                records += 1

    (out_dir / "config.json").write_text(
        json.dumps(_config(shape, seed), indent=2) + "\n", encoding="utf-8"
    )
    return {
        "records": records,
        "bytes": (out_dir / "events.jsonl").stat().st_size,
        "users": len(seen),
        "groups": shape.groups,
        "windows": shape.windows,
    }
