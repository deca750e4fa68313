"""Synthetic multi-window event streams with a planted radicalizing community.

Community "a" grows more isolated (rising internal density, falling
cross-community rate) and more hub-concentrated (fewer hubs carrying ever
more of the internal edges) from window to window, while "b" and "c" stay
statistically flat. Everything is seeded and byte-deterministic.
"""

from __future__ import annotations

import hashlib
import json
import random
from datetime import timedelta
from pathlib import Path

from radscales import WindowSpec, parse_timestamp

GROUP_SIZE = 30
WINDOW_COUNT = 4
WINDOW_DAYS = 14
STREAM_SEED = 2022

# per-window knobs for community "a": shrinking hub sets, rising hub and
# baseline densities, falling cross-community rate
A_HUBS = (8, 5, 3, 2)
A_HUB_P = (0.5, 0.7, 0.85, 0.95)
A_BASE_P = (0.15, 0.2, 0.25, 0.3)
A_CROSS_P = (0.05, 0.035, 0.02, 0.01)
FLAT_IN_P = 0.25
FLAT_CROSS_P = 0.02

POST_TEMPLATES = {
    "a": "autoridade manda ordem hoje obedecer sempre chefe fala",
    "b": "justo debate hoje tema atual conversa aberta fala",
    "c": "puro campo hoje tema atual conversa aberta fala",
}

TEST_DIC = """\
%
1\tFairnessVirtue
2\tFairnessVice
3\tIngroupVirtue
4\tIngroupVice
5\tAuthorityVirtue
6\tAuthorityVice
7\tPurityVirtue
8\tPurityVice
%
justo\t1
injusto\t2
leal*\t3
traidor*\t4
autoridade\t5
obedec*\t5
ordem\t5
desobedec*\t6
puro\t7
impuro\t8
"""


def members(community: str) -> list[str]:
    return [f"{community}{i:02d}" for i in range(GROUP_SIZE)]


def stream_windows() -> list[WindowSpec]:
    start = parse_timestamp("2022-09-19T00:00:00Z")
    return [
        WindowSpec(
            label=f"w{i + 1}",
            start=start + timedelta(days=WINDOW_DAYS * i),
            end=start + timedelta(days=WINDOW_DAYS * (i + 1)),
        )
        for i in range(WINDOW_COUNT)
    ]


def _window_records(window_index: int, window: WindowSpec, rng: random.Random) -> list[dict]:
    groups = {name: members(name) for name in ("a", "b", "c")}
    records: list[dict] = []

    def retweet(u: str, v: str) -> None:
        stamp = window.start + timedelta(seconds=len(records))
        records.append(
            {
                "source": u,
                "target": v,
                "timestamp": stamp.isoformat().replace("+00:00", "Z"),
                "kind": "retweet",
            }
        )

    hubs = set(groups["a"][: A_HUBS[window_index]])
    for name, users in groups.items():
        for i in range(GROUP_SIZE):
            for j in range(i + 1, GROUP_SIZE):
                u, v = users[i], users[j]
                if name == "a":
                    p = A_HUB_P[window_index] if (u in hubs or v in hubs) else A_BASE_P[window_index]
                else:
                    p = FLAT_IN_P
                if rng.random() < p:
                    retweet(u, v)
    for first, second in (("a", "b"), ("a", "c"), ("b", "c")):
        p = A_CROSS_P[window_index] if "a" in (first, second) else FLAT_CROSS_P
        for u in groups[first]:
            for v in groups[second]:
                if rng.random() < p:
                    retweet(u, v)

    for name, users in groups.items():
        for poster in users[:5]:
            stamp = window.start + timedelta(seconds=len(records))
            records.append(
                {
                    "author": poster,
                    "text": POST_TEMPLATES[name],
                    "timestamp": stamp.isoformat().replace("+00:00", "Z"),
                    "kind": "other",
                }
            )
    return records


def write_stream(path: Path) -> list[WindowSpec]:
    """Write the JSONL stream; returns the window specs it spans."""
    rng = random.Random(STREAM_SEED)
    windows = stream_windows()
    with path.open("w", encoding="utf-8") as fh:
        for index, window in enumerate(windows):
            for record in _window_records(index, window, rng):
                fh.write(json.dumps(record, ensure_ascii=False) + "\n")
    return windows


# sha256 of every file `run` writes for the run dir of write_run_dir(base),
# taken before detection left the labelled Graph.
RUN_DIR_SHA256 = {
    "detection_log.json": "6c708f8a22e01710a86865bbedd82f809937d6d7640613cdb9e7902eefea7b62",
    "membership.tsv": "e90c22d80c6dca8a7becdf9547cd59dc5c4c8e80e175a4b944a65e4d62c47bbe",
    "speech.json": "0330f694a3e39784702b9e68744ac586a48eee8210c4d699e6b3d9e5adc6a036",
    "speech_w1.csv": "7f8e0d8d0320f739e418f06f0038121f31ffc98cef9f602f8ecd0ffe7d44e735",
    "speech_w2.csv": "7f8e0d8d0320f739e418f06f0038121f31ffc98cef9f602f8ecd0ffe7d44e735",
    "speech_w3.csv": "7f8e0d8d0320f739e418f06f0038121f31ffc98cef9f602f8ecd0ffe7d44e735",
    "speech_w4.csv": "7f8e0d8d0320f739e418f06f0038121f31ffc98cef9f602f8ecd0ffe7d44e735",
    "structural.json": "147591ff5a46a641ccd976150507dc13bd0f4830083da16a38fd5e9c0b1f3bf3",
    "structural_w1.csv": "73a93abc5b886197d8bb728e7af81a97a486f0fe711419f8fbe5b3f516d61f6d",
    "structural_w2.csv": "5d2e358c7fa7436f30335efe65bac8bcef5b2ec825a5bd7f427840ed6a577382",
    "structural_w3.csv": "0b8356e41988c9678618c91e73cbae53f992cdea7017f9c78c72fef3b259462b",
    "structural_w4.csv": "e5a7e458c6367d41dacf738b3b3621dd7e74223236bdfd09f5f583a42e1c37c8",
}


def written_sha256(out_dir: Path) -> dict[str, str]:
    """sha256 of every file in *out_dir*, by name."""
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out_dir.iterdir()}


def write_run_dir(base: Path, *, seed: int = 0, with_lexicon: bool = True) -> Path:
    """Materialize events + lexicon + config for the CLI `run` subcommand."""
    base.mkdir(parents=True, exist_ok=True)
    windows = write_stream(base / "events.jsonl")
    detection = windows[:3]  # roughly the first 75% of the span
    config = {
        "events": "events.jsonl",
        "kinds": ["retweet"],
        "windows": [
            {
                "label": w.label,
                "start": w.start.isoformat(),
                "end": w.end.isoformat(),
            }
            for w in windows
        ],
        "detectionRange": {
            "start": detection[0].start.isoformat(),
            "end": detection[-1].end.isoformat(),
        },
        "seed": seed,
        "rhos": [0.5, 0.75, 1.0],
        "primaryRho": 0.75,
        "minCommunitySize": 10,
        "outDir": "out",
    }
    if with_lexicon:
        (base / "mfd_test.dic").write_text(TEST_DIC, encoding="utf-8")
        config["lexicon"] = "mfd_test.dic"
    config_path = base / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return config_path
