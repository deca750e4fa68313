"""Event-log ingestion, time-window slicing, and interaction graphs.

Events arrive as JSONL records with fields {source, target, author, text,
timestamp, kind}. Interaction records carry source and target (endorsement
edges, e.g. retweets); document records carry author and text. A single
record may be both. Invalid records are counted and skipped, never fatal
unless nothing valid remains.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import IO, Container, Iterable

from .errors import NoEventsError
from .graph import Graph, build_graph
from .lexicon import tokenize

EVENT_KINDS = ("retweet", "reply", "mention", "other")
# Record fields that, when present and not null, must be strings.
_STRING_FIELDS = ("source", "target", "author", "text", "timestamp")


def parse_timestamp(value: str) -> datetime:
    """RFC 3339 / ISO timestamp to an aware UTC datetime.

    Accepts a trailing 'Z' and date-only strings; naive values are taken
    as UTC. Raises ValueError for unparseable values and for values whose
    UTC conversion leaves the datetime range.
    """
    text = value.strip()
    if text.endswith(("Z", "z")):
        text = text[:-1] + "+00:00"
    parsed = datetime.fromisoformat(text)
    if parsed.tzinfo is None:
        return parsed.replace(tzinfo=timezone.utc)
    try:
        return parsed.astimezone(timezone.utc)
    except OverflowError as exc:
        raise ValueError(f"timestamp {value!r} is out of range in UTC") from exc


@dataclass(frozen=True)
class Event:
    timestamp: datetime
    kind: str
    source: str | None = None
    target: str | None = None
    author: str | None = None
    text: str | None = None

    @property
    def is_interaction(self) -> bool:
        return bool(self.source and self.target)

    @property
    def speaker(self) -> str | None:
        """Whose corpus a text record belongs to: author first, else source."""
        return self.author or self.source


@dataclass(frozen=True)
class EventLog:
    events: tuple[Event, ...]
    skipped: int = 0

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)


@dataclass(frozen=True)
class WindowSpec:
    """Half-open time window [start, end)."""

    label: str
    start: datetime
    end: datetime

    def __post_init__(self):
        if self.start >= self.end:
            raise ValueError(f"window {self.label!r}: start must precede end")

    @classmethod
    def from_strings(cls, label: str, start: str, end: str) -> "WindowSpec":
        """Window from a label and two timestamps, each read by parse_timestamp."""
        return cls(label=label, start=parse_timestamp(start), end=parse_timestamp(end))

    def contains(self, instant: datetime) -> bool:
        return self.start <= instant < self.end


def _event_from_record(record: dict) -> Event | None:
    """Validated Event, or None when the record is unusable."""
    if not isinstance(record, dict):
        return None
    kind = record.get("kind")
    if kind not in EVENT_KINDS:
        return None
    if any(
        record.get(name) is not None and not isinstance(record[name], str)
        for name in _STRING_FIELDS
    ):
        return None
    if record.get("timestamp") is None:
        return None
    try:
        timestamp = parse_timestamp(record["timestamp"])
    except ValueError:
        return None
    source = record.get("source") or None
    target = record.get("target") or None
    author = record.get("author") or None
    text = record.get("text") or None
    interaction = bool(source and target)
    document = bool((author or source) and text)
    if not interaction and not document:
        return None
    return Event(
        timestamp=timestamp,
        kind=kind,
        source=source,
        target=target,
        author=author,
        text=text,
    )


def ingest_events(
    stream: IO[str] | Iterable[str],
    *,
    kinds: Iterable[str] | None = None,
    keywords: Iterable[str] | None = None,
) -> EventLog:
    """Read a JSONL event stream, counting and skipping invalid records.

    ``kinds`` keeps only the given interaction kinds; ``keywords`` keeps
    only events whose text contains at least one keyword as a token
    (case-insensitive). Raises NoEventsError when nothing valid remains.
    """
    wanted_kinds = set(kinds) if kinds is not None else None
    wanted_words = {w.lower() for w in keywords} if keywords is not None else None
    events: list[Event] = []
    skipped = 0
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:  # also integers past the interpreter's digit limit
            skipped += 1
            continue
        event = _event_from_record(record)
        if event is None:
            skipped += 1
            continue
        if wanted_kinds is not None and event.kind not in wanted_kinds:
            continue
        if wanted_words is not None:
            if not event.text or not (wanted_words & set(tokenize(event.text))):
                continue
        events.append(event)
    if not events:
        raise NoEventsError("no valid event records after filtering")
    return EventLog(events=tuple(events), skipped=skipped)


def slice_window(events: EventLog, window: WindowSpec) -> EventLog:
    """Events with start <= t < end, original order preserved."""
    return EventLog(
        events=tuple(e for e in events if window.contains(e.timestamp)),
        skipped=0,
    )


def build_interaction_graph(
    events: EventLog, kinds: Iterable[str] | None = None, *, known: Container[str] | None = None
) -> Graph:
    """Undirected simple graph over the users of matching interaction events.

    ``kinds`` restricts the interaction kinds (None keeps all), ``known`` the
    vertices as in ``build_graph(keep=...)``. Raises NoEventsError when no
    interactions match or all collapse to self-loops, before ``known`` applies.
    """
    wanted = set(kinds) if kinds is not None else None
    pairs = [
        (event.source, event.target)
        for event in events
        if event.is_interaction and (wanted is None or event.kind in wanted)
    ]
    if not pairs:
        raise NoEventsError("no interaction events match the requested kinds")
    if all(a == b for a, b in pairs):
        raise NoEventsError("all matching interactions are self-loops")
    return build_graph(pairs, keep=known)
