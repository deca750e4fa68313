"""Event-log ingestion, time-window slicing, and interaction graphs.

Events arrive as JSONL records with fields {source, target, author, text,
timestamp, kind}. Interaction records carry source and target (endorsement
edges, e.g. retweets); document records carry author and text. A single
record may be both. Invalid records, among them those with a user id that
membership.tsv could not hold, are counted and skipped, never fatal unless
nothing valid remains. An EventLog keeps the records as columns in file
order; a time window is a bisect range of their stable time order.
"""

from __future__ import annotations

import copy
import json
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import IO, Iterable, Iterator, Sequence

from .errors import NoEventsError
from .graph import Graph, build_graph
from .lexicon import tokenize

EVENT_KINDS = ("retweet", "reply", "mention", "other")
# Record fields that, when present and not null, must be strings.
_STRING_FIELDS = ("source", "target", "author", "text", "timestamp")
_USER_FIELDS = ("source", "target", "author")
# A user id that membership.tsv could not give back as written: one with a
# TAB, CR or LF, with leading or trailing whitespace (as str.strip sees it),
# with a leading '#', or with a lone surrogate, which UTF-8 cannot encode.
_UNPORTABLE_USER = re.compile(r"[\t\r\n\ud800-\udfff]|\A[\s#]|\s\Z")


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


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _micros(instant: datetime) -> int:
    """Exact integer microseconds since the Unix epoch of an aware datetime."""
    return (instant - _EPOCH) // _MICROSECOND


class EventLog:
    """Events as columns in file order, user ids interned; built by ingest_events.

    ``times`` holds UTC microseconds since the epoch, ``kinds`` indices into
    EVENT_KINDS, and ``sources``/``targets``/``authors`` indices into
    ``users`` (-1 when absent). ``rows`` lists the row numbers this log
    covers, in file order: every row for an ingested log, a window's rows
    for a slice, which shares the columns.
    """

    def __init__(self):
        self.times = array("q")
        self.kinds = bytearray()
        self.sources = array("i")
        self.targets = array("i")
        self.authors = array("i")
        self.texts: list[str | None] = []
        self._user_ids: dict[str, int] = {}
        self.skipped = 0
        self._index()

    def _index(self) -> None:
        """Users by id, the stable time order of all rows and the times in that order."""
        times = self.times
        self.users = list(self._user_ids)
        self.order = array("i", sorted(range(len(times)), key=times.__getitem__))
        self.sorted_times = array("q", map(times.__getitem__, self.order))
        self.span = (0, len(times))
        self.rows: Sequence[int] = range(len(times))

    def __len__(self) -> int:
        return len(self.rows)


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


def _record_fields(record: dict) -> tuple | None:
    """(micros, kind, source, target, author, text) of a valid record, else None."""
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
    for name in _USER_FIELDS:
        user = record.get(name)
        if user and _UNPORTABLE_USER.search(user):
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
    return _micros(timestamp), kind, source, target, author, text


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
    log = EventLog()
    ids = log._user_ids
    for raw in stream:
        line = raw.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except ValueError:  # also integers past the interpreter's digit limit
            log.skipped += 1
            continue
        fields = _record_fields(record)
        if fields is None:
            log.skipped += 1
            continue
        micros, kind, source, target, author, text = fields
        if wanted_kinds is not None and kind not in wanted_kinds:
            continue
        if wanted_words is not None and not (text and wanted_words & set(tokenize(text))):
            continue
        log.times.append(micros)
        log.kinds.append(EVENT_KINDS.index(kind))
        log.sources.append(-1 if source is None else ids.setdefault(source, len(ids)))
        log.targets.append(-1 if target is None else ids.setdefault(target, len(ids)))
        log.authors.append(-1 if author is None else ids.setdefault(author, len(ids)))
        log.texts.append(text)
    if not log.times:
        raise NoEventsError("no valid event records after filtering")
    log._index()
    return log


def slice_window(events: EventLog, window: WindowSpec) -> EventLog:
    """Events with start <= t < end, file order preserved, sharing the columns."""
    lo, hi = events.span
    lo = max(lo, bisect_left(events.sorted_times, _micros(window.start)))
    hi = max(lo, min(hi, bisect_left(events.sorted_times, _micros(window.end))))
    view = copy.copy(events)
    view.skipped = 0
    view.span = (lo, hi)
    view.rows = array("i", sorted(events.order[lo:hi]))
    return view


def _interaction_pairs(events: EventLog, kinds: Iterable[str] | None = None) -> Iterator[tuple[int, int]]:
    """(source, target) interned user ids of the matching interaction events, in file order.

    ``kinds`` restricts the interaction kinds (None keeps all). Raises
    NoEventsError, before yielding, when none match or all are self-loops.
    """
    wanted = set(kinds) if kinds is not None else None
    matching = [wanted is None or kind in wanted for kind in EVENT_KINDS]
    sources, targets, kind_of = events.sources, events.targets, events.kinds

    def pairs() -> Iterator[tuple[int, int]]:
        for r in events.rows:
            if sources[r] >= 0 and targets[r] >= 0 and matching[kind_of[r]]:
                yield sources[r], targets[r]

    if all(s == t for s, t in pairs()):
        if next(pairs(), None) is None:
            raise NoEventsError("no interaction events match the requested kinds")
        raise NoEventsError("all matching interactions are self-loops")
    return pairs()


def build_interaction_graph(events: EventLog, kinds: Iterable[str] | None = None) -> Graph:
    """Undirected simple graph over the users of matching interaction events.

    ``kinds`` restricts the interaction kinds (None keeps all). Raises
    NoEventsError when no interactions match or all collapse to self-loops.
    """
    users = events.users
    return build_graph((users[s], users[t]) for s, t in _interaction_pairs(events, kinds))
