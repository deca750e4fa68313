"""Event-log ingestion, time-window slicing, and interaction pairs.

Events arrive as JSONL records with fields {source, target, author, text,
timestamp, kind}. Interaction records carry source and target (endorsement
edges, e.g. retweets); document records carry author and text. A single
record may be both. Invalid records, among them those with a user id that
membership.tsv could not hold, are counted and skipped, never fatal unless
nothing valid remains. An EventLog keeps the records as columns in file
order, each text only as the lexicon match set of each of its tokens; a time
window is a bisect range of their stable time order.
"""

from __future__ import annotations

import copy
import json
import operator
import re
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from itertools import islice
from typing import IO, Iterable, Iterator, Sequence

from .errors import ConfigError, NoEventsError
from .graph import strip_bom
from .lexicon import Lexicon, tokenize

EVENT_KINDS = ("retweet", "reply", "mention", "other")
# Types a record's source, target, author and text may have: absent is None.
_STRING_OR_ABSENT = {str, type(None)}
# A user id that membership.tsv could not give back as written: one with a
# TAB, CR or LF, with leading or trailing whitespace (as str.strip sees it),
# with a leading '#', or with a lone surrogate, which UTF-8 cannot encode.
_UNPORTABLE_USER = re.compile(r"[\t\r\n\ud800-\udfff]|\A[\s#]|\s\Z")
# A canonical UTC stamp, YYYY-MM-DDTHH:MM:SSZ in ASCII digits with the time of
# day in range; parse_timestamp reads its date, every other form whole.
_CANONICAL_STAMP = re.compile(r"([0-9]{4}-[0-9]{2}-[0-9]{2})T([01][0-9]|2[0-3]):([0-5][0-9]):([0-5][0-9])Z")
_TWO_DIGITS = {f"{n:02d}": n for n in range(60)}  # every hour, minute and second the regex admits


def check_kinds(kinds: Iterable[str]) -> set[str]:
    """The set of *kinds*, which must be a non-empty list of EVENT_KINDS (ConfigError)."""
    kinds = list(kinds)
    if not kinds or not all(kind in EVENT_KINDS for kind in kinds):
        raise ConfigError(f"kinds must list event kinds ({', '.join(EVENT_KINDS)}), got {kinds}")
    return set(kinds)


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
    ``users`` (-1 when absent). Texts are kept only when ingested with a
    ``lexicon``: ``has_text[r]`` says whether row ``r`` has one, and its
    tokens' match-set ids (see Lexicon.text_ids) are
    ``token_sets[token_offsets[r]:token_offsets[r + 1]]``, a bytearray while
    at most 256 match sets are numbered and an ``array("i")`` after. ``rows``
    lists the row numbers this log covers, in file order: every row for an
    ingested log, a window's rows for a slice, which shares the columns.
    """

    def __init__(self):
        self.times = array("q")
        self.kinds = bytearray()
        self.sources = array("i")
        self.targets = array("i")
        self.authors = array("i")
        self.lexicon: Lexicon | None = None
        self.has_text = bytearray()
        self.token_sets: bytearray | array = bytearray()
        self.token_offsets = array("q", [0])
        self._user_ids: dict[str, int] = {}
        self.skipped = 0
        self._index()

    def _index(self) -> None:
        """Users by id, the stable time order of all rows and the times in that order.

        ingest_events calls this once its columns are complete. Times already in
        order (a stable sort is then the identity) share the ``times`` column
        uncopied, so nothing may append to the columns afterwards.
        """
        times, n = self.times, len(self.times)
        self.users = list(self._user_ids)
        if all(map(operator.le, times, islice(times, 1, None))):
            self.order, self.sorted_times = range(n), times
        else:
            self.order, self.sorted_times = array("i", sorted(range(n), key=times.__getitem__)), array("q", sorted(times))
        self.span = (0, n)
        self.rows: Sequence[int] = range(n)

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


def ingest_events(
    stream: IO[str] | Iterable[str],
    *,
    kinds: Iterable[str] | None = None,
    keywords: Iterable[str] | None = None,
    lexicon: Lexicon | None = None,
) -> EventLog:
    """Read a JSONL event stream, counting and skipping invalid records.

    ``kinds`` keeps only the given interaction kinds (see check_kinds);
    ``keywords`` keeps only events whose text contains at least one keyword as
    a token (case-insensitive). Texts are kept, as match-set ids, only with a
    ``lexicon``. One leading U+FEFF (a byte-order mark) on the first line is
    dropped. Raises NoEventsError when nothing valid remains.
    """
    wanted_kinds = check_kinds(kinds) if kinds is not None else None
    wanted_words = {w.lower() for w in keywords} if keywords is not None else None
    log = EventLog()
    ids, unportable, canonical = log._user_ids, _UNPORTABLE_USER.search, _CANONICAL_STAMP.fullmatch
    log.lexicon = lexicon
    has_text, token_sets, token_offsets = log.has_text, log.token_sets, log.token_offsets
    decode = json.JSONDecoder().raw_decode
    day_micros: dict[str, int] = {}  # date -> micros of its midnight, for canonical stamps
    for raw in strip_bom(stream):
        line = raw.strip(" \t\n\r")  # as json.loads: only JSON whitespace may surround a record
        if not line or line.isspace():
            continue
        try:
            record, end = decode(line)
        except (ValueError, RecursionError):  # also over-long integers and over-deep nesting
            record, end = None, 0
        if end != len(line) or type(record) is not dict:
            log.skipped += 1
            continue
        get = record.get
        kind, stamp, source, target, author, text = (
            get("kind"), get("timestamp"), get("source"), get("target"), get("author"), get("text")
        )
        # A user id is checked until it is interned; all three before any is.
        if (
            kind not in EVENT_KINDS
            or type(stamp) is not str
            or not (type(source) in _STRING_OR_ABSENT and type(target) in _STRING_OR_ABSENT
                    and type(author) in _STRING_OR_ABSENT and type(text) in _STRING_OR_ABSENT)
            or not ((source and target) or ((author or source) and text))
            or (source and source not in ids and unportable(source))
            or (target and target not in ids and unportable(target))
            or (author and author not in ids and unportable(author))
        ):
            log.skipped += 1
            continue
        try:
            if match := canonical(stamp):
                date, hour, minute, second = match.groups()
                if (midnight := day_micros.get(date)) is None:
                    midnight = day_micros[date] = _micros(parse_timestamp(date))
                micros = midnight + ((_TWO_DIGITS[hour] * 60 + _TWO_DIGITS[minute]) * 60 + _TWO_DIGITS[second]) * 1_000_000
            else:
                micros = _micros(parse_timestamp(stamp))
        except ValueError:
            log.skipped += 1
            continue
        if wanted_kinds is not None and kind not in wanted_kinds:
            continue
        if wanted_words is not None and not (text and wanted_words & set(tokenize(text))):
            continue
        log.times.append(micros)
        log.kinds.append(EVENT_KINDS.index(kind))
        log.sources.append(ids.setdefault(source, len(ids)) if source else -1)
        log.targets.append(ids.setdefault(target, len(ids)) if target else -1)
        log.authors.append(ids.setdefault(author, len(ids)) if author else -1)
        if lexicon is not None:
            if text:
                set_ids = lexicon.text_ids(text)
                if type(set_ids) is tuple and type(token_sets) is bytearray:  # more than 256 match sets: widen once
                    token_sets = log.token_sets = array("i", iter(token_sets))
                token_sets.extend(set_ids)
            has_text.append(bool(text))
            token_offsets.append(len(token_sets))
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
    order = events.order
    view.rows = order[lo:hi] if isinstance(order, range) else array("i", sorted(order[lo:hi]))
    return view


def _interaction_pairs(events: EventLog, kinds: Iterable[str] | None = None) -> Iterator[tuple[int, int]]:
    """(source, target) interned user ids of the matching interaction events, in file order.

    ``kinds`` restricts the interaction kinds (None keeps all; see check_kinds).
    Raises NoEventsError, before yielding, when none match or all are self-loops.
    """
    wanted = check_kinds(kinds) if kinds is not None else None
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
