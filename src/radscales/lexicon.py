"""Moral-foundation lexicon parsing and per-community word-frequency scores.

Reads LIWC-style .dic files (a %-delimited category block followed by
"pattern<TAB>id [id ...]" entries, '*' marking prefix patterns), maps
category names onto foundation axes, and scores corpora as the fraction of
tokens matching each axis. A token counts at most once per axis no matter
how many of the axis's categories it hits.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .errors import (
    EmptyCorpusError,
    FoundationMapError,
    MalformedLineError,
    MissingDelimiterError,
    UnknownCategoryError,
)
from .graph import read_json, utf8_encodable

# The four radicalization axes, in canonical order. The Care foundation is
# deliberately not an axis even when its categories exist in a dictionary.
DEFAULT_AXES: dict[str, tuple[str, ...]] = {
    "Fairness": ("FairnessVirtue", "FairnessVice"),
    "IngroupLoyalty": ("IngroupVirtue", "IngroupVice"),
    "Authority": ("AuthorityVirtue", "AuthorityVice"),
    "Purity": ("PurityVirtue", "PurityVice"),
}

_URL_RE = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
_HANDLE_RE = re.compile(r"@\w+")
_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)


@dataclass(frozen=True)
class LexiconEntry:
    pattern: str
    is_prefix: bool
    category_ids: frozenset[int]


@dataclass(frozen=True)
class Lexicon:
    """Parsed dictionary: category id -> name, plus match entries."""

    categories: dict[int, str]
    entries: tuple[LexiconEntry, ...]
    _exact: dict[str, frozenset[int]] = field(init=False, repr=False, compare=False)
    _prefixes: dict[str, list[tuple[str, frozenset[int]]]] = field(
        init=False, repr=False, compare=False
    )
    _memo: dict[str, bytes | tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _set_ids: dict[frozenset[int], int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        exact: dict[str, set[int]] = {}
        prefixes: dict[str, dict[str, set[int]]] = {}
        for entry in self.entries:
            if entry.is_prefix:
                bucket = prefixes.setdefault(entry.pattern[0], {})
                bucket.setdefault(entry.pattern, set()).update(entry.category_ids)
            else:
                exact.setdefault(entry.pattern, set()).update(entry.category_ids)
        object.__setattr__(
            self, "_exact", {p: frozenset(ids) for p, ids in exact.items()}
        )
        object.__setattr__(
            self,
            "_prefixes",
            {
                ch: sorted((p, frozenset(ids)) for p, ids in bucket.items())
                for ch, bucket in prefixes.items()
            },
        )
        object.__setattr__(self, "_memo", {})  # whitespace chunk -> its tokens' match-set ids
        object.__setattr__(self, "_set_ids", {})  # match set -> its id, in first-seen order

    def category_ids_for(self, token: str) -> frozenset[int]:
        """All category ids the token matches (exact or prefix)."""
        found: set[int] = set(self._exact.get(token, ()))
        for pattern, pattern_ids in self._prefixes.get(token[:1], ()):
            if token.startswith(pattern):
                found.update(pattern_ids)
        return frozenset(found)

    def match_sets(self) -> list[frozenset[int]]:
        """The match set of each match-set id: the distinct category_ids_for results, in first-seen order."""
        return list(self._set_ids)

    def text_ids(self, text: str) -> bytes | tuple[int, ...]:
        """The match-set id of each token of *text*, in order; bytes while at most 256 sets are numbered.
        No token crosses whitespace, so each chunk is matched once and remembered unless it holds a URL or @-handle."""
        chunks, memo = text.split(), self._memo
        try:
            return b"".join(map(memo.get, chunks))
        except TypeError:  # a chunk not in the memo, or one whose ids are a tuple
            parts = [memo[chunk] if chunk in memo else self._chunk_ids(chunk) for chunk in chunks]
        return b"".join(parts) if len(self._set_ids) <= 256 else tuple(chain.from_iterable(parts))

    def _chunk_ids(self, chunk: str) -> bytes | tuple[int, ...]:
        runs, plain = _chunk_runs(chunk)
        if not (runs or plain):  # URLs and handles alone: nothing to number or remember
            return b""
        set_ids = self._set_ids
        # Each run is lowercased on its own: "İ" lowercases to "i" plus a combining dot.
        numbers = [set_ids.setdefault(self.category_ids_for(run.lower()), len(set_ids)) for run in runs]
        ids = bytes(numbers) if len(set_ids) <= 256 else tuple(numbers)
        if plain:
            self._memo[chunk] = ids
        return ids

    def ids_for_names(self, names: Iterable[str]) -> frozenset[int]:
        by_name = {name: cid for cid, name in self.categories.items()}
        return frozenset(by_name[n] for n in names if n in by_name)


@dataclass(frozen=True)
class FoundationMap:
    """Foundation axis -> category names, in a fixed axis order."""

    axes: dict[str, tuple[str, ...]]

    @classmethod
    def default(cls) -> "FoundationMap":
        return cls(axes=dict(DEFAULT_AXES))

    @classmethod
    def from_dict(cls, raw: Mapping[str, Sequence[str]]) -> "FoundationMap":
        return cls(axes={axis: tuple(names) for axis, names in raw.items()})

    def axis_ids(self, lexicon: Lexicon) -> dict[str, frozenset[int]]:
        """Category-id sets per axis; every axis must hit the lexicon."""
        resolved = {}
        for axis, names in self.axes.items():
            ids = lexicon.ids_for_names(names)
            if not ids:
                raise FoundationMapError(
                    f"axis {axis!r} maps to no category present in the lexicon"
                )
            resolved[axis] = ids
        return resolved


def load_foundation_map(path: Path | str | None) -> FoundationMap:
    """The foundation map JSON file at *path*, or the default map when None.

    Raises FoundationMapError unless the file holds an object of axis ->
    list of category names, each axis a name UTF-8 can encode.
    """
    if path is None:
        return FoundationMap.default()
    raw = read_json(path)
    if not isinstance(raw, dict) or not all(
        isinstance(names, list) and all(isinstance(n, str) for n in names) for names in raw.values()
    ):
        raise FoundationMapError(f"{path}: expected an object of axis -> list of category names")
    for axis in raw:
        if not utf8_encodable(axis):
            raise FoundationMapError(f"{path}: axis {axis!r} cannot be written: UTF-8 cannot encode it")
    return FoundationMap.from_dict(raw)


@dataclass(frozen=True)
class FoundationScores:
    """Per-axis token frequencies for one community's corpus."""

    community_label: str
    token_count: int
    per_foundation: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "community": self.community_label,
            "tokenCount": self.token_count,
            "scores": dict(self.per_foundation),
        }


def parse_mfd_dic(stream: IO[str] | Iterable[str]) -> Lexicon:
    """Parse a LIWC-style .dic file.

    Patterns are lowercased; a trailing '*' is stripped and recorded as
    prefix matching. Raises MissingDelimiterError when the %-delimited
    category block is absent, UnknownCategoryError for entries naming an
    undeclared id, MalformedLineError otherwise.
    """
    categories: dict[int, str] = {}
    entries: list[LexiconEntry] = []
    delimiters_seen = 0
    for line_no, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line:
            continue
        if line == "%":
            delimiters_seen += 1
            if delimiters_seen > 2:
                raise MalformedLineError(line_no, "unexpected extra '%' delimiter")
            continue
        if delimiters_seen == 0:
            raise MalformedLineError(line_no, "content before the first '%' delimiter")
        parts = line.split()
        if delimiters_seen == 1:
            if len(parts) < 2 or not parts[0].isdigit():
                raise MalformedLineError(line_no, "expected 'id name' category line")
            cid = int(parts[0])
            if cid in categories:
                raise MalformedLineError(line_no, f"duplicate category id {cid}")
            categories[cid] = " ".join(parts[1:])
        else:
            if len(parts) < 2:
                raise MalformedLineError(line_no, "expected 'pattern id [id ...]'")
            token = parts[0].lower()
            is_prefix = token.endswith("*")
            pattern = token[:-1] if is_prefix else token
            if not pattern:
                raise MalformedLineError(line_no, "empty pattern")
            ids = set()
            for part in parts[1:]:
                if not part.isdigit():
                    raise MalformedLineError(line_no, f"non-numeric category id {part!r}")
                cid = int(part)
                if cid not in categories:
                    raise UnknownCategoryError(cid, line_no)
                ids.add(cid)
            entries.append(
                LexiconEntry(pattern=pattern, is_prefix=is_prefix, category_ids=frozenset(ids))
            )
    if delimiters_seen < 2:
        raise MissingDelimiterError("expected a '%'-delimited category block")
    return Lexicon(categories=categories, entries=tuple(entries))


def _chunk_runs(chunk: str) -> tuple[Sequence[str], bool]:
    """Letter runs of one whitespace chunk outside URLs and @-handles, case preserved, and whether
    it holds neither (each becomes one space, and every match is longer than that). A letter-only
    chunk is its own run and skips the regexes."""
    if chunk.isalpha():
        return (chunk,), True
    rest = _HANDLE_RE.sub(" ", _URL_RE.sub(" ", chunk))
    return _WORD_RE.findall(rest), len(rest) == len(chunk)


def tokenize(text: str) -> list[str]:
    """Lowercased letter-sequence tokens; URLs, @-handles, digits and
    punctuation are dropped, diacritics preserved."""
    return [run.lower() for chunk in text.split() for run in _chunk_runs(chunk)[0]]


def score_counts(lexicon: Lexicon, foundation_map: FoundationMap, counts: Mapping[int, int], label: str) -> FoundationScores:
    """Axis frequencies of a corpus whose tokens fall *counts[i]* times in match set *i*.

    A token matching several categories of one axis still counts once for
    that axis. Raises EmptyCorpusError when the corpus has no tokens.
    """
    axis_ids = foundation_map.axis_ids(lexicon)
    token_count = sum(counts.values())
    if token_count == 0:
        raise EmptyCorpusError(label)
    sets = lexicon.match_sets()
    return FoundationScores(
        community_label=label,
        token_count=token_count,
        per_foundation={
            axis: sum(count for i, count in counts.items() if sets[i] & ids) / token_count
            for axis, ids in axis_ids.items()
        },
    )


def score_corpus(lexicon: Lexicon, foundation_map: FoundationMap, docs: Iterable[str], label: str) -> FoundationScores:
    """Axis frequencies over a corpus: matched tokens / total tokens (see score_counts)."""
    counts = Counter(chain.from_iterable(map(lexicon.text_ids, docs)))
    return score_counts(lexicon, foundation_map, counts, label)


def score_by_community(
    lexicon: Lexicon,
    foundation_map: FoundationMap,
    docs_by_community: Mapping[str, Sequence[str]],
) -> list[FoundationScores]:
    """One FoundationScores per community, ordered by community label."""
    return [
        score_corpus(lexicon, foundation_map, docs_by_community[label], label)
        for label in sorted(docs_by_community)
    ]
