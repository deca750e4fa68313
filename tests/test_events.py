import gc
import json
import random
import tracemalloc
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, settings, strategies as st

from radscales import (
    WindowSpec,
    ingest_events,
    parse_timestamp,
    slice_window,
)
from radscales.errors import ConfigError, NoEventsError
from radscales.events import EVENT_KINDS, _interaction_pairs
from radscales.pipeline import _interaction_graph

from .oracles import log_rows, naive_events, naive_slice


def record(**kwargs):
    return json.dumps(kwargs)


VALID = [
    record(source="a", target="b", timestamp="2022-09-20T10:00:00Z", kind="retweet"),
    record(source="b", target="c", timestamp="2022-09-21T10:00:00Z", kind="reply"),
    record(author="a", text="bom dia", timestamp="2022-09-22T10:00:00Z", kind="other"),
]


def test_parse_timestamp_variants():
    zulu = parse_timestamp("2022-09-19T12:00:00Z")
    offset = parse_timestamp("2022-09-19T09:00:00-03:00")
    assert zulu == offset
    naive = parse_timestamp("2022-09-19T12:00:00")
    assert naive == zulu
    date_only = parse_timestamp("2022-09-19")
    assert date_only.hour == 0 and date_only.tzinfo is not None
    # valid ISO text whose UTC conversion leaves the datetime range
    for outside in ("0001-01-01T00:00:00+01:00", "9999-12-31T23:30:00-01:00"):
        with pytest.raises(ValueError, match="out of range"):
            parse_timestamp(outside)


def test_ingest_counts_skipped():
    lines = VALID + [record(source="x", target="y", kind="retweet")]  # no timestamp
    log = ingest_events(lines)
    assert len(log) == 3
    assert log.skipped == 1


def test_ingest_skips_bad_json_and_unknown_kind():
    lines = VALID + ["{not json", record(source="x", target="y", timestamp="2022-09-20T00:00:00Z", kind="quote")]
    log = ingest_events(lines)
    assert len(log) == 3
    assert log.skipped == 2


# Record shapes with a present, non-null field that is not a string.
NON_STRING_FIELDS = {
    "list-text": dict(author="a", text=["bom", "dia"], timestamp="2022-09-20T00:00:00Z", kind="other"),
    "int-timestamp": dict(source="a", target="b", timestamp=5, kind="retweet"),
    "int-source": dict(source=7, target="b", timestamp="2022-09-20T00:00:00Z", kind="retweet"),
    "float-target": dict(source="a", target=7.5, timestamp="2022-09-20T00:00:00Z", kind="retweet"),
    "dict-author": dict(author={"id": 1}, text="oi", timestamp="2022-09-20T00:00:00Z", kind="other"),
}


@pytest.mark.parametrize("shape", sorted(NON_STRING_FIELDS))
def test_ingest_skips_non_string_field(shape):
    log = ingest_events(VALID + [record(**NON_STRING_FIELDS[shape])])
    assert len(log) == 3
    assert log.skipped == 1
    with pytest.raises(NoEventsError):
        ingest_events([record(**NON_STRING_FIELDS[shape])])


def test_ingest_null_fields_count_as_absent():
    lines = [
        record(source="a", target=None, author=None, text="bom dia", timestamp="2022-09-20T00:00:00Z", kind="other"),
        record(source="a", target="b", timestamp=None, kind="retweet"),
    ]
    log = ingest_events(lines)
    assert [row[2:5] for row in log_rows(log)] == [("a", None, None)]
    assert log.skipped == 1


def test_ingest_skips_timestamp_out_of_range():
    # valid ISO text whose UTC conversion leaves the datetime range
    lines = VALID + [record(source="a", target="b", timestamp="0001-01-01T00:00:00+01:00", kind="retweet")]
    log = ingest_events(lines)
    assert len(log) == 3
    assert log.skipped == 1


def test_ingest_skips_integer_past_digit_limit():
    # json.loads raises a plain ValueError here, not JSONDecodeError
    lines = VALID + ['{"kind": "retweet", "n": 1' + "0" * 5000 + "}"]
    log = ingest_events(lines)
    assert len(log) == 3
    assert log.skipped == 1


def test_ingest_empty_stream_fatal():
    with pytest.raises(NoEventsError):
        ingest_events([])


def test_ingest_kind_filter():
    log = ingest_events(VALID, kinds={"retweet"})
    assert len(log) == 1
    assert [row[1] for row in log_rows(log)] == ["retweet"]


def test_ingest_keyword_filter():
    lines = [
        record(author="a", text="vote nas eleições", timestamp="2022-09-20T00:00:00Z", kind="other"),
        record(author="b", text="bom dia", timestamp="2022-09-20T00:00:00Z", kind="other"),
        record(source="a", target="b", timestamp="2022-09-20T00:00:00Z", kind="retweet"),
    ]
    log = ingest_events(lines, keywords=["eleições"])
    assert len(log) == 1
    assert [row[4] for row in log_rows(log)] == ["a"]


def test_window_boundaries_half_open():
    window = WindowSpec(
        "w", parse_timestamp("2022-09-20"), parse_timestamp("2022-09-21")
    )
    lines = [
        record(source="a", target="b", timestamp="2022-09-20T00:00:00Z", kind="retweet"),
        record(source="b", target="c", timestamp="2022-09-21T00:00:00Z", kind="retweet"),
    ]
    log = ingest_events(lines)
    sliced = slice_window(log, window)
    assert len(sliced) == 1
    assert [row[2] for row in log_rows(sliced)] == ["a"]


def test_adjacent_windows_cover_each_event_once():
    w1 = WindowSpec("w1", parse_timestamp("2022-09-19"), parse_timestamp("2022-09-20"))
    w2 = WindowSpec("w2", parse_timestamp("2022-09-20"), parse_timestamp("2022-09-21"))
    log = ingest_events(
        [record(source="a", target="b", timestamp="2022-09-20T00:00:00Z", kind="retweet")]
    )
    assert len(slice_window(log, w1)) + len(slice_window(log, w2)) == 1


def test_window_covering_everything_is_identity():
    log = ingest_events(VALID)
    window = WindowSpec("all", parse_timestamp("2000-01-01"), parse_timestamp("2100-01-01"))
    assert log_rows(slice_window(log, window)) == log_rows(log)


def test_invalid_window_rejected():
    with pytest.raises(ValueError):
        WindowSpec("w", parse_timestamp("2022-09-21"), parse_timestamp("2022-09-20"))


def test_interaction_graph_dedupes_and_filters():
    lines = [
        record(source="a", target="b", timestamp="2022-09-20T00:00:00Z", kind="retweet"),
        record(source="a", target="b", timestamp="2022-09-20T01:00:00Z", kind="retweet"),
        record(source="a", target="c", timestamp="2022-09-20T02:00:00Z", kind="reply"),
    ]
    log = ingest_events(lines)
    users, edges = _interaction_graph(log, {"retweet"}, [0] * len(log.users))
    assert len(users) == 2
    assert len(edges) == 1


def test_interaction_graph_self_retweet_only_fatal():
    log = ingest_events(
        [record(source="a", target="a", timestamp="2022-09-20T00:00:00Z", kind="retweet")]
    )
    with pytest.raises(NoEventsError):
        _interaction_graph(log, {"retweet"}, [0] * len(log.users))


def test_interaction_graph_no_matching_kind_fatal():
    log = ingest_events(VALID)
    with pytest.raises(NoEventsError):
        _interaction_graph(log, {"mention"}, [0] * len(log.users))


def test_roundtrip_demo_edges(demo_graph):
    g, _ = demo_graph
    lines = [
        record(
            source=g.labels[u],
            target=g.labels[v],
            timestamp="2022-09-20T00:00:00Z",
            kind="retweet",
        )
        for u, v in g.edges()
    ]
    log = ingest_events(lines)
    users, edges = _interaction_graph(log, {"retweet"}, [0] * len(log.users))
    assert len(users) == g.n
    assert len(edges) == g.m
    assert sorted(log.users[u] for u in users) == sorted(g.labels)


# Ids that membership.tsv cannot hold as written: a TAB splits the line, a
# leading '#' makes it a comment, surrounding whitespace is stripped away, a
# lone surrogate cannot be encoded as UTF-8.
UNPORTABLE_IDS = ["a\tb", "#x", " y", "y ", "a\nb", "a\rb", "x\u2028", "\ud800", "a\udfffb"]


@pytest.mark.parametrize("user", UNPORTABLE_IDS)
@pytest.mark.parametrize("field", ["source", "target", "author"])
def test_ingest_skips_unportable_user_ids(field, user):
    bad = dict(source="a", target="b", author="c", text="oi", timestamp="2022-09-20T00:00:00Z", kind="reply")
    bad[field] = user
    log = ingest_events(VALID + [record(**bad)])
    assert len(log) == 3
    assert log.skipped == 1


def test_ingest_keeps_inner_space_and_hash():
    lines = [record(source="a b", target="x#", timestamp="2022-09-20T00:00:00Z", kind="retweet")]
    assert [row[2:4] for row in log_rows(ingest_events(lines))] == [("a b", "x#")]


def test_slice_keeps_file_order_of_unsorted_input():
    stamps = ["2022-09-20T03:00:00Z", "2022-09-20T01:00:00Z", "2022-09-20T02:00:00Z", "2022-09-20T01:00:00Z"]
    lines = [record(source=f"u{i}", target="v", timestamp=t, kind="retweet") for i, t in enumerate(stamps)]
    window = WindowSpec("w", parse_timestamp("2022-09-20T01:00:00Z"), parse_timestamp("2022-09-20T03:00:00Z"))
    assert [row[2] for row in log_rows(slice_window(ingest_events(lines), window))] == ["u1", "u2", "u3"]


@pytest.mark.parametrize("shuffle", [False, True])
def test_time_index_equals_the_keyed_stable_sort(shuffle):
    # A time column already in order is its own index: the order is a range
    # and the sorted times are the column, uncopied, so a window's rows are a
    # range. Either way, tied times keep file order.
    rng = random.Random(23)
    stamps = sorted(f"2022-09-2{rng.randrange(3)}T0{rng.randrange(3)}:00:00Z" for _ in range(60))
    if shuffle:
        rng.shuffle(stamps)
    log = ingest_events(record(source=f"u{i}", target="v", timestamp=t, kind="retweet") for i, t in enumerate(stamps))
    times = log.times
    assert list(log.order) == sorted(range(len(times)), key=times.__getitem__)
    assert list(log.sorted_times) == sorted(times)
    rows = slice_window(log, WindowSpec.from_strings("w", "2022-09-21", "2022-09-22")).rows
    if shuffle:
        assert (log.order.typecode, log.sorted_times.typecode, rows.typecode) == ("i", "q", "i")
    else:
        assert log.order == range(len(times)) and log.sorted_times is times and type(rows) is range


BASE = datetime(2022, 9, 20, 10, tzinfo=timezone.utc)
# Instants shared by records and window bounds, so that ties and events on a
# bound are common; some have fractional seconds.
INSTANTS = [BASE + timedelta(microseconds=us) for us in (-1, 0, 1, 250_000, 1_000_000, 3_600_000_000, 86_400_000_000)]
OFFSETS = [timezone(timedelta(hours=h)) for h in (0, 3, -3.5, 14)]


def _stamp(instant: datetime, offset: timezone, style: str) -> str:
    if style == "naive":
        return instant.replace(tzinfo=None).isoformat()
    text = instant.astimezone(offset).isoformat()
    return text.replace("+00:00", "Z") if style == "zulu" else text


# Stamps on both sides of the canonical YYYY-MM-DDTHH:MM:SSZ form: leap days,
# times of day out of range, lowercase z, offsets, fractions, full-width
# digits and the ends of the year range.
EDGE_STAMPS = [
    "2024-02-29T12:00:00Z", "2023-02-29T12:00:00Z", "2022-09-20T24:00:00Z", "2022-09-20T23:59:60Z",
    "2022-09-20T10:00:00z", "2022-09-20T10:00:00+02:00", "2022-09-20T10:00:00-03:30", "2022-09-20T10:00:00.5Z",
    "2022-09-20T10:00:00.000001Z", "\uff12\uff10\uff12\uff12-09-20T10:00:00Z", "2022-09-20T1\uff10:00:00Z",
    "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z", "9999-12-31T23:59:59Z", "2022-09-20T10:00:00",
    "2022-09-20", " 2022-09-20T10:00:00Z", "2022-09-20T10:00Z", "2022-9-20T10:00:00Z", "2022-09-20 10:00:00Z",
]
stamps = st.builds(
    _stamp, st.sampled_from(INSTANTS), st.sampled_from(OFFSETS), st.sampled_from(["naive", "zulu", "offset"])
)
users = st.sampled_from(["u0", "u1", "u2", "a b"])
absent = st.sampled_from(["", None])
texts = st.sampled_from(["ordem hoje", "bom dia", "", None])
# Records that are mostly valid, so that windows and their slices are rarely
# empty, beside records with one or more fields that may be invalid.
valid_records = st.fixed_dictionaries(
    {"timestamp": stamps, "kind": st.sampled_from(EVENT_KINDS), "source": users, "target": users | absent},
    optional={"author": users | absent, "text": texts},
)
noisy_records = st.fixed_dictionaries(
    {},
    optional={
        "timestamp": stamps | st.sampled_from([None, "", "2022-13-01", "0001-01-01T00:00:00+01:00", 5, *EDGE_STAMPS]),
        "kind": st.sampled_from([*EVENT_KINDS, "quote", None, ["retweet"]]),
        "source": users | absent | st.sampled_from(UNPORTABLE_IDS),
        "target": users | absent | st.sampled_from(UNPORTABLE_IDS),
        "author": users | absent | st.sampled_from(UNPORTABLE_IDS),
        "text": texts | st.just(["bom", "dia"]),
    },
)
# What may surround a line: JSON whitespace, which a record may carry, and
# other Unicode whitespace, which it may not.
paddings = st.sampled_from(["", "", "", " ", "\t", "\r\n", "\n", "\u3000", "\x85", "\xa0", "\u2028", "\x1c", "\x0b"])
stream_lines = st.lists(
    st.builds(
        lambda before, line, after: before + line + after,
        paddings,
        st.one_of(valid_records.map(json.dumps), valid_records.map(json.dumps), noisy_records.map(json.dumps),
                  st.sampled_from(["{not json", "", "[]"])),
        paddings,
    ),
    max_size=30,
)
bounds = st.tuples(st.sampled_from(INSTANTS), st.sampled_from(INSTANTS)).filter(lambda b: b[0] < b[1])


@settings(max_examples=200, deadline=None)
@given(stream_lines, bounds, bounds)
def test_store_and_slices_equal_naive_oracle(lines, outer, inner):
    expected, skipped = naive_events(lines)
    if not expected:
        with pytest.raises(NoEventsError):
            ingest_events(lines)
        return
    log = ingest_events(lines)
    assert log.skipped == skipped
    assert log_rows(log) == expected
    window = slice_window(log, WindowSpec("outer", *outer))
    assert log_rows(window) == naive_slice(expected, *outer)
    assert len(window) == len(naive_slice(expected, *outer))
    again = slice_window(window, WindowSpec("inner", *inner))
    assert log_rows(again) == naive_slice(naive_slice(expected, *outer), *inner)


# Text pieces that a per-character str width or a UTF-8 round trip could get
# wrong: lone surrogates (written as JSON escapes, in both orders around an
# astral character), astral and CJK characters, and Unicode whitespace that
# str.split() splits on, among ASCII words and spaces.
TEXT_PIECES = ["ordem", "justo", " ", "\ud800", "\udfff", "\ude00\ud83d", "\U0001f600", "\xa0", "\u3000", "\n", "ç", "中"]
column_texts = st.lists(st.sampled_from(TEXT_PIECES), max_size=6).map("".join) | st.sampled_from(["", " \u3000 ", None])
text_records = st.fixed_dictionaries(
    {"timestamp": stamps, "kind": st.sampled_from(EVENT_KINDS), "author": users, "source": users | absent},
    optional={"target": users | absent, "text": column_texts},
)


@settings(max_examples=200, deadline=None)
@given(st.lists(text_records.map(json.dumps), max_size=30))
def test_text_column_equals_naive_oracle(lines):
    expected, _ = naive_events(lines)
    if not expected:
        return
    log = ingest_events(lines)
    assert [log.text(r) for r in log.rows] == [event[5] for event in expected]
    assert log.text_offsets[-1] == len(log.text_bytes)


def test_store_keeps_under_100_bytes_per_event():
    rng = random.Random(20)
    start = parse_timestamp("2022-09-20")
    lines = [
        record(
            source=f"u{rng.randrange(500)}",
            target=f"u{rng.randrange(500)}",
            timestamp=(start + timedelta(seconds=i)).isoformat(),
            kind="retweet",
        )
        for i in range(20_000)
    ]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = ingest_events(lines)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(log) == 20_000
    assert retained / len(log) < 100


@pytest.mark.parametrize("emoji", ["", "\U0001f600"], ids=["ascii", "one-emoji"])
def test_store_keeps_posts_under_their_utf8_bytes_plus_60_bytes_each(emoji):
    # A str per text held about 50 B of header each and, with one emoji, 4
    # bytes per character; the buffer holds the UTF-8 bytes alone.
    rng = random.Random(21)
    start = parse_timestamp("2022-09-20")
    posts = ["".join(rng.choice("abcdefgh ") for _ in range(100 - len(emoji))) + emoji for _ in range(20_000)]
    lines = [
        record(author=f"u{rng.randrange(500)}", text=post, timestamp=(start + timedelta(seconds=i)).isoformat(), kind="other")
        for i, post in enumerate(posts)
    ]
    utf8_bytes = sum(len(post.encode("utf-8")) for post in posts)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        log = ingest_events(lines)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert [log.text(r) for r in (0, 19_999)] == [posts[0], posts[19_999]]
    assert (retained - utf8_bytes) / len(log) < 60


def _ingested_micros(stamp: str) -> int | None:
    """The stored time of one retweet record stamped *stamp*, or None when it is skipped."""
    log = ingest_events([record(source="a", target="b", timestamp=stamp, kind="retweet"), VALID[1]])
    return log.times[0] if log.skipped == 0 else None


def _parsed_micros(stamp: str) -> int | None:
    try:
        instant = parse_timestamp(stamp)
    except ValueError:
        return None
    return (instant - datetime(1970, 1, 1, tzinfo=timezone.utc)) // timedelta(microseconds=1)


@pytest.mark.parametrize("stamp", EDGE_STAMPS)
def test_canonical_stamp_path_equals_parse_timestamp(stamp):
    assert _ingested_micros(stamp) == _parsed_micros(stamp)


@settings(max_examples=300, deadline=None)
@given(st.from_regex(r"[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}[Zz]", fullmatch=True))
def test_canonical_shaped_stamps_equal_parse_timestamp(stamp):
    assert _ingested_micros(stamp) == _parsed_micros(stamp)


RECORD_LINE = record(source="a", target="b", timestamp="2022-09-20T10:00:00Z", kind="retweet")
# Bodies json.loads may or may not read as one event record, and what may
# surround them: Unicode whitespace (which str.strip removes and JSON does
# not allow, so the record is skipped), a BOM, and trailing data such as a
# second object.
decode_lines = st.builds(
    str.__add__,
    st.builds(str.__add__, st.sampled_from(["", " ", "\t", "\ufeff", "\u3000", "\x85", "\xa0", "\x1c", "\u2028"]),
              st.sampled_from([
                  RECORD_LINE, RECORD_LINE + RECORD_LINE, "[]", '"x"', "5", "NaN", "null", "{}", "{",
                  '{"kind": "retweet", "n": 1' + "0" * 5000 + "}", RECORD_LINE[:-1] + ', "n": NaN}',
                  RECORD_LINE[:-1] + ', "n": -Infinity}', '{"kind": NaN}', RECORD_LINE.replace('"a"', '"\\ud800"'),
              ])),
    st.sampled_from(["", " ", "\n", "\r\n", "\u3000", "\ufeff", " x", "{}", ",", " " + RECORD_LINE, "]"]),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(decode_lines, max_size=6))
def test_decode_equals_json_loads_of_the_line(lines):
    expected, skipped = naive_events(lines)
    if not expected:
        with pytest.raises(NoEventsError):
            ingest_events(lines)
        return
    log = ingest_events(lines)
    assert (log_rows(log), log.skipped) == (expected, skipped)


@pytest.mark.parametrize("field", ["target", "author"])
def test_unportable_later_id_interns_no_earlier_one(field):
    bad = dict(source="fresh", target="b", author="c", text="oi", timestamp="2022-09-20T00:00:00Z", kind="reply")
    bad[field] = "a\tb"
    log = ingest_events(VALID + [record(**bad)])
    assert log.users == ingest_events(VALID).users
    assert log.skipped == 1


@pytest.mark.parametrize("kinds", [["retweet", "quote"], ["quote"], [], ["Retweet"]])
def test_unknown_kinds_are_a_usage_error(kinds):
    message = r"kinds must list event kinds \(retweet, reply, mention, other\)"
    with pytest.raises(ConfigError, match=message):
        ingest_events(VALID, kinds=kinds)
    log = ingest_events(VALID)
    with pytest.raises(ConfigError, match=message):
        _interaction_graph(log, kinds, [0] * len(log.users))
    with pytest.raises(ConfigError, match=message):
        _interaction_pairs(log, kinds)


@pytest.mark.parametrize("space", ["\u3000", "\x85", "\xa0"])
def test_only_json_whitespace_may_surround_a_record(space):
    lines = [space + VALID[0], VALID[1] + space, f" \t{VALID[2]}\r\n", space, f" {space}\t\n"]
    log = ingest_events(lines)
    assert (log_rows(log), log.skipped) == naive_events(lines)
    assert (len(log), log.skipped) == (1, 2)  # the all-whitespace lines are blank, not counted


def test_over_deep_line_is_counted_and_skipped():
    lines = [*VALID, "[" * 100_000 + "]" * 100_000 + "\n"]
    log = ingest_events(lines)
    assert (log_rows(log), log.skipped) == naive_events(lines)
    assert (log_rows(log), log.skipped) == (log_rows(ingest_events(VALID)), 1)
