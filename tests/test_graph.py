import io

import pytest
from hypothesis import given, strategies as st

from radscales import (
    Graph,
    Partition,
    build_graph,
    load_edge_list,
    load_partition,
    read_membership,
)
from radscales.errors import (
    DuplicateAssignmentError,
    MalformedLineError,
    MissingVertexError,
    UnknownVertexError,
)
from radscales.graph import community_rows, read_pairs

from .oracles import sorted_induced_rows


def test_build_graph_dedupes_and_drops_self_loops():
    g = build_graph([("a", "b"), ("b", "a"), ("a", "a")])
    assert g.n == 2
    assert g.m == 1
    assert g.labels == ("a", "b")


def test_build_graph_empty():
    g = build_graph([])
    assert g.n == 0
    assert g.m == 0


def test_build_graph_first_seen_label_order():
    g = build_graph([("x", "y"), ("z", "x")])
    assert g.labels == ("x", "y", "z")


def test_demo_graph_shape(demo_graph):
    g, p = demo_graph
    assert g.n == 12
    assert g.m == 19
    group_degree = [0, 0, 0]
    for v in range(g.n):
        group_degree[p.group_of[v]] += g.degree(v)
    assert group_degree == [14, 12, 12]


def test_degree_sum_is_twice_edge_count(demo_graph):
    g, _ = demo_graph
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


def test_load_edge_list_skips_comments_and_blanks():
    g = load_edge_list(io.StringIO("a\tb\n#c\nb\tc\n"))
    assert g.n == 3
    assert g.m == 2


def test_load_edge_list_space_separated():
    g = load_edge_list(io.StringIO("a b\nb c\n\n"))
    assert g.m == 2


def test_load_edge_list_malformed():
    with pytest.raises(MalformedLineError) as exc:
        load_edge_list(io.StringIO("a b c"))
    assert exc.value.line_no == 1


def test_read_pairs_rules():
    text = "# header\n\n a b \t c\nd   e\n"
    assert list(read_pairs(io.StringIO(text))) == [("a b", "c"), ("d", "e")]


@pytest.mark.parametrize("text", ["a\tb\nc d\n", "# header\na b\n"])
def test_read_pairs_drops_a_leading_byte_order_mark(tmp_path, text):
    path = tmp_path / "pairs.tsv"
    path.write_text(text, encoding="utf-8-sig")
    with path.open(encoding="utf-8") as fh:
        assert list(read_pairs(fh)) == list(read_pairs(io.StringIO(text)))
    # only one, and only on the first line
    assert list(read_pairs(["\ufeff\ufeffa\tb"])) == [("\ufeffa", "b")]
    assert list(read_pairs(["a\tb", "\ufeffc\td"])) == [("a", "b"), ("\ufeffc", "d")]


@pytest.mark.parametrize(
    "parse",
    [load_edge_list, read_membership, lambda s: load_partition(s, build_graph([("u1", "u2")]))],
    ids=["edge-list", "membership", "partition"],
)
@pytest.mark.parametrize("bad", ["u1 x y", "u1\t\tx", "u1"])
def test_two_field_readers_reject_malformed_lines(parse, bad):
    with pytest.raises(MalformedLineError) as exc:
        parse(io.StringIO(f"# comment\n\n{bad}\n"))
    assert exc.value.line_no == 3


def test_load_edge_list_empty():
    g = load_edge_list(io.StringIO(""))
    assert g.n == 0


def test_load_partition_roundtrip(demo_graph):
    g, _ = demo_graph
    text = "".join(
        f"{lbl}\t{'black' if lbl[0] == 'b' else 'red' if lbl[0] == 'r' else 'blue'}\n"
        for lbl in g.labels
    )
    p = load_partition(io.StringIO(text), g)
    assert p.group_count == 3
    assert p.group_labels == ("black", "red", "blue")


def test_load_partition_missing_vertex(demo_graph):
    g, _ = demo_graph
    text = "".join(f"{lbl}\tx\n" for lbl in g.labels[:-1])
    with pytest.raises(MissingVertexError):
        load_partition(io.StringIO(text), g)


def test_load_partition_unknown_vertex():
    g = build_graph([("a", "b")])
    with pytest.raises(UnknownVertexError):
        load_partition(io.StringIO("a\tg\nb\tg\nq\tg\n"), g)


def test_load_partition_duplicate():
    g = build_graph([("a", "b")])
    with pytest.raises(DuplicateAssignmentError):
        load_partition(io.StringIO("a\tg1\nb\tg1\na\tg2\n"), g)


edge_lists = st.lists(
    st.tuples(st.integers(0, 9), st.integers(0, 9)).map(
        lambda t: (f"v{t[0]}", f"v{t[1]}")
    ),
    max_size=40,
)


@given(edge_lists)
def test_build_graph_idempotent_under_duplication(edges):
    once = build_graph(edges)
    doubled = build_graph(edges + edges)
    assert once == doubled


@given(edge_lists)
def test_degree_sum_property(edges):
    g = build_graph(edges)
    assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


@given(edge_lists)
def test_adjacency_symmetry(edges):
    g = build_graph(edges)
    for u in range(g.n):
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
            assert u != v


def test_graph_constructor_accepts_a_valid_graph():
    g = Graph(labels=("a", "b", "c"), adjacency=((1, 2), (0,), (0,)))
    assert g == build_graph([("a", "b"), ("c", "a")])
    assert (g.n, g.m) == (3, 2)
    assert g.index_of("c") == 2


@pytest.mark.parametrize(
    "labels, adjacency, message",
    [
        (("a", "a"), ((), ()), "labels must be unique"),
        (("a", "b"), ((),), "adjacency size must match"),
        (("a", "b"), ((2,), ()), "out of range"),
        (("a", "b"), ((-1,), ()), "out of range"),
        (("a", "b"), ((0, 1), (0,)), "self-loop"),
        (("a", "b", "c"), ((2, 1), (0,), (0,)), "sorted and duplicate-free"),
        (("a", "b"), ((1, 1), (0,)), "sorted and duplicate-free"),
        (("a", "b"), ((1,), ()), "not symmetric"),
    ],
)
def test_graph_constructor_rejects_invalid_input(labels, adjacency, message):
    with pytest.raises(ValueError, match=message):
        Graph(labels=labels, adjacency=adjacency)


@pytest.mark.parametrize(
    "group_of, group_count, group_labels, message",
    [
        ((0,), 0, None, "group_count must be >= 1"),
        ((0, 2), 2, None, "out-of-range group 2"),
        ((0, -1), 2, None, "out-of-range group -1"),
        ((0, 0), 2, None, "every group index must be non-empty"),
        ((0, 1), 2, ("x",), "group_labels length"),
    ],
)
def test_partition_constructor_rejects_invalid_input(group_of, group_count, group_labels, message):
    with pytest.raises(ValueError, match=message):
        Partition(group_of=group_of, group_count=group_count, group_labels=group_labels)


@st.composite
def partitions(draw):
    raw = draw(st.lists(st.integers(0, 5), max_size=30))
    dense: dict[int, int] = {}
    group_of = tuple(dense.setdefault(g, len(dense)) for g in raw)
    return Partition(group_of=group_of, group_count=len(dense))


@given(partitions())
def test_members_equal_a_full_scan(partition):
    for i in range(partition.group_count):
        assert partition.members(i) == tuple(
            v for v, g in enumerate(partition.group_of) if g == i
        )
    assert partition.sizes() == tuple(
        sum(1 for g in partition.group_of if g == i) for i in range(partition.group_count)
    )
    with pytest.raises(IndexError):
        partition.members(partition.group_count)


@given(edge_lists, st.lists(st.integers(0, 3), min_size=10, max_size=10), st.integers(0, 4), st.randoms())
def test_community_rows_equal_a_sorting_oracle(edges, groups, count, rng):
    g = build_graph(edges)
    dense: dict[int, int] = {}
    partition = Partition(tuple(dense.setdefault(x, len(dense)) for x in groups[: g.n]), len(dense))
    count = min(count, partition.group_count)
    # each edge once, in either orientation and any order
    pairs = [(u, v) if rng.random() < 0.5 else (v, u) for u, v in g.edges()]
    rng.shuffle(pairs)
    rows = community_rows(partition, pairs, count)
    assert len(rows) == count
    for i, group_rows in enumerate(rows):
        assert tuple(tuple(sorted(row)) for row in group_rows) == sorted_induced_rows(g, partition.members(i))
    # the unchecked builders give graphs the public constructor accepts
    assert Graph(labels=g.labels, adjacency=g.adjacency).m == g.m
