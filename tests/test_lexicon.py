import io
import re
import sys

import pytest
from hypothesis import example, given, strategies as st

from radscales import (
    FoundationMap,
    parse_mfd_dic,
    score_by_community,
    score_corpus,
    tokenize,
)
from radscales.errors import (
    EmptyCorpusError,
    FoundationMapError,
    MalformedLineError,
    MissingDelimiterError,
    UnknownCategoryError,
)

from .oracles import foundation_scores

SAMPLE_DIC = """\
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
fair\t1
unfair\t2
loyal*\t3
traitor*\t4
obey*\t5
defy\t6
pure\t7
impure\t8
justo\t1 2
"""


@pytest.fixture
def lexicon():
    return parse_mfd_dic(io.StringIO(SAMPLE_DIC))


@pytest.fixture
def fmap():
    return FoundationMap.default()


def test_parse_minimal_file():
    lex = parse_mfd_dic(io.StringIO("%\n1\tIngroupVirtue\n%\nloyal*\t1\n"))
    assert lex.categories == {1: "IngroupVirtue"}
    assert len(lex.entries) == 1
    assert lex.entries[0].is_prefix
    assert lex.entries[0].pattern == "loyal"


def test_parse_multi_category_entry(lexicon):
    assert lexicon.category_ids_for("justo") == frozenset({1, 2})


def test_parse_unknown_category_id():
    with pytest.raises(UnknownCategoryError) as exc:
        parse_mfd_dic(io.StringIO("%\n1\tIngroupVirtue\n%\nloyal*\t9\n"))
    assert exc.value.category_id == 9


def test_parse_missing_delimiter():
    with pytest.raises(MissingDelimiterError):
        parse_mfd_dic(io.StringIO("%\n1\tIngroupVirtue\n"))


def test_parse_malformed_entry():
    with pytest.raises(MalformedLineError):
        parse_mfd_dic(io.StringIO("%\n1\tX\n%\nword\n"))


def test_parse_duplicate_category_id():
    with pytest.raises(MalformedLineError):
        parse_mfd_dic(io.StringIO("%\n1\tX\n1\tY\n%\nw\t1\n"))


def test_tokenize_preserves_diacritics():
    assert tokenize("Lealdade à Nação!") == ["lealdade", "à", "nação"]


def test_tokenize_drops_urls_handles_digits():
    assert tokenize("RT @user http://x.co vote") == ["rt", "vote"]
    assert tokenize("2022 eleições!! www.site.br #voto") == ["eleições", "voto"]


def test_tokenize_empty():
    assert tokenize("") == []
    assert tokenize("123 !!! @abc") == []


def test_prefix_match_hand_count(lexicon, fmap):
    scores = score_corpus(lexicon, fmap, ["loyalty means loyal friends"], "x")
    assert scores.token_count == 4
    assert scores.per_foundation["IngroupLoyalty"] == 0.5
    assert scores.per_foundation["Fairness"] == 0.0


def test_exact_pattern_does_not_prefix_match(lexicon, fmap):
    scores = score_corpus(lexicon, fmap, ["fair fairness unfair"], "x")
    # only "fair" and "unfair" hit: "fairness" is not an exact match
    assert scores.per_foundation["Fairness"] == pytest.approx(2 / 3)


def test_same_axis_multi_category_counts_once(lexicon, fmap):
    # "justo" sits in both Fairness categories; one token, one axis count
    scores = score_corpus(lexicon, fmap, ["justo momento"], "x")
    assert scores.per_foundation["Fairness"] == 0.5


def test_no_hits_all_zero(lexicon, fmap):
    scores = score_corpus(lexicon, fmap, ["nothing matches here"], "x")
    assert all(v == 0.0 for v in scores.per_foundation.values())


def test_empty_corpus_rejected(lexicon, fmap):
    with pytest.raises(EmptyCorpusError):
        score_corpus(lexicon, fmap, [], "ghost")
    with pytest.raises(EmptyCorpusError):
        score_corpus(lexicon, fmap, ["!!! 123"], "ghost")


def test_axis_without_lexicon_categories_rejected(lexicon):
    bad = FoundationMap.from_dict({"Fairness": ["NoSuchCategory"]})
    with pytest.raises(FoundationMapError):
        score_corpus(lexicon, bad, ["fair"], "x")


def test_self_concatenation_invariance(lexicon, fmap):
    docs = ["obey the loyal leader", "fair pure words", "defy traitorous plans"]
    once = score_corpus(lexicon, fmap, docs, "x")
    twice = score_corpus(lexicon, fmap, docs + docs, "x")
    assert once.per_foundation == twice.per_foundation


def test_adding_nonmatching_doc_dilutes(lexicon, fmap):
    base = score_corpus(lexicon, fmap, ["obey loyal fair"], "x")
    diluted = score_corpus(lexicon, fmap, ["obey loyal fair", "neutral filler words"], "x")
    for axis, value in base.per_foundation.items():
        if value > 0:
            assert diluted.per_foundation[axis] < value
        else:
            assert diluted.per_foundation[axis] == 0.0


def test_score_by_community_ordering_and_independence(lexicon, fmap):
    docs = {
        "beta": ["obey obey obey"],
        "alpha": ["fair fair unfair political words"],
    }
    scores = score_by_community(lexicon, fmap, docs)
    assert [s.community_label for s in scores] == ["alpha", "beta"]
    assert scores[0].per_foundation["Fairness"] == pytest.approx(3 / 5)
    assert scores[1].per_foundation["Authority"] == 1.0


def test_score_by_community_empty_corpus_names_community(lexicon, fmap):
    with pytest.raises(EmptyCorpusError) as exc:
        score_by_community(lexicon, fmap, {"good": ["fair"], "empty": []})
    assert exc.value.label == "empty"


def test_double_density_fixture(lexicon, fmap):
    # community a: 2 authority tokens of 8; community b: 1 of 8
    docs = {
        "a": ["obey obey filler filler", "filler filler filler filler"],
        "b": ["obey filler filler filler", "filler filler filler filler"],
    }
    scores = {s.community_label: s for s in score_by_community(lexicon, fmap, docs)}
    assert scores["a"].per_foundation["Authority"] == pytest.approx(
        2 * scores["b"].per_foundation["Authority"], abs=1e-12
    )


def test_document_order_invariance(lexicon, fmap):
    docs = ["obey loyal", "fair pure", "defy impure"]
    forward = score_corpus(lexicon, fmap, docs, "x")
    backward = score_corpus(lexicon, fmap, list(reversed(docs)), "x")
    assert forward.per_foundation == backward.per_foundation


def test_extra_categories_parsed_but_ignored_by_default_axes():
    dic = (
        "%\n0\tMoralityGeneral\n9\tHarmVirtue\n10\tHarmVice\n"
        "1\tFairnessVirtue\n2\tFairnessVice\n3\tIngroupVirtue\n4\tIngroupVice\n"
        "5\tAuthorityVirtue\n6\tAuthorityVice\n7\tPurityVirtue\n8\tPurityVice\n"
        "%\nmoral*\t0\ncare\t9\nharm\t10\nfair\t1\n"
    )
    lex = parse_mfd_dic(io.StringIO(dic))
    assert lex.categories[0] == "MoralityGeneral"
    scores = score_corpus(lex, FoundationMap.default(), ["moral care harm fair"], "x")
    # only "fair" lands on an axis; care/harm/general stay off the scale
    assert scores.per_foundation["Fairness"] == 0.25
    assert all(
        value == 0.0
        for axis, value in scores.per_foundation.items()
        if axis != "Fairness"
    )


def test_explicit_map_can_opt_into_general_morality():
    dic = "%\n0\tMoralityGeneral\n1\tFairnessVirtue\n%\nmoral*\t0\nfair\t1\n"
    lex = parse_mfd_dic(io.StringIO(dic))
    fmap = FoundationMap.from_dict(
        {"Fairness": ["FairnessVirtue", "MoralityGeneral"]}
    )
    scores = score_corpus(lex, fmap, ["moralidade fair talk"], "x")
    assert scores.per_foundation["Fairness"] == pytest.approx(2 / 3)


@given(st.lists(st.text(alphabet="abcç õé ", max_size=20), max_size=8))
def test_frequencies_bounded(docs):
    lex = parse_mfd_dic(io.StringIO(SAMPLE_DIC))
    fm = FoundationMap.default()
    try:
        scores = score_corpus(lex, fm, docs, "x")
    except EmptyCorpusError:
        return
    for value in scores.per_foundation.values():
        assert 0.0 <= value <= 1.0


# SAMPLE_DIC plus a dotted-capital-I prefix pattern, which lowercases to
# "i" followed by a combining dot, and an entry in two axes.
DIFF_DIC = SAMPLE_DIC + "İnanç*\t3 5\nsaf\t7\n"
PATTERNS = ["fair", "unfair", "loyal", "traitor", "obey", "defy", "pure", "impure", "justo", "İnanç", "saf"]
NOISE = [
    "İstanbul", "İNANÇLI", "http://fair.example/obey", "HTTPS://x.co", "WWW.Loyal.org/pure",
    "www.a.b", "@loyal", "@Fair_2", "2022", "fair2day", "obey_", "!!", "...", "#pure", "é",
]
WORDS = st.builds(
    lambda pattern, suffix, case: case(pattern + suffix),
    st.sampled_from(PATTERNS),
    st.sampled_from(["", "s", "ty", "ness", "ed", "ı"]),
    st.sampled_from([str.lower, str.upper, str.title, str.capitalize]),
)
DOCS = st.builds(
    "".join,
    st.lists(
        st.builds(
            str.__add__,
            st.one_of(WORDS, st.sampled_from(NOISE), st.text(max_size=4)),
            # Unicode whitespace splits chunks; "²", "½" and "_" are word
            # characters that str.isalpha rejects, so their chunks take the
            # regex path ("²" and "½" join a letter run, "_" ends one).
            st.sampled_from([" ", "", ",", "\n", "\x1c", "\x85", "\xa0", "\u3000", "²", "½", "_"]),
        ),
        max_size=12,
    ),
)
CORPORA = st.lists(DOCS, max_size=5)


@given(CORPORA)
@example(["", "fair", "", "loyal obey", ""])
@example(["fair", "ness"])
@example(["\u3000obey\n", "pure\x85", ""])
def test_document_boundaries_are_whitespace(docs):
    """A corpus scores as its documents joined by a space: each document's
    chunks are counted apart, with empty documents adding none and a word at
    the end of one document never running into the next."""
    fmap = FoundationMap.default()
    lex = parse_mfd_dic(io.StringIO(DIFF_DIC))
    if not any(tokenize(doc) for doc in docs):
        return
    assert score_corpus(lex, fmap, docs, "x") == score_corpus(lex, fmap, [" ".join(docs)], "x")


def _assert_matches_oracle(lexicon, fmap, docs):
    count, expected = foundation_scores(DIFF_DIC, fmap.axes, docs)
    if count == 0:
        with pytest.raises(EmptyCorpusError):
            score_corpus(lexicon, fmap, docs, "x")
        return
    scores = score_corpus(lexicon, fmap, docs, "x")
    assert scores.token_count == count
    assert scores.per_foundation == expected


@given(CORPORA, CORPORA)
def test_scores_match_naive_oracle(first, second):
    fmap = FoundationMap.default()
    # one lexicon per order, so each corpus is also scored on a warm memo
    for corpora in ((first, second), (second, first)):
        lex = parse_mfd_dic(io.StringIO(DIFF_DIC))
        for docs in corpora:
            _assert_matches_oracle(lex, fmap, docs)


def test_dotted_capital_i_is_lowercased_per_token(fmap):
    lex = parse_mfd_dic(io.StringIO(DIFF_DIC))
    assert tokenize("İNANÇLI İstanbul") == ["i̇nançli", "i̇stanbul"]
    scores = score_corpus(lex, fmap, ["İNANÇLI İstanbul"], "x")
    assert scores.token_count == 2
    assert scores.per_foundation["IngroupLoyalty"] == 0.5
    assert scores.per_foundation["Authority"] == 0.5


def test_scoring_leaves_lexicon_unchanged(fmap):
    docs = [
        "Obey the LOYAL traitors, İnançlı fair-minded unfairness",
        "pure PURITY defy İstanbul saf",
        "http://loyal.example @obey justo",
    ]
    lex = parse_mfd_dic(io.StringIO(DIFF_DIC))
    before = repr(lex)
    score_corpus(lex, fmap, docs, "x")
    assert lex == parse_mfd_dic(io.StringIO(DIFF_DIC))
    assert repr(lex) == before
    for token in {t for doc in docs for t in tokenize(doc)}:
        fresh = parse_mfd_dic(io.StringIO(DIFF_DIC))
        assert lex.category_ids_for(token) == fresh.category_ids_for(token), token


@given(DOCS)
def test_tokenize_matches_whole_document_regexes(doc):
    url = re.compile(r"(?:https?://|www\.)\S+", re.IGNORECASE)
    handle = re.compile(r"@\w+")
    word = re.compile(r"[^\W\d_]+", re.UNICODE)
    assert tokenize(doc) == [m.lower() for m in word.findall(handle.sub(" ", url.sub(" ", doc)))]


def test_code_points_split_and_letter_facts():
    """Tokenizing per whitespace chunk, with a letter-only chunk as its own
    run, relies on str.split cutting exactly where re's \\s matches and on
    every str.isalpha letter lying in [^\\W\\d_]."""
    space = re.compile(r"\s")
    letter = re.compile(r"[^\W\d_]")
    split_apart, not_word_letters = [], []
    for c in map(chr, range(sys.maxunicode + 1)):
        if c.isspace() != bool(space.match(c)) or (c.isspace() and f"a{c}b".split() != ["a", "b"]):
            split_apart.append(c)
        if c.isalpha() and not letter.match(c):
            not_word_letters.append(c)
    assert split_apart == []
    assert not_word_letters == []


def test_memo_holds_only_the_vocabulary(fmap):
    lex = parse_mfd_dic(io.StringIO(DIFF_DIC))
    for i in range(50):
        # unique URLs, handles and punctuated chunks around four letter-only ones
        docs = [
            f"http://x.example/{i} www.site{i}.br @user{i} @Fair_{i}",
            f"fair,{i} ({i}loyal) é{i}! x²{i} Fair loyalty",
            f"İnanç dia fair#{i} {i}",
        ]
        score_corpus(lex, fmap, docs, "x")
    # The memo is keyed by whitespace chunk: every chunk without a URL or a handle, and no token.
    plain = {"Fair", "loyalty", "İnanç", "dia"}
    plain.update(chunk for i in range(50) for chunk in (f"fair,{i}", f"({i}loyal)", f"é{i}!", f"x²{i}", f"fair#{i}", str(i)))
    assert set(lex._memo) == plain
