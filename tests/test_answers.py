import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from capqa import wordlists as wl
from capqa.answers import (
    WEIGHT_TEXT,
    answer_weights,
    build_vocab,
    expand_answer,
    normalize_answer,
    save_vocab_file,
)
from capqa.errors import EmptyVocab
from capqa.lingo import Lexicons, pluralize, singularize
from capqa.qa import QAPair

LEX = Lexicons.default()


def test_two_black_cars_exact_nine_entries():
    ws = expand_answer("two black cars", LEX)
    got = dict(ws)
    expected = {
        "two": Fraction(1, 3),
        "2": Fraction(1, 3),
        "black": Fraction(1, 3),
        "cars": Fraction(1, 3),
        "car": Fraction(1, 3),
        "two cars": Fraction(2, 3),
        "2 cars": Fraction(2, 3),
        "black cars": Fraction(2, 3),
        "two black cars": Fraction(1, 1),
    }
    assert got == expected
    assert len(ws) == 9


def test_two_black_cars_weights_to_two_decimals():
    got = {p: round(float(w), 2) for p, w in expand_answer("two black cars", LEX)}
    assert got["two"] == 0.33
    assert got["two cars"] == 0.67 or abs(float(2 / 3) - 0.66) < 0.01  # 2/3 matches 0.66 at 2 dp
    assert abs(got["two cars"] - 2 / 3) < 0.005
    assert got["two black cars"] == 1.0


def test_single_token_variants_all_weight_one():
    got = dict(expand_answer("cat", LEX))
    assert got == {"cat": Fraction(1), "cats": Fraction(1)}


def test_determiner_dropped_before_counting():
    got = dict(expand_answer("an apple", LEX))
    assert got == {"apple": Fraction(1), "apples": Fraction(1)}


def test_number_word_single_token():
    got = dict(expand_answer("two", LEX))
    assert got == {"two": Fraction(1), "2": Fraction(1)}


def test_case_and_whitespace_invariance():
    a = expand_answer("  Two   BLACK cars ", LEX)
    b = expand_answer("two black cars", LEX)
    assert dict(a) == dict(b)


def test_full_answer_weight_one_and_included():
    ws = expand_answer("empty open field", LEX)
    assert ws[0] == ("empty open field", Fraction(1))


WORD_POOL = ["two", "black", "cars", "red", "dog", "field", "apples", "3", "hat", "tiny"]


@given(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=5))
@settings(max_examples=60)
def test_weights_are_exact_token_ratios(tokens):
    answer = " ".join(tokens)
    norm = normalize_answer(answer)
    n = len(norm)
    ws = expand_answer(answer, LEX)
    for phrase, w in ws:
        assert isinstance(w, Fraction)
        assert w == Fraction(len(phrase.split()), n)
        assert Fraction(0) < w <= Fraction(1)
    got = dict(ws)
    assert got[" ".join(norm)] == Fraction(1)


@given(st.lists(st.sampled_from(WORD_POOL), min_size=2, max_size=5))
@settings(max_examples=40)
def test_monotonicity_of_subsequence_weights(tokens):
    ws = expand_answer(" ".join(tokens), LEX)
    got = dict(ws)
    for p1, w1 in got.items():
        for p2, w2 in got.items():
            t1, t2 = p1.split(), p2.split()
            if len(t1) < len(t2) and is_subsequence(t1, t2):
                assert w1 < w2


def is_subsequence(short, long):
    it = iter(long)
    return all(tok in it for tok in short)


def test_long_answer_contiguous_fallback():
    words = ["w%d" % i for i in range(14)]  # above the 12 content-token cap
    ws = expand_answer(" ".join(words), LEX)
    for phrase, _ in ws:
        toks = phrase.split()
        if len(toks) > 1:
            # contiguous run of the original in contiguous-only mode
            joined = " ".join(words)
            assert phrase in joined
    assert dict(ws)[" ".join(words)] == Fraction(1)


# --- the Fraction-per-add expansion as the oracle ------------------------------


def reference_expand(answer, lex):
    """Index sets sorted and expanded one by one, each weight a Fraction
    compared on every add: the expansion before integer counts."""

    def no_plural_variant(tok):
        return (not tok.isalpha() or tok in lex.number_words or tok in lex.colors
                or tok in wl.COMMON_ADJECTIVES)

    def token_variants(tok):
        out = []
        if tok in lex.number_words:
            out.append(lex.number_words[tok])
        elif tok in digit_to_word:
            out.append(digit_to_word[tok])
        if not no_plural_variant(tok):
            sing = singularize(tok)
            if sing != tok:
                out.append(sing)
            else:
                plur = pluralize(tok)
                if plur != tok:
                    out.append(plur)
        return out

    def digit_swaps(toks):
        alts = []
        for t in toks:
            if t in lex.number_words:
                alts.append((t, lex.number_words[t]))
            elif t in digit_to_word:
                alts.append((t, digit_to_word[t]))
            else:
                alts.append((t,))
        for combo in itertools.product(*alts):
            if list(combo) != list(toks):
                yield combo

    digit_to_word = {d: w for w, d in lex.number_words.items()}
    toks = normalize_answer(answer)
    n = len(toks)
    entries = {}

    def add(phrase, count):
        w = Fraction(count, n)
        if entries.get(phrase, Fraction(0)) < w:
            entries[phrase] = w

    add(" ".join(toks), n)
    index_sets = {(i,) for i in range(n)}
    if n <= 12:
        for r in range(1, n - 1):
            for combo in itertools.combinations(range(n - 1), r):
                index_sets.add((*combo, n - 1))
    else:
        for i in range(1, n):
            index_sets.add(tuple(range(i, n)))
    for idxs in sorted(index_sets):
        sub = [toks[i] for i in idxs]
        count = len(idxs)
        if count == n and n > 1:
            continue
        add(" ".join(sub), count)
        if count == 1:
            for var in token_variants(sub[0]):
                add(var, 1)
        else:
            for combo in digit_swaps(sub):
                add(" ".join(combo), count)
    return sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))


# Hypothesis shrinks towards the first word: a noun keeps shrunk examples
# cheap, where a number word would double the spellings of every subset
ORACLE_WORDS = (
    "field", "car", "cars", "dogs", "boxes", "men",  # nouns, singular and plural
    "red", "black", "white",  # colours
    "big", "empty", "wooden", "open",  # common adjectives
    "two", "three", "twelve", "dozen", "2", "3", "12", "xii",  # number words, digits
)


@pytest.fixture(scope="module")
def oracle_lexicons(tmp_path_factory):
    # "dozen" shares "12" with "twelve", and "12" maps to a word of its own
    path = tmp_path_factory.mktemp("lex") / "lexicons.json"
    path.write_text(json.dumps({"number_words": {"dozen": "12", "12": "xii"}}),
                    encoding="utf-8")
    return {"default": LEX, "override": Lexicons.load(path)}


@pytest.mark.parametrize("which", ["default", "override"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_expansion_matches_fraction_reference(oracle_lexicons, which, data):
    lex = oracle_lexicons[which]
    # either side of the switch to suffixes above 12 tokens, drawn often
    size = data.draw(st.integers(1, 14) | st.sampled_from((12, 13)), label="content tokens")
    words = data.draw(st.lists(st.sampled_from(ORACLE_WORDS), min_size=size, max_size=size),
                      label="words")
    determiners = data.draw(st.lists(st.sampled_from(("the", "a", "an", "this")), max_size=2),
                            label="determiners")
    answer = " ".join(determiners + words)
    got = expand_answer(answer, lex)
    expected = reference_expand(answer, lex)
    assert got == expected
    assert all(type(w) is Fraction for _, w in got)


def test_build_vocab_counting_oracle():
    pairs = [make_pair(a, i) for i, a in enumerate(["cat", "cat", "dog"])]
    phrases = build_vocab(pairs, min_count=2, lex=LEX)
    assert "cat" in phrases and "cats" in phrases
    assert "dog" not in phrases and "dogs" not in phrases


def test_build_vocab_min_count_one_single_pair():
    pairs = [make_pair("two cars", 0)]
    phrases = build_vocab(pairs, min_count=1, lex=LEX)
    expected_phrases = {p for p, _ in expand_answer("two cars", LEX)}
    assert set(phrases) == expected_phrases


def test_build_vocab_threshold_too_high():
    with pytest.raises(EmptyVocab):
        build_vocab([make_pair("cat", 0)], min_count=5, lex=LEX)


def test_build_vocab_ordering_frequency_then_lexicographic():
    pairs = [make_pair(a, i) for i, a in enumerate(["dog", "dog", "ant", "bee"])]
    phrases = build_vocab(pairs, min_count=1, lex=LEX)
    counts = {p: 0 for p in phrases}
    for pr in pairs:
        for phrase, _ in expand_answer(pr.answer, LEX):
            counts[phrase] += 1
    expected = sorted(phrases, key=lambda p: (-counts[p], p))
    assert phrases == expected
    assert phrases[:2] == ["dog", "dogs"]


def make_pair(answer, i, weights=None, answer_type="object"):
    return QAPair(
        qa_id=f"id{i:04d}",
        image_id=i,
        question="What is this?",
        answer=answer,
        answer_type=answer_type,
        source="template",
        source_caption="fixture",
        weights=weights,
    )


def weighted_pair(answer, i=0):
    return make_pair(answer, i, weights=expand_answer(answer, LEX))


def test_vocab_file_lines(tmp_path):
    phrases = build_vocab([weighted_pair("two black cars")], min_count=1, lex=LEX)
    p = tmp_path / "vocab.txt"
    assert save_vocab_file(phrases, p) == len(phrases)
    header, *lines = p.read_text(encoding="utf-8").split("\n")[:-1]
    assert header == f"#capqa-vocab v1 count={len(phrases)}"
    assert lines == phrases


# --- the shared weight table ------------------------------------------------------


@given(st.lists(st.lists(st.sampled_from(ORACLE_WORDS), min_size=1, max_size=14),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_equal_weights_are_one_object_with_its_text(answers):
    atomic = answer_weights(make_pair("yes", 0, answer_type="yesno"), LEX)
    entries = atomic + [e for words in answers for e in expand_answer(" ".join(words), LEX)]
    by_value = {}
    for _, w in entries:
        assert type(w) is Fraction
        assert by_value.setdefault(w, w) is w
        assert WEIGHT_TEXT[id(w)] == repr(round(float(w), 6))
    assert atomic[0][1] is by_value[Fraction(1)]


def test_one_fraction_per_value_across_denominators():
    halves = [w for answer in ("red cars", "two big red cars")
              for p, w in expand_answer(answer, LEX) if w == Fraction(1, 2)]
    assert len(halves) > 2 and all(w is halves[0] for w in halves)
