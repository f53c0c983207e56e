from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from capqa.answers import (
    build_vocab,
    expand_answer,
    normalize_answer,
    save_vocab_file,
)
from capqa.errors import EmptyVocab
from capqa.lingo import Lexicons
from capqa.qa import QAPair

LEX = Lexicons.default()


def entry_map(ws):
    return {phrase: w for phrase, w in ws.entries}


def test_two_black_cars_exact_nine_entries():
    ws = expand_answer("two black cars", LEX)
    got = entry_map(ws)
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
    assert len(ws.entries) == 9


def test_two_black_cars_weights_to_two_decimals():
    got = {p: round(float(w), 2) for p, w in expand_answer("two black cars", LEX).entries}
    assert got["two"] == 0.33
    assert got["two cars"] == 0.67 or abs(float(2 / 3) - 0.66) < 0.01  # 2/3 matches 0.66 at 2 dp
    assert abs(got["two cars"] - 2 / 3) < 0.005
    assert got["two black cars"] == 1.0


def test_single_token_variants_all_weight_one():
    got = entry_map(expand_answer("cat", LEX))
    assert got == {"cat": Fraction(1), "cats": Fraction(1)}


def test_determiner_dropped_before_counting():
    got = entry_map(expand_answer("an apple", LEX))
    assert got == {"apple": Fraction(1), "apples": Fraction(1)}


def test_number_word_single_token():
    got = entry_map(expand_answer("two", LEX))
    assert got == {"two": Fraction(1), "2": Fraction(1)}


def test_case_and_whitespace_invariance():
    a = expand_answer("  Two   BLACK cars ", LEX)
    b = expand_answer("two black cars", LEX)
    assert entry_map(a) == entry_map(b)


def test_full_answer_weight_one_and_included():
    ws = expand_answer("empty open field", LEX)
    got = entry_map(ws)
    assert got["empty open field"] == Fraction(1)
    assert ws.full_answer == "empty open field"


WORD_POOL = ["two", "black", "cars", "red", "dog", "field", "apples", "3", "hat", "tiny"]


@given(st.lists(st.sampled_from(WORD_POOL), min_size=1, max_size=5))
@settings(max_examples=60)
def test_weights_are_exact_token_ratios(tokens):
    answer = " ".join(tokens)
    norm = normalize_answer(answer)
    n = len(norm)
    ws = expand_answer(answer, LEX)
    for phrase, w in ws.entries:
        assert isinstance(w, Fraction)
        assert w == Fraction(len(phrase.split()), n)
        assert Fraction(0) < w <= Fraction(1)
    got = entry_map(ws)
    assert got[" ".join(norm)] == Fraction(1)


@given(st.lists(st.sampled_from(WORD_POOL), min_size=2, max_size=5))
@settings(max_examples=40)
def test_monotonicity_of_subsequence_weights(tokens):
    ws = expand_answer(" ".join(tokens), LEX)
    got = entry_map(ws)
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
    for phrase, _ in ws.entries:
        toks = phrase.split()
        if len(toks) > 1:
            # contiguous run of the original in contiguous-only mode
            joined = " ".join(words)
            assert phrase in joined
    assert entry_map(ws)[" ".join(words)] == Fraction(1)


def test_build_vocab_counting_oracle():
    pairs = [make_pair(a, i) for i, a in enumerate(["cat", "cat", "dog"])]
    phrases = build_vocab(pairs, min_count=2, lex=LEX)
    assert "cat" in phrases and "cats" in phrases
    assert "dog" not in phrases and "dogs" not in phrases


def test_build_vocab_min_count_one_single_pair():
    pairs = [make_pair("two cars", 0)]
    phrases = build_vocab(pairs, min_count=1, lex=LEX)
    expected_phrases = {p for p, _ in expand_answer("two cars", LEX).entries}
    assert set(phrases) == expected_phrases


def test_build_vocab_threshold_too_high():
    with pytest.raises(EmptyVocab):
        build_vocab([make_pair("cat", 0)], min_count=5, lex=LEX)


def test_build_vocab_ordering_frequency_then_lexicographic():
    pairs = [make_pair(a, i) for i, a in enumerate(["dog", "dog", "ant", "bee"])]
    phrases = build_vocab(pairs, min_count=1, lex=LEX)
    counts = {p: 0 for p in phrases}
    for pr in pairs:
        for phrase, _ in expand_answer(pr.answer, LEX).entries:
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
    ws = expand_answer(answer, LEX)
    return make_pair(answer, i, weights=list(ws.entries))


def test_vocab_file_lines(tmp_path):
    phrases = build_vocab([weighted_pair("two black cars")], min_count=1, lex=LEX)
    p = tmp_path / "vocab.txt"
    assert save_vocab_file(phrases, p) == len(phrases)
    header, *lines = p.read_text(encoding="utf-8").split("\n")[:-1]
    assert header == f"#capqa-vocab v1 count={len(phrases)}"
    assert lines == phrases
