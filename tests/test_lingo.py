import json
import re
import sys

import pytest
from hypothesis import given, strategies as st

from capqa import wordlists as wl
from capqa.lingo import (
    Lexicons,
    analyze,
    lower_squeeze,
    pluralize,
    singularize,
    strip_aux,
    subject_np,
)

LEX = Lexicons.default()


def phrase_text(np_) -> str:
    return " ".join(t.text for t in np_.tokens)


def np_texts(caption):
    _, nps = analyze(caption, LEX)
    return [phrase_text(np_) for np_ in nps]


def test_yesno_example_noun_phrases():
    tokens, nps = analyze("A man is wearing a hat and sitting", LEX)
    assert [phrase_text(np_) for np_ in nps] == ["A man", "a hat"]
    assert [np.head.lemma for np in nps] == ["man", "hat"]


def test_quantified_colored_np():
    _, nps = analyze("two black cars", LEX)
    assert len(nps) == 1
    np = nps[0]
    assert np.quantifier is not None and np.quantifier.text == "two"
    assert np.color is not None and np.color.text == "black"
    assert np.head.text == "cars" and np.head.lemma == "car"


def test_punctuation_only_caption():
    tokens, nps = analyze("?!", LEX)
    assert [t.pos for t in tokens] == ["OTHER", "OTHER"]
    assert nps == []


def test_srl_example_noun_phrases():
    caption = "A girl in a red shirt holding an apple sitting in an empty open field"
    assert np_texts(caption) == ["A girl", "a red shirt", "an apple", "an empty open field"]


def test_token_spans_reconstruct_input():
    caption = "A man, oddly 2 hats; wearing-nothing?!"
    tokens, _ = analyze(caption, LEX)
    for t in tokens:
        s, e = t.span
        assert caption[s:e] == t.text
    stitched = []
    prev = 0
    for t in tokens:
        s, e = t.span
        assert caption[prev:s].strip() == ""  # only whitespace between tokens
        stitched.append(caption[prev:s])
        stitched.append(t.text)
        prev = e
    stitched.append(caption[prev:])
    assert "".join(stitched) == caption


@given(st.text(alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=60))
def test_spans_cover_all_nonspace_characters(caption):
    tokens, nps = analyze(caption, LEX)
    covered = set()
    for t in tokens:
        s, e = t.span
        assert e > s
        assert caption[s:e] == t.text
        covered.update(range(s, e))
    for i, ch in enumerate(caption):
        if not ch.isspace():
            assert i in covered
    spans = [t.span for t in tokens]
    assert spans == sorted(spans)
    # each phrase is its token range, the ranges ascending and disjoint
    prev_end = 0
    for np in nps:
        assert prev_end <= np.start < np.end
        assert np.tokens == tuple(tokens[np.start:np.end])
        assert np.head is tokens[np.end - 1]
        prev_end = np.end


@given(st.sampled_from([
    "A man is wearing a hat and sitting",
    "two black cars parked",
    "There are 8 boats anchored by ropes close to shore",
    "horse drawn carriage with passengers in the city",
]))
def test_analyze_pure(caption):
    assert analyze(caption, LEX) == analyze(caption, LEX)


def test_subject_np_skips_phrases_after_a_preposition():
    tokens, nps = analyze("On the table near a window", LEX)
    assert [phrase_text(np_) for np_ in nps] == ["the table", "a window"]
    assert subject_np(tokens, nps) is None
    tokens, nps = analyze("On the table a cat sleeps", LEX)
    assert subject_np(tokens, nps) is nps[1]


def test_strip_aux_removes_first_copula():
    tokens, _ = analyze("A man is wearing a hat and sitting", LEX)
    assert strip_aux(tokens, LEX) == "A man wearing a hat and sitting"


def test_strip_aux_no_auxiliary():
    tokens, _ = analyze("Two dogs run", LEX)
    assert strip_aux(tokens, LEX) == "Two dogs run"


def test_strip_aux_rule_oracle():
    # oracle: delete the first stop_aux hit from the token texts, re-join
    caption = "There are two cars parked"
    tokens, _ = analyze(caption, LEX)
    words = caption.split()
    for i, w in enumerate(words):
        if w.lower() in LEX.stop_aux:
            del words[i]
            break
    assert strip_aux(tokens, LEX) == " ".join(words) == "There two cars parked"


def test_singularize_rules():
    assert singularize("cars") == "car"
    assert singularize("puppies") == "puppy"
    assert singularize("dishes") == "dish"
    assert singularize("boxes") == "box"
    assert singularize("buses") == "bus"
    assert singularize("glass") == "glass"
    assert singularize("men") == "man"
    assert singularize("children") == "child"
    assert singularize("people") == "person"
    assert singularize("feet") == "foot"
    assert singularize("teeth") == "tooth"
    assert singularize("mice") == "mouse"


def test_pluralize_rules():
    assert pluralize("car") == "cars"
    assert pluralize("puppy") == "puppies"
    assert pluralize("dish") == "dishes"
    assert pluralize("box") == "boxes"
    assert pluralize("man") == "men"
    assert pluralize("person") == "people"


def test_number_words_bijection():
    words = LEX.number_words
    assert words["two"] == "2" and words["eight"] == "8"
    digits = list(words.values())
    assert len(digits) == len(set(digits)) == 21  # 0..20, no collisions
    inverse = {d: w for w, d in words.items()}
    for w, d in words.items():
        assert inverse[d] == w


def test_quantifier_in_number_domain():
    _, nps = analyze("8 boats anchored by ropes close to shore", LEX)
    q = nps[0].quantifier
    assert q is not None
    assert q.text in LEX.number_words or q.text.isdigit()


def test_lexicon_override_file(tmp_path):
    override = {
        "colors": ["blurple"],
        "locations": ["zorbfield"],
        "antonyms": 5,
        "number_words": {"dozen": "12"},
    }
    p = tmp_path / "lex.json"
    p.write_text(json.dumps(override), encoding="utf-8")
    lex = Lexicons.load(p)
    assert "blurple" in lex.colors and "red" in lex.colors
    assert "zorbfield" in lex.locations
    assert lex.number_words["dozen"] == "12"
    # a key the lexicons do not hold is ignored, whatever its value
    del override["antonyms"]
    p.write_text(json.dumps(override), encoding="utf-8")
    assert Lexicons.load(p) == lex
    # base lexicon untouched
    assert "blurple" not in LEX.colors


def test_lexicons_entries_lowercase():
    for w in list(LEX.colors) + list(LEX.locations) + list(LEX.stop_aux):
        assert w == w.lower()
    for k, v in LEX.number_words.items():
        assert k == k.lower()


# --- closed-class table against the full precedence chain ---------------------


def reference_tag(text, lowered, prev_pos, position, lex):
    """Every tagging rule in precedence order, one list lookup after another."""
    if not any(ch.isalnum() for ch in text):
        return "OTHER"
    if lowered.isdigit():
        return "NUM"
    for pos, words in (
        ("DET", wl.DETERMINERS), ("AUX", wl.AUXILIARIES), ("ADP", wl.PREPOSITIONS),
        ("PRON", wl.PRONOUNS), ("NUM", lex.number_words), ("NUM", wl.VAGUE_QUANTIFIERS),
        ("OTHER", wl.CONJUNCTIONS), ("ADV", wl.ADVERB_WORDS), ("ADJ", lex.colors),
        ("ADJ", wl.COMMON_ADJECTIVES),
    ):
        if lowered in words:
            return pos
    if len(lowered) > 3 and lowered.endswith("ly"):
        return "ADV"
    if lowered in wl.COMMON_VERBS:
        return "NOUN" if prev_pos in ("DET", "NUM", "ADJ") else "VERB"
    if len(lowered) >= 5 and lowered.endswith(("ing", "ed")):
        return "VERB"
    if position > 0 and text[:1].isupper():
        return "PROPN"
    return "NOUN"


def reference_lemma(lowered, pos, lex):
    if pos in ("NOUN", "PROPN"):
        return singularize(lowered[:-2] if lowered.endswith(("'s", "’s")) else lowered)
    if pos == "NUM":
        return lex.number_words.get(lowered, lowered)
    return lowered


@pytest.fixture(scope="module")
def override_lex(tmp_path_factory):
    # entries that collide with higher-precedence lists or are no words at all
    p = tmp_path_factory.mktemp("lex") / "lex.json"
    p.write_text(json.dumps({
        "colors": ["next", "and", "blurple", "_", "7"],
        "number_words": {"the": "0", "dozen": "12", "3": "three", "-": "1"},
    }), encoding="utf-8")
    return Lexicons.load(p)


_TAG_WORDS = sorted(
    set().union(
        wl.DETERMINERS, wl.AUXILIARIES, wl.PREPOSITIONS, wl.PRONOUNS, wl.NUMBER_WORDS,
        wl.VAGUE_QUANTIFIERS, wl.CONJUNCTIONS, wl.ADVERB_WORDS, wl.COLORS,
        wl.COMMON_ADJECTIVES, wl.COMMON_VERBS,
    )
    | {"blurple", "dozen", "next", "3", "42", "_", "-", ",", "?", "dog's", "boxes", "men",
       "quickly", "running", "jumped", "paris", "well-known", "²", "½"}
)


@given(
    st.lists(
        st.tuples(st.sampled_from(_TAG_WORDS), st.sampled_from(["lower", "title", "upper"])),
        min_size=1, max_size=12,
    ),
    st.booleans(),
)
def test_tags_and_lemmas_match_precedence_chain(override_lex, words, override):
    lex = override_lex if override else LEX
    caption = " ".join(getattr(w, case)() for w, case in words)
    tokens, _ = analyze(caption, lex)
    prev_pos = None
    for position, t in enumerate(tokens):
        lowered = t.text.lower()
        pos = reference_tag(t.text, lowered, prev_pos, position, lex)
        assert (t.pos, t.lemma) == (pos, reference_lemma(lowered, pos, lex)), caption
        prev_pos = pos


def test_override_colliding_with_higher_lists_keeps_their_tags(override_lex):
    tokens, _ = analyze("The blurple dog next to 3 dozen cats and", override_lex)
    assert [t.pos for t in tokens] == [
        "DET", "ADJ", "NOUN", "ADP", "ADP", "NUM", "NUM", "NOUN", "OTHER",
    ]
    assert [t.lemma for t in tokens][5:7] == ["three", "12"]
    # a list entry with no letter or digit, or all digits, is tagged before any list
    tokens, _ = analyze("_ - 7", override_lex)
    assert [(t.pos, t.lemma) for t in tokens] == [("OTHER", "_"), ("OTHER", "-"), ("NUM", "7")]


# --- lower_squeeze --------------------------------------------------------------

SPACES = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isspace()]


def test_str_split_cuts_where_a_str_pattern_matches_whitespace():
    assert SPACES == re.findall(r"\s", "".join(map(chr, range(sys.maxunicode + 1))))
    # lowercasing neither makes nor changes whitespace
    assert all(c.lower() == c for c in SPACES)
    assert not [c for c in map(chr, range(sys.maxunicode + 1))
                if not c.isspace() and any(x.isspace() for x in c.lower())]


@given(st.text(st.characters(blacklist_categories=("Cs",)) | st.sampled_from(SPACES)))
def test_lower_squeeze_matches_regex_squeeze(text):
    assert lower_squeeze(text) == re.sub(r"\s+", " ", text.strip().lower())
