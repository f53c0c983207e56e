import json

from hypothesis import given, strategies as st

from capqa.lingo import (
    Lexicons,
    analyze,
    pluralize,
    singularize,
    strip_aux,
)

LEX = Lexicons.default()


def np_texts(caption):
    _, nps = analyze(caption, LEX)
    return [np.text for np in nps]


def test_yesno_example_noun_phrases():
    tokens, nps = analyze("A man is wearing a hat and sitting", LEX)
    assert [np.text for np in nps] == ["A man", "a hat"]
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
    tokens, _ = analyze(caption, LEX)
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


@given(st.sampled_from([
    "A man is wearing a hat and sitting",
    "two black cars parked",
    "There are 8 boats anchored by ropes close to shore",
    "horse drawn carriage with passengers in the city",
]))
def test_analyze_pure(caption):
    assert analyze(caption, LEX) == analyze(caption, LEX)


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
        "antonyms": {"fast": "slow"},
        "number_words": {"dozen": "12"},
    }
    p = tmp_path / "lex.json"
    p.write_text(json.dumps(override), encoding="utf-8")
    lex = Lexicons.load(p)
    assert "blurple" in lex.colors and "red" in lex.colors
    assert "zorbfield" in lex.locations
    assert lex.antonyms["fast"] == "slow"
    assert lex.number_words["dozen"] == "12"
    # base lexicon untouched
    assert "blurple" not in LEX.colors


def test_lexicons_entries_lowercase():
    for w in list(LEX.colors) + list(LEX.locations) + list(LEX.stop_aux):
        assert w == w.lower()
    for k, v in LEX.number_words.items():
        assert k == k.lower()
