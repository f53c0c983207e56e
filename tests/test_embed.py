import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capqa.config import PipelineConfig
from capqa.corpus import CaptionRecord
from capqa.embed import Candidates, load_vectors, mean_pool, nearest
from capqa.errors import MalformedInput, UnknownWord, ZeroVector
from capqa.lingo import Lexicons, analyze, object_lemma_index, singularize
from capqa.qa import QAPair
from capqa.qgen import adversarial_qa
from conftest import make_store


def store_from(mapping):
    return make_store({w: np.asarray(v, dtype=np.float64) for w, v in mapping.items()})


# --- scalar reference ---------------------------------------------------------


def _vector(word, store):
    vec = store.vectors.get(word.lower())
    if vec is None:
        raise UnknownWord(word)
    return vec


def cosine(a, b, store):
    va = _vector(a, store)
    vb = _vector(b, store)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector(a if na == 0.0 else b)
    return float(np.dot(va, vb)) / (na * nb)


def scalar_nearest(word, store, words, exclude=(), k=1):
    """One dot per candidate, sorted by (-score, word): the search before the table."""
    query = _vector(word, store)
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ZeroVector(word)
    excluded = {w.lower() for w in exclude} | {word.lower()}
    scored = []
    for cand in sorted({c.lower() for c in words}):
        vec = store.vectors.get(cand)
        if cand in excluded or vec is None:
            continue
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            continue
        scored.append((-(float(np.dot(query, vec)) / (qnorm * norm)), cand))
    scored.sort()
    return [(cand, -neg) for neg, cand in scored[:k]]


def test_load_vectors_basic(tmp_path):
    p = tmp_path / "vecs.txt"
    p.write_text(
        "cat 0.1 0.2 0.3 0.4\ndog 0.5 0.6 0.7 0.8\ncar 1.0 0.0 0.0 0.0\n",
        encoding="utf-8",
    )
    store = load_vectors(p)
    assert store.dim == 4
    assert set(store.vectors) == {"cat", "dog", "car"}
    assert store.vocab_order == ["cat", "dog", "car"]
    assert np.allclose(store.vectors["dog"], [0.5, 0.6, 0.7, 0.8])


def test_load_vectors_non_numeric(tmp_path):
    p = tmp_path / "vecs.txt"
    p.write_text("cat 0.1 x 0.3\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_vectors(p)


def test_load_vectors_inconsistent_dim(tmp_path):
    p = tmp_path / "vecs.txt"
    p.write_text("cat 0.1 0.2\ndog 0.1 0.2 0.3\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_vectors(p)


def test_load_vectors_lowercases_keeps_first(tmp_path):
    p = tmp_path / "vecs.txt"
    p.write_text("Cat 1.0 0.0\ncat 0.0 1.0\n", encoding="utf-8")
    store = load_vectors(p)
    assert store.vocab_order == ["cat"]
    assert np.allclose(store.vectors["cat"], [1.0, 0.0])


def test_cosine_identity():
    store = store_from({"w": [0.3, 0.4, 0.5]})
    assert cosine("w", "w", store) == pytest.approx(1.0, abs=1e-6)


def test_cosine_antipodal():
    store = store_from({"w": [1.0, 2.0], "neg": [-1.0, -2.0]})
    assert cosine("w", "neg", store) == pytest.approx(-1.0, abs=1e-6)


def test_cosine_hand_arithmetic():
    # dot = 1, norms 1 and sqrt(2): cos = 1/sqrt(2)
    store = store_from({"a": [1.0, 0.0], "b": [1.0, 1.0]})
    assert cosine("a", "b", store) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-4)


def test_cosine_unknown_word():
    store = store_from({"a": [1.0, 0.0]})
    with pytest.raises(UnknownWord):
        cosine("a", "zzz", store)


def test_cosine_zero_vector():
    store = store_from({"a": [1.0, 0.0], "z": [0.0, 0.0]})
    with pytest.raises(ZeroVector):
        cosine("a", "z", store)


def test_cosine_symmetric():
    store = store_from({"a": [0.2, 0.9, -0.3], "b": [0.5, -0.1, 0.4]})
    assert abs(cosine("a", "b", store) - cosine("b", "a", store)) < 1e-9


def test_nearest_matches_exhaustive_scan():
    store = store_from({
        "man": [1.0, 0.2, 0.0],
        "dog": [0.9, 0.3, 0.1],
        "car": [-0.2, 1.0, 0.4],
        "table": [0.0, 0.0, 1.0],
    })
    cands = {"dog", "car", "table"}
    result = nearest("man", store, candidates=Candidates(store, cands), exclude=set(), k=2)
    oracle = sorted(
        ((w, cosine("man", w, store)) for w in cands),
        key=lambda ws: (-ws[1], ws[0]),
    )[:2]
    assert [w for w, _ in result] == [w for w, _ in oracle]
    for (w1, s1), (w2, s2) in zip(result, oracle):
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_nearest_all_excluded():
    store = store_from({"man": [1.0, 0.0], "dog": [0.9, 0.1]})
    assert nearest("man", store, candidates=Candidates(store, {"dog"}), exclude={"dog"}, k=3) == []


def test_nearest_tie_lexicographic():
    store = store_from({"q": [1.0, 0.0], "bb": [2.0, 0.0], "aa": [3.0, 0.0]})
    result = nearest("q", store, candidates=Candidates(store, {"aa", "bb"}), exclude=set(),
                     k=2)
    assert [w for w, _ in result] == ["aa", "bb"]


def test_nearest_unknown_query():
    store = store_from({"a": [1.0, 0.0]})
    with pytest.raises(UnknownWord):
        nearest("zzz", store, candidates=Candidates(store, {"a"}), exclude=set(), k=1)


def test_nearest_prefix_property():
    store = store_from({
        "q": [1.0, 0.1], "a": [0.9, 0.2], "b": [0.1, 1.0], "c": [0.5, 0.5], "d": [-1.0, 0.0],
    })
    cands = Candidates(store, {"a", "b", "c", "d"})
    for k in (1, 2, 3):
        shorter = nearest("q", store, candidates=cands, exclude=set(), k=k)
        longer = nearest("q", store, candidates=cands, exclude=set(), k=k + 1)
        assert longer[: len(shorter)] == shorter


# --- the candidate table against the scalar reference -------------------------

POOL = ("bus", "box", "boxes", "cat", "cats", "dog", "dogs", "glass", "glasses", "lens",
        "sofa", "table", "dining table", "hot dog", "bus stop")
# spellings that are not rows: other case, out of the store
STRAYS = ("Cat", "DINING TABLE", "zebra", "fire hydrant")
LEMMAS = ("bus", "box", "cat", "dog", "glass", "len", "lens", "sofa", "table", "stop", "kite")
DIM = 3
# eighths sum exactly; 97ths round, so mat-vec and per-row dots may differ in the last bit
COMPONENT = st.integers(-16, 16).map(lambda n: n / 8) | st.integers(-970, 970).map(
    lambda n: n / 97)


@st.composite
def vector_tables(draw, names):
    """Vectors for `names`: fresh, exact or scaled copies of earlier ones, or zero."""
    vectors = {}
    for name in names:
        kind = draw(st.sampled_from(("fresh", "fresh", "copy", "zero")))
        if kind == "copy" and vectors:
            source = vectors[draw(st.sampled_from(sorted(vectors)))]
            vectors[name] = source * draw(st.sampled_from((1.0, 2.0, 0.5, 3.0)))
        elif kind == "zero":
            vectors[name] = np.zeros(DIM)
        else:
            vectors[name] = np.array(draw(st.lists(COMPONENT, min_size=DIM, max_size=DIM)))
    return vectors


def absent(candidate, lemmas):
    return all(singularize(w) not in lemmas for w in candidate.split(" "))


def assert_matches_reference(got, ranking, k):
    """`ranking` is the reference's full order; near ties (1e-9) may swap."""
    scores = dict(ranking)
    ref = [s for _, s in ranking]
    assert len(got) == min(k, len(ranking))
    for (w1, s1), (w2, s2) in zip(got, got[1:]):
        assert s1 > s2 or (s1 == s2 and w1 < w2)  # equal scores in word order
    for i, (word, score) in enumerate(got):
        assert abs(score - scores[word]) <= 1e-12
        separated = all(abs(ref[i] - ref[j]) > 1e-9 for j in (i - 1, i + 1)
                        if 0 <= j < len(ref))
        if separated:
            assert word == ranking[i][0]


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_nearest_agrees_with_scalar_reference(data):
    names = data.draw(st.lists(st.sampled_from(POOL), min_size=len(POOL) // 2, unique=True),
                      label="store")
    store = make_store(data.draw(vector_tables(names), label="vectors"))
    word = data.draw(st.sampled_from(names), label="query")
    words = data.draw(st.lists(st.sampled_from(POOL + STRAYS), min_size=len(POOL) // 2),
                      label="candidates")
    exclude = data.draw(st.sets(st.sampled_from(POOL + STRAYS), max_size=3), label="exclude")
    lemmas = data.draw(st.frozensets(st.sampled_from(LEMMAS), max_size=3), label="lemmas")
    k = data.draw(st.integers(1, 4), label="k")
    table = Candidates(store, words)
    assert table.words == sorted(
        {w.lower() for w in words} & {w for w, v in store.vectors.items() if v.any()})
    allowed = [w for w in words if absent(w, lemmas)]
    try:
        ranking = scalar_nearest(word, store, allowed, exclude, k=len(POOL))
    except ZeroVector:
        with pytest.raises(ZeroVector):
            nearest(word, store, table, exclude, k, lemmas=lemmas)
        return
    assert_matches_reference(nearest(word, store, table, exclude, k, lemmas=lemmas), ranking, k)


# singular nouns, so the substitute is never pluralized
NOUNS = ("bus", "box", "cat", "dog", "glass", "sofa", "table")


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_adversarial_qa_agrees_with_absent_filter_and_scalar_scan(data):
    """The table path picks what the per-query absent() filter plus scan picked."""
    lex = Lexicons.default()
    first, second = data.draw(st.lists(st.sampled_from(NOUNS), min_size=2, max_size=2,
                                       unique=True), label="caption nouns")
    others = data.draw(st.lists(st.sampled_from(NOUNS), max_size=2), label="second caption")
    captions = [f"A {first} next to a {second}"]
    if others:
        captions.append("A " + " and a ".join(others))
    record = CaptionRecord(image_id=1, captions=captions)
    lemmas = object_lemma_index([record], lex)[0][1]
    names = data.draw(st.lists(st.sampled_from(POOL), min_size=len(POOL) // 2, unique=True),
                      label="store")
    vectors = data.draw(vector_tables([first, *(n for n in names if n != first)]))
    store = make_store(vectors)
    vocab = data.draw(st.sets(st.sampled_from(POOL + STRAYS), min_size=len(POOL) // 2),
                      label="object vocab")
    threshold = data.draw(st.sampled_from((0.0, 0.4, 0.9)), label="threshold")
    pair = QAPair(qa_id="t0", image_id=1, question=f"Is there a {first}?", answer="yes",
                  answer_type="yesno", source="template", source_caption=captions[0])

    out = adversarial_qa(pair, analyze(captions[0], lex), store, Candidates(store, vocab),
                         lemmas, PipelineConfig(seed=0, adversarial_threshold=threshold))

    allowed = {c for c in vocab if absent(c, lemmas)}
    try:
        ranking = scalar_nearest(first, store, allowed, lemmas | {first}, k=len(POOL))
    except ZeroVector:
        ranking = []
    best = ranking[0][1] if ranking else None
    if best is None or best < threshold - 1e-9:
        assert out is None
    elif best > threshold + 1e-9:
        assert out is not None and out.answer == "no"
        got = re.fullmatch(r"Is there an? (.+)\?", out.question).group(1)
        assert_matches_reference([(got, cosine(first, got, store))], ranking, 1)


def test_mean_pool_single_word():
    store = store_from({"cat": [0.5, -0.5, 2.0]})
    assert np.allclose(mean_pool("cat", store), [0.5, -0.5, 2.0])


def test_mean_pool_all_oov():
    store = store_from({"cat": [0.5, -0.5]})
    assert np.array_equal(mean_pool("zz qq", store), np.zeros(2))


def test_mean_pool_two_word_average():
    store = store_from({"a": [1.0, 3.0], "b": [3.0, 5.0]})
    assert np.allclose(mean_pool("a b", store), [2.0, 4.0], atol=1e-6)


def test_mean_pool_ignores_case_and_oov():
    store = store_from({"cat": [2.0, 0.0], "dog": [0.0, 2.0]})
    got = mean_pool("Cat unknownword DOG?", store)
    assert np.allclose(got, [1.0, 1.0])


@given(st.permutations(["red", "car", "fast", "cat"]))
@settings(max_examples=20)
def test_mean_pool_order_invariant(words):
    store = store_from({
        "red": [1.0, 0.0], "car": [0.0, 1.0], "fast": [1.0, 1.0], "cat": [2.0, -1.0],
    })
    base = mean_pool("red car fast cat", store)
    assert np.allclose(mean_pool(" ".join(words), store), base, atol=1e-9)
