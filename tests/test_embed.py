import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capqa.embed import EmbeddingStore, cosine, load_vectors, make_store, mean_pool, nearest
from capqa.errors import MalformedInput, UnknownWord, ZeroVector


def store_from(mapping):
    return make_store({w: np.asarray(v, dtype=np.float64) for w, v in mapping.items()})


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
    result = nearest("man", store, candidates=cands, exclude=set(), k=2)
    oracle = sorted(
        ((w, cosine("man", w, store)) for w in cands),
        key=lambda ws: (-ws[1], ws[0]),
    )[:2]
    assert [w for w, _ in result] == [w for w, _ in oracle]
    for (w1, s1), (w2, s2) in zip(result, oracle):
        assert s1 == pytest.approx(s2, abs=1e-12)


def test_nearest_all_excluded():
    store = store_from({"man": [1.0, 0.0], "dog": [0.9, 0.1]})
    assert nearest("man", store, candidates={"dog"}, exclude={"dog"}, k=3) == []


def test_nearest_tie_lexicographic():
    store = store_from({"q": [1.0, 0.0], "bb": [2.0, 0.0], "aa": [3.0, 0.0]})
    result = nearest("q", store, candidates={"aa", "bb"}, exclude=set(), k=2)
    assert [w for w, _ in result] == ["aa", "bb"]


def test_nearest_unknown_query():
    store = store_from({"a": [1.0, 0.0]})
    with pytest.raises(UnknownWord):
        nearest("zzz", store, candidates={"a"}, exclude=set(), k=1)


def test_nearest_prefix_property():
    store = store_from({
        "q": [1.0, 0.1], "a": [0.9, 0.2], "b": [0.1, 1.0], "c": [0.5, 0.5], "d": [-1.0, 0.0],
    })
    cands = {"a", "b", "c", "d"}
    for k in (1, 2, 3):
        shorter = nearest("q", store, candidates=cands, exclude=set(), k=k)
        longer = nearest("q", store, candidates=cands, exclude=set(), k=k + 1)
        assert longer[: len(shorter)] == shorter


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
