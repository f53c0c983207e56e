"""Word-vector store and similarity queries.

Vectors load from the plain-text format used by GloVe releases: one word
per line followed by whitespace-separated floats. Only the operations the
pipeline needs are provided (cosine, top-k scan over a candidate set,
mean pooling); the store is a plain dict so lookups stay trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedInput, UnknownWord, ZeroVector
from .lingo import WORD_RE


@dataclass
class EmbeddingStore:
    dim: int
    vectors: dict[str, np.ndarray]
    vocab_order: list[str]


def make_store(vectors: dict[str, np.ndarray]) -> EmbeddingStore:
    if not vectors:
        raise MalformedInput("empty vector table")
    arrays = {}
    dim = None
    order = []
    for word, vec in vectors.items():
        arr = np.asarray(vec, dtype=np.float64)
        if arr.ndim != 1 or arr.size == 0:
            raise MalformedInput(f"vector for {word!r} is not one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise MalformedInput(f"vector for {word!r} holds non-finite values")
        if dim is None:
            dim = int(arr.size)
        elif arr.size != dim:
            raise MalformedInput(
                f"vector for {word!r} has {arr.size} dims, expected {dim}"
            )
        key = word.lower()
        if key in arrays:
            continue
        arrays[key] = arr
        order.append(key)
    return EmbeddingStore(dim=dim, vectors=arrays, vocab_order=order)


def load_vectors(path) -> EmbeddingStore:
    vectors: dict[str, np.ndarray] = {}
    order: list[str] = []
    dim = None
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) < 2:
                raise MalformedInput(f"{path}:{lineno}: no vector components")
            word = parts[0].lower()
            try:
                arr = np.array([float(x) for x in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise MalformedInput(f"{path}:{lineno}: non-numeric component") from exc
            if not np.all(np.isfinite(arr)):
                raise MalformedInput(f"{path}:{lineno}: non-finite component")
            if dim is None:
                dim = arr.size
            elif arr.size != dim:
                raise MalformedInput(
                    f"{path}:{lineno}: {arr.size} dims, expected {dim}"
                )
            if word in vectors:
                continue
            vectors[word] = arr
            order.append(word)
    if not vectors:
        raise MalformedInput(f"no vectors in {path}")
    return EmbeddingStore(dim=int(dim), vectors=vectors, vocab_order=order)


def _vector(word: str, store: EmbeddingStore) -> np.ndarray:
    vec = store.vectors.get(word.lower())
    if vec is None:
        raise UnknownWord(word)
    return vec


def cosine(a: str, b: str, store: EmbeddingStore) -> float:
    va = _vector(a, store)
    vb = _vector(b, store)
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        raise ZeroVector(a if na == 0.0 else b)
    return float(np.dot(va, vb)) / (na * nb)


def nearest(word: str, store: EmbeddingStore, candidates, exclude=(), k=1):
    """Top-k candidates by cosine similarity to `word`.

    Candidates missing from the store or with zero vectors are skipped, as
    are `word` itself and anything in `exclude`. Ties break lexicographically
    so results never depend on set iteration order.
    """
    query = _vector(word.lower(), store)
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ZeroVector(word)
    excluded = {w.lower() for w in exclude}
    excluded.add(word.lower())
    scored = []
    for cand in sorted({c.lower() for c in candidates}):
        if cand in excluded:
            continue
        vec = store.vectors.get(cand)
        if vec is None:
            continue
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            continue
        score = float(np.dot(query, vec)) / (qnorm * norm)
        scored.append((-score, cand))
    scored.sort()
    return [(cand, -neg) for neg, cand in scored[:k]]


def mean_pool(text: str, store: EmbeddingStore) -> np.ndarray:
    """Average vector over the in-vocabulary word tokens of `text`.

    All-OOV (or empty) text pools to the zero vector rather than failing,
    so phrase comparisons degrade gracefully.
    """
    total = np.zeros(store.dim, dtype=np.float64)
    count = 0
    for tok in WORD_RE.findall(text.lower()):
        vec = store.vectors.get(tok)
        if vec is not None:
            total += vec
            count += 1
    if count == 0:
        return total
    return total / count
