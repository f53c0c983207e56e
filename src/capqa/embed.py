"""Word-vector store and similarity queries.

Vectors load from the plain-text format used by GloVe releases: one word
per line followed by whitespace-separated floats. Only the operations the
pipeline needs are provided (a candidate table built once per run, a top-k
query against it, mean pooling); the store is a plain dict so lookups stay
trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MalformedInput, UnknownWord, ZeroVector
from .lingo import WORD_RE, singularize


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


class Candidates:
    """Candidate words stacked once so each `nearest` query is one mat-vec.

    Rows are the words that are in the store with a non-zero vector,
    lowercased, deduplicated and in lexicographic order, so the first of
    equal scores is the lexicographically smallest word. `postings` maps the
    singular of each space-separated part of a word to the rows holding it.
    """

    __slots__ = ("words", "matrix", "norms", "rows", "postings")

    def __init__(self, store: EmbeddingStore, words):
        self.words = []
        norms = []
        for word in sorted({w.lower() for w in words}):
            vec = store.vectors.get(word)
            if vec is None:
                continue
            norm = float(np.linalg.norm(vec))
            if norm == 0.0:
                continue
            self.words.append(word)
            norms.append(norm)
        self.matrix = np.zeros((len(self.words), store.dim), dtype=np.float64)
        self.norms = np.array(norms, dtype=np.float64)
        self.rows = {}
        self.postings = {}
        for row, word in enumerate(self.words):
            self.matrix[row] = store.vectors[word]
            self.rows[word] = row
            for part in word.split(" "):
                self.postings.setdefault(singularize(part), []).append(row)

    def __len__(self) -> int:
        return len(self.words)


def nearest(word: str, store: EmbeddingStore, candidates: Candidates, exclude=(), k=1,
            lemmas=()):
    """Top-k rows of `candidates` by cosine similarity to `word`.

    Skipped: `word` itself, the words in `exclude`, and every row with a part
    whose singular is in `lemmas`. Ties break lexicographically.
    """
    query = _vector(word.lower(), store)
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ZeroVector(word)
    keep = np.ones(len(candidates), dtype=bool)
    for lemma in lemmas:
        rows = candidates.postings.get(lemma)
        if rows:
            keep[rows] = False
    for w in (word, *exclude):
        row = candidates.rows.get(w.lower())
        if row is not None:
            keep[row] = False
    kept = np.flatnonzero(keep)
    scores = (candidates.matrix @ query)[kept] / (qnorm * candidates.norms[kept])
    top = []
    for _ in range(min(k, len(kept))):
        i = int(np.argmax(scores))  # the first maximum: rows are in word order
        top.append((candidates.words[kept[i]], float(scores[i])))
        scores[i] = -np.inf
    return top


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
