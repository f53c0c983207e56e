"""Word-vector store and similarity queries.

Vectors load from the plain-text format used by GloVe releases: one word
per line followed by whitespace-separated floats. Only the operations the
pipeline needs are provided (a candidate table built once per run, a top-k
query against it, mean pooling); the store is a plain dict so lookups stay
trivial. numpy is imported inside the functions that use it, so importing
this module, as every command does, does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import files
from .errors import MalformedInput, UnknownWord, ZeroVector
from .lingo import WORD_RE, singularize

if TYPE_CHECKING:
    import numpy as np


@dataclass
class EmbeddingStore:
    dim: int
    vectors: dict[str, np.ndarray]

    @property
    def vocab_order(self) -> list[str]:
        """The words in the order they were loaded."""
        return list(self.vectors)


def load_vectors(path) -> EmbeddingStore:
    import numpy as np

    dim = None

    def parse(line):
        nonlocal dim
        parts = line.split()
        if len(parts) < 2:
            raise MalformedInput("no vector components")
        arr = np.array([float(x) for x in parts[1:]], dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise MalformedInput("non-finite component")
        if dim is None:
            dim = arr.size
        elif arr.size != dim:
            raise MalformedInput(f"{arr.size} dims, expected {dim}")
        return parts[0].lower(), arr

    vectors: dict[str, np.ndarray] = {}
    for word, arr in files.read_lines(path, parse):
        vectors.setdefault(word, arr)
    if not vectors:
        raise MalformedInput(f"no vectors in {path}")
    return EmbeddingStore(dim=int(dim), vectors=vectors)


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
        import numpy as np

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
    import numpy as np

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
    import numpy as np

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
