"""Dataset-level reporting and question-embedding export.

Reporting tokens are whitespace units with surrounding punctuation stripped,
so "competing?" counts as one token "competing". Answer uniqueness is counted
after lowercasing and whitespace squeezing; the report says so in its own
output so downstream comparisons know the normalization.
"""

from __future__ import annotations

import string
from collections import Counter
from dataclasses import asdict, dataclass, field

from . import files
from .embed import EmbeddingStore, mean_pool
from .errors import EmptyStream
from .lingo import lower_squeeze

_ANSWER_NORMALIZATION = "lowercase, whitespace-squeezed"

_PUNCT = string.punctuation


def _tokens(text: str) -> list:
    out = []
    for unit in text.split():
        word = unit.strip(_PUNCT)
        if word:
            out.append(word)
    return out


@dataclass
class DatasetReport:
    total: int
    by_source: dict
    unique_answers: int
    mean_question_tokens: float
    mean_answer_tokens: float
    answer_type_fractions: dict
    yes_balance: float
    answer_normalization: str = _ANSWER_NORMALIZATION

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class StatsAccumulator:
    """Streaming counters behind one report, fed one pair at a time."""

    count: int = 0
    question_tokens: int = 0
    answer_tokens: int = 0
    source_counts: Counter = field(default_factory=Counter)
    source_question_tokens: Counter = field(default_factory=Counter)
    source_answer_tokens: Counter = field(default_factory=Counter)
    type_counts: Counter = field(default_factory=Counter)
    yesno_count: int = 0
    yes_count: int = 0
    answers: set = field(default_factory=set)

    def add(self, pair) -> None:
        q = len(_tokens(pair.question))
        a = len(_tokens(pair.answer))
        self.count += 1
        self.question_tokens += q
        self.answer_tokens += a
        self.source_counts[pair.source] += 1
        self.source_question_tokens[pair.source] += q
        self.source_answer_tokens[pair.source] += a
        self.type_counts[pair.answer_type] += 1
        if pair.answer_type == "yesno":
            self.yesno_count += 1
            if lower_squeeze(pair.answer) == "yes":
                self.yes_count += 1
        self.answers.add(lower_squeeze(pair.answer))

    def report(self) -> DatasetReport:
        if self.count == 0:
            raise EmptyStream("no pairs to report on")
        by_source = {}
        for source in sorted(self.source_counts):
            n = self.source_counts[source]
            by_source[source] = {
                "count": n,
                "mean_question_tokens": self.source_question_tokens[source] / n,
                "mean_answer_tokens": self.source_answer_tokens[source] / n,
            }
        fractions = {
            t: self.type_counts[t] / self.count for t in sorted(self.type_counts)
        }
        balance = self.yes_count / self.yesno_count if self.yesno_count else 0.0
        return DatasetReport(
            total=self.count,
            by_source=by_source,
            unique_answers=len(self.answers),
            mean_question_tokens=self.question_tokens / self.count,
            mean_answer_tokens=self.answer_tokens / self.count,
            answer_type_fractions=fractions,
            yes_balance=balance,
        )


def report(pairs) -> DatasetReport:
    """One-pass statistics over a stream of pairs."""
    acc = StatsAccumulator()
    for pair in pairs:
        acc.add(pair)
    return acc.report()


def export_embeddings(pairs, store: EmbeddingStore, path) -> int:
    """One line per pair: qa_id followed by the mean-pooled question vector.

    Output is plain space-separated text for external projection tools;
    re-exporting the same pairs reproduces the file byte for byte.
    """
    return files.write_lines(path, (
        f"{pair.qa_id} " + " ".join(f"{v:.8g}" for v in mean_pool(pair.question, store))
        for pair in pairs
    ))
