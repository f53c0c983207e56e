"""Answer expansion into weighted sub-phrases, and the answer vocabulary.

A full answer of n content tokens expands into itself, every strict token
subsequence that keeps the head (final) token, and every single token, each
weighted by its token count over n. Number words swap with digits and nouns
swap number, so "two black cars" also matches "2 cars" at weight 2/3.
Answers longer than twelve content tokens fall back to single tokens plus
head-final contiguous suffixes to keep expansion linear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import files
from . import wordlists as wl
from .errors import EmptyVocab, MalformedInput
from .lingo import WORD_RE, Lexicons, pluralize, singularize

_MAX_SUBSEQ_TOKENS = 12

# answers that are atomic labels rather than decomposable phrases
_ATOMIC_ANSWERS = ("yes", "no", "none", "can't say")


@dataclass
class WeightedAnswerSet:
    full_answer: str
    entries: list  # (phrase, Fraction), descending weight then lexicographic


def normalize_answer(answer: str) -> list[str]:
    """Lowercased word tokens with leading determiners removed."""
    toks = WORD_RE.findall(answer.lower())
    while len(toks) > 1 and toks[0] in wl.DETERMINERS:
        toks.pop(0)
    return toks


def _no_plural_variant(tok: str, lex: Lexicons) -> bool:
    return (
        not tok.isalpha()
        or tok in lex.number_words
        or tok in lex.colors
        or tok in wl.COMMON_ADJECTIVES
    )


def _token_variants(tok: str, lex: Lexicons, digit_to_word: dict) -> list[str]:
    out = []
    if tok in lex.number_words:
        out.append(lex.number_words[tok])
    elif tok in digit_to_word:
        out.append(digit_to_word[tok])
    if not _no_plural_variant(tok, lex):
        sing = singularize(tok)
        if sing != tok:
            out.append(sing)
        else:
            plur = pluralize(tok)
            if plur != tok:
                out.append(plur)
    return out


def _digit_swaps(toks, lex: Lexicons, digit_to_word: dict):
    """Every variant of a multi-token phrase with number words and digits
    exchanged at any subset of positions (the identity excluded)."""
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


def expand_answer(answer: str, lex: Lexicons) -> WeightedAnswerSet:
    digit_to_word = {d: w for w, d in lex.number_words.items()}
    toks = normalize_answer(answer)
    if not toks:
        raise MalformedInput(f"answer {answer!r} has no content tokens")
    n = len(toks)
    full = " ".join(toks)

    entries: dict[str, Fraction] = {}

    def add(phrase: str, count: int) -> None:
        w = Fraction(count, n)
        if entries.get(phrase, Fraction(0)) < w:
            entries[phrase] = w

    add(full, n)

    index_sets: set[tuple[int, ...]] = {(i,) for i in range(n)}
    if n <= _MAX_SUBSEQ_TOKENS:
        head = n - 1
        for r in range(1, n - 1):
            for combo in itertools.combinations(range(n - 1), r):
                index_sets.add((*combo, head))
    else:
        # long answers: contiguous head-final suffixes only
        for i in range(1, n):
            index_sets.add(tuple(range(i, n)))

    for idxs in sorted(index_sets):
        sub = [toks[i] for i in idxs]
        count = len(idxs)
        if count == n and n > 1:
            continue
        add(" ".join(sub), count)
        if count == 1:
            for var in _token_variants(sub[0], lex, digit_to_word):
                add(var, 1)
        else:
            for combo in _digit_swaps(sub, lex, digit_to_word):
                add(" ".join(combo), count)

    ordered = sorted(entries.items(), key=lambda kv: (-kv[1], kv[0]))
    return WeightedAnswerSet(full_answer=full, entries=ordered)


def answer_weights(qa, lex: Lexicons) -> list:
    """A pair's (phrase, weight) entries: its own weights when it has them;
    else a yes/no or atomic answer weighs 1 as it stands, and any other
    answer expands into its weighted sub-phrases."""
    if qa.weights:
        return qa.weights
    if qa.answer_type == "yesno" or qa.answer in _ATOMIC_ANSWERS:
        return [(qa.answer, Fraction(1))]
    return expand_answer(qa.answer, lex).entries


def build_vocab(pairs, lex: Lexicons, min_count: int = 1) -> list:
    """Count weighted answer phrases over a pair stream; the phrases seen at
    least min_count times, ordered by descending count then phrase."""
    counts: dict[str, int] = {}
    for qa in pairs:
        for p, _ in answer_weights(qa, lex):
            counts[p] = counts.get(p, 0) + 1
    kept = [p for p, c in counts.items() if c >= min_count]
    if not kept:
        raise EmptyVocab(f"no phrase reached min_count={min_count}")
    kept.sort(key=lambda p: (-counts[p], p))
    return kept


def save_vocab_file(phrases, path) -> int:
    """A header line, then one phrase per line; returns the phrase count."""
    header = f"#capqa-vocab v1 count={len(phrases)}"
    return files.write_lines(path, itertools.chain((header,), phrases)) - 1
