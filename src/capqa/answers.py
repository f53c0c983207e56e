"""Answer expansion into weighted sub-phrases, and the answer vocabulary.

A full answer of n content tokens expands into itself, every strict token
subsequence that keeps the head (final) token, and every single token, each
weighted by its token count over n. Number words swap with digits and nouns
swap number, so "two black cars" also matches "2 cars" at weight 2/3.
Answers longer than twelve content tokens fall back to single tokens plus
head-final contiguous suffixes to keep expansion linear. `expand_answer`
returns the (phrase, Fraction) list, by descending weight then phrase: the
weights are counted as integer token counts, and each entry takes its exact
Fraction from a shared table at the end.

The table holds one `Fraction` per weight value, so every entry of that value,
in any answer, is the same object; an atomic answer's weight 1 is the same
object as a full answer's. `WEIGHT_TEXT` maps `id()` of each shared Fraction to
its on-disk text, `repr(round(float(w), 6))`, which is how `capqa.qa` writes a
weight without converting it per entry. The ids are safe keys because the
table keeps every shared Fraction alive for the whole run. The table is
filled as token counts are first met, and grows with the distinct
(count, n) pairs, never with the answers.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import files
from . import wordlists as wl
from .errors import EmptyVocab, MalformedInput
from .lingo import WORD_RE, Lexicons, pluralize, singularize

_MAX_SUBSEQ_TOKENS = 12

# n -> the shared Fraction(count, n) for count in 0..n, each a _by_value entry
_over: dict = {}
# weight value -> its one shared Fraction
_by_value: dict = {}
# id(shared Fraction) -> its on-disk text
WEIGHT_TEXT: dict = {}

# answers that are atomic labels rather than decomposable phrases
_ATOMIC_ANSWERS = ("yes", "no", "none", "can't say")


def _shared(weight: Fraction) -> Fraction:
    weight = _by_value.setdefault(weight, weight)
    WEIGHT_TEXT[id(weight)] = repr(round(float(weight), 6))
    return weight


def _weights_over(n: int) -> list:
    """The shared Fraction(count, n), indexed by count."""
    row = _over.get(n)
    if row is None:
        row = _over[n] = [_shared(Fraction(count, n)) for count in range(n + 1)]
    return row


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


def _token_variants(tok: str, lex: Lexicons) -> list[str]:
    out = []
    if tok in lex.number_swap:
        out.append(lex.number_swap[tok])
    if not _no_plural_variant(tok, lex):
        sing = singularize(tok)
        if sing != tok:
            out.append(sing)
        else:
            plur = pluralize(tok)
            if plur != tok:
                out.append(plur)
    return out


def _digit_swaps(toks, lex: Lexicons):
    """Every spelling of a multi-token phrase with number words and digits
    exchanged at any subset of positions, the phrase itself first."""
    swap = lex.number_swap
    return itertools.product(*((t, swap[t]) if t in swap else (t,) for t in toks))


def expand_answer(answer: str, lex: Lexicons) -> list:
    """The answer's (phrase, weight) entries, by descending weight then phrase.

    Each phrase keeps the largest token count it is reached with; once the
    order is fixed, each count takes the shared `Fraction(count, n)`.
    """
    toks = normalize_answer(answer)
    if not toks:
        raise MalformedInput(f"answer {answer!r} has no content tokens")
    n = len(toks)
    counts = {" ".join(toks): n}

    def add(phrase: str, count: int) -> None:
        if counts.get(phrase, 0) < count:
            counts[phrase] = count

    for tok in toks:
        add(tok, 1)
        for var in _token_variants(tok, lex):
            add(var, 1)
    if n <= _MAX_SUBSEQ_TOKENS:
        subsets = ((*combo, toks[-1]) for r in range(1, n - 1)
                   for combo in itertools.combinations(toks[:-1], r))
    else:
        # long answers: contiguous head-final suffixes only
        subsets = (toks[i:] for i in range(1, n - 1))
    for sub in subsets:
        count = len(sub)
        for spelling in _digit_swaps(sub, lex):
            add(" ".join(spelling), count)

    weights = _weights_over(n)
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return [(phrase, weights[count]) for phrase, count in ordered]


def answer_weights(qa, lex: Lexicons) -> list:
    """A pair's (phrase, weight) entries: its own weights when it has them;
    else a yes/no or atomic answer weighs 1 as it stands, and any other
    answer expands into its weighted sub-phrases."""
    if qa.weights:
        return qa.weights
    if qa.answer_type == "yesno" or qa.answer in _ATOMIC_ANSWERS:
        return [(qa.answer, _weights_over(1)[1])]
    return expand_answer(qa.answer, lex)


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
