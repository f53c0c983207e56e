"""Rule-based linguistic analysis of captions.

Tokenization, coarse POS tagging, noun-phrase chunking, the small
transformations question generation needs (auxiliary stripping,
detokenization), and the per-image head-lemma index. Tagging is
closed-lexicon plus suffix heuristics with NOUN as the default for unknown
content words; captions are simple declaratives, so this deliberately trades
coverage for determinism and zero model dependencies.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional

from . import wordlists as wl
from .errors import MalformedInput

NOUN = "NOUN"
PROPN = "PROPN"
VERB = "VERB"
AUX = "AUX"
ADJ = "ADJ"
ADV = "ADV"
DET = "DET"
NUM = "NUM"
ADP = "ADP"
PRON = "PRON"
OTHER = "OTHER"

# a word run, with inner apostrophes and hyphens glued in
WORD_RE = re.compile(r"\w+(?:['’-]\w+)*")
# word runs or any single non-word non-space char
_TOKEN_RE = re.compile(rf"{WORD_RE.pattern}|[^\w\s]")

_SINGULAR_TO_PLURAL = {s: p for p, s in wl.IRREGULAR_PLURALS.items()}


@dataclass(frozen=True)
class Token:
    text: str
    lemma: str
    pos: str
    span: tuple[int, int]


@dataclass(frozen=True)
class NounPhrase:
    """Maximal DET? NUM? ADJ* NOUN+ run; head is the final noun."""

    tokens: tuple[Token, ...]
    head: Token
    determiner: Optional[Token] = None
    quantifier: Optional[Token] = None
    color: Optional[Token] = None

    @property
    def text(self) -> str:
        return " ".join(t.text for t in self.tokens)

    @property
    def text_sans_determiner(self) -> str:
        return " ".join(t.text for t in self.tokens if t is not self.determiner)


@dataclass(frozen=True, eq=True)
class Lexicons:
    """Word lists driving analysis; colors/locations/antonyms/number words
    can be overridden by a user-supplied JSON file."""

    colors: frozenset
    locations: frozenset
    antonyms: dict
    number_words: dict
    stop_aux: frozenset
    persons: frozenset
    animals: frozenset

    @classmethod
    def default(cls) -> "Lexicons":
        return _default_lexicons()

    @classmethod
    def load(cls, path) -> "Lexicons":
        """Default lexicons with entries from a JSON override file merged in.

        The file may carry any of the keys `colors`, `locations`, `antonyms`,
        `number_words`; values extend (not replace) the embedded lists.
        """
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise MalformedInput(f"cannot read lexicon file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise MalformedInput(f"lexicon file {path} must hold a JSON object")
        base = cls.default()
        colors = base.colors | {str(w).lower() for w in data.get("colors", [])}
        locations = base.locations | {str(w).lower() for w in data.get("locations", [])}
        antonyms = dict(base.antonyms)
        antonyms.update({str(k).lower(): str(v).lower() for k, v in data.get("antonyms", {}).items()})
        number_words = dict(base.number_words)
        number_words.update({str(k).lower(): str(v) for k, v in data.get("number_words", {}).items()})
        return replace(
            base,
            colors=colors,
            locations=locations,
            antonyms=antonyms,
            number_words=number_words,
        )


@lru_cache(maxsize=1)
def _default_lexicons() -> Lexicons:
    return Lexicons(
        colors=wl.COLORS,
        locations=wl.LOCATIONS,
        antonyms=dict(wl.ANTONYMS),
        number_words=dict(wl.NUMBER_WORDS),
        stop_aux=wl.STOP_AUX,
        persons=wl.PERSON_WORDS,
        animals=wl.ANIMAL_WORDS,
    )


def singularize(word: str) -> str:
    """Strip a plural suffix by rule; irregular forms via exception table."""
    w = word.lower()
    if w in wl.IRREGULAR_PLURALS:
        return wl.IRREGULAR_PLURALS[w]
    if len(w) > 3 and w.endswith("ies"):
        return w[:-3] + "y"
    if len(w) > 3 and w.endswith("es") and w[:-2].endswith(("s", "x", "z", "ch", "sh")):
        return w[:-2]
    if len(w) > 3 and w.endswith("s") and not w.endswith(("ss", "us", "is")):
        return w[:-1]
    return w


def pluralize(word: str) -> str:
    w = word.lower()
    if w in _SINGULAR_TO_PLURAL:
        return _SINGULAR_TO_PLURAL[w]
    if len(w) > 1 and w.endswith("y") and w[-2] not in "aeiou":
        return w[:-1] + "ies"
    if w.endswith(("s", "x", "z", "ch", "sh")):
        return w + "es"
    return w + "s"


def _tag(text: str, lowered: str, prev_pos, position: int, lex: Lexicons) -> str:
    if not any(ch.isalnum() for ch in text):
        return OTHER
    if lowered.isdigit():
        return NUM
    if lowered in wl.DETERMINERS:
        return DET
    if lowered in wl.AUXILIARIES:
        return AUX
    if lowered in wl.PREPOSITIONS:
        return ADP
    if lowered in wl.PRONOUNS:
        return PRON
    if lowered in lex.number_words:
        return NUM
    if lowered in wl.VAGUE_QUANTIFIERS:
        return NUM
    if lowered in wl.CONJUNCTIONS:
        return OTHER
    if lowered in wl.ADVERB_WORDS:
        return ADV
    if lowered in lex.colors or lowered in wl.COMMON_ADJECTIVES:
        return ADJ
    if len(lowered) > 3 and lowered.endswith("ly"):
        return ADV
    if lowered in wl.COMMON_VERBS:
        # a verb-list word right after a determiner/number/adjective is
        # almost always a homographic noun ("a watch", "the swing")
        if prev_pos in (DET, NUM, ADJ):
            return NOUN
        return VERB
    if len(lowered) >= 5 and lowered.endswith("ing"):
        return VERB
    if len(lowered) >= 5 and lowered.endswith("ed"):
        return VERB
    if position > 0 and text[:1].isupper():
        return PROPN
    return NOUN


def _lemma(lowered: str, pos: str, lex: Lexicons) -> str:
    if pos in (NOUN, PROPN):
        base = lowered
        if base.endswith(("'s", "’s")):
            base = base[:-2]
        return singularize(base)
    if pos == NUM:
        return lex.number_words.get(lowered, lowered)
    return lowered


def analyze(caption: str, lex: Lexicons):
    """Tokenize, tag, and chunk one caption.

    Returns (tokens, noun_phrases). Pure: identical input gives identical
    output in any process.
    """
    tokens = []
    prev_pos = None
    for m in _TOKEN_RE.finditer(caption):
        text = m.group()
        lowered = text.lower()
        pos = _tag(text, lowered, prev_pos, len(tokens), lex)
        tokens.append(Token(text=text, lemma=_lemma(lowered, pos, lex), pos=pos, span=m.span()))
        prev_pos = pos
    return tokens, _chunk(tokens, lex)


def _chunk(tokens, lex: Lexicons):
    nps = []
    i, n = 0, len(tokens)
    while i < n:
        j = i
        det = quant = None
        if tokens[j].pos == DET:
            det = tokens[j]
            j += 1
        if j < n and tokens[j].pos == NUM:
            quant = tokens[j]
            j += 1
        adjs = []
        while j < n and tokens[j].pos == ADJ:
            adjs.append(tokens[j])
            j += 1
        nouns = []
        while j < n and tokens[j].pos in (NOUN, PROPN):
            nouns.append(tokens[j])
            j += 1
        if nouns:
            color = next((a for a in adjs if a.text.lower() in lex.colors), None)
            nps.append(
                NounPhrase(
                    tokens=tuple(tokens[i:j]),
                    head=nouns[-1],
                    determiner=det,
                    quantifier=quant,
                    color=color,
                )
            )
            i = j
        else:
            i = max(j, i + 1)
    return nps


def strip_aux(tokens, lex: Lexicons) -> str:
    """Caption text with the first copula/auxiliary removed, whitespace normalized."""
    kept = []
    removed = False
    for t in tokens:
        if not removed and t.pos == AUX and t.text.lower() in lex.stop_aux:
            removed = True
            continue
        kept.append(t)
    return detokenize(kept)


def detokenize(tokens) -> str:
    """Join token texts with single spaces, gluing punctuation to the left."""
    parts = []
    for t in tokens:
        if parts and t.pos == OTHER and not any(ch.isalnum() for ch in t.text):
            parts[-1] += t.text
        else:
            parts.append(t.text)
    return " ".join(parts)


def object_lemma_index(records, lex: Lexicons):
    """One pass over caption records: per-image noun-phrase head-lemma sets
    plus corpus-wide lemma occurrence counts.

    The index feeds image-text-matching negative sampling and adversarial
    exclusion; the counts feed the adversarial candidate vocabulary.
    """
    index = {}
    counts = Counter()
    for rec in records:
        lemmas = set()
        for caption in rec.captions:
            _, nps = analyze(caption, lex)
            for np in nps:
                lemmas.add(np.head.lemma)
                counts[np.head.lemma] += 1
        index[rec.image_id] = frozenset(lemmas)
    return index, counts
