"""Rule-based linguistic analysis of captions.

Tokenization, coarse POS tagging, noun-phrase chunking, the small
transformations question generation needs (auxiliary stripping, word
joining), and the per-image head-lemma index. Tagging is closed-lexicon
plus suffix heuristics with NOUN as the default for unknown content words;
captions are simple declaratives, so this deliberately trades coverage for
determinism and zero model dependencies.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional

from . import files
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


class Token(NamedTuple):
    text: str
    lemma: str
    pos: str
    span: tuple[int, int]


class NounPhrase(NamedTuple):
    """Maximal DET? NUM? ADJ* NOUN+ run; head is the final noun.

    `tokens` is `tokens[start:end]` of the analysis the phrase came from.
    """

    tokens: tuple[Token, ...]
    head: Token
    start: int
    end: int
    determiner: Optional[Token] = None
    quantifier: Optional[Token] = None
    color: Optional[Token] = None

    @property
    def text_sans_determiner(self) -> str:
        return " ".join(t.text for t in self.tokens if t is not self.determiner)


@dataclass(frozen=True, eq=True)
class Lexicons:
    """Word lists driving analysis; colors/locations/number words can be
    overridden by a user-supplied JSON file."""

    colors: frozenset
    locations: frozenset
    number_words: dict
    stop_aux: frozenset
    persons: frozenset
    animals: frozenset

    def __post_init__(self):
        # derived tables, not fields, so equality and repr ignore them and
        # `replace` rebuilds them from the new lists: closed-class word ->
        # (tag, lemma), and number word <-> digit (a word's own entry wins)
        object.__setattr__(self, "closed_class", _closed_class_table(self))
        object.__setattr__(self, "number_swap", {
            **{d: w for w, d in self.number_words.items()}, **self.number_words})

    @classmethod
    def default(cls) -> "Lexicons":
        return _default_lexicons()

    @classmethod
    def load(cls, path) -> "Lexicons":
        """Default lexicons with entries from a JSON override file merged in.

        The file may carry any of the keys `colors`, `locations` (lists) and
        `number_words` (an object); values extend (not replace) the embedded
        lists. Other keys are ignored.
        """
        return files.read_json(path, _merged_lexicons)


def _merged_lexicons(data) -> Lexicons:
    if not isinstance(data, dict):
        raise MalformedInput("lexicon file must hold a JSON object")
    for key, kind, name in (("colors", list, "a list"), ("locations", list, "a list"),
                            ("number_words", dict, "an object")):
        value = data.get(key, kind())
        if not isinstance(value, kind):
            raise MalformedInput(f"lexicon {key!r} must be {name}")
        entries = [*value, *value.values()] if kind is dict else value
        if not all(isinstance(w, str) for w in entries):
            raise MalformedInput(f"lexicon {key!r} must hold only strings")
    base = Lexicons.default()
    colors = base.colors | {w.lower() for w in data.get("colors", [])}
    locations = base.locations | {w.lower() for w in data.get("locations", [])}
    number_words = dict(base.number_words)
    number_words.update({k.lower(): v for k, v in data.get("number_words", {}).items()})
    return replace(
        base,
        colors=colors,
        locations=locations,
        number_words=number_words,
    )


@lru_cache(maxsize=1)
def _default_lexicons() -> Lexicons:
    return Lexicons(
        colors=wl.COLORS,
        locations=wl.LOCATIONS,
        number_words=dict(wl.NUMBER_WORDS),
        stop_aux=wl.STOP_AUX,
        persons=wl.PERSON_WORDS,
        animals=wl.ANIMAL_WORDS,
    )


def is_punct(text: str) -> bool:
    """True when `text` holds no letter or digit."""
    return not text.isalnum() and not any(ch.isalnum() for ch in text)


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


def _closed_class_table(lex: Lexicons) -> dict:
    """Word -> (tag, lemma) for every word of a closed list.

    Lists are applied from the lowest precedence up, so a word on two lists
    keeps the tag of the one `_tag` would test first. Words `_tag` settles
    before any list (no alphanumeric character, all digits) are left out.
    """
    ranked = (
        (ADJ, wl.COMMON_ADJECTIVES),
        (ADJ, lex.colors),
        (ADV, wl.ADVERB_WORDS),
        (OTHER, wl.CONJUNCTIONS),
        (NUM, wl.VAGUE_QUANTIFIERS),
        (NUM, lex.number_words),
        (PRON, wl.PRONOUNS),
        (ADP, wl.PREPOSITIONS),
        (AUX, wl.AUXILIARIES),
        (DET, wl.DETERMINERS),
    )
    table = {}
    for pos, words in ranked:
        for word in words:
            if word.isdigit() or is_punct(word):
                continue
            table[word] = (pos, _lemma(word, pos, lex))
    return table


def _tag(text: str, lowered: str, prev_pos, position: int) -> str:
    """Tag of a word on no closed list (see `_closed_class_table`)."""
    if is_punct(text):
        return OTHER
    if lowered.isdigit():
        return NUM
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


def tokenize(text: str) -> list:
    """Token texts of `text`, split exactly as `analyze` splits it."""
    return _TOKEN_RE.findall(text)


def _tagged(text: str, lex: Lexicons):
    """Yield the tokens of `text` one by one, each tagged from its left context."""
    prev_pos = None
    closed = lex.closed_class
    for position, m in enumerate(_TOKEN_RE.finditer(text)):
        span = m.span()
        word = text[span[0]:span[1]]
        lowered = word.lower()
        hit = closed.get(lowered)
        if hit is None:
            pos = _tag(word, lowered, prev_pos, position)
            lemma = _lemma(lowered, pos, lex)
        else:
            pos, lemma = hit
        yield Token(word, lemma, pos, span)
        prev_pos = pos


def analyze(caption: str, lex: Lexicons):
    """Tokenize, tag, and chunk one caption.

    Returns (tokens, noun_phrases). Pure: identical input gives identical
    output in any process.
    """
    tokens = list(_tagged(caption, lex))
    return tokens, _chunk(tokens, lex)


def _chunk(tokens, lex: Lexicons):
    nps = []
    i, n = 0, len(tokens)
    while i < n:
        j = i
        det = quant = color = None
        if tokens[j].pos == DET:
            det = tokens[j]
            j += 1
        if j < n and tokens[j].pos == NUM:
            quant = tokens[j]
            j += 1
        while j < n and tokens[j].pos == ADJ:
            if color is None and tokens[j].text.lower() in lex.colors:
                color = tokens[j]
            j += 1
        first_noun = j
        while j < n and tokens[j].pos in (NOUN, PROPN):
            j += 1
        if j > first_noun:
            nps.append(NounPhrase(tuple(tokens[i:j]), tokens[j - 1], i, j, det, quant, color))
            i = j
        else:
            i = max(j, i + 1)
    return nps


def subject_np(tokens, nps):
    """First noun phrase not governed by a preposition; None when every
    phrase follows one."""
    for np_ in nps:
        if np_.start == 0 or tokens[np_.start - 1].pos != ADP:
            return np_
    return None


def lower_squeeze(text: str) -> str:
    """`text` lowercased and stripped, each whitespace run squeezed to one space."""
    # str.split() cuts at exactly the code points a str pattern's \s matches,
    # and lowercasing makes no whitespace
    return " ".join(text.lower().split())


def strip_aux(tokens, lex: Lexicons) -> str:
    """Caption text with the first copula/auxiliary removed, whitespace normalized."""
    kept = []
    removed = False
    for t in tokens:
        if not removed and t.pos == AUX and t.text.lower() in lex.stop_aux:
            removed = True
            continue
        kept.append(t)
    return join_words(t.text for t in kept)


def join_words(words) -> str:
    """Join words with single spaces, gluing punctuation to the left."""
    parts = []
    for w in words:
        if parts and not w.isalnum() and is_punct(w):
            parts[-1] += w
        else:
            parts.append(w)
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
