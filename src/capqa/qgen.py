"""Template question generation.

Five generators build Q-A pairs from one analyzed caption (yes/no, object,
number, color, location), and two transforms derive hard negatives from an
existing pair (negation, adversarial object substitution). Every random
choice draws from a stream keyed on (seed, image_id, caption_index,
generator), so output is reproducible pair by pair and images never
influence one another.
"""

from __future__ import annotations

import re
from collections import Counter

from . import lingo
from . import wordlists as wl
from .config import PipelineConfig
from .embed import EmbeddingStore, nearest
from .errors import Unsupported, ZeroVector
from .lingo import ADP, AUX, NOUN, OTHER, PROPN, VERB, Lexicons, subject_np
from .qa import QAPair, derived_qa_id, make_qa_id
from .rng import stream

_ARTICLES = ("a", "an", "the")
_DEMONSTRATIVES = ("this", "these", "that", "those")

# vowel/consonant agreement after an object word was swapped in; the
# lookbehind stands for a leading \b so the pattern opens on a literal,
# which the regex engine scans for much faster
_ART_A = re.compile(r"a(?<!\wa) (?=[aeiou])")
_ART_AN = re.compile(r"an(?<!\wan) (?=[b-df-hj-np-tv-z])")

_COLOR_Q = re.compile(r"^What is the color of (.+)\?$")

_LONG_QUESTION = 14


# --- assembly helpers ---------------------------------------------------------


def _fix_articles(text: str) -> str:
    return _ART_AN.sub("a ", _ART_A.sub("an ", text))


def _finish(parts) -> str:
    """Join parts, squeeze whitespace, drop trailing punctuation, add "?"."""
    text = " ".join(" ".join(filter(None, parts)).split())
    text = text.rstrip(" .,;:!")
    text = _fix_articles(text)
    if not text:
        return "?"
    return text[0].upper() + text[1:] + "?"


def _word(token) -> str:
    return token.text if token.pos == PROPN else token.text.lower()


def _words(tokens) -> str:
    """Lowercased detokenization (proper nouns keep their case)."""
    parts = []
    for t in tokens:
        w = _word(t)
        if parts and t.pos == OTHER and lingo.is_punct(t.text):
            parts[-1] += w
        else:
            parts.append(w)
    return " ".join(parts)


def _is_plural(token) -> bool:
    return token.lemma != token.text.lower()


def _be(plural: bool) -> str:
    return "are" if plural else "is"


def _definite_phrase(tokens, determiner) -> str:
    """Render a subject span with a definite article supplied or substituted."""
    words = [_word(t) for t in tokens]
    if determiner is None:
        return "the " + " ".join(words)
    if determiner.text.lower() in ("a", "an"):
        words[0] = "the"
    return " ".join(words)


def _shorten(question: str) -> str:
    """Questions past the length cap are cut at the first conjunction."""
    words = question[:-1].split(" ")
    if len(words) <= _LONG_QUESTION:
        return question
    for i, w in enumerate(words):
        if i > 0 and w.lower() in wl.CONJUNCTIONS:
            return _finish([" ".join(words[:i])])
    return question


def _pair(record, caption_index, generator, ordinal, question, answer, answer_type):
    return QAPair(
        qa_id=make_qa_id(record.image_id, caption_index, generator, ordinal),
        image_id=record.image_id,
        question=question,
        answer=answer,
        answer_type=answer_type,
        source="template",
        source_caption=record.captions[caption_index],
    )


# --- yes/no -------------------------------------------------------------------


def _agree_prefix(prefix: str, plural: bool) -> str:
    words = prefix.split(" ")
    if words[0] in ("is", "are"):
        words[0] = _be(plural)
    if len(words) > 1 and words[1] in ("this", "these"):
        words[1] = "these" if plural else "this"
    return " ".join(words)


def _existential(tokens, lex) -> bool:
    """True when the caption opens "There is/are ..." and strip_aux drops that auxiliary."""
    return (
        len(tokens) > 1
        and tokens[0].text.lower() == "there"
        and tokens[1].pos == AUX
        and tokens[1].text.lower() in lex.stop_aux
    )


def gen_yesno(record, caption_index, analysis, cfg: PipelineConfig, lex: Lexicons, *,
              store: EmbeddingStore = None, object_vocab=None, record_lemmas=None):
    """One affirmed question plus exactly one paired negative per caption.

    Adversarial negatives need `store`; they draw substitutes from
    `object_vocab`, an `embed.Candidates` table, and never from
    `record_lemmas`, the image's own lemmas.
    Both are required whenever `store` is given.
    """
    if store is not None and (object_vocab is None or record_lemmas is None):
        raise TypeError("gen_yesno with a store needs object_vocab and record_lemmas")
    tokens, nps = analysis
    if not nps:
        return []
    rng = stream(cfg.seed, record.image_id, caption_index, "yesno")
    subject = subject_np(tokens, nps) or nps[0]
    prefix = _agree_prefix(rng.choice(list(cfg.yesno_prefixes)), _is_plural(subject.head))

    body_words = lingo.strip_aux(tokens, lex).split(" ")
    if _existential(tokens, lex):
        body_words = body_words[1:]  # the prefix supplies its own "there"
    if prefix.endswith("the") and body_words and body_words[0].lower() in _ARTICLES:
        body_words = body_words[1:]
    if body_words and body_words[0]:
        first = body_words[0]
        if not any(t.pos == PROPN and t.text == first for t in tokens):
            body_words[0] = first[0].lower() + first[1:]

    yes = _pair(
        record, caption_index, "yesno", 0,
        _finish([prefix, " ".join(body_words)]), "yes", "yesno",
    )

    mode = cfg.negative_mode
    if mode == "auto":
        use_adv = rng.random() < 0.5 and store is not None
        mode = "adversarial" if use_adv else "negation"
    neg = None
    if mode == "adversarial" and store is not None:
        neg = adversarial_qa(yes, analysis, store, object_vocab, record_lemmas, cfg)
    if neg is None:
        neg = negate_qa(yes, analysis, lex, cfg)
    return [yes, neg]


# --- object -------------------------------------------------------------------


def _np_answer(np_) -> str:
    if np_.quantifier is not None or np_.color is not None:
        return np_.text_sans_determiner.lower()
    return np_.head.text.lower()


def _object_eligible(np_) -> bool:
    if np_.head.lemma in wl.RELATIONAL_NOUNS:
        return False
    det = np_.determiner
    if det is not None and det.text.lower() in wl.POSSESSIVE_DETERMINERS:
        return False
    return True


def gen_object(record, caption_index, analysis, lex: Lexicons):
    """Replace noun phrases with "what"; the removed phrase is the answer."""
    tokens, nps = analysis
    pairs = []
    subject = subject_np(tokens, nps)

    def emit(question, answer):
        pairs.append(
            _pair(record, caption_index, "object", len(pairs),
                  _shorten(question), answer, "object")
        )

    np_ = nps[0] if len(nps) == 1 else None
    if np_ is not None and all(
        lingo.is_punct(t.text) for t in tokens[:np_.start] + tokens[np_.end:]
    ):
        if _object_eligible(np_):
            question = "What are these?" if _is_plural(np_.head) else "What is this?"
            emit(question, _np_answer(np_))
        return pairs

    subj_plural = subject is not None and _is_plural(subject.head)
    for np_ in nps:
        if not _object_eligible(np_):
            continue
        is_subject = np_ is subject
        if is_subject:
            if np_.head.lemma not in lex.persons:
                rest = tokens[np_.end:]
                if rest and not (rest[0].pos == OTHER and rest[0].text.lower() in wl.CONJUNCTIONS):
                    parts = ["what"]
                    if rest[0].pos != AUX:
                        parts.append(_be(_is_plural(np_.head)))
                    parts.append(_words(rest))
                    emit(_finish(parts), _np_answer(np_))
            # sentence-initial compound: the first noun alone is questionable
            nouns = [k for k in range(np_.start, np_.end) if tokens[k].pos in (NOUN, PROPN)]
            if np_.start == 0 and len(nouns) >= 2:
                first = tokens[nouns[0]]
                if first.lemma not in lex.persons and first.lemma not in wl.RELATIONAL_NOUNS:
                    after = tokens[nouns[0] + 1:]
                    emit(_finish(["what", _words(after)]), first.text.lower())
        elif subject is not None and np_.start > subject.start:
            # a phrase before the subject would be asked without its context
            aux_tok = next((t for t in tokens if t.pos == AUX), None)
            remainder = [
                t for t in tokens[subject.end:np_.start] + tokens[np_.end:]
                if t is not aux_tok
            ]
            aux = aux_tok.text.lower() if aux_tok is not None else _be(subj_plural)
            emit(
                _finish([
                    "what", aux,
                    _definite_phrase(subject.tokens, subject.determiner),
                    _words(remainder),
                ]),
                _np_answer(np_),
            )
    return pairs


# --- number -------------------------------------------------------------------


def gen_number(record, caption_index, analysis, cfg: PipelineConfig, lex: Lexicons):
    """A counting question per numerically quantified noun phrase."""
    tokens, nps = analysis
    # seeded on the first countable phrase: seeding costs more than the rest of
    # this function, and 50-84% of the benchmark and criterion-8 captions have none
    rng = None
    pairs = []
    for np_ in nps:
        quant = np_.quantifier
        if quant is None:
            continue
        word = quant.text.lower()
        digit = lex.number_words.get(word, word if word.isdigit() else None)
        if digit is None:
            continue  # vague quantifier, not countable
        if rng is None:
            rng = stream(cfg.seed, record.image_id, caption_index, "number")
        how_many = rng.random() < 0.5

        rest_tokens = [t for t in np_.tokens if t is not np_.determiner and t is not quant]
        rest_words = [_word(t) for t in rest_tokens]
        if not _is_plural(np_.head):
            rest_words[-1] = lingo.pluralize(rest_words[-1])
        rest = " ".join(rest_words)

        post = []
        for t in tokens[np_.end:]:
            if t.text.lower() in wl.CONJUNCTIONS:
                break
            post.append(t)
        content = [t for t in post if not lingo.is_punct(t.text)]

        if how_many:
            if not content:
                body = f"how many {rest} are there"
            elif content[0].pos == VERB and content[0].lemma.endswith(("ing", "ed")):
                body = f"how many {rest} are {_words(post)}"
            else:
                body = f"how many {rest} {_words(post)}"
        else:
            tail = _words(post) if content else ""
            body = f"what is the count of {rest} {tail}"
        pairs.append(
            _pair(record, caption_index, "number", len(pairs), _finish([body]), digit, "number")
        )
    return pairs


# --- color --------------------------------------------------------------------


def gen_color(record, caption_index, analysis):
    tokens, nps = analysis
    pairs = []
    for np_ in nps:
        if np_.color is None:
            continue
        obj = _words([t for t in np_.tokens if t is not np_.determiner and t is not np_.color])
        pairs.append(
            _pair(
                record, caption_index, "color", len(pairs),
                _finish([f"what is the color of the {obj}"]),
                np_.color.text.lower(), "color",
            )
        )
    return pairs


# --- location -----------------------------------------------------------------


def gen_location(record, caption_index, analysis, lex: Lexicons):
    tokens, nps = analysis
    subject = subject_np(tokens, nps)
    start_of = {np_.start: np_ for np_ in nps}
    pairs = []
    for i in range(len(tokens) - 1):
        t = tokens[i]
        if t.pos != ADP or t.text.lower() not in ("in", "within"):
            continue
        loc = start_of.get(i + 1)
        if loc is None or loc.head.lemma not in lex.locations:
            continue
        if subject is None or loc is subject:
            continue
        be = _be(_is_plural(subject.head))
        prev = tokens[i - 1] if i > 0 else None
        if prev is not None and prev.pos == VERB:
            topic = _definite_phrase(subject.tokens, subject.determiner)
            body = f"where {be} {topic} {prev.text.lower()}"
        else:
            span = tokens[subject.start:i]
            body = f"where {be} {_definite_phrase(span, subject.determiner)}"
        pairs.append(
            _pair(
                record, caption_index, "location", len(pairs),
                _finish([body]), _words(loc.tokens), "location",
            )
        )
    return pairs


# --- negation -----------------------------------------------------------------


def _splice(words, replace_at=None, replace_with=None, insert_at=None, insert_word=None):
    parts = []
    for i, w in enumerate(words):
        if insert_at == i:
            parts.append(insert_word)
        text = replace_with if replace_at == i else w
        if parts and lingo.is_punct(w):
            parts[-1] += text
        else:
            parts.append(text)
    if insert_at == len(words):
        parts.append(insert_word)
    return " ".join(parts)


def _negate_yesno_question(question: str, lex: Lexicons) -> str:
    words = lingo.tokenize(question)
    low = [w.lower() for w in words[:3]]
    if len(words) >= 2 and low[1] == "there":
        if len(words) >= 3 and low[2] in _ARTICLES:
            return _splice(words, replace_at=2, replace_with="no")
        return _splice(words, insert_at=2, insert_word="no")
    if len(words) >= 2 and low[1] in _DEMONSTRATIVES:
        return _splice(words, insert_at=2, insert_word="not")
    tokens, nps = lingo.analyze(question, lex)
    after_subject = nps[0].end if nps else 1
    return _splice(words, insert_at=after_subject, insert_word="not")


def negate_qa(qa: QAPair, analysis, lex: Lexicons, cfg: PipelineConfig) -> QAPair:
    """Negated twin of a yes/no or color pair, with the answer flipped."""
    if qa.answer_type == "yesno":
        question = _negate_yesno_question(qa.question, lex)
        answer = "no" if qa.answer == "yes" else "yes"
    elif qa.answer_type == "color":
        m = _COLOR_Q.match(qa.question)
        if m is None:
            raise Unsupported(f"cannot negate color question {qa.question!r}")
        question = f"What is not the color of {m.group(1)}?"
        original = qa.answer.lower()
        antonym = lex.antonyms.get(original)
        if antonym in lex.colors:
            answer = antonym
        else:
            others = sorted(lex.colors - {original})
            if not others:
                raise Unsupported("no alternative color available")
            answer = stream(cfg.seed, qa.qa_id, "negate-color").choice(others)
    else:
        raise Unsupported(f"cannot negate answer type {qa.answer_type!r}")
    return QAPair(
        qa_id=derived_qa_id(qa.image_id, qa.qa_id, "negation", 0),
        image_id=qa.image_id,
        question=question,
        answer=answer,
        answer_type=qa.answer_type,
        source="negation",
        source_caption=qa.source_caption,
        parent_id=qa.qa_id,
    )


# --- adversarial substitution ---------------------------------------------------


def _question_answer_remap(qa: QAPair):
    if qa.answer_type == "yesno":
        return "no"
    if qa.answer_type == "number":
        return "none"
    if qa.answer_type == "object":
        return "can't say"
    if qa.answer_type == "phrase" and qa.question.split(" ")[0].lower() in ("who", "what"):
        return "can't say"
    return None


def adversarial_qa(qa: QAPair, analysis, store: EmbeddingStore, object_vocab,
                   record_lemmas, cfg: PipelineConfig):
    """Swap one mentioned object for a near neighbour absent from the image.

    `object_vocab` is the run's `embed.Candidates` table. `record_lemmas`
    holds the head lemmas of every caption of the image (see
    lingo.object_lemma_index); no substitute may share one of them. Returns
    None when the question names no storable object, no candidate clears the
    similarity threshold, or the answer type has no remap.
    """
    answer = _question_answer_remap(qa)
    if answer is None:
        return None
    _, nps = analysis

    q_lower = qa.question.lower()
    target = None
    for np_ in nps:
        surface = np_.head.text.lower()
        word = surface if surface in store.vectors else np_.head.lemma
        if word in store.vectors and re.search(rf"\b{re.escape(surface)}\b", q_lower):
            target = (surface, word)
            break
    if target is None:
        return None
    surface, word = target

    try:
        best = nearest(word, store, object_vocab, exclude=record_lemmas | {surface, word},
                       lemmas=record_lemmas)
    except ZeroVector:
        return None
    if best is None or best[1] < cfg.adversarial_threshold:
        return None
    substitute = best[0]
    if lingo.singularize(surface) != surface:
        parts = substitute.split(" ")
        parts[-1] = lingo.pluralize(parts[-1])
        substitute = " ".join(parts)

    question = re.sub(
        rf"\b{re.escape(surface)}\b", substitute, qa.question, count=1, flags=re.IGNORECASE
    )
    return QAPair(
        qa_id=derived_qa_id(qa.image_id, qa.qa_id, "adversarial", 0),
        image_id=qa.image_id,
        question=_fix_articles(question),
        answer=answer,
        answer_type=qa.answer_type,
        source="adversarial",
        source_caption=qa.source_caption,
        parent_id=qa.qa_id,
    )


def build_object_vocab(counts: Counter, limit: int = 5000) -> set:
    """The most frequent noun-phrase head lemmas, ties broken alphabetically."""
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return {word for word, _ in ranked[:limit]}
