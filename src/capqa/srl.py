"""Question rendering from semantic-role frames.

The role labeler itself runs out of process; this module fixes the frame
interchange format (JSONL) and turns loaded frames into short questions
built from generic descriptors ("someone", "something"). Rendering is
fully deterministic: the wh-word is a function of the role, the verb form
comes from the caption surface, and unqueried core arguments collapse to
a generic filler while modifier arguments are dropped.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import files, lingo
from .errors import MalformedInput
from .lingo import Lexicons
from .qa import QAPair, make_qa_id

log = logging.getLogger(__name__)

_WH = {
    "AGENT": "who",
    "PATIENT": "what",
    "LOCATION": "where",
    "TIME": "when",
    "MANNER": "how",
}
_ROLES = frozenset(_WH) | {"OTHER"}
_PROPBANK = {
    "ARG0": "AGENT",
    "ARG1": "PATIENT",
    "ARGM-LOC": "LOCATION",
    "ARGM-TMP": "TIME",
    "ARGM-MNR": "MANNER",
}


@dataclass(frozen=True)
class SrlPredicate:
    lemma: str
    span: tuple


@dataclass(frozen=True)
class SrlArg:
    role: str
    text: str
    span: tuple


@dataclass(frozen=True)
class SrlFrame:
    image_id: int
    caption_index: int
    predicate: SrlPredicate
    args: tuple
    caption: str = ""


def _normalize_role(raw) -> str:
    role = str(raw).upper()
    if role in _ROLES:
        return role
    if role in _PROPBANK:
        return _PROPBANK[role]
    if role.startswith("ARGM-"):
        return "OTHER"
    raise MalformedInput(f"unknown role label {raw!r}")


def _parse_span(raw) -> tuple:
    if (
        not isinstance(raw, (list, tuple))
        or len(raw) != 2
        or not all(type(v) is int for v in raw)  # nor bool
        or raw[0] < 0
        or raw[0] > raw[1]
    ):
        raise MalformedInput(f"bad span {raw!r}")
    return (raw[0], raw[1])


def _parse_frame(d, by_id):
    """One frame line as an SrlFrame, or None when it points at no known caption."""
    if not isinstance(d, dict):
        raise MalformedInput("frame is not an object")
    image_id, caption_index = d["image_id"], d["caption_index"]
    if type(image_id) is not int or type(caption_index) is not int:  # nor bool
        raise MalformedInput("frame image_id and caption_index must be integers")
    pred_raw = d["predicate"]
    lemma = pred_raw["lemma"]
    pred_span = _parse_span(pred_raw["span"])
    args_raw = d["args"]
    if not isinstance(lemma, str) or not lemma:
        raise MalformedInput("predicate lemma must be a non-empty string")

    args = []
    seen_core = set()
    for a in args_raw:
        role = _normalize_role(a["role"])
        text = a["text"]
        arg_span = _parse_span(a["span"])
        if not isinstance(text, str) or not text:
            raise MalformedInput("argument text must be a non-empty string")
        if role in ("AGENT", "PATIENT"):
            if role in seen_core:
                raise MalformedInput(f"duplicate {role} argument")
            seen_core.add(role)
        args.append(SrlArg(role=role, text=text, span=arg_span))

    record = by_id.get(image_id)
    if record is None or not 0 <= caption_index < len(record.captions):
        return None
    caption = record.captions[caption_index]
    for sp in [pred_span] + [a.span for a in args]:
        if sp[1] > len(caption):
            raise MalformedInput(f"span {sp} exceeds caption length {len(caption)}")
    return SrlFrame(
        image_id=image_id,
        caption_index=caption_index,
        predicate=SrlPredicate(lemma=lemma, span=pred_span),
        args=tuple(args),
        caption=caption,
    )


def load_frames(path, corpus) -> list:
    """Read frame JSONL, resolving each frame against the caption corpus.

    Frames pointing at unknown images or caption indices are dropped (with a
    counted warning); structural problems raise MalformedInput.
    """
    by_id = {rec.image_id: rec for rec in corpus.records}
    parsed = list(files.read_json_lines(path, lambda d: _parse_frame(d, by_id)))
    frames = [frame for frame in parsed if frame is not None]
    if len(frames) < len(parsed):
        log.warning("dropped %d frame(s) referencing unknown captions",
                    len(parsed) - len(frames))
    return frames


def animacy(phrase: str, lex: Lexicons) -> str:
    """"animate" when the phrase head names a person or animal."""
    if not phrase or not phrase.strip():
        raise MalformedInput("empty phrase")
    tokens, nps = lingo.analyze(phrase, lex)
    subject = lingo.subject_np(tokens, nps)
    lemma = subject.head.lemma if subject is not None else tokens[-1].lemma
    return "animate" if lemma in lex.persons or lemma in lex.animals else "inanimate"


def _progressive(lemma: str) -> str:
    w = lemma.lower()
    if w.endswith("ie"):
        return w[:-2] + "ying"
    if w.endswith("e") and not w.endswith("ee"):
        return w[:-1] + "ing"
    if len(w) >= 3 and w[-1] not in "aeiouwxy" and w[-2] in "aeiou" and w[-3] not in "aeiou":
        return w + w[-1] + "ing"
    return w + "ing"


def _verb_form(frame: SrlFrame) -> str:
    s, e = frame.predicate.span
    surface = frame.caption[s:e].strip().lower()
    lemma = frame.predicate.lemma.lower()
    if surface.endswith("ing"):
        return surface
    # keep participles from the caption ("parked", "drawn", "taken")
    if surface and surface != lemma and surface.endswith(("ed", "en", "wn")):
        return surface
    return _progressive(lemma)


def _past_context(frame: SrlFrame) -> bool:
    prefix = frame.caption[: frame.predicate.span[0]].lower().split()
    return "was" in prefix or "were" in prefix


def _generic(text: str, lex: Lexicons) -> str:
    return "someone" if animacy(text, lex) == "animate" else "something"


def render_qa(frame: SrlFrame, lex: Lexicons) -> list:
    """One QAPair per queryable argument of the frame."""
    if not frame.args:
        return []
    verb = _verb_form(frame)
    aux = "was" if _past_context(frame) else "is"
    agent = next((a for a in frame.args if a.role == "AGENT"), None)
    patient = next((a for a in frame.args if a.role == "PATIENT"), None)
    generator = f"srl:{frame.predicate.lemma}:{frame.predicate.span[0]}"
    pairs = []
    for arg in frame.args:
        wh = _WH.get(arg.role)
        if wh is None:
            continue
        parts = [wh, aux]
        if arg is not agent and agent is not None:
            parts.append(_generic(agent.text, lex))
        parts.append(verb)
        if arg is not patient and patient is not None:
            parts.append(_generic(patient.text, lex))
        question = " ".join(parts)
        pairs.append(
            QAPair(
                qa_id=make_qa_id(frame.image_id, frame.caption_index, generator, len(pairs)),
                image_id=frame.image_id,
                question=question[0].upper() + question[1:] + "?",
                answer=arg.text,
                answer_type="phrase",
                source="srl",
                source_caption=frame.caption,
            )
        )
    return pairs
