"""Question-answer pair record and its JSONL serialization.

One JSON object per line:

    {"qa_id": ..., "image_id": ..., "question": ..., "answer": ...,
     "answer_type": ..., "source": ..., "source_caption": ...,
     "weights": [{"phrase": ..., "weight": ...}, ...]}

`parent_id` appears only on pairs derived from another pair (negation,
adversarial substitution, rewrites). Weights are exact fractions in memory
and rounded to six decimals on disk.

`qa_json_line` builds each line itself, with the text `json.JSONEncoder(
ensure_ascii=False)` would give: strings through `encode_basestring`, the
function that encoder uses, and `image_id` and weights through `repr`, which
is what `json` prints for an int and a finite float. A weight from
`capqa.answers` takes its text from `answers.WEIGHT_TEXT`; any other weight (a
float read from a file, a Fraction unpickled from a worker) is rounded where
it is written. Readers reject non-finite numbers, so no weight prints as
`nan` or `inf`.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring as _str
from sys import float_info
from typing import Iterable, Iterator, Optional

from . import files
from .answers import WEIGHT_TEXT
from .errors import MalformedInput
from .rng import stable_id


@dataclass
class QAPair:
    qa_id: str
    image_id: int
    question: str
    answer: str
    answer_type: str
    source: str
    source_caption: str
    weights: Optional[list] = None  # list of (phrase, Fraction|float)
    parent_id: Optional[str] = None


def make_qa_id(image_id: int, caption_index: int, generator: str, ordinal: int) -> str:
    return stable_id(image_id, caption_index, generator, ordinal)


def derive(parent: QAPair, source: str, ordinal: int, question: str, answer: str) -> QAPair:
    """The `ordinal`-th pair that `source` (negation, adversarial substitution,
    a rewrite) made from `parent`: same image, caption and answer type."""
    return QAPair(
        qa_id=stable_id(parent.image_id, parent.qa_id, source, ordinal),
        image_id=parent.image_id,
        question=question,
        answer=answer,
        answer_type=parent.answer_type,
        source=source,
        source_caption=parent.source_caption,
        parent_id=parent.qa_id,
    )


# field -> the JSON type it must hold (exactly: a bool is not an int here)
_FIELDS = {"qa_id": str, "image_id": int, "question": str, "answer": str,
           "answer_type": str, "source": str, "source_caption": str}


def from_json_dict(d: dict) -> QAPair:
    if not isinstance(d, dict):
        raise MalformedInput("qa record is not an object")
    missing = [k for k in _FIELDS if k not in d]
    if missing:
        raise MalformedInput(f"qa record lacks keys: {', '.join(missing)}")
    wrong = [k for k, kind in _FIELDS.items() if type(d[k]) is not kind]
    parent_id = d.get("parent_id")
    if parent_id is not None and type(parent_id) is not str:
        wrong.append("parent_id")
    raw = d.get("weights")
    if raw is not None and type(raw) is not list:
        wrong.append("weights")
    if wrong:
        raise MalformedInput(f"qa record has fields of the wrong type: {', '.join(wrong)}")
    weights = [_weight(e) for e in raw] if raw else None
    return QAPair(**{k: d[k] for k in _FIELDS}, weights=weights, parent_id=parent_id)


def _weight(entry) -> tuple:
    phrase, weight = entry["phrase"], entry["weight"]
    # `not <=` also turns away NaN; an int too large for a float never converts
    if (type(phrase) is not str or type(weight) not in (int, float)
            or not abs(weight) <= float_info.max):
        raise MalformedInput(f"weight needs a string phrase and a finite number: {entry!r}")
    return phrase, float(weight)


def qa_json_line(qa: QAPair) -> str:
    weights = ", ".join([
        f'{{"phrase": {_str(phrase)}, "weight": '
        f'{WEIGHT_TEXT.get(id(w)) or repr(round(float(w), 6))}}}'
        for phrase, w in qa.weights or ()])
    parent = "" if qa.parent_id is None else f', "parent_id": {_str(qa.parent_id)}'
    return (f'{{"qa_id": {_str(qa.qa_id)}, "image_id": {qa.image_id!r}, '
            f'"question": {_str(qa.question)}, "answer": {_str(qa.answer)}, '
            f'"answer_type": {_str(qa.answer_type)}, "source": {_str(qa.source)}, '
            f'"source_caption": {_str(qa.source_caption)}, "weights": [{weights}]{parent}}}')


def write_jsonl(pairs: Iterable[QAPair], path) -> int:
    return files.write_lines(path, map(qa_json_line, pairs))


def read_jsonl(path) -> Iterator[QAPair]:
    yield from files.read_json_lines(path, from_json_dict)
