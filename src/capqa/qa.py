"""Question-answer pair record and its JSONL serialization.

One JSON object per line:

    {"qa_id": ..., "image_id": ..., "question": ..., "answer": ...,
     "answer_type": ..., "source": ..., "source_caption": ...,
     "weights": [{"phrase": ..., "weight": ...}, ...]}

`parent_id` appears only on pairs derived from another pair (negation,
adversarial substitution, rewrites). Weights are exact fractions in memory
and rounded to six decimals on disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from . import files
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


def to_json_dict(qa: QAPair) -> dict:
    d = {
        "qa_id": qa.qa_id,
        "image_id": qa.image_id,
        "question": qa.question,
        "answer": qa.answer,
        "answer_type": qa.answer_type,
        "source": qa.source,
        "source_caption": qa.source_caption,
        "weights": [
            {"phrase": phrase, "weight": round(float(w), 6)}
            for phrase, w in (qa.weights or [])
        ],
    }
    if qa.parent_id is not None:
        d["parent_id"] = qa.parent_id
    return d


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
    if type(phrase) is not str or type(weight) not in (int, float):
        raise MalformedInput(f"weight needs a string phrase and a number: {entry!r}")
    return phrase, float(weight)


def qa_json_line(qa: QAPair) -> str:
    return files.encode_row(to_json_dict(qa))


def write_jsonl(pairs: Iterable[QAPair], path) -> int:
    return files.write_lines(path, map(qa_json_line, pairs))


def read_jsonl(path) -> Iterator[QAPair]:
    yield from files.read_json_lines(path, from_json_dict)
