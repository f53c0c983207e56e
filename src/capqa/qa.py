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

import json
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


def derived_qa_id(image_id: int, parent_id: str, source: str, ordinal: int) -> str:
    return stable_id(image_id, parent_id, source, ordinal)


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


_REQUIRED = ("qa_id", "image_id", "question", "answer", "answer_type", "source", "source_caption")


def from_json_dict(d: dict) -> QAPair:
    if not isinstance(d, dict):
        raise MalformedInput("qa record is not an object")
    missing = [k for k in _REQUIRED if k not in d]
    if missing:
        raise MalformedInput(f"qa record lacks keys: {', '.join(missing)}")
    raw = d.get("weights")
    weights = [(e["phrase"], float(e["weight"])) for e in raw] if raw else None
    return QAPair(
        qa_id=str(d["qa_id"]),
        image_id=int(d["image_id"]),
        question=str(d["question"]),
        answer=str(d["answer"]),
        answer_type=str(d["answer_type"]),
        source=str(d["source"]),
        source_caption=str(d["source_caption"]),
        weights=weights,
        parent_id=str(d["parent_id"]) if d.get("parent_id") is not None else None,
    )


def qa_json_line(qa: QAPair) -> str:
    return json.dumps(to_json_dict(qa), ensure_ascii=False, sort_keys=False)


def write_jsonl(pairs: Iterable[QAPair], path) -> int:
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for qa in pairs:
            fh.write(qa_json_line(qa))
            fh.write("\n")
            count += 1
    return count


def read_jsonl(path) -> Iterator[QAPair]:
    yield from files.read_json_lines(path, from_json_dict)
