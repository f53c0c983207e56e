"""Sample synthesis for the three encoder pre-training tasks.

Masked language modeling masks caption words, masked question answering masks
answer words after the question, and image-text matching pairs each image with
its own captions plus captions drawn from images that share no object lemma
with it. Tokens here are whitespace units; subword splitting is left to the
downstream trainer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import files
from .errors import MalformedInput
from .qa import QAPair
from .rng import stream

MASK = "[MASK]"


@dataclass
class PretrainSample:
    task: str
    image_id: int
    text: list
    targets: dict = field(default_factory=dict)
    label: str = ""
    provenance: str = ""


def _mask_count(n_tokens: int) -> int:
    # round(0.15 * n) at half-up on exact integers, floored at one mask
    return max(1, (3 * n_tokens + 10) // 20)


def mlm_mask(caption: str, seed, *, image_id: int = 0, caption_index: int = 0) -> PretrainSample:
    """Mask 15% of the caption's words (at least one), recording originals."""
    tokens = caption.split()
    if not tokens:
        raise MalformedInput("cannot mask an empty caption")
    rng = stream(seed, caption, "mlm")
    positions = sorted(rng.sample(range(len(tokens)), _mask_count(len(tokens))))
    text = list(tokens)
    targets = {}
    for pos in positions:
        targets[pos] = tokens[pos]
        text[pos] = MASK
    return PretrainSample(
        task="mlm",
        image_id=image_id,
        text=text,
        targets=targets,
        provenance=f"{image_id}:{caption_index}",
    )


def mqa_mask(qa: QAPair) -> PretrainSample:
    """Append one mask per answer word after the question tokens."""
    answer_tokens = qa.answer.split()
    if not answer_tokens:
        raise MalformedInput(f"pair {qa.qa_id} has an empty answer")
    question_tokens = qa.question.split()
    text = question_tokens + [MASK] * len(answer_tokens)
    targets = {
        len(question_tokens) + i: tok for i, tok in enumerate(answer_tokens)
    }
    return PretrainSample(
        task="mqa",
        image_id=qa.image_id,
        text=text,
        targets=targets,
        provenance=qa.qa_id,
    )


def itm_pairs(record, corpus, object_index, neg_ratio: float = 1.0, seed=0) -> tuple:
    """Match samples from the record's own captions plus mismatch samples
    drawn from images whose object-lemma sets are disjoint from the record's.

    Returns (samples, shortfall): when the disjoint pool runs dry it emits
    fewer mismatches than requested, and shortfall counts the missing ones.
    """
    samples = []
    for idx, caption in enumerate(record.captions):
        samples.append(
            PretrainSample(
                task="itm",
                image_id=record.image_id,
                text=caption.split(),
                label="match",
                provenance=f"{record.image_id}:{idx}",
            )
        )
    wanted = math.ceil(neg_ratio * len(record.captions))
    if wanted == 0:
        return samples, 0
    own = object_index.get(record.image_id, frozenset())
    eligible = []
    for other in corpus.records:
        if other.image_id == record.image_id:
            continue
        if not own.isdisjoint(object_index.get(other.image_id, frozenset())):
            continue
        for j, caption in enumerate(other.captions):
            eligible.append((other.image_id, j, caption))
    take = min(wanted, len(eligible))
    rng = stream(seed, record.image_id, "itm")
    for other_id, j, caption in rng.sample(eligible, take):
        samples.append(
            PretrainSample(
                task="itm",
                image_id=record.image_id,
                text=caption.split(),
                label="mismatch",
                provenance=f"{other_id}:{j}",
            )
        )
    return samples, wanted - take


def sample_json_dict(sample: PretrainSample) -> dict:
    d = {
        "task": sample.task,
        "image_id": sample.image_id,
        "text": sample.text,
        "targets": sample.targets,  # int positions become string keys in JSON
        "provenance": sample.provenance,
    }
    if sample.label:
        d["label"] = sample.label
    return d


def write_samples(samples, path) -> int:
    return files.write_lines(path, (files.encode_row(sample_json_dict(s)) for s in samples))
