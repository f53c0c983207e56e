"""Caption corpus loading and iteration.

Input is COCO-captions style JSON: an `annotations` array of
{"image_id", "caption"} objects, optionally accompanied by an `images`
array carrying {"id", "width", "height"}. Records are grouped per image
and always iterated in ascending image_id order so downstream output is
reproducible regardless of annotation order on disk.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Optional

from . import files
from .errors import EmptyCorpus, MalformedInput

log = logging.getLogger(__name__)


@dataclass
class CaptionRecord:
    image_id: int
    captions: list[str]
    width: Optional[int] = None
    height: Optional[int] = None


@dataclass
class Corpus:
    records: list[CaptionRecord] = field(default_factory=list)


def load_coco(path) -> Corpus:
    records, dropped = files.read_json(path, _records)
    if dropped:
        log.info("dropped %d blank or malformed annotations from %s", dropped, path)
    if not records:
        raise EmptyCorpus(f"no usable captions in {path}")
    return Corpus(records=records)


def _records(doc):
    """Caption records in ascending image_id, and the count of annotations dropped."""
    if not isinstance(doc, dict) or not isinstance(doc.get("annotations"), list):
        raise MalformedInput("caption file lacks an 'annotations' array")

    dims = {}
    for img in doc.get("images") or []:
        if isinstance(img, dict) and type(img.get("id")) is int:
            dims[img["id"]] = (img.get("width"), img.get("height"))

    grouped: dict[int, list[str]] = {}
    dropped = 0
    for ann in doc["annotations"]:
        if not isinstance(ann, dict):
            dropped += 1
            continue
        image_id = ann.get("image_id")
        caption = ann.get("caption")
        # exactly int: a bool id would reach the output as true/false
        if type(image_id) is not int or not isinstance(caption, str):
            dropped += 1
            continue
        if not caption.strip():
            dropped += 1
            continue
        grouped.setdefault(image_id, []).append(caption)

    records = []
    for image_id in sorted(grouped):
        width, height = dims.get(image_id, (None, None))
        records.append(
            CaptionRecord(
                image_id=image_id,
                captions=grouped[image_id],
                width=width if type(width) is int else None,
                height=height if type(height) is int else None,
            )
        )
    return records, dropped
