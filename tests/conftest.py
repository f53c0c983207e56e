"""Shared synthetic corpora and embedding fixtures."""

import ast
import json
import random
from pathlib import Path

import numpy as np
import pytest

from capqa.embed import EmbeddingStore
from capqa.lingo import pluralize

# Pairwise-disjoint noun families: captions built from one family share no
# head lemma with captions built from any other, giving controlled
# image-text-matching negatives.
OBJECT_FAMILIES = [
    ("man", "hat", "shirt"),
    ("dog", "ball", "stick"),
    ("car", "road", "wheel"),
    ("cat", "sofa", "blanket"),
    ("boat", "river", "dock"),
    ("horse", "field", "fence"),
    ("bird", "tree", "branch"),
    ("plate", "table", "fork"),
    ("phone", "desk", "lamp"),
    ("train", "station", "track"),
]

_ADJS = ["red", "blue", "black", "white", "small", "large", "brown", "green"]
_VERBS = ["sitting", "standing", "waiting", "parked", "moving", "resting"]
_PLACES = ["street", "park", "kitchen", "city", "yard", "beach"]
_NOUNS = ["man", "woman", "dog", "cat", "car", "boat", "chair", "horse", "bird", "table"]
_NUMBERS = ["two", "three", "four", "five"]


def synth_caption(rng: random.Random) -> str:
    adj = rng.choice(_ADJS)
    noun = rng.choice(_NOUNS)
    place = rng.choice(_PLACES)
    verb = rng.choice(_VERBS)
    num = rng.choice(_NUMBERS)
    other = rng.choice(_NOUNS)
    kind = rng.randrange(6)
    if kind == 0:
        return f"A {adj} {noun} {verb} on the {place}"
    if kind == 1:
        return f"{num.capitalize()} {adj} {pluralize(noun)} {verb} in a {place}"
    if kind == 2:
        return f"A {noun} wearing a {adj} {other}"
    if kind == 3:
        return f"There is a {adj} {noun} in the {place}"
    if kind == 4:
        return f"A {noun} and a {other} {verb} near the {place}"
    return f"A {adj} {noun} {verb}"


def traced_layers() -> list:
    """The capqa modules whose functions pipebench/traced.py wraps."""
    path = Path(__file__).resolve().parents[1] / "pipebench" / "traced.py"
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and node.targets[0].id == "LAYERS":
            return [f"capqa.{name}" for name in ast.literal_eval(node.value)]
    raise AssertionError("no LAYERS in pipebench/traced.py")


def write_coco(path, records) -> str:
    """records: dicts with image_id, captions, and optional width/height."""
    images = []
    annotations = []
    ann_id = 1
    for rec in records:
        if rec.get("width") is not None and rec.get("height") is not None:
            images.append(
                {"id": rec["image_id"], "width": rec["width"], "height": rec["height"]}
            )
        for caption in rec["captions"]:
            annotations.append(
                {"id": ann_id, "image_id": rec["image_id"], "caption": caption}
            )
            ann_id += 1
    path.write_text(
        json.dumps({"images": images, "annotations": annotations}), encoding="utf-8"
    )
    return str(path)


def make_store(vectors) -> EmbeddingStore:
    """An in-memory store over {word: vector}: words lowercased, the first of
    equal words kept, every vector of one length."""
    arrays = {}
    for word, vec in vectors.items():
        arrays.setdefault(word.lower(), np.asarray(vec, dtype=np.float64))
    (dim,), = {arr.shape for arr in arrays.values()}  # fails unless all are alike and 1-D
    return EmbeddingStore(dim=dim, vectors=arrays)


@pytest.fixture(scope="session")
def corpus_1000_path(tmp_path_factory):
    """250 images x 4 captions: the determinism and throughput fixture."""
    rng = random.Random(20240817)
    sizes = [(640, 480), (800, 600), (1024, 768), (500, 375)]
    records = []
    for image_id in range(1, 251):
        width, height = rng.choice(sizes)
        records.append(
            {
                "image_id": image_id,
                "captions": [synth_caption(rng) for _ in range(4)],
                "width": width,
                "height": height,
            }
        )
    return write_coco(tmp_path_factory.mktemp("c1000") / "captions.json", records)


@pytest.fixture(scope="session")
def itm_corpus_100_path(tmp_path_factory):
    """100 images whose captions draw nouns from one family each."""
    rng = random.Random(7)
    records = []
    for image_id in range(1, 101):
        n1, n2, n3 = OBJECT_FAMILIES[(image_id - 1) % len(OBJECT_FAMILIES)]
        adj = rng.choice(_ADJS)
        verb = rng.choice(_VERBS)
        records.append(
            {
                "image_id": image_id,
                "captions": [f"A {adj} {n1} and a {n2}", f"A {n1} {verb} near the {n3}"],
                "width": 640,
                "height": 480,
            }
        )
    return write_coco(tmp_path_factory.mktemp("itm100") / "captions.json", records)


@pytest.fixture(scope="session")
def vectors_path(tmp_path_factory):
    """Deterministic embedding table covering the fixture vocabulary."""
    rng = random.Random(99)
    words = sorted(

        set(_NOUNS)
        | set(_PLACES)
        | {noun for family in OBJECT_FAMILIES for noun in family}
        | {"puppy", "kitten", "truck", "bus", "bench", "girl", "boy"}
    )
    lines = []
    for word in words:
        vec = [rng.gauss(0.0, 1.0) for _ in range(10)]
        norm = sum(v * v for v in vec) ** 0.5
        lines.append(word + " " + " ".join(f"{v / norm:.6f}" for v in vec))
    path = tmp_path_factory.mktemp("vec") / "vectors.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)
