"""Seeded input maker for the pipeline benchmark.

Every input the program reads is written here from the run's seed: the same
seed gives the same files byte for byte. Beside the files, the maker keeps its
own record of what it put where (which head nouns each image's captions hold,
the exact vectors, the frames, the noun families), so the output checks can
judge the program against the benchmark's intentions instead of against the
program's own analysis.

Pseudo-nouns are built from consonant-vowel syllables with a final consonant
from a short list. They never end in "s", "y", "d", "g", "h", "x" or "z", so
the tagger's "-ing", "-ed" and "-ly" rules never fire, the plural is always
the word plus "s", and singularizing that plural gives the word back. They are
lowercase, so no mid-sentence capital turns one into a proper noun.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

SCALES = {
    "full": {
        "templates": {"images": 1000},
        "adversarial": {"images": 120, "nouns": 1800, "distractors": 1000},
        "downstream": {"images": 400, "families": 40},
    },
    "small": {
        "templates": {"images": 40},
        "adversarial": {"images": 24, "nouns": 360, "distractors": 40},
        "downstream": {"images": 36, "families": 6},
    },
}

CAPTIONS_PER_IMAGE = 5
NEG_RATIO = 1.0
LEVELS = (1, 3, 5, 7)
VECTOR_DIM = 50
FAMILY_SIZE = 10
LONER_SHARE = 0.1  # adversarial nouns with no family: their searches fall back
FAMILY_NOISE = 0.6
MAX_QUESTIONS_PER_CAPTION = 4
ADVERSARIAL_THRESHOLD = 0.55
MAX_VARIANTS = 2
PER_IMAGE = 5
NEG_RATIO = 1.0
LEVELS = (1, 3, 5, 7)

_ONSETS = "bfkmnptvz"
_VOWELS = "aiou"
_FINALS = "bkmnprt"

REAL_NOUNS = (
    "dog cat horse car bus truck bike boat bird man woman child table chair "
    "plate pizza phone kite umbrella bench clock train sheep cow laptop cake "
    "bottle vase sandwich banana elephant giraffe zebra bear surfboard "
    "skateboard frisbee suitcase teddy toilet window lamp pillow blanket tree"
).split()
COLORS = "red blue green yellow black white brown orange pink purple gray".split()
COUNT_WORDS = "two three four five six".split()
PLACES = "park street field kitchen beach room garden road yard market".split()
VERBS_ING = "sitting standing resting waiting sleeping looking playing".split()
VERB_LEMMAS = {"sitting": "sit", "standing": "stand", "resting": "rest",
               "waiting": "wait", "sleeping": "sleep", "looking": "look",
               "playing": "play"}


def plural(noun: str) -> str:
    if noun in ("man", "woman"):
        return noun[:-2] + "en"
    if noun == "child":
        return "children"
    if noun == "sheep":
        return "sheep"
    if noun.endswith("y") and noun[-2] not in "aeiou":
        return noun[:-1] + "ies"
    if noun.endswith(("s", "x", "z", "ch", "sh")):
        return noun + "es"
    return noun + "s"


def pseudo_nouns(rng: random.Random, n: int, taken=()) -> list:
    """n distinct pseudo-nouns, none of them in `taken`."""
    seen = set(taken)
    out = []
    while len(out) < n:
        syllables = rng.choice((2, 3))
        word = "".join(rng.choice(_ONSETS) + rng.choice(_VOWELS) for _ in range(syllables))
        word += rng.choice(_FINALS)
        if word in seen:
            continue
        seen.add(word)
        out.append(word)
    return out


def article(word: str) -> str:
    return "an" if word[0] in "aeiou" else "a"


def cap(text: str) -> str:
    return text[0].upper() + text[1:]


@dataclass
class Inputs:
    """Files written for one workload and the maker's record of them."""

    workload: str
    seed: int
    dir: Path
    captions_path: Path
    captions: dict = field(default_factory=dict)  # image_id -> [caption]
    dims: dict = field(default_factory=dict)  # image_id -> (width, height)
    lemmas: dict = field(default_factory=dict)  # image_id -> set of head nouns
    first_head: dict = field(default_factory=dict)  # (image_id, caption) -> (surface, lemma)
    vocab: set = field(default_factory=set)  # every head noun of the corpus
    vectors_path: Path = None
    vectors: dict = field(default_factory=dict)  # word -> np.ndarray, as parsed back
    frames_path: Path = None
    frames: list = field(default_factory=list)
    family: dict = field(default_factory=dict)  # image_id -> family index
    qa_path: Path = None
    qa_rows: list = field(default_factory=list)
    rewriter_path: Path = None

    def caption_count(self) -> int:
        return sum(len(c) for c in self.captions.values())

    def digest(self) -> str:
        """One digest over every file the maker wrote."""
        h = hashlib.sha256()
        for path in sorted(p for p in self.dir.iterdir() if p.is_file()):
            h.update(path.name.encode())
            h.update(path.read_bytes())
        return h.hexdigest()


def _write_coco(inputs: Inputs, with_dims: bool) -> None:
    annotations = []
    ann_id = 1
    for image_id, caps in inputs.captions.items():
        for caption in caps:
            annotations.append({"id": ann_id, "image_id": image_id, "caption": caption})
            ann_id += 1
    doc = {"annotations": annotations}
    if with_dims:
        doc["images"] = [{"id": i, "width": w, "height": h} for i, (w, h) in inputs.dims.items()]
    inputs.captions_path.write_text(json.dumps(doc), encoding="utf-8")


# --- templates ------------------------------------------------------------------

# Each template names its slots: N/M nouns, C colour, K count word, P place,
# V present participle. The mix holds existentials, counts, colours, "in the"
# locations and "next to".
_TEMPLATE_CAPTIONS = (
    "A {C} {N} {V} in the {P}.",
    "There is a {C} {N} next to a {M}.",
    "There are {K} {Ns} in the {P}.",
    "{K} {Ns} {V} next to the {M}.",
    "A {N} with a {C} {M} {V} in the {P}.",
    "The {C} {N} is {V} on the {M}.",
    "A {N} {V} next to {K} {C} {Ms}.",
    "Two {C} {Ns} and a {M} in the {P}.",
)


def _make_templates(inputs: Inputs, rng: random.Random, images: int) -> None:
    nouns = REAL_NOUNS + pseudo_nouns(rng, 200, REAL_NOUNS)
    kinds = [i % len(_TEMPLATE_CAPTIONS) for i in range(images * CAPTIONS_PER_IMAGE)]
    rng.shuffle(kinds)
    for image in range(images):
        image_id = 100000 + image * 7
        caps = []
        for kind in kinds[image * CAPTIONS_PER_IMAGE:(image + 1) * CAPTIONS_PER_IMAGE]:
            while True:
                n, m = rng.sample(nouns, 2)
                caption = cap(_TEMPLATE_CAPTIONS[kind].format(
                    N=n, M=m, Ns=plural(n), Ms=plural(m), C=rng.choice(COLORS),
                    K=rng.choice(COUNT_WORDS), P=rng.choice(PLACES), V=rng.choice(VERBS_ING),
                ))
                if caption not in caps:
                    break
            caps.append(caption)
        inputs.captions[image_id] = caps
    _write_coco(inputs, with_dims=False)


# --- adversarial ------------------------------------------------------------------


def _vector_lines(rng_np, words, families):
    """GloVe-format lines: family members scatter around a shared centre."""
    centres = {}
    lines = []
    for word in words:
        fam = families.get(word)
        if fam is None:
            vec = rng_np.standard_normal(VECTOR_DIM)
        else:
            if fam not in centres:
                centres[fam] = rng_np.standard_normal(VECTOR_DIM)
            vec = centres[fam] + FAMILY_NOISE * rng_np.standard_normal(VECTOR_DIM)
        lines.append(word + " " + " ".join(f"{x:.6f}" for x in vec))
    return lines


def _make_adversarial(inputs: Inputs, rng: random.Random, images: int, nouns: int,
                      distractors: int) -> None:
    vocab = pseudo_nouns(rng, nouns)
    extra = pseudo_nouns(rng, distractors, vocab)
    families = {}
    grouped = vocab[int(len(vocab) * LONER_SHARE):]
    for i, word in enumerate(grouped):
        families[word] = i // FAMILY_SIZE
    order = list(vocab)
    rng.shuffle(order)
    cycle = itertools.cycle(order)

    frames = []
    for image in range(images):
        image_id = 200000 + image * 3
        heads = set()
        caps = []
        for idx in range(CAPTIONS_PER_IMAGE):
            kind = (image + idx) % 4
            n1, n2, n3 = next(cycle), next(cycle), next(cycle)
            color = rng.choice(COLORS)
            verb = rng.choice(VERBS_ING)
            frame = None
            if kind == 0:
                agent = f"{cap(article(color))} {color} {n1}"
                patient = f"{article(n2)} {n2}"
                location = f"near the {n3}"
                caption = f"{agent} holding {patient} {location}."
                first = (n1, n1)
                start = len(agent) + 1
                frame = {"predicate": {"lemma": "hold", "span": [start, start + 7]},
                         "args": [("AGENT", agent), ("PATIENT", patient), ("LOCATION", location)]}
            elif kind == 1:
                caption = f"Two {n1}s {verb} beside {article(n2)} {n2} near the {n3}."
                first = (n1 + "s", n1)
            elif kind == 2:
                agent = f"The {n1}"
                location = f"on {article(color)} {color} {n2}"
                caption = f"{agent} is {verb} {location} by the {n3}."
                first = (n1, n1)
                start = len(agent) + 4
                frame = {"predicate": {"lemma": VERB_LEMMAS[verb], "span": [start, start + len(verb)]},
                         "args": [("AGENT", agent), ("LOCATION", location)]}
            else:
                caption = (f"{cap(article(n1))} {n1} and {article(n2)} {n2} {verb} together "
                           f"near the {n3}.")
                first = (n1, n1)
            placed = (n1, n2, n3)
            caps.append(caption)
            heads.update(placed)
            inputs.first_head[(image_id, caption)] = first
            if frame is not None:
                args = []
                for role, text in frame["args"]:
                    at = caption.index(text)
                    args.append({"role": role, "text": text, "span": [at, at + len(text)]})
                frames.append({"image_id": image_id, "caption_index": idx,
                               "predicate": frame["predicate"], "args": args})
        inputs.captions[image_id] = caps
        inputs.lemmas[image_id] = heads
        inputs.vocab |= heads
    _write_coco(inputs, with_dims=False)

    rng_np = np.random.default_rng(rng.getrandbits(64))
    words = sorted(inputs.vocab) + extra
    lines = _vector_lines(rng_np, words, families)
    inputs.vectors_path = inputs.dir / "vectors.txt"
    inputs.vectors_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    for line in lines:
        parts = line.split()
        inputs.vectors[parts[0]] = np.array([float(x) for x in parts[1:]])

    inputs.frames = frames
    inputs.frames_path = inputs.dir / "frames.jsonl"
    inputs.frames_path.write_text("".join(json.dumps(f) + "\n" for f in frames), encoding="utf-8")


# --- downstream -------------------------------------------------------------------


def _qa_id(seed: int, n: int) -> str:
    return hashlib.blake2b(f"pipebench/{seed}/{n}".encode(), digest_size=8).hexdigest()


def _make_downstream(inputs: Inputs, rng: random.Random, images: int, families: int) -> None:
    words = pseudo_nouns(rng, families * 9)
    fams = [words[i * 9:(i + 1) * 9] for i in range(families)]
    rows = []

    def row(image_id, caption, question, answer, answer_type):
        rows.append({
            "qa_id": _qa_id(inputs.seed, len(rows)), "image_id": image_id,
            "question": question, "answer": answer, "answer_type": answer_type,
            "source": "template", "source_caption": caption, "weights": [],
        })

    for image in range(images):
        image_id = 300000 + image * 5
        fam = image % families
        anchor, members = fams[fam][0], fams[fam][1:]
        inputs.family[image_id] = fam
        inputs.dims[image_id] = (rng.randrange(200, 1025), rng.randrange(150, 769))
        heads = set()

        made = []
        while len(made) < CAPTIONS_PER_IMAGE:
            n, m = rng.sample(members, 2)
            if not made:
                n = anchor  # every image of a family shares its anchor noun
            color, verb = rng.choice(COLORS), rng.choice(VERBS_ING)
            kind = rng.randrange(3)
            if kind == 0:
                text = f"{cap(article(color))} {color} {n} {verb} beside {article(m)} {m}."
            elif kind == 1:
                text = f"Two {n}s {verb} near the {m}."
            else:
                text = f"The {n} is {verb} under {article(color)} {color} {m}."
            if all(text != c for c, _ in made):
                made.append((text, (n, m, color, verb)))
                heads.update((n, m))
        inputs.captions[image_id] = [c for c, _ in made]
        inputs.lemmas[image_id] = heads

        # a few images carry fewer questions than sample-epoch keeps
        for caption, (n, m, color, verb) in made[: 1 if image % 4 == 0 else len(made)]:
            other = rng.choice([c for c in COLORS if c != color])
            kind = rng.randrange(7)
            if kind == 0:
                row(image_id, caption, f"Is there {article(n)} {n} near the {m}?", "yes", "yesno")
            elif kind == 1:
                row(image_id, caption, f"What is beside the {n}?", m, "object")
            elif kind == 2:
                count = rng.choice(COUNT_WORDS)
                row(image_id, caption, f"How many {n}s are visible?", count, "number")
            elif kind == 3:
                row(image_id, caption, f"Is the {m} {color} or {other}?", color, "color")
            elif kind == 4:
                row(image_id, caption, f"Where is the {n} {verb}?", f"the {m}", "location")
            elif kind == 5:
                row(image_id, caption, f"What is the {n} doing?",
                    f"{verb} beside a {color} {m}", "phrase")
            else:
                row(image_id, caption, f"Which is bigger, the {n} or the {m}?", n, "object")

    _write_coco(inputs, with_dims=True)
    inputs.qa_rows = rows
    inputs.qa_path = inputs.dir / "qa.jsonl"
    inputs.qa_path.write_text(
        "".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows), encoding="utf-8")


def make_inputs(workload: str, seed: int, out_dir: Path, scale: str = "full") -> Inputs:
    """Write one workload's inputs for `seed` into `out_dir`."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"pipebench:{workload}:{seed}")
    inputs = Inputs(workload=workload, seed=seed, dir=out_dir,
                    captions_path=out_dir / "captions.json")
    size = SCALES[scale][workload]
    if workload == "templates":
        _make_templates(inputs, rng, **size)
    elif workload == "adversarial":
        _make_adversarial(inputs, rng, **size)
    elif workload == "downstream":
        _make_downstream(inputs, rng, **size)
        inputs.rewriter_path = Path(__file__).resolve().parent / "rewriter.py"
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return inputs

