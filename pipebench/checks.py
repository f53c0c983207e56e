"""Output checks for the pipeline benchmark.

Each check either recomputes an expected value from the input maker's own
record (what it put in each caption, the vectors it wrote, the frames, the
noun families) or tests a property the method must have. None compares
against a stored copy of an earlier output. Every check raises CheckFailed
with its name and the first offending item.
"""

from __future__ import annotations

import json
import math
import re
from collections import Counter, defaultdict

import numpy as np

from inputs import (ADVERSARIAL_THRESHOLD, LEVELS, MAX_QUESTIONS_PER_CAPTION, MAX_VARIANTS,
                    NEG_RATIO, PER_IMAGE)
from rewriter import rewrites

TIE_TOLERANCE = 1e-9
PATCHES_PER_LEVEL = {k: k * k for k in LEVELS}
MASK = "[MASK]"

_WORD = re.compile(r"\w+(?:['’-]\w+)*")
_TOKEN = re.compile(r"\w+(?:['’-]\w+)*|[^\w\s]")
_DETERMINERS = frozenset(
    "a an the this that these those his her its their my your our "
    "some any no each every another both all".split())
_ANSWER_TYPES = {"yesno", "number", "color", "location", "object", "phrase"}
_SOURCES = {"template", "negation", "adversarial", "srl", "paraphrase", "backtranslate"}
_SRL_QUERYABLE = {"AGENT", "PATIENT", "LOCATION", "TIME", "MANNER"}


class CheckFailed(Exception):
    pass


def _fail(name: str, detail: str):
    raise CheckFailed(f"{name}: {detail}")


def read_rows(path) -> list:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def normalized_answer(answer: str) -> list:
    """Lowercase word tokens, leading determiners dropped."""
    toks = _WORD.findall(answer.lower())
    while len(toks) > 1 and toks[0] in _DETERMINERS:
        toks.pop(0)
    return toks


def mlm_mask_count(n_tokens: int) -> int:
    """max(1, 0.15 * n rounded half up)."""
    return max(1, (15 * n_tokens + 50) // 100)


# --- generate ---------------------------------------------------------------------


def check_rows_parse(name, rows):
    fields = {"qa_id": str, "image_id": int, "question": str, "answer": str,
              "answer_type": str, "source": str, "source_caption": str, "weights": list}
    for i, r in enumerate(rows):
        if not isinstance(r, dict):
            _fail(name, f"row {i} is not an object")
        for key, kind in fields.items():
            if not isinstance(r.get(key), kind):
                _fail(name, f"row {i} has no {kind.__name__} {key!r}")
        if r["answer_type"] not in _ANSWER_TYPES or r["source"] not in _SOURCES:
            _fail(name, f"row {i} has answer_type {r['answer_type']!r}, source {r['source']!r}")


def check_unique_ids(name, rows):
    dup = [k for k, n in Counter(r["qa_id"] for r in rows).items() if n > 1]
    if dup:
        _fail(name, f"qa_id {dup[0]} repeats")


def check_sorted(name, rows):
    keys = [(r["image_id"], r["qa_id"]) for r in rows]
    for i in range(1, len(keys)):
        if keys[i - 1] > keys[i]:
            _fail(name, f"row {i} {keys[i]} sorts before row {i - 1} {keys[i - 1]}")


def _by_caption(rows):
    groups = defaultdict(list)
    for r in rows:
        groups[(r["image_id"], r["source_caption"])].append(r)
    return groups


def check_yesno_pairs(name, rows, inputs):
    groups = _by_caption(rows)
    expected = {(i, c) for i, caps in inputs.captions.items() for c in caps}
    yesno_total = 0
    for key in expected:
        group = [r for r in groups.get(key, ()) if r["answer_type"] == "yesno"]
        yesno_total += len(group)
        yes = [r for r in group if r["source"] == "template"]
        neg = [r for r in group if r["source"] in ("negation", "adversarial")]
        if len(group) != 2 or len(yes) != 1 or len(neg) != 1:
            _fail(name, f"caption {key} has {len(group)} yes/no rows, expected 2")
        if yes[0]["answer"] != "yes" or neg[0]["answer"] != "no":
            _fail(name, f"caption {key} answers {yes[0]['answer']!r}/{neg[0]['answer']!r}")
        if neg[0].get("parent_id") != yes[0]["qa_id"]:
            _fail(name, f"caption {key}: negative's parent_id does not name the yes row")
    extra = sum(1 for r in rows if r["answer_type"] == "yesno") - yesno_total
    if extra:
        _fail(name, f"{extra} yes/no rows belong to no benchmark caption")


def check_per_caption_cap(name, rows):
    for key, group in _by_caption(rows).items():
        n = sum(1 for r in group if r["source"] == "template" and r["answer_type"] != "yesno")
        if n > MAX_QUESTIONS_PER_CAPTION:
            _fail(name, f"caption {key} has {n} template rows past yes/no")


def check_weights(name, rows):
    for r in rows:
        toks = normalized_answer(r["answer"])
        n = len(toks)
        full = " ".join(toks)
        weights = {e["phrase"]: e["weight"] for e in r["weights"]}
        if weights.get(full) != 1:
            _fail(name, f"{r['qa_id']}: full answer {full!r} lacks weight 1 in {weights}")
        for phrase, w in weights.items():
            want = len(_WORD.findall(phrase)) / n
            if abs(w - want) > 1e-6:
                _fail(name, f"{r['qa_id']}: {phrase!r} weighs {w}, expected {want:.6f}")


def check_report_totals(name, rows, stdout):
    doc = json.loads(stdout)
    if doc.get("total") != len(rows):
        _fail(name, f"printed total {doc.get('total')} but the file holds {len(rows)} rows")
    counts = Counter(r["source"] for r in rows)
    printed = {k: v.get("count") for k, v in doc.get("by_source", {}).items()}
    if printed != dict(counts):
        _fail(name, f"printed by_source {printed} but the file holds {dict(counts)}")


# --- adversarial ------------------------------------------------------------------


class VectorSpace:
    """Cosines over the maker's own vectors, computed with numpy."""

    def __init__(self, inputs):
        self.inputs = inputs
        self.words = sorted(inputs.vocab)
        self.index = {w: i for i, w in enumerate(self.words)}
        mat = np.array([inputs.vectors[w] for w in self.words])
        self.unit = mat / np.linalg.norm(mat, axis=1, keepdims=True)

    def cosine(self, a: str, b: str) -> float:
        return float(self.unit[self.index[a]] @ self.unit[self.index[b]])

    def best_eligible(self, word: str, image_id: int) -> float:
        """Highest cosine over vocab nouns absent from the image."""
        scores = self.unit @ self.unit[self.index[word]]
        for w in self.inputs.lemmas[image_id] | {word}:
            scores[self.index[w]] = -np.inf
        return float(scores.max())


def _swap(name, row, parent, inputs):
    """(target lemma, substitute lemma) of one adversarial row."""
    surface, lemma = inputs.first_head[(row["image_id"], parent["source_caption"])]
    before = [t.lower() for t in _TOKEN.findall(parent["question"])]
    after = [t.lower() for t in _TOKEN.findall(row["question"])]
    if len(before) != len(after):
        _fail(name, f"{row['qa_id']}: {row['question']!r} is not a one-word swap")
    diffs = [i for i, (a, b) in enumerate(zip(before, after))
             if a != b and {a, b} != {"a", "an"}]
    if len(diffs) != 1 or before[diffs[0]] != surface:
        _fail(name, f"{row['qa_id']}: {row['question']!r} does not swap {surface!r} alone")
    new = after[diffs[0]]
    if surface != lemma:
        if not new.endswith("s"):
            _fail(name, f"{row['qa_id']}: plural {surface!r} became singular {new!r}")
        new = new[:-1]
    if new not in inputs.vocab:
        _fail(name, f"{row['qa_id']}: {new!r} is not an object noun of the corpus")
    if new in inputs.lemmas[row["image_id"]]:
        _fail(name, f"{row['qa_id']}: {new!r} is present in image {row['image_id']}")
    return lemma, new


def _adversarial_rows(rows):
    by_id = {r["qa_id"]: r for r in rows}
    return [(r, by_id.get(r.get("parent_id"))) for r in rows
            if r["answer_type"] == "yesno" and r["source"] in ("adversarial", "negation")]


def check_adversarial_swap(name, rows, inputs):
    found = 0
    for row, parent in _adversarial_rows(rows):
        if row["source"] == "adversarial":
            _swap(name, row, parent, inputs)
            found += 1
    if not found:
        _fail(name, "no adversarial rows")


def check_adversarial_threshold(name, rows, inputs, space):
    for row, parent in _adversarial_rows(rows):
        if row["source"] == "adversarial":
            lemma, new = _swap(name, row, parent, inputs)
            cos = space.cosine(lemma, new)
            if cos < ADVERSARIAL_THRESHOLD - TIE_TOLERANCE:
                _fail(name, f"{row['qa_id']}: cos({lemma}, {new}) = {cos:.4f} is below "
                            f"{ADVERSARIAL_THRESHOLD}")


def check_adversarial_nearest(name, rows, inputs, space):
    for row, parent in _adversarial_rows(rows):
        image_id = row["image_id"]
        _, lemma = inputs.first_head[(image_id, parent["source_caption"])]
        best = space.best_eligible(lemma, image_id)
        if row["source"] == "adversarial":
            _, new = _swap(name, row, parent, inputs)
            cos = space.cosine(lemma, new)
            if best > cos + TIE_TOLERANCE:
                _fail(name, f"{row['qa_id']}: chose {new!r} at {cos:.6f}, an absent noun "
                            f"scores {best:.6f}")
        elif best >= ADVERSARIAL_THRESHOLD + TIE_TOLERANCE:
            _fail(name, f"{row['qa_id']}: fell back to negation although an absent noun "
                        f"scores {best:.6f}")


def check_srl_answers(name, rows, inputs):
    got = defaultdict(Counter)
    for r in rows:
        if r["source"] == "srl":
            got[(r["image_id"], r["source_caption"])][r["answer"]] += 1
    want = defaultdict(Counter)
    for f in inputs.frames:
        caption = inputs.captions[f["image_id"]][f["caption_index"]]
        for arg in f["args"]:
            if arg["role"] in _SRL_QUERYABLE:
                want[(f["image_id"], caption)][arg["text"]] += 1
    if got != want:
        key = next(k for k in set(got) | set(want) if got.get(k) != want.get(k))
        _fail(name, f"caption {key}: srl answers {dict(got.get(key, {}))}, "
                    f"frames give {dict(want.get(key, {}))}")


# --- downstream -------------------------------------------------------------------


def _variants(name, rows, inputs):
    """{parent qa_id: [variant rows]}, after checking originals kept their order."""
    originals = [r["qa_id"] for r in rows if r.get("parent_id") is None]
    if originals != [r["qa_id"] for r in inputs.qa_rows]:
        _fail(name, "original rows are not the input rows in input order")
    out = defaultdict(list)
    for r in rows:
        if r.get("parent_id") is not None:
            out[r["parent_id"]].append(r)
    return out


def check_augment_variants(name, rows, inputs):
    parents = {r["qa_id"]: r for r in inputs.qa_rows}
    for parent_id, variants in _variants(name, rows, inputs).items():
        parent = parents.get(parent_id)
        if parent is None:
            _fail(name, f"variant parent {parent_id} is not an input row")
        offered = rewrites(parent["question"])
        for v in variants:
            if v["question"] not in offered:
                _fail(name, f"{v['qa_id']}: {v['question']!r} was never offered for "
                            f"{parent['question']!r}")
            if v["answer"] != parent["answer"] or v["image_id"] != parent["image_id"]:
                _fail(name, f"{v['qa_id']}: answer {v['answer']!r} differs from the parent's")


def check_augment_max_variants(name, rows, inputs):
    for parent_id, variants in _variants(name, rows, inputs).items():
        if len(variants) > MAX_VARIANTS:
            _fail(name, f"{parent_id} has {len(variants)} variants")


def _contains(text: str, answer: str) -> bool:
    t = _WORD.findall(text.lower())
    a = _WORD.findall(answer.lower())
    return any(t[i:i + len(a)] == a for i in range(len(t) - len(a) + 1))


def check_augment_answer_kept(name, rows, inputs):
    parents = {r["qa_id"]: r for r in inputs.qa_rows}
    for parent_id, variants in _variants(name, rows, inputs).items():
        parent = parents[parent_id]
        if not _contains(parent["question"], parent["answer"]):
            continue
        for v in variants:
            if not _contains(v["question"], parent["answer"]):
                _fail(name, f"{v['qa_id']}: {v['question']!r} drops the answer "
                            f"{parent['answer']!r}")


def check_itm(name, samples, inputs):
    per_image = defaultdict(Counter)
    for s in samples:
        if s["task"] != "itm":
            continue
        image_id = s["image_id"]
        per_image[image_id][s["label"]] += 1
        if s["label"] == "mismatch":
            other, j = (int(x) for x in s["provenance"].split(":"))
            if inputs.family[other] == inputs.family[image_id]:
                _fail(name, f"image {image_id} mismatches with {other} of its own family")
            if s["text"] != inputs.captions[other][j].split():
                _fail(name, f"image {image_id}: mismatch text is not caption {other}:{j}")
    for image_id, caps in inputs.captions.items():
        want = {"match": len(caps), "mismatch": math.ceil(NEG_RATIO * len(caps))}
        if dict(per_image.get(image_id, {})) != want:
            _fail(name, f"image {image_id} has {dict(per_image.get(image_id, {}))}, "
                        f"expected {want}")


def _unmask(name, s):
    text = list(s["text"])
    masked = [i for i, t in enumerate(text) if t == MASK]
    if sorted(int(k) for k in s["targets"]) != masked:
        _fail(name, f"{s['provenance']}: targets do not match the mask positions")
    for k, tok in s["targets"].items():
        text[int(k)] = tok
    return text, len(masked)


def check_mlm(name, samples, inputs):
    seen = set()
    for s in samples:
        if s["task"] != "mlm":
            continue
        image_id, idx = (int(x) for x in s["provenance"].split(":"))
        caption = inputs.captions[image_id][idx].split()
        text, masks = _unmask(name, s)
        if text != caption:
            _fail(name, f"{s['provenance']}: unmasking gives {' '.join(text)!r}")
        if masks != mlm_mask_count(len(caption)):
            _fail(name, f"{s['provenance']}: {masks} masks over {len(caption)} tokens")
        seen.add((image_id, idx))
    if len(seen) != inputs.caption_count():
        _fail(name, f"{len(seen)} captions masked out of {inputs.caption_count()}")


def check_mqa(name, samples, qa_rows):
    by_id = {r["qa_id"]: r for r in qa_rows}
    count = 0
    for s in samples:
        if s["task"] != "mqa":
            continue
        qa = by_id[s["provenance"]]
        answer = qa["answer"].split()
        text, masks = _unmask(name, s)
        if masks != len(answer) or text != qa["question"].split() + answer:
            _fail(name, f"{qa['qa_id']}: {masks} masks for answer {qa['answer']!r}")
        count += 1
    if count != len(qa_rows):
        _fail(name, f"{count} mqa samples for {len(qa_rows)} pairs")


def check_patch_count(name, patches, inputs):
    levels = defaultdict(Counter)
    for p in patches:
        levels[p["image_id"]][p["level"]] += 1
    for image_id in inputs.captions:
        if dict(levels.get(image_id, {})) != PATCHES_PER_LEVEL:
            _fail(name, f"image {image_id} has patches {dict(levels.get(image_id, {}))}")


def _covers(spans: dict, size: int) -> bool:
    """Intervals by index cover [0, size) with no gap, in index order."""
    reach = 0
    for i in sorted(spans):
        lo, hi = spans[i]
        if lo > reach:
            return False
        reach = max(reach, hi)
    return min(lo for lo, _ in spans.values()) == 0 and reach == size


def check_patch_cover(name, patches, inputs):
    grid = defaultdict(lambda: (defaultdict(set), defaultdict(set)))
    for p in patches:
        width, height = inputs.dims[p["image_id"]]
        x0, y0, x1, y1 = p["rect"]
        if not (0 <= x0 < x1 <= width and 0 <= y0 < y1 <= height):
            _fail(name, f"image {p['image_id']}: rect {p['rect']} leaves {width}x{height}")
        cols, rows = grid[(p["image_id"], p["level"])]
        cols[p["col"]].add((x0, x1))
        rows[p["row"]].add((y0, y1))
    for (image_id, level), (cols, rows) in grid.items():
        width, height = inputs.dims[image_id]
        if any(len(v) != 1 for v in (*cols.values(), *rows.values())):
            _fail(name, f"image {image_id} level {level}: windows do not form a grid")
        if not (_covers({c: next(iter(v)) for c, v in cols.items()}, width)
                and _covers({r: next(iter(v)) for r, v in rows.items()}, height)):
            _fail(name, f"image {image_id} level {level} leaves part of "
                        f"[0,{width})x[0,{height}) uncovered")


def check_vocab_header(name, vocab_text):
    lines = vocab_text.splitlines()
    m = re.fullmatch(r"#capqa-vocab v1 count=(\d+)", lines[0] if lines else "")
    if not m or int(m.group(1)) != len(lines) - 1:
        _fail(name, f"header {lines[:1]} against {len(lines) - 1} phrase lines")


def check_vocab_answers(name, vocab_text, qa_rows):
    phrases = set(vocab_text.splitlines()[1:])
    for r in qa_rows:
        full = " ".join(normalized_answer(r["answer"]))
        if full not in phrases:
            _fail(name, f"full answer {full!r} of {r['qa_id']} is not in the vocabulary")


def check_sample_epoch(name, epoch_lines, qa_lines):
    kept = set(epoch_lines)
    if [line for line in qa_lines if line in kept] != epoch_lines:
        _fail(name, "sampled rows are not input rows in input order")
    have = Counter(json.loads(line)["image_id"] for line in qa_lines)
    got = Counter(json.loads(line)["image_id"] for line in epoch_lines)
    for image_id, n in have.items():
        if got.get(image_id, 0) != min(PER_IMAGE, n):
            _fail(name, f"image {image_id} keeps {got.get(image_id, 0)} of {n} rows")


def check_stats_total(name, stdout, qa_rows):
    total = json.loads(stdout).get("total")
    if total != len(qa_rows):
        _fail(name, f"stats total {total} against {len(qa_rows)} rows")


# --- per workload -----------------------------------------------------------------


def _lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh if line.strip()]


def generate_checks(inputs, out):
    """(name, thunk) pairs over a generate output in directory `out`."""
    rows = read_rows(out / "qa.jsonl")
    stdout = (out / "generate.stdout").read_text(encoding="utf-8")
    checks = [
        ("rows_parse", lambda n: check_rows_parse(n, rows)),
        ("unique_ids", lambda n: check_unique_ids(n, rows)),
        ("sorted", lambda n: check_sorted(n, rows)),
        ("yesno_pairs", lambda n: check_yesno_pairs(n, rows, inputs)),
        ("per_caption_cap", lambda n: check_per_caption_cap(n, rows)),
        ("weights", lambda n: check_weights(n, rows)),
        ("report_totals", lambda n: check_report_totals(n, rows, stdout)),
    ]
    if inputs.workload == "adversarial":
        space = VectorSpace(inputs)
        checks += [
            ("adversarial_swap", lambda n: check_adversarial_swap(n, rows, inputs)),
            ("adversarial_threshold",
             lambda n: check_adversarial_threshold(n, rows, inputs, space)),
            ("adversarial_nearest", lambda n: check_adversarial_nearest(n, rows, inputs, space)),
            ("srl_answers", lambda n: check_srl_answers(n, rows, inputs)),
        ]
    return checks


def downstream_checks(inputs, out):
    augmented = read_rows(out / "augmented.jsonl")
    weighed_lines = _lines(out / "weighed.jsonl")
    weighed = [json.loads(line) for line in weighed_lines]
    samples = read_rows(out / "pretrain.jsonl")
    patches = read_rows(out / "patches.jsonl")
    vocab_text = (out / "vocab.txt").read_text(encoding="utf-8")
    epoch_lines = _lines(out / "epoch.jsonl")
    stats_stdout = (out / "stats.stdout").read_text(encoding="utf-8")
    return [
        ("augment_variants", lambda n: check_augment_variants(n, augmented, inputs)),
        ("augment_max_variants", lambda n: check_augment_max_variants(n, augmented, inputs)),
        ("augment_answer_kept", lambda n: check_augment_answer_kept(n, augmented, inputs)),
        ("weigh_rows_parse", lambda n: check_rows_parse(n, weighed)),
        ("weigh_weights", lambda n: check_weights(n, weighed)),
        ("itm", lambda n: check_itm(n, samples, inputs)),
        ("mlm", lambda n: check_mlm(n, samples, inputs)),
        ("mqa", lambda n: check_mqa(n, samples, weighed)),
        ("patch_count", lambda n: check_patch_count(n, patches, inputs)),
        ("patch_cover", lambda n: check_patch_cover(n, patches, inputs)),
        ("vocab_header", lambda n: check_vocab_header(n, vocab_text)),
        ("vocab_answers", lambda n: check_vocab_answers(n, vocab_text, weighed)),
        ("sample_epoch", lambda n: check_sample_epoch(n, epoch_lines, weighed_lines)),
        ("stats_total", lambda n: check_stats_total(n, stats_stdout, weighed)),
    ]


def run_checks(inputs, out) -> list:
    """Run every check of the workload; return the failures as strings."""
    try:
        checks = (downstream_checks if inputs.workload == "downstream"
                  else generate_checks)(inputs, out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"outputs unreadable: {exc!r}"]
    failures = []
    for name, check in checks:
        try:
            check(name)
        except CheckFailed as exc:
            failures.append(str(exc))
        except (KeyError, ValueError, TypeError, AttributeError, IndexError) as exc:
            failures.append(f"{name}: malformed output ({exc!r})")
    return failures
