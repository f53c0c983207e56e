#!/usr/bin/env python3
"""Measure template question generation throughput in captions per second.

Runs the analyzer plus all five template generators over a corpus (either
--captions or a synthesized one), best of --repeats timed passes after a
warm-up pass.
"""

import argparse
import random
import time

from capqa.config import PipelineConfig
from capqa.corpus import CaptionRecord, Corpus, load_coco
from capqa.lingo import Lexicons, analyze, pluralize
from capqa.qgen import (
    gen_color,
    gen_location,
    gen_number,
    gen_object,
    gen_yesno,
)

NOUNS = ["man", "dog", "car", "cat", "boat", "horse", "bird", "plate", "phone"]
ADJS = ["red", "small", "old", "shiny", "black"]
PLACES = ["street", "field", "kitchen", "river", "park"]
VERBS = ["standing", "sitting", "resting", "waiting"]


def synthesize(n_images, rng):
    records = []
    for image_id in range(1, n_images + 1):
        caps = []
        for _ in range(4):
            noun, place = rng.choice(NOUNS), rng.choice(PLACES)
            caps.append(rng.choice([
                f"A {rng.choice(ADJS)} {noun} {rng.choice(VERBS)} on the {place}",
                f"Two {pluralize(noun)} near the {place}",
                f"There is a {noun} in the {place}",
            ]))
        records.append(CaptionRecord(image_id=image_id, captions=caps))
    return Corpus(records=records)


def one_pass(corpus, lex, cfg):
    count = 0
    for rec in corpus.records:
        for idx, caption in enumerate(rec.captions):
            analysis = analyze(caption, lex)
            gen_yesno(rec, idx, analysis, cfg, lex)
            gen_object(rec, idx, analysis, lex)
            gen_number(rec, idx, analysis, cfg, lex)
            gen_color(rec, idx, analysis)
            gen_location(rec, idx, analysis, lex)
            count += 1
    return count


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--captions", help="caption JSON; synthesized when omitted")
    ap.add_argument("--images", type=int, default=250)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    if args.captions:
        corpus = load_coco(args.captions)
    else:
        corpus = synthesize(args.images, random.Random(args.seed))

    lex = Lexicons.default()
    cfg = PipelineConfig(seed=args.seed)
    captions = one_pass(corpus, lex, cfg)  # warm caches

    best = float("inf")
    for i in range(args.repeats):
        t0 = time.perf_counter()
        one_pass(corpus, lex, cfg)
        elapsed = time.perf_counter() - t0
        best = min(best, elapsed)
        print(f"pass {i + 1}: {captions / elapsed:,.0f} captions/s")
    print(f"best: {captions / best:,.0f} captions/s over {captions} captions")


if __name__ == "__main__":
    main()
