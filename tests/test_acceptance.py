"""Acceptance gate: one check per shipping criterion, each printing a
PASS/FAIL line (run with -s to see them on success)."""

import contextlib
import io
import os
import random
import time
from fractions import Fraction

import numpy as np

from capqa.answers import expand_answer
from capqa.augment import builtin_rewrite
from capqa.cli import main
from capqa.config import PipelineConfig
from capqa.corpus import CaptionRecord, load_coco
from capqa.embed import Candidates
from capqa.lingo import Lexicons, analyze, object_lemma_index
from capqa.patches import pyramid
from capqa.pretrain import itm_pairs, mlm_mask, mqa_mask
from capqa.qa import QAPair
from capqa.qgen import (
    adversarial_qa,
    gen_color,
    gen_location,
    gen_number,
    gen_object,
    gen_yesno,
    negate_qa,
)
from capqa.srl import SrlArg, SrlFrame, SrlPredicate, render_qa
from capqa.stats import report
from conftest import make_store

LEX = Lexicons.default()


@contextlib.contextmanager
def criterion(number, label):
    try:
        yield
    except BaseException:
        print(f"CRITERION {number}: FAIL - {label}")
        raise
    print(f"CRITERION {number}: PASS - {label}")


def norm(text: str) -> str:
    return " ".join(text.lower().split())


def norm_pairs(pairs):
    return [(norm(p.question), norm(p.answer)) for p in pairs]


def make_frame(caption, image_id, lemma, verb, args):
    def span(sub):
        i = caption.index(sub)
        return (i, i + len(sub))

    return SrlFrame(
        image_id=image_id,
        caption_index=0,
        predicate=SrlPredicate(lemma=lemma, span=span(verb)),
        args=tuple(SrlArg(role=r, text=t, span=span(t)) for r, t in args),
        caption=caption,
    )


def test_criterion_1_golden_examples():
    with criterion(1, "canonical worked examples reproduce exactly"):
        start = time.perf_counter()

        # affirmative/adversarial question pair from a single caption
        caption = "A man is wearing a hat and sitting"
        store = make_store(
            {
                "man": np.array([1.0, 0.0, 0.0]),
                "dog": np.array([0.9, 0.2, 0.0]),
                "hat": np.array([0.0, 1.0, 0.0]),
            }
        )
        cfg = PipelineConfig(seed=0, yesno_prefixes=["is there"], negative_mode="adversarial")
        record = CaptionRecord(image_id=1, captions=[caption])
        pairs = gen_yesno(record, 0, analyze(caption, LEX), cfg, LEX, store=store,
                          object_vocab=Candidates(store, store.vocab_order),
                          record_lemmas=object_lemma_index([record], LEX)[0][1])
        assert norm_pairs(pairs) == [
            ("is there a man wearing a hat and sitting?", "yes"),
            ("is there a dog wearing a hat and sitting?", "no"),
        ]

        # the three wh-pairs for the girl-in-a-field caption
        girl = "A girl in a red shirt holding an apple sitting in an empty open field"
        hold = make_frame(
            girl, 7, "hold", "holding",
            [("AGENT", "girl in a red shirt"), ("PATIENT", "an apple")],
        )
        sit = make_frame(
            girl, 7, "sit", "sitting",
            [("AGENT", "girl in a red shirt holding an apple"),
             ("LOCATION", "an empty open field")],
        )
        wh_pairs = norm_pairs(render_qa(hold, LEX) + render_qa(sit, LEX))
        assert ("what is someone holding?", "an apple") in wh_pairs
        assert ("who is sitting?", "girl in a red shirt holding an apple") in wh_pairs
        assert ("where is someone sitting?", "an empty open field") in wh_pairs

        # round-trip translation rewrite
        back = builtin_rewrite(
            "Is the girl who is to the left of the sailboats wearing a backpack?",
            PipelineConfig(augment_mode="backtranslate", pivot_language="es", max_variants=4),
        )
        assert "does the girl to the left of the sailboats carry a backpack?" in [
            norm(v) for v in back
        ]

        # negation pair
        bread = QAPair("g1", 1, "Is this bread?", "yes", "yesno", "template", "bread")
        negated = negate_qa(bread, LEX)
        assert (norm(negated.question), negated.answer) == ("is this not bread?", "no")

        # adversarial count question
        pup_caption = "Two puppies are on the bed"
        pup_record = CaptionRecord(image_id=1, captions=[pup_caption])
        pup_store = make_store(
            {
                "puppy": np.array([1.0, 0.0, 0.0]),
                "cat": np.array([0.8, 0.6, 0.0]),
                "bed": np.array([0.0, 1.0, 0.0]),
                "blanket": np.array([0.0, 0.1, 1.0]),
            }
        )
        count_q = QAPair(
            "g2", 1, "How many puppies are on the bed?", "two", "number",
            "template", pup_caption,
        )
        swapped = adversarial_qa(
            count_q, analyze(pup_caption, LEX), pup_store,
            Candidates(pup_store, {"cat", "bed", "blanket", "puppy"}),
            object_lemma_index([pup_record], LEX)[0][1], PipelineConfig(seed=0),
        )
        assert (norm(swapped.question), swapped.answer) == (
            "how many cats are on the bed?", "none",
        )

        # paraphrase rule output
        para = builtin_rewrite(
            "How many cars are visible?",
            PipelineConfig(augment_mode="paraphrase", max_variants=4),
        )
        assert "how many cars are we looking at?" in [norm(v) for v in para]

        assert time.perf_counter() - start < 1.0


def test_criterion_2_subphrase_weights():
    with criterion(2, "expand_answer('two black cars') gives nine weighted entries"):
        expand_answer("two black cars", LEX)  # warm lexicons and caches
        start = time.perf_counter()
        expanded = expand_answer("two black cars", LEX)
        elapsed = time.perf_counter() - start

        entries = dict(expanded)
        third = Fraction(1, 3)
        two_thirds = Fraction(2, 3)
        assert entries == {
            "two black cars": Fraction(1),
            "two cars": two_thirds,
            "2 cars": two_thirds,
            "black cars": two_thirds,
            "two": third,
            "2": third,
            "black": third,
            "cars": third,
            "car": third,
        }
        # two-decimal display forms agree (0.33 / 0.66 / 1.0)
        for printed, weight in ((0.33, third), (0.66, two_thirds), (1.0, Fraction(1))):
            assert abs(float(weight) - printed) < 0.01
        assert elapsed < 0.001


def test_criterion_3_patch_pyramid_law():
    with criterion(3, "84 patches; total coverage; 50% +/- 1 px overlap"):
        start = time.perf_counter()
        rng = random.Random(303)
        for _ in range(200):
            width = rng.randint(64, 4096)
            height = rng.randint(64, 4096)
            spec = pyramid(1, width, height, (1, 3, 5, 7))
            assert len(spec.patches) == 84
            for k in (1, 3, 5, 7):
                level = [p for p in spec.patches if p.level == k]
                assert len(level) == k * k
                for axis, size in ((0, width), (1, height)):
                    # projections along one axis, deduplicated
                    slots = sorted(
                        {(p.rect[axis], p.rect[axis + 2]) for p in level}
                    )
                    assert len(slots) == k
                    assert slots[0][0] == 0
                    assert slots[-1][1] == size
                    for (a0, a1), (b0, b1) in zip(slots, slots[1:]):
                        assert b0 <= a1, "gap in coverage"
                        overlap = a1 - b0
                        assert abs(overlap - (a1 - a0) / 2) <= 1.0
        assert time.perf_counter() - start < 1.0


def test_criterion_4_masking_laws():
    with criterion(4, "MLM and MQA mask counts obey their laws"):
        start = time.perf_counter()
        rng = random.Random(404)
        for i in range(1000):
            n = rng.randint(1, 40)
            caption = " ".join(f"w{j}" for j in range(n))
            expected = max(1, int(Fraction(3 * n, 20) + Fraction(1, 2)))
            sample = mlm_mask(caption, i)
            assert sample.text.count("[MASK]") == expected
            assert len(sample.targets) == expected

            answer_len = rng.randint(1, 5)
            qa = QAPair(
                f"m{i}", 1, caption + "?",
                " ".join(f"a{j}" for j in range(answer_len)),
                "phrase", "srl", caption,
            )
            masked = mqa_mask(qa)
            assert masked.text.count("[MASK]") == answer_len
        assert time.perf_counter() - start < 1.0


def test_criterion_5_itm_disjointness(itm_corpus_100_path):
    with criterion(5, "every ITM mismatch pairs disjoint object sets"):
        start = time.perf_counter()
        corpus = load_coco(itm_corpus_100_path)
        index, _ = object_lemma_index(corpus.records, LEX)
        assert len(corpus.records) == 100
        checked = 0
        for rec in corpus.records:
            samples, _ = itm_pairs(rec, corpus, index, neg_ratio=1.0, seed=5)
            for sample in samples:
                if sample.label != "mismatch":
                    continue
                source_id = int(sample.provenance.split(":")[0])
                assert index[rec.image_id].isdisjoint(index[source_id])
                checked += 1
        assert checked == 200  # two captions per image, ratio 1.0
        assert time.perf_counter() - start < 1.0


def test_criterion_6_yes_no_balance(corpus_1000_path):
    with criterion(6, "generated yes/no answers are exactly half 'yes'"):
        start = time.perf_counter()
        corpus = load_coco(corpus_1000_path)
        cfg = PipelineConfig(seed=11)
        answers = []
        for rec in corpus.records:
            for idx, caption in enumerate(rec.captions):
                for qa in gen_yesno(rec, idx, analyze(caption, LEX), cfg, LEX):
                    answers.append(qa.answer)
        assert answers
        assert answers.count("yes") * 2 == len(answers)
        assert answers.count("no") * 2 == len(answers)
        assert time.perf_counter() - start < 1.0


def test_criterion_7_end_to_end_determinism(corpus_1000_path, tmp_path):
    with criterion(7, "same-seed runs and different worker counts are byte-identical"):
        start = time.perf_counter()
        outs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / f"{name}.jsonl"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main([
                    "generate", "--captions", corpus_1000_path,
                    "--out", str(out), "--seed", "5", "--workers", workers,
                ])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1], "same-seed reruns differ"
        assert outs[0] == outs[2], "worker count changed the bytes"
        assert len(outs[0].splitlines()) > 0
        assert time.perf_counter() - start < 10.0


def test_criterion_8_throughput(corpus_1000_path):
    with criterion(8, "template generation sustains 5,000 captions/s"):
        corpus = load_coco(corpus_1000_path)
        cfg = PipelineConfig(seed=5)

        def one_pass():
            count = 0
            for rec in corpus.records:
                for idx, caption in enumerate(rec.captions):
                    analysis = analyze(caption, LEX)
                    gen_yesno(rec, idx, analysis, cfg, LEX)
                    gen_object(rec, idx, analysis, LEX)
                    gen_number(rec, idx, analysis, cfg, LEX)
                    gen_color(rec, idx, analysis)
                    gen_location(rec, idx, analysis, LEX)
                    count += 1
            return count

        one_pass()  # warm
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            captions = one_pass()
            best = min(best, time.perf_counter() - t0)
        rate = captions / best
        assert rate >= 5000, f"only {rate:.0f} captions/s"


def test_criterion_9_statistics(tmp_path):
    with criterion(9, "report() matches hand-computed fixture statistics"):
        def qa(i, question, answer, answer_type, source):
            return QAPair(f"s{i}", i, question, answer, answer_type, source, "")

        pairs = [
            qa(0, "Is there a man wearing a hat and sitting?", "yes", "yesno", "template"),
            qa(1, "Is there a dog wearing a hat and sitting?", "no", "yesno", "template"),
            qa(2, "What is parked on the street?", "car", "object", "template"),
            qa(3, "How many dogs are sitting?", "2", "number", "template"),
            qa(4, "What is the color of the shirt?", "red", "color", "template"),
            qa(5, "Who is sitting?", "a girl in a red shirt", "phrase", "srl"),
            qa(6, "What is someone holding?", "an apple", "phrase", "srl"),
            qa(7, "Where is someone sitting?", "an empty open field", "phrase", "srl"),
            qa(8, "Can you see a man wearing a hat and sitting?", "yes", "yesno", "paraphrase"),
            qa(9, "Where is the girl sitting?", "the field", "location", "template"),
        ]
        rep = report(pairs)
        assert rep.total == 10
        assert rep.mean_question_tokens == 62 / 10
        assert rep.mean_answer_tokens == 20 / 10
        assert rep.unique_answers == 9
        assert rep.by_source["template"]["count"] == 6
        assert rep.by_source["srl"]["mean_answer_tokens"] == 12 / 3
        assert rep.answer_type_fractions["yesno"] == 3 / 10
        assert rep.yes_balance == 2 / 3
        assert abs(sum(rep.answer_type_fractions.values()) - 1.0) <= 1e-9

        # full-scale clause is data-dependent; run only when a real caption
        # dump is supplied
        coco_path = os.environ.get("CAPQA_COCO_CAPTIONS")
        if coco_path:
            out = tmp_path / "full.jsonl"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main([
                    "generate", "--captions", coco_path, "--out", str(out),
                    "--seed", "0", "--generators",
                    "yesno,object,number,color,location",
                ])
            assert rc == 0
            total = len(out.read_text().splitlines())
            assert 450_000 <= total <= 750_000, f"template count {total}"
        else:
            print("(full-scale clause skipped: CAPQA_COCO_CAPTIONS unset)")
