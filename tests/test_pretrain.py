"""Masking and image-text pairing sample synthesis."""

import json
from fractions import Fraction

import pytest

from capqa.corpus import CaptionRecord, Corpus
from capqa.errors import MalformedInput
from capqa.lingo import Lexicons, object_lemma_index
from capqa.pretrain import (
    MASK,
    PretrainSample,
    itm_pairs,
    mlm_mask,
    mqa_mask,
    sample_json_dict,
    write_samples,
)
from capqa.qa import QAPair


def ref_mask_count(n):
    # independent half-up rounding of 0.15 * n, floored at 1
    return max(1, int(Fraction(3 * n, 20) + Fraction(1, 2)))


# --- masked language modeling ------------------------------------------------


class TestMlmMask:
    def test_seven_token_caption_gets_one_mask(self):
        sample = mlm_mask("There is a man wearing a hat", 17)
        assert sample.task == "mlm"
        assert sample.text.count(MASK) == 1
        assert len(sample.targets) == 1

    def test_golden_draw_masks_man(self):
        # seed 0 draws position 3 for this caption
        sample = mlm_mask("There is a man wearing a hat", 0)
        assert " ".join(sample.text) == "There is a [MASK] wearing a hat"
        assert sample.targets == {3: "man"}

    def test_single_token_caption_masks_it(self):
        sample = mlm_mask("hat", 5)
        assert sample.text == [MASK]
        assert sample.targets == {0: "hat"}

    def test_twenty_tokens_get_three_masks(self):
        caption = " ".join(f"word{i}" for i in range(20))
        sample = mlm_mask(caption, 3)
        assert sample.text.count(MASK) == 3

    def test_count_law_all_lengths(self):
        for n in range(1, 41):
            caption = " ".join(f"tok{i}" for i in range(n))
            sample = mlm_mask(caption, 11)
            assert sample.text.count(MASK) == ref_mask_count(n), n

    def test_masks_and_targets_agree(self):
        caption = "a large brown dog runs across the wet green grass today"
        sample = mlm_mask(caption, 29)
        tokens = caption.split()
        masked = {i for i, tok in enumerate(sample.text) if tok == MASK}
        assert masked == set(sample.targets)
        for pos, original in sample.targets.items():
            assert original == tokens[pos]
        for i, tok in enumerate(sample.text):
            if i not in masked:
                assert tok == tokens[i]

    def test_deterministic(self):
        caption = "two black cars parked on the side of the street"
        a = mlm_mask(caption, 99)
        b = mlm_mask(caption, 99)
        assert a.text == b.text and a.targets == b.targets

    def test_seed_changes_draw(self):
        caption = " ".join(f"tok{i}" for i in range(30))
        draws = {tuple(sorted(mlm_mask(caption, s).targets)) for s in range(8)}
        assert len(draws) > 1

    def test_empty_caption_rejected(self):
        with pytest.raises(MalformedInput):
            mlm_mask("", 0)
        with pytest.raises(MalformedInput):
            mlm_mask("   ", 0)

    def test_provenance_records_source(self):
        sample = mlm_mask("a dog", 0, image_id=7, caption_index=2)
        assert sample.image_id == 7
        assert sample.provenance == "7:2"


# --- masked question answering -----------------------------------------------


def make_pair(question, answer, qa_id="qa-1", image_id=42):
    return QAPair(
        qa_id=qa_id,
        image_id=image_id,
        question=question,
        answer=answer,
        answer_type="phrase",
        source="srl",
        source_caption="",
    )


class TestMqaMask:
    def test_golden_two_token_answer(self):
        pair = make_pair("When is someone competing?", "at night")
        sample = mqa_mask(pair)
        assert " ".join(sample.text) == "When is someone competing? [MASK] [MASK]"
        assert sample.targets == {4: "at", 5: "night"}
        assert sample.task == "mqa"
        assert sample.image_id == 42
        assert sample.provenance == "qa-1"

    def test_single_token_answer(self):
        sample = mqa_mask(make_pair("Is there a dog?", "yes"))
        assert sample.text.count(MASK) == 1
        assert sample.targets == {4: "yes"}

    def test_three_token_answer_in_order(self):
        sample = mqa_mask(make_pair("What is parked?", "two black cars"))
        assert sample.text.count(MASK) == 3
        assert [sample.targets[k] for k in sorted(sample.targets)] == [
            "two", "black", "cars",
        ]

    def test_question_tokens_never_masked(self):
        pair = make_pair("Where is the man sitting?", "on a bench")
        sample = mqa_mask(pair)
        n_q = len(pair.question.split())
        assert sample.text[:n_q] == pair.question.split()
        assert all(pos >= n_q for pos in sample.targets)

    def test_empty_answer_rejected(self):
        with pytest.raises(MalformedInput):
            mqa_mask(make_pair("Is there a dog?", "  "))


# --- image-text matching -----------------------------------------------------


@pytest.fixture()
def itm_corpus():
    records = [
        CaptionRecord(1, ["A man wearing a hat"]),
        CaptionRecord(2, ["A car on the road", "A red car"]),
        CaptionRecord(3, ["A man driving a car"]),
        CaptionRecord(4, ["A dog chasing a ball"]),
    ]
    return Corpus(records=records)


@pytest.fixture()
def itm_index(itm_corpus):
    index, _ = object_lemma_index(itm_corpus.records, Lexicons.default())
    return index


class TestItmPairs:
    def test_one_match_per_caption(self, itm_corpus, itm_index):
        record = itm_corpus.records[1]
        samples, _ = itm_pairs(record, itm_corpus, itm_index, neg_ratio=0.0, seed=0)
        matches = [s for s in samples if s.label == "match"]
        assert len(matches) == len(record.captions)
        for idx, sample in enumerate(matches):
            assert sample.image_id == 2
            assert sample.text == record.captions[idx].split()
            assert sample.provenance == f"2:{idx}"
            assert sample.targets == {}

    def test_balanced_counts_at_ratio_one(self, itm_corpus, itm_index):
        record = itm_corpus.records[0]
        samples, shortfall = itm_pairs(record, itm_corpus, itm_index, neg_ratio=1.0, seed=0)
        labels = [s.label for s in samples]
        assert labels.count("match") == 1
        assert labels.count("mismatch") == 1
        assert shortfall == 0

    def test_mismatch_sources_are_disjoint(self, itm_corpus, itm_index):
        for record in itm_corpus.records:
            samples, _ = itm_pairs(record, itm_corpus, itm_index, neg_ratio=3.0, seed=1)
            own = itm_index[record.image_id]
            for sample in samples:
                if sample.label != "mismatch":
                    continue
                source_id = int(sample.provenance.split(":")[0])
                assert source_id != record.image_id
                assert own.isdisjoint(itm_index[source_id])

    def test_shared_lemma_image_never_drawn(self, itm_corpus, itm_index):
        # image 3 shares "man" with image 1 and "car" with image 2
        record = itm_corpus.records[0]
        for seed in range(6):
            samples, _ = itm_pairs(record, itm_corpus, itm_index, neg_ratio=3.0, seed=seed)
            sources = {
                int(s.provenance.split(":")[0])
                for s in samples
                if s.label == "mismatch"
            }
            assert 3 not in sources
            assert 1 not in sources

    def test_small_pool_clamps_and_counts_shortfall(self, itm_corpus, itm_index):
        record = itm_corpus.records[0]
        # images 2 and 4 are disjoint from {man, hat}: three captions total
        samples, shortfall = itm_pairs(record, itm_corpus, itm_index, neg_ratio=5.0, seed=0)
        mismatches = [s for s in samples if s.label == "mismatch"]
        assert len(mismatches) == 3
        assert shortfall == 5 - 3

    def test_deterministic(self, itm_corpus, itm_index):
        record = itm_corpus.records[3]
        a, _ = itm_pairs(record, itm_corpus, itm_index, neg_ratio=1.0, seed=7)
        b, _ = itm_pairs(record, itm_corpus, itm_index, neg_ratio=1.0, seed=7)
        assert [(s.text, s.label, s.provenance) for s in a] == [
            (s.text, s.label, s.provenance) for s in b
        ]

    def test_mismatch_carries_record_image_id(self, itm_corpus, itm_index):
        record = itm_corpus.records[0]
        samples, _ = itm_pairs(record, itm_corpus, itm_index, neg_ratio=1.0, seed=0)
        assert all(s.image_id == 1 for s in samples)


# --- serialization -----------------------------------------------------------


class TestWriteSamples:
    def test_round_trip(self, tmp_path):
        samples = [
            mlm_mask("There is a man wearing a hat", 0, image_id=9, caption_index=0),
            mqa_mask(make_pair("When is someone competing?", "at night")),
        ]
        out = tmp_path / "samples.jsonl"
        assert write_samples(samples, out) == 2
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["task"] == "mlm"
        assert first["targets"] == {"3": "man"}
        assert "label" not in first
        second = json.loads(lines[1])
        assert second["text"][-2:] == [MASK, MASK]

    def test_itm_label_serialized(self, tmp_path, itm_corpus, itm_index):
        samples, _ = itm_pairs(itm_corpus.records[0], itm_corpus, itm_index, 1.0, 0)
        out = tmp_path / "itm.jsonl"
        write_samples(samples, out)
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert {row["label"] for row in rows} == {"match", "mismatch"}
        assert all(row["targets"] == {} for row in rows)

    def test_mask_sentinel_literal(self):
        d = sample_json_dict(mlm_mask("hat", 0))
        assert d["text"] == ["[MASK]"]
