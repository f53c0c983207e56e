"""Template question generation: golden rule traces plus generator invariants."""

import random

import numpy as np
import pytest

from capqa.config import PipelineConfig
from capqa.corpus import CaptionRecord
from capqa.embed import Candidates, make_store
from capqa.errors import MalformedInput, Unsupported
from capqa.lingo import Lexicons, analyze, object_lemma_index
from capqa.qa import QAPair
from capqa.qgen import (
    adversarial_qa,
    build_object_vocab,
    gen_color,
    gen_location,
    gen_number,
    gen_object,
    gen_yesno,
    negate_qa,
)

LEX = Lexicons.default()


def ana(caption):
    return analyze(caption, LEX)


def lemmas_of(record):
    """Head lemmas of every caption of the record, as generate computes them."""
    index, _ = object_lemma_index([record], LEX)
    return index[record.image_id]


def qa_tuples(pairs):
    return [(p.question, p.answer) for p in pairs]


def make_pair(question, answer, answer_type, caption="", qa_id="t0", image_id=1):
    return QAPair(
        qa_id=qa_id,
        image_id=image_id,
        question=question,
        answer=answer,
        answer_type=answer_type,
        source="template",
        source_caption=caption or question,
    )


# --- yes/no -----------------------------------------------------------------

class TestYesNo:
    CAPTION = "A man is wearing a hat and sitting"

    def store(self):
        # dog is the only near neighbour of man; hat is orthogonal
        return make_store(
            {
                "man": np.array([1.0, 0.0, 0.0]),
                "dog": np.array([0.9, 0.2, 0.0]),
                "hat": np.array([0.0, 1.0, 0.0]),
            }
        )

    def test_positive_and_adversarial_negative(self):
        cfg = PipelineConfig(seed=0, yesno_prefixes=["is there"], negative_mode="adversarial")
        record = CaptionRecord(image_id=1, captions=[self.CAPTION])
        store = self.store()
        pairs = gen_yesno(record, 0, ana(self.CAPTION), cfg, LEX, store=store,
                          object_vocab=Candidates(store, store.vocab_order),
                          record_lemmas=lemmas_of(record))
        assert qa_tuples(pairs) == [
            ("Is there a man wearing a hat and sitting?", "yes"),
            ("Is there a dog wearing a hat and sitting?", "no"),
        ]
        yes, no = pairs
        assert yes.answer_type == no.answer_type == "yesno"
        assert yes.source == "template"
        assert no.source == "adversarial"
        assert no.parent_id == yes.qa_id
        assert yes.source_caption == no.source_caption == self.CAPTION

    def test_negation_negative_when_no_store(self):
        cfg = PipelineConfig(seed=0, yesno_prefixes=["is there"], negative_mode="negation")
        record = CaptionRecord(image_id=1, captions=[self.CAPTION])
        pairs = gen_yesno(record, 0, ana(self.CAPTION), cfg, LEX)
        assert qa_tuples(pairs) == [
            ("Is there a man wearing a hat and sitting?", "yes"),
            ("Is there no man wearing a hat and sitting?", "no"),
        ]
        assert pairs[1].source == "negation"

    def test_auto_mode_always_pairs_one_no(self):
        cfg = PipelineConfig(seed=7, negative_mode="auto")
        record = CaptionRecord(image_id=3, captions=[self.CAPTION])
        store = self.store()
        pairs = gen_yesno(record, 0, ana(self.CAPTION), cfg, LEX, store=store,
                          object_vocab=Candidates(store, store.vocab_order),
                          record_lemmas=lemmas_of(record))
        assert len(pairs) == 2
        assert [p.answer for p in pairs] == ["yes", "no"]

    @pytest.mark.parametrize("missing", ["object_vocab", "record_lemmas"])
    def test_store_without_vocabulary_rejected(self, missing):
        cfg = PipelineConfig(seed=0, negative_mode="adversarial")
        record = CaptionRecord(image_id=1, captions=[self.CAPTION])
        store = self.store()
        kwargs = {"object_vocab": Candidates(store, store.vocab_order),
                  "record_lemmas": lemmas_of(record)}
        del kwargs[missing]
        with pytest.raises(TypeError, match="object_vocab and record_lemmas"):
            gen_yesno(record, 0, ana(self.CAPTION), cfg, LEX, store=store, **kwargs)

    def test_plural_subject_gets_plural_prefix(self):
        cfg = PipelineConfig(seed=0, yesno_prefixes=["is there"], negative_mode="negation")
        record = CaptionRecord(image_id=1, captions=["Two dogs are sitting"])
        pairs = gen_yesno(record, 0, ana("Two dogs are sitting"), cfg, LEX)
        assert pairs[0].question == "Are there two dogs sitting?"
        assert pairs[0].answer == "yes"

    def test_the_prefix_drops_leading_article(self):
        cfg = PipelineConfig(seed=0, yesno_prefixes=["is the"], negative_mode="negation")
        record = CaptionRecord(image_id=1, captions=[self.CAPTION])
        pairs = gen_yesno(record, 0, ana(self.CAPTION), cfg, LEX)
        assert pairs[0].question == "Is the man wearing a hat and sitting?"

    @pytest.mark.parametrize("prefix, question, negated", [
        ("is there", "Are there four frisbees in the field?",
         "Are there no four frisbees in the field?"),
        ("is this", "Are these four frisbees in the field?",
         "Are these not four frisbees in the field?"),
        ("is the", "Are the four frisbees in the field?",
         "Are the four frisbees not in the field?"),
        ("are there", "Are there four frisbees in the field?",
         "Are there no four frisbees in the field?"),
    ], ids=["is_there", "is_this", "is_the", "are_there"])
    def test_existential_there_dropped(self, prefix, question, negated):
        caption = "There are four frisbees in the field."
        cfg = PipelineConfig(seed=0, yesno_prefixes=[prefix], negative_mode="negation")
        record = CaptionRecord(image_id=1, captions=[caption])
        pairs = gen_yesno(record, 0, ana(caption), cfg, LEX)
        assert qa_tuples(pairs) == [(question, "yes"), (negated, "no")]

    def test_no_noun_phrase_yields_nothing(self):
        cfg = PipelineConfig(seed=0)
        record = CaptionRecord(image_id=1, captions=["sitting and waiting"])
        pairs = gen_yesno(record, 0, ana("sitting and waiting"), cfg, LEX)
        assert pairs == []

    def test_prefix_choice_is_seeded(self):
        record = CaptionRecord(image_id=9, captions=[self.CAPTION])
        a = gen_yesno(record, 0, ana(self.CAPTION), PipelineConfig(seed=5), LEX)
        b = gen_yesno(record, 0, ana(self.CAPTION), PipelineConfig(seed=5), LEX)
        assert qa_tuples(a) == qa_tuples(b)
        seen = set()
        for seed in range(24):
            out = gen_yesno(record, 0, ana(self.CAPTION), PipelineConfig(seed=seed), LEX)
            seen.add(out[0].question.split(" ")[1])
        assert len(seen) > 1  # more than one prefix is actually reachable


# --- object -----------------------------------------------------------------

class TestObject:
    def run(self, caption, image_id=1):
        record = CaptionRecord(image_id=image_id, captions=[caption])
        return gen_object(record, 0, ana(caption), LEX)

    def test_subject_replacement(self):
        pairs = self.run("bags are set on the sidewalk outside a veterinary hospital")
        assert qa_tuples(pairs)[0] == (
            "What are set on the sidewalk outside a veterinary hospital?",
            "bags",
        )

    def test_nonsubject_replacement_with_person_subject_skipped(self):
        pairs = self.run("The young man holding up a phone in front of his face")
        assert qa_tuples(pairs) == [
            ("What is the young man holding up in front of his face?", "phone")
        ]

    def test_inserted_copula_for_bare_subject(self):
        pairs = self.run("A glass almost empty on the table")
        assert qa_tuples(pairs)[0] == ("What is almost empty on the table?", "glass")
        assert pairs[1].answer == "table"

    def test_compound_noun_inplace_replacement(self):
        pairs = self.run("horse drawn carriage with passengers in the city")
        assert (
            "What drawn carriage with passengers in the city?",
            "horse",
        ) in qa_tuples(pairs)

    def test_single_np_caption(self):
        assert qa_tuples(self.run("A red car.")) == [("What is this?", "red car")]

    def test_single_np_plural_agreement(self):
        assert qa_tuples(self.run("Three dogs.")) == [("What are these?", "three dogs")]

    def test_long_question_truncated_at_conjunction(self):
        caption = (
            "a ball is on the rug in the living room and a lamp stands "
            "by the door next to the window"
        )
        pairs = self.run(caption)
        assert pairs
        assert " and " not in pairs[0].question
        assert pairs[0].question.endswith("?")

    def test_possessive_np_never_answers(self):
        pairs = self.run("A woman brushing her hair")
        assert all(p.answer != "hair" for p in pairs)

    def test_next_to_is_a_preposition(self):
        caption = "Five kunutans resting next to the bike."
        assert all(p.answer != "next" for p in all_pairs_for(caption))
        assert ("What are the five kunutans resting next to?", "bike") in qa_tuples(
            self.run(caption)
        )

    @pytest.mark.parametrize("caption, expected", [
        ("A dog sitting close to the fence",
         [("What is sitting close to the fence?", "dog"),
          ("What is the dog sitting close to?", "fence")]),
        ("Three boats anchored close to shore",
         [("What are anchored close to shore?", "three boats"),
          ("What are the three boats anchored close to?", "shore")]),
        ("A close up of a pizza", []),
        ("A man about to close the door", [("What is the man about to close?", "door")]),
    ], ids=["close_to_fence", "close_to_shore", "close_up", "about_to_close"])
    def test_close_and_about_are_not_nouns(self, caption, expected):
        assert qa_tuples(self.run(caption)) == expected
        assert all(p.answer not in ("close", "about") for p in all_pairs_for(caption))

    @pytest.mark.parametrize("caption", [
        "Next to the bench is a dog",
        "On the table is a red vase",
    ])
    def test_object_before_subject_skipped(self, caption):
        assert qa_tuples(self.run(caption)) == []


# --- number -----------------------------------------------------------------

NUMBER_FRAMES = ("How many ", "What is the count of ")


class TestNumber:
    def run(self, caption, seed=0):
        record = CaptionRecord(image_id=1, captions=[caption])
        return gen_number(record, 0, ana(caption), PipelineConfig(seed=seed), LEX)

    def test_digit_quantifier_with_trailing_phrase(self):
        pairs = self.run("8 boats anchored by ropes close to shore")
        assert len(pairs) == 1
        q, a = pairs[0].question, pairs[0].answer
        assert a == "8"
        assert q in {
            "How many boats are anchored by ropes close to shore?",
            "What is the count of boats anchored by ropes close to shore?",
        }

    def test_word_quantifier_and_participle_copula(self):
        pairs = self.run("two black cars parked")
        assert len(pairs) == 1
        q, a = pairs[0].question, pairs[0].answer
        assert a == "2"
        assert q in {
            "How many black cars are parked?",
            "What is the count of black cars parked?",
        }
        assert pairs[0].answer_type == "number"

    @pytest.mark.parametrize("caption, how_many", [
        ("Two men sitting on a bench", "How many men are sitting on a bench?"),
        ("Three horses grazing in a field", "How many horses are grazing in a field?"),
        ("Two dogs play", "How many dogs play?"),
        ("Two men sat on a bench", "How many men sat on a bench?"),
    ])
    def test_how_many_copula_only_before_participle(self, caption, how_many):
        questions = {self.run(caption, seed)[0].question for seed in range(20)}
        assert how_many in questions

    def test_one_pair_per_quantified_np(self):
        pairs = self.run("two dogs and three cats")
        assert [p.answer for p in pairs] == ["2", "3"]
        for p in pairs:
            assert p.question.startswith(NUMBER_FRAMES)
            assert " and " not in p.question

    def test_bare_np_question_is_complete(self):
        pairs = self.run("two dogs and three cats")
        how_many = [p for p in pairs if p.question.startswith("How many ")]
        for p in how_many:
            assert p.question.endswith(("are there?", "?"))

    def test_vague_quantifier_skipped(self):
        assert self.run("Several bags on a bench") == []

    def test_no_quantifier_no_pairs(self):
        assert self.run("A man wearing a hat") == []

    def test_answers_always_digits(self):
        for caption in (
            "five ducks in a pond",
            "12 cars on the road",
            "one man and two women",
        ):
            for p in self.run(caption):
                assert p.answer.isdigit()


# --- color ------------------------------------------------------------------

class TestColor:
    def run(self, caption):
        record = CaptionRecord(image_id=1, captions=[caption])
        return gen_color(record, 0, ana(caption))

    def test_color_np_mid_caption(self):
        caption = "A girl in a red shirt holding an apple sitting in an empty open field"
        assert qa_tuples(self.run(caption)) == [("What is the color of the shirt?", "red")]

    def test_white_table(self):
        assert qa_tuples(self.run("A vase on a white table")) == [
            ("What is the color of the table?", "white")
        ]

    def test_bare_plural_object(self):
        assert qa_tuples(self.run("A man with blue eyes")) == [
            ("What is the color of the eyes?", "blue")
        ]

    def test_no_color_no_pairs(self):
        assert self.run("A man wearing a hat") == []

    def test_answer_type(self):
        (pair,) = self.run("a green apple")
        assert pair.answer_type == "color"


# --- location ---------------------------------------------------------------

class TestLocation:
    def run(self, caption):
        record = CaptionRecord(image_id=1, captions=[caption])
        return gen_location(record, 0, ana(caption), LEX)

    def test_verb_before_location(self):
        caption = "A girl in a red shirt holding an apple sitting in an empty open field"
        assert qa_tuples(self.run(caption)) == [
            ("Where is the girl sitting?", "an empty open field")
        ]

    def test_nominal_pre_location_span(self):
        caption = "horse drawn carriage with passengers in the city"
        assert qa_tuples(self.run(caption)) == [
            ("Where is the horse drawn carriage with passengers?", "the city")
        ]

    def test_non_location_in_phrase_ignored(self):
        assert self.run("A man in a blue jacket") == []

    def test_in_phrase_answer_spans_modifiers(self):
        (pair,) = self.run("A horse grazing in an empty open field")
        assert pair.answer == "an empty open field"

    def test_in_phrase_with_non_location_head(self):
        assert "shirt" not in LEX.locations
        assert self.run("A man in a red shirt") == []
        assert qa_tuples(self.run("A man in a red shirt sitting in the park")) == [
            ("Where is the man sitting?", "the park")
        ]

    def test_answer_keeps_determiner(self):
        (pair,) = self.run("A dog sleeping in the kitchen")
        assert pair.answer == "the kitchen"
        assert pair.answer_type == "location"

    def test_within_counts_as_in(self):
        assert qa_tuples(self.run("A bench within the park")) == [
            ("Where is the bench?", "the park")
        ]

    def test_other_prepositions_ignored(self):
        assert "grass" in LEX.locations
        assert self.run("A dog on the grass") == []

    def test_subject_gets_definite_article(self):
        assert self.run("A hat in the room")[0].question == "Where is the hat?"
        assert self.run("An apple in the room")[0].question == "Where is the apple?"
        assert self.run("The table in the room")[0].question == "Where is the table?"
        assert self.run("Hats in the room")[0].question == "Where are the hats?"


# --- negation ---------------------------------------------------------------

class TestNegate:
    def negate(self, pair, seed=0):
        return negate_qa(pair, ana(pair.source_caption), LEX, PipelineConfig(seed=seed))

    def test_demonstrative(self):
        out = self.negate(make_pair("Is this bread?", "yes", "yesno", "bread"))
        assert (out.question, out.answer) == ("Is this not bread?", "no")
        assert out.source == "negation"
        assert out.parent_id == "t0"

    def test_existential_article_becomes_no(self):
        out = self.negate(make_pair("Is there a boy?", "no", "yesno", "a boy"))
        assert (out.question, out.answer) == ("Is there no boy?", "yes")

    def test_existential_without_article(self):
        out = self.negate(make_pair("Is there snow?", "yes", "yesno", "snow"))
        assert (out.question, out.answer) == ("Is there no snow?", "no")

    def test_subject_np_insertion(self):
        out = self.negate(
            make_pair("Is the man wearing a hat?", "yes", "yesno", "the man")
        )
        assert (out.question, out.answer) == ("Is the man not wearing a hat?", "no")

    @pytest.mark.parametrize("question, negated", [
        ("Is the bus stop sign red?", "Is the bus stop sign not red?"),
        ("Is the small cat sitting on the yard?", "Is the small cat not sitting on the yard?"),
        ("Are two dogs, a cat and a man sitting?", "Are two dogs not, a cat and a man sitting?"),
        ("Is it red?", "Is not it red?"),
    ], ids=["compound_noun", "adjective", "first_phrase_only", "no_noun"])
    def test_not_goes_after_first_noun_phrase(self, question, negated):
        out = self.negate(make_pair(question, "yes", "yesno", question))
        assert out.question == negated

    def test_color_uses_antonym_when_available(self):
        pair = make_pair(
            "What is the color of the woman's shirt?", "black", "color", "shirt"
        )
        out = self.negate(pair)
        assert out.question == "What is not the color of the woman's shirt?"
        assert out.answer == "white"

    def test_color_without_antonym_draws_other_color(self):
        pair = make_pair("What is the color of the vase?", "teal", "color", "vase")
        out = self.negate(pair)
        assert out.answer in LEX.colors - {"teal"}
        again = self.negate(pair)
        assert again.answer == out.answer  # seeded draw is stable

    def test_unsupported_type(self):
        with pytest.raises(Unsupported):
            self.negate(make_pair("How many dogs are there?", "2", "number", "dogs"))


# --- adversarial ------------------------------------------------------------

class TestAdversarial:
    def test_number_question_remaps_to_none(self):
        caption = "Two puppies are on the bed"
        record = CaptionRecord(image_id=1, captions=[caption])
        store = make_store(
            {
                "puppy": np.array([1.0, 0.0, 0.0]),
                "cat": np.array([0.8, 0.6, 0.0]),
                "bed": np.array([0.0, 1.0, 0.0]),
                "blanket": np.array([0.0, 0.1, 1.0]),
            }
        )
        pair = make_pair("How many puppies are on the bed?", "two", "number", caption)
        out = adversarial_qa(
            pair, ana(caption), store, Candidates(store, {"cat", "bed", "blanket", "puppy"}),
            lemmas_of(record),
            PipelineConfig(seed=0),
        )
        assert (out.question, out.answer) == ("How many cats are on the bed?", "none")
        assert out.source == "adversarial"
        assert out.parent_id == pair.qa_id

    def test_multiword_substitute_and_cant_say(self):
        caption = "A man is sitting in the boat"
        record = CaptionRecord(image_id=2, captions=[caption])
        store = make_store(
            {
                "man": np.array([0.0, 0.0, 1.0]),
                "boat": np.array([1.0, 0.0, 0.0]),
                "dining table": np.array([0.7, 0.7, 0.0]),
                "sofa": np.array([0.5, 0.9, 0.0]),
            }
        )
        pair = make_pair("Who is sitting in the boat?", "man", "phrase", caption)
        out = adversarial_qa(
            pair, ana(caption), store,
            Candidates(store, {"dining table", "sofa", "man", "boat"}), lemmas_of(record),
            PipelineConfig(seed=0),
        )
        assert (out.question, out.answer) == (
            "Who is sitting in the dining table?",
            "can't say",
        )

    def test_substitute_lemma_absent_from_every_caption(self):
        captions = ["Two puppies are on the bed", "A puppy chasing a ball"]
        record = CaptionRecord(image_id=3, captions=captions)
        store = make_store(
            {
                "puppy": np.array([1.0, 0.0]),
                "ball": np.array([0.0, 1.0]),
                "kitten": np.array([0.9, 0.4]),
            }
        )
        pair = make_pair("How many puppies are on the bed?", "two", "number", captions[0])
        out = adversarial_qa(
            pair, ana(captions[0]), store, Candidates(store, {"puppy", "ball", "kitten"}),
            lemmas_of(record),
            PipelineConfig(seed=0),
        )
        assert out is not None
        sub = out.question.split(" ")[2]
        assert sub == "kittens"
        lemmas = set()
        for c in captions:
            _, nps = ana(c)
            lemmas |= {np_.head.lemma for np_ in nps}
        assert "kitten" not in lemmas

    def test_below_threshold_yields_none(self):
        caption = "A dog on the grass"
        record = CaptionRecord(image_id=4, captions=[caption])
        store = make_store(
            {"dog": np.array([1.0, 0.0]), "pencil": np.array([0.1, 0.995])}
        )
        pair = make_pair("Is there a dog?", "yes", "yesno", caption)
        out = adversarial_qa(
            pair, ana(caption), store, Candidates(store, {"pencil", "dog"}), lemmas_of(record),
            PipelineConfig(seed=0),
        )
        assert out is None

    def test_oov_object_yields_none(self):
        caption = "A zebra in the zoo"
        record = CaptionRecord(image_id=5, captions=[caption])
        store = make_store({"cat": np.array([1.0, 0.0]), "dog": np.array([0.9, 0.1])})
        pair = make_pair("Is there a zebra?", "yes", "yesno", caption)
        out = adversarial_qa(
            pair, ana(caption), store, Candidates(store, {"cat", "dog"}), lemmas_of(record),
            PipelineConfig(seed=0),
        )
        assert out is None

    def test_yesno_remap(self):
        caption = "A dog on the grass"
        record = CaptionRecord(image_id=6, captions=[caption])
        store = make_store({"dog": np.array([1.0, 0.0]), "cat": np.array([0.9, 0.1])})
        pair = make_pair("Is there a dog?", "yes", "yesno", caption)
        out = adversarial_qa(
            pair, ana(caption), store, Candidates(store, {"cat", "dog"}), lemmas_of(record),
            PipelineConfig(seed=0),
        )
        assert (out.question, out.answer) == ("Is there a cat?", "no")
        assert out.answer_type == "yesno"


# --- config and shared invariants -------------------------------------------

def test_config_validation():
    with pytest.raises(MalformedInput):
        PipelineConfig(seed=0, yesno_prefixes=[])
    with pytest.raises(MalformedInput):
        PipelineConfig(seed=0, adversarial_threshold=1.5)
    with pytest.raises(MalformedInput):
        PipelineConfig(seed=0, max_questions_per_caption=0)
    with pytest.raises(MalformedInput):
        PipelineConfig(seed=0, negative_mode="bogus")
    with pytest.raises(MalformedInput):
        PipelineConfig(seed=0, vocab_limit=0)
    cfg = PipelineConfig(seed=0)
    assert cfg.adversarial_threshold == 0.4
    assert list(cfg.yesno_prefixes) == ["is there", "is this", "is the", "are there"]


def test_build_object_vocab_caps_and_orders():
    from collections import Counter

    counts = Counter({"cat": 5, "dog": 5, "emu": 2, "ant": 1})
    assert build_object_vocab(counts, limit=2) == {"cat", "dog"}
    assert build_object_vocab(counts, limit=3) == {"cat", "dog", "emu"}
    assert build_object_vocab(counts) == {"cat", "dog", "emu", "ant"}


FUZZ_CAPTIONS = [
    "A man is wearing a hat and sitting",
    "Two dogs are playing in the park",
    "Several bags are set on a bench",
    "The young man holding up a phone in front of his face",
    "8 boats anchored by ropes close to shore",
    "A girl in a red shirt holding an apple sitting in an empty open field",
    "horse drawn carriage with passengers in the city",
    "A vase on a white table",
    "three cats sleeping on a blue sofa in the living room",
    "An old truck parked near a barn",
    "A red car.",
    "people walking across a bridge at sunset",
]


def all_pairs_for(caption, seed=0):
    record = CaptionRecord(image_id=11, captions=[caption])
    analysis = ana(caption)
    cfg = PipelineConfig(seed=seed, negative_mode="negation")
    pairs = []
    pairs += gen_yesno(record, 0, analysis, cfg, LEX)
    pairs += gen_object(record, 0, analysis, LEX)
    pairs += gen_number(record, 0, analysis, cfg, LEX)
    pairs += gen_color(record, 0, analysis)
    pairs += gen_location(record, 0, analysis, LEX)
    return pairs


def test_question_hygiene_across_generators():
    for caption in FUZZ_CAPTIONS:
        for p in all_pairs_for(caption):
            assert p.question.endswith("?"), p.question
            assert "  " not in p.question, p.question
            assert " ?" not in p.question, p.question
            assert p.answer, p.question
            assert p.question[0].isupper()


def test_generation_is_deterministic():
    for caption in FUZZ_CAPTIONS:
        first = [(p.qa_id, p.question, p.answer) for p in all_pairs_for(caption, seed=3)]
        second = [(p.qa_id, p.question, p.answer) for p in all_pairs_for(caption, seed=3)]
        assert first == second


def test_seed_changes_reach_output():
    questions = {
        tuple(p.question for p in all_pairs_for("two black cars parked", seed=s))
        for s in range(16)
    }
    assert len(questions) > 1


def test_yes_no_balance_per_caption():
    rng = random.Random(0)
    yes = no = 0
    for caption in FUZZ_CAPTIONS * 3:
        record = CaptionRecord(image_id=rng.randrange(1000), captions=[caption])
        analysis = ana(caption)
        pairs = gen_yesno(record, 0, analysis, PipelineConfig(seed=rng.randrange(1 << 32)), LEX)
        yes += sum(1 for p in pairs if p.answer == "yes")
        no += sum(1 for p in pairs if p.answer == "no")
    assert yes == no


def test_qa_ids_are_unique_and_stable():
    ids = [p.qa_id for p in all_pairs_for("three cats sleeping on a blue sofa in the living room")]
    assert len(ids) == len(set(ids))
    for qa_id in ids:
        assert len(qa_id) == 16
        int(qa_id, 16)
