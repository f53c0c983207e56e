"""Semantic-role frame loading and question rendering."""

import json

import pytest

from capqa.corpus import CaptionRecord, Corpus
from capqa.errors import MalformedInput
from capqa.lingo import Lexicons
from capqa.srl import SrlArg, SrlFrame, SrlPredicate, animacy, load_frames, render_qa

LEX = Lexicons.default()
GIRL = "A girl in a red shirt holding an apple sitting in an empty open field"
CARS = "two black cars were parked on the street"


def span(caption, sub):
    i = caption.index(sub)
    return (i, i + len(sub))


def frame(caption, image_id, lemma, verb, args, caption_index=0):
    return SrlFrame(
        image_id=image_id,
        caption_index=caption_index,
        predicate=SrlPredicate(lemma=lemma, span=span(caption, verb)),
        args=tuple(SrlArg(role=r, text=t, span=span(caption, t)) for r, t in args),
        caption=caption,
    )


def hold_frame():
    return frame(
        GIRL, 7, "hold", "holding",
        [("AGENT", "girl in a red shirt"), ("PATIENT", "an apple")],
    )


def sit_frame():
    return frame(
        GIRL, 7, "sit", "sitting",
        [("AGENT", "girl in a red shirt holding an apple"),
         ("LOCATION", "an empty open field")],
    )


class TestRender:
    def test_patient_question_with_generic_agent(self):
        out = {(p.question, p.answer) for p in render_qa(hold_frame(), LEX)}
        assert ("What is someone holding?", "an apple") in out

    def test_agent_question_drops_unqueried_location(self):
        out = render_qa(sit_frame(), LEX)
        assert [(p.question, p.answer) for p in out] == [
            ("Who is sitting?", "girl in a red shirt holding an apple"),
            ("Where is someone sitting?", "an empty open field"),
        ]

    def test_pair_fields(self):
        (agent_pair, _) = render_qa(sit_frame(), LEX)
        assert agent_pair.answer_type == "phrase"
        assert agent_pair.source == "srl"
        assert agent_pair.image_id == 7
        assert agent_pair.source_caption == GIRL

    def test_past_tense_aux_and_postverbal_patient(self):
        f = frame(CARS, 9, "park", "parked",
                  [("PATIENT", "two black cars"), ("LOCATION", "the street")])
        assert [(p.question, p.answer) for p in render_qa(f, LEX)] == [
            ("What was parked?", "two black cars"),
            ("Where was parked something?", "the street"),
        ]

    def test_progressive_inflection_fallback(self):
        caption = "a man sits on a bench"
        f = frame(caption, 3, "sit", "sits", [("AGENT", "a man")])
        (pair,) = render_qa(f, LEX)
        assert pair.question == "Who is sitting?"

    def test_other_role_not_queried(self):
        caption = "a man runs with a dog"
        f = frame(caption, 3, "run", "runs",
                  [("AGENT", "a man"), ("OTHER", "with a dog")])
        questions = [p.question for p in render_qa(f, LEX)]
        assert questions == ["Who is running?"]

    def test_at_most_one_pair_per_arg(self):
        for f in (hold_frame(), sit_frame()):
            assert len(render_qa(f, LEX)) <= len(f.args)

    def test_wh_word_is_pure_function_of_role(self):
        seen = {}
        for f in (hold_frame(), sit_frame()):
            for arg, pair in zip(
                [a for a in f.args if a.role != "OTHER"], render_qa(f, LEX)
            ):
                wh = pair.question.split(" ")[0]
                assert seen.setdefault(arg.role, wh) == wh

    def test_answers_are_verbatim_caption_substrings(self):
        for f in (hold_frame(), sit_frame()):
            for pair in render_qa(f, LEX):
                assert pair.answer in f.caption

    def test_qa_ids_unique_across_frames(self):
        ids = [p.qa_id for f in (hold_frame(), sit_frame()) for p in render_qa(f, LEX)]
        assert len(ids) == len(set(ids))

    def test_no_args_renders_nothing(self):
        f = SrlFrame(
            image_id=1, caption_index=0,
            predicate=SrlPredicate(lemma="sit", span=(0, 3)),
            args=(), caption="sitting",
        )
        assert render_qa(f, LEX) == []


class TestAnimacy:
    def test_person_phrase(self):
        assert animacy("a girl in a red shirt", LEX) == "animate"

    def test_animal_phrase(self):
        assert animacy("a small dog", LEX) == "animate"

    def test_object_phrase(self):
        assert animacy("two black cars", LEX) == "inanimate"

    def test_empty_rejected(self):
        with pytest.raises(MalformedInput):
            animacy("   ", LEX)


# --- loading ------------------------------------------------------------------


def corpus():
    return Corpus(records=[
        CaptionRecord(image_id=7, captions=[GIRL]),
        CaptionRecord(image_id=9, captions=["a dog", CARS]),
    ])


def frame_dict(image_id=7, caption_index=0, lemma="sit", verb_span=None,
               args=None, caption=GIRL):
    verb_span = verb_span or list(span(caption, "sitting"))
    if args is None:
        args = [
            {"role": "AGENT", "text": "girl in a red shirt holding an apple",
             "span": list(span(caption, "girl in a red shirt holding an apple"))},
            {"role": "ARGM-LOC", "text": "an empty open field",
             "span": list(span(caption, "an empty open field"))},
        ]
    return {
        "image_id": image_id,
        "caption_index": caption_index,
        "predicate": {"lemma": lemma, "span": verb_span},
        "args": args,
    }


def write_frames(path, dicts):
    path.write_text("".join(json.dumps(d) + "\n" for d in dicts), encoding="utf-8")
    return path


def test_load_resolves_and_maps_propbank(tmp_path):
    path = write_frames(tmp_path / "frames.jsonl", [frame_dict()])
    (f,) = load_frames(path, corpus())
    assert f.caption == GIRL
    assert [a.role for a in f.args] == ["AGENT", "LOCATION"]
    assert ("Where is someone sitting?", "an empty open field") in {
        (p.question, p.answer) for p in render_qa(f, LEX)
    }


def test_load_propbank_core_labels(tmp_path):
    d = frame_dict(args=[
        {"role": "ARG0", "text": "girl", "span": [2, 6]},
        {"role": "ARG1", "text": "an apple", "span": list(span(GIRL, "an apple"))},
        {"role": "ARGM-DIR", "text": "in", "span": [7, 9]},
    ])
    path = write_frames(tmp_path / "frames.jsonl", [d])
    (f,) = load_frames(path, corpus())
    assert [a.role for a in f.args] == ["AGENT", "PATIENT", "OTHER"]


def test_unknown_image_dropped_with_count(tmp_path, caplog):
    dicts = [frame_dict(), frame_dict(image_id=404)]
    path = write_frames(tmp_path / "frames.jsonl", dicts)
    with caplog.at_level("WARNING"):
        frames = load_frames(path, corpus())
    assert len(frames) == 1
    assert any("1" in rec.message for rec in caplog.records)


def test_unknown_caption_index_dropped(tmp_path):
    path = write_frames(tmp_path / "frames.jsonl", [frame_dict(caption_index=5)])
    assert load_frames(path, corpus()) == []


def test_span_overflow_rejected(tmp_path):
    path = write_frames(
        tmp_path / "frames.jsonl", [frame_dict(verb_span=[0, 10_000])]
    )
    with pytest.raises(MalformedInput):
        load_frames(path, corpus())


def test_duplicate_agent_rejected(tmp_path):
    d = frame_dict(args=[
        {"role": "AGENT", "text": "girl", "span": [2, 6]},
        {"role": "AGENT", "text": "apple", "span": [22, 27]},
    ])
    path = write_frames(tmp_path / "frames.jsonl", [d])
    with pytest.raises(MalformedInput):
        load_frames(path, corpus())


def test_repeated_frame_rejected_with_its_line(tmp_path):
    """Pair ids are keyed on caption, predicate lemma and predicate start, so
    a second frame with the same key would repeat the first frame's ids."""
    hold = frame_dict(lemma="hold", verb_span=list(span(GIRL, "holding")), args=[
        {"role": "AGENT", "text": "girl in a red shirt",
         "span": list(span(GIRL, "girl in a red shirt"))},
        {"role": "PATIENT", "text": "an apple", "span": list(span(GIRL, "an apple"))},
    ])
    path = write_frames(tmp_path / "frames.jsonl", [hold, frame_dict(), hold])
    with pytest.raises(MalformedInput, match=r"frames\.jsonl:3: repeated frame"):
        load_frames(path, corpus())


def test_same_predicate_on_other_caption_or_start_kept(tmp_path):
    dicts = [
        frame_dict(),
        frame_dict(lemma="hold"),  # another lemma at the same start
        frame_dict(verb_span=list(span(GIRL, "holding"))),  # another start
        frame_dict(image_id=404),  # dropped, so it repeats nothing
        frame_dict(image_id=404),
    ]
    path = write_frames(tmp_path / "frames.jsonl", dicts)
    assert len(load_frames(path, corpus())) == 3


def test_empty_arg_text_rejected(tmp_path):
    d = frame_dict(args=[{"role": "AGENT", "text": "", "span": [0, 0]}])
    path = write_frames(tmp_path / "frames.jsonl", [d])
    with pytest.raises(MalformedInput):
        load_frames(path, corpus())


def test_unknown_role_label_rejected(tmp_path):
    d = frame_dict(args=[{"role": "banana", "text": "girl", "span": [2, 6]}])
    path = write_frames(tmp_path / "frames.jsonl", [d])
    with pytest.raises(MalformedInput):
        load_frames(path, corpus())


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "frames.jsonl"
    path.write_text("{not json}\n", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_frames(path, corpus())


def test_missing_file_rejected(tmp_path):
    with pytest.raises(MalformedInput):
        load_frames(tmp_path / "absent.jsonl", corpus())


def test_second_caption_resolves(tmp_path):
    d = frame_dict(
        image_id=9, caption_index=1, lemma="park",
        verb_span=list(span(CARS, "parked")),
        args=[{"role": "ARG1", "text": "two black cars",
               "span": list(span(CARS, "two black cars"))}],
        caption=CARS,
    )
    path = write_frames(tmp_path / "frames.jsonl", [d])
    (f,) = load_frames(path, corpus())
    assert f.caption == CARS
    (pair,) = render_qa(f, LEX)
    assert (pair.question, pair.answer) == ("What was parked?", "two black cars")
