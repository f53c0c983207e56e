"""QA rows on disk: `qa_json_line` against `json`'s own encoding of the row dict,
and what the reader turns away."""

import json
import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from capqa.answers import answer_weights, expand_answer
from capqa.errors import MalformedInput
from capqa.lingo import Lexicons
from capqa.qa import QAPair, from_json_dict, qa_json_line

LEX = Lexicons.default()
ENCODE = json.JSONEncoder(ensure_ascii=False).encode


def qa_json_dict(qa: QAPair) -> dict:
    """The row as a dict, in the on-disk key order: the oracle for qa_json_line."""
    d = {
        "qa_id": qa.qa_id,
        "image_id": qa.image_id,
        "question": qa.question,
        "answer": qa.answer,
        "answer_type": qa.answer_type,
        "source": qa.source,
        "source_caption": qa.source_caption,
        "weights": [
            {"phrase": phrase, "weight": round(float(w), 6)}
            for phrase, w in (qa.weights or [])
        ],
    }
    if qa.parent_id is not None:
        d["parent_id"] = qa.parent_id
    return d


# every code point but lone surrogates, which UTF-8 output cannot hold; the
# characters json escapes, and U+2028, drawn often
TEXT = st.text(st.characters(blacklist_categories=("Cs",))
               | st.sampled_from('"\\\n\r\t\x00\x1f\x7f  \U0001F600'))
ANSWERS = st.lists(st.sampled_from(["two", "black", "cars", "red", "dog", "3", "the",
                                    "small", "field", "apples"]), min_size=1, max_size=6)
FLOATS = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def pairs(draw):
    answer = " ".join(draw(ANSWERS))
    kind = draw(st.sampled_from(["expanded", "atomic", "floats", "none"]))
    if kind == "expanded":
        weights = expand_answer(answer, LEX)
    elif kind == "atomic":
        weights = answer_weights(QAPair("q", 1, "Is it?", "yes", "yesno", "t", "c"), LEX)
    elif kind == "floats":
        weights = draw(st.lists(st.tuples(TEXT, FLOATS | st.integers(-2**60, 2**60)
                                          .map(float)), max_size=4))
    else:
        weights = draw(st.sampled_from([None, []]))
    return QAPair(qa_id=draw(TEXT), image_id=draw(st.integers() | st.integers(-2**80, 2**80)),
                  question=draw(TEXT), answer=answer, answer_type=draw(TEXT),
                  source=draw(TEXT), source_caption=draw(TEXT), weights=weights,
                  parent_id=draw(st.none() | TEXT))


@given(pairs())
@settings(max_examples=300, deadline=None)
def test_line_is_json_encoding_of_row_dict(qa):
    line = qa_json_line(qa)
    assert line == ENCODE(qa_json_dict(qa))
    assert "\n" not in line


@given(pairs())
@settings(max_examples=50, deadline=None)
def test_unpickled_weights_give_same_line(qa):
    # a Fraction unpickled from a worker is not in the shared table
    assert qa_json_line(pickle.loads(pickle.dumps(qa))) == qa_json_line(qa)


def test_line_keeps_key_order_and_parent_last():
    qa = QAPair(qa_id="a1", image_id=7, question='Say "hi"?', answer="two cars",
                answer_type="number", source="template", source_caption="Two cars.",
                weights=expand_answer("two cars", LEX)[:2], parent_id="p0")
    assert qa_json_line(qa) == (
        '{"qa_id": "a1", "image_id": 7, "question": "Say \\"hi\\"?", "answer": "two cars", '
        '"answer_type": "number", "source": "template", "source_caption": "Two cars.", '
        '"weights": [{"phrase": "two cars", "weight": 1.0}, '
        '{"phrase": "2", "weight": 0.5}], "parent_id": "p0"}')


def test_weights_read_back_round_to_same_text():
    qa = QAPair("q", 1, "What?", "two black cars", "object", "t", "c",
                weights=expand_answer("two black cars", LEX))
    line = qa_json_line(qa)
    again = from_json_dict(json.loads(line))
    assert all(type(w) is float for _, w in again.weights)
    assert qa_json_line(again) == line


@pytest.mark.parametrize("weight", [math.nan, math.inf, -math.inf, 10 ** 400, -10 ** 309])
def test_non_finite_weight_rejected(weight):
    row = qa_json_dict(QAPair("q", 1, "What?", "yes", "yesno", "t", "c"))
    row["weights"] = [{"phrase": "yes", "weight": weight}]
    with pytest.raises(MalformedInput, match="finite number"):
        from_json_dict(row)


def test_largest_finite_weights_kept():
    row = qa_json_dict(QAPair("q", 1, "What?", "yes", "yesno", "t", "c"))
    row["weights"] = [{"phrase": "a", "weight": 1.7976931348623157e308},
                      {"phrase": "b", "weight": -(2 ** 1023)}]
    assert [w for _, w in from_json_dict(row).weights] == [1.7976931348623157e308,
                                                           -float(2 ** 1023)]
