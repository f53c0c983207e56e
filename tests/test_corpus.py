import json

import pytest
from hypothesis import given, strategies as st

from capqa.corpus import CaptionRecord, Corpus, load_coco
from capqa.errors import EmptyCorpus, MalformedInput


def write_coco(tmp_path, annotations, images=None, name="caps.json"):
    doc = {"annotations": annotations}
    if images is not None:
        doc["images"] = images
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return p


def test_single_annotation(tmp_path):
    p = write_coco(tmp_path, [{"image_id": 7, "caption": "A man is wearing a hat and sitting"}])
    corpus = load_coco(p)
    assert len(corpus.records) == 1
    rec = corpus.records[0]
    assert rec.image_id == 7
    assert rec.captions == ["A man is wearing a hat and sitting"]


def test_zero_annotations_empty_corpus(tmp_path):
    p = write_coco(tmp_path, [])
    with pytest.raises(EmptyCorpus):
        load_coco(p)


def test_grouping_matches_groupby_oracle(tmp_path):
    anns = [
        {"image_id": 9, "caption": "first"},
        {"image_id": 9, "caption": "second"},
        {"image_id": 9, "caption": "third"},
    ]
    p = write_coco(tmp_path, anns)
    corpus = load_coco(p)
    # independent group-by over the raw array
    oracle = {}
    for a in anns:
        oracle.setdefault(a["image_id"], []).append(a["caption"])
    assert len(corpus.records) == 1
    assert corpus.records[0].captions == oracle[9]


def test_not_json_is_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("not json at all", encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_coco(p)


def test_missing_annotations_key_is_malformed(tmp_path):
    p = tmp_path / "noann.json"
    p.write_text(json.dumps({"images": []}), encoding="utf-8")
    with pytest.raises(MalformedInput):
        load_coco(p)


def test_blank_captions_dropped_not_fatal(tmp_path):
    anns = [
        {"image_id": 1, "caption": "   "},
        {"image_id": 1, "caption": "a dog"},
        {"image_id": 2, "caption": ""},
    ]
    p = write_coco(tmp_path, anns)
    corpus = load_coco(p)
    assert [r.image_id for r in corpus.records] == [1]
    assert corpus.records[0].captions == ["a dog"]


def test_all_blank_is_empty_corpus(tmp_path):
    p = write_coco(tmp_path, [{"image_id": 1, "caption": " "}])
    with pytest.raises(EmptyCorpus):
        load_coco(p)


def test_dimensions_attached_from_images_array(tmp_path):
    p = write_coco(
        tmp_path,
        [{"image_id": 5, "caption": "a cat"}],
        images=[{"id": 5, "width": 640, "height": 480}],
    )
    rec = load_coco(p).records[0]
    assert (rec.width, rec.height) == (640, 480)


def test_boolean_ids_and_dimensions_are_not_integers(tmp_path):
    p = write_coco(
        tmp_path,
        [{"image_id": True, "caption": "a dog"}, {"image_id": 1, "caption": "a cat"},
         {"image_id": 2, "caption": "a cow"}],
        images=[{"id": True, "width": 640, "height": 480},
                {"id": 2, "width": True, "height": 480}],
    )
    records = load_coco(p).records
    assert [(type(r.image_id), r.image_id, r.captions, r.width, r.height) for r in records] == [
        (int, 1, ["a cat"], None, None), (int, 2, ["a cow"], None, 480)]


def test_dimensions_optional(tmp_path):
    p = write_coco(tmp_path, [{"image_id": 5, "caption": "a cat"}])
    rec = load_coco(p).records[0]
    assert rec.width is None and rec.height is None


def test_iterate_ascending_image_id(tmp_path):
    anns = [{"image_id": i, "caption": f"caption {i}"} for i in (12, 3, 7)]
    p = write_coco(tmp_path, anns)
    corpus = load_coco(p)
    assert [r.image_id for r in corpus.records] == [3, 7, 12]


def test_iterate_empty():
    assert Corpus().records == []


def test_iterate_repeatable(tmp_path):
    anns = [{"image_id": i, "caption": "x y z"} for i in (4, 2, 9)]
    p = write_coco(tmp_path, anns)
    corpus = load_coco(p)
    first = [r.image_id for r in corpus.records]
    second = [r.image_id for r in corpus.records]
    assert first == second


def test_duplicate_captions_kept(tmp_path):
    anns = [
        {"image_id": 1, "caption": "same text"},
        {"image_id": 1, "caption": "same text"},
    ]
    p = write_coco(tmp_path, anns)
    assert load_coco(p).records[0].captions == ["same text", "same text"]


@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=20), st.text(min_size=0, max_size=8)),
        min_size=1,
        max_size=40,
    )
)
def test_caption_count_conservation(pairs):
    # sum of caption counts over records equals the number of valid annotations
    anns = [{"image_id": i, "caption": c} for i, c in pairs]
    valid = [a for a in anns if a["caption"].strip()]
    import tempfile, os

    with tempfile.TemporaryDirectory() as d:
        p = os.path.join(d, "c.json")
        with open(p, "w", encoding="utf-8") as fh:
            json.dump({"annotations": anns}, fh)
        if not valid:
            with pytest.raises(EmptyCorpus):
                load_coco(p)
            return
        corpus = load_coco(p)
    assert sum(len(r.captions) for r in corpus.records) == len(valid)
    ids = [r.image_id for r in corpus.records]
    assert ids == sorted(ids) and len(ids) == len(set(ids))


def test_caption_record_equality():
    a = CaptionRecord(image_id=1, width=None, height=None, captions=["x"])
    b = CaptionRecord(image_id=1, width=None, height=None, captions=["x"])
    assert a == b
