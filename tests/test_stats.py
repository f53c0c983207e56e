"""Dataset reporting and embedding export."""

import numpy as np
import pytest

from capqa.errors import EmptyStream
from capqa.qa import QAPair
from capqa.stats import StatsAccumulator, export_embeddings, report
from conftest import make_store


def pair(i, question, answer, answer_type, source):
    return QAPair(
        qa_id=f"qa-{i}",
        image_id=i,
        question=question,
        answer=answer,
        answer_type=answer_type,
        source=source,
        source_caption="",
    )


@pytest.fixture()
def ten_pairs():
    # question/answer token counts (after punctuation stripping) annotated
    return [
        pair(0, "Is there a man wearing a hat and sitting?", "yes", "yesno", "template"),      # 9 / 1
        pair(1, "Is there a dog wearing a hat and sitting?", "no", "yesno", "template"),       # 9 / 1
        pair(2, "What is parked on the street?", "car", "object", "template"),                 # 6 / 1
        pair(3, "How many dogs are sitting?", "2", "number", "template"),                      # 5 / 1
        pair(4, "What is the color of the shirt?", "red", "color", "template"),                # 7 / 1
        pair(5, "Who is sitting?", "a girl in a red shirt", "phrase", "srl"),                  # 3 / 6
        pair(6, "What is someone holding?", "an apple", "phrase", "srl"),                      # 4 / 2
        pair(7, "Where is someone sitting?", "an empty open field", "phrase", "srl"),          # 4 / 4
        pair(8, "Can you see a man wearing a hat and sitting?", "yes", "yesno", "paraphrase"), # 10 / 1
        pair(9, "Where is the girl sitting?", "the field", "location", "template"),            # 5 / 2
    ]


class TestReport:
    def test_counts_and_means(self, ten_pairs):
        rep = report(ten_pairs)
        assert rep.total == 10
        assert rep.mean_question_tokens == pytest.approx(6.2)
        assert rep.mean_answer_tokens == pytest.approx(2.0)

    def test_per_source_breakdown(self, ten_pairs):
        rep = report(ten_pairs)
        assert rep.by_source["template"]["count"] == 6
        assert rep.by_source["srl"]["count"] == 3
        assert rep.by_source["paraphrase"]["count"] == 1
        assert rep.by_source["template"]["mean_question_tokens"] == pytest.approx(41 / 6)
        assert rep.by_source["template"]["mean_answer_tokens"] == pytest.approx(7 / 6)
        assert rep.by_source["srl"]["mean_question_tokens"] == pytest.approx(11 / 3)
        assert rep.by_source["srl"]["mean_answer_tokens"] == pytest.approx(4.0)

    def test_unique_answers_normalized(self, ten_pairs):
        # two "yes" answers collapse; normalization is case/whitespace
        rep = report(ten_pairs)
        assert rep.unique_answers == 9
        extra = ten_pairs + [
            pair(10, "Is there a cat?", "  YES ", "yesno", "template")
        ]
        assert report(extra).unique_answers == 9

    def test_answer_type_fractions(self, ten_pairs):
        rep = report(ten_pairs)
        assert rep.answer_type_fractions["yesno"] == pytest.approx(0.3)
        assert rep.answer_type_fractions["phrase"] == pytest.approx(0.3)
        assert rep.answer_type_fractions["object"] == pytest.approx(0.1)
        assert abs(sum(rep.answer_type_fractions.values()) - 1.0) <= 1e-9

    def test_yes_balance(self, ten_pairs):
        # three yesno pairs, two answered yes
        rep = report(ten_pairs)
        assert rep.yes_balance == pytest.approx(2 / 3)

    def test_yes_balance_without_yesno_pairs(self, ten_pairs):
        rep = report([p for p in ten_pairs if p.answer_type != "yesno"])
        assert rep.yes_balance == 0.0

    def test_punctuation_stripped_from_tokens(self):
        rep = report([pair(0, "When is someone competing?", "at night.", "phrase", "srl")])
        assert rep.mean_question_tokens == pytest.approx(4.0)
        assert rep.mean_answer_tokens == pytest.approx(2.0)

    def test_empty_stream_rejected(self):
        with pytest.raises(EmptyStream):
            report([])

    def test_accepts_any_iterable(self, ten_pairs):
        assert report(iter(ten_pairs)).total == 10


class TestMerge:
    def test_counts_add_over_disjoint_streams(self, ten_pairs):
        a = report(ten_pairs[:4])
        b = report(ten_pairs[4:])
        whole = report(ten_pairs)
        assert a.total + b.total == whole.total
        for source, row in whole.by_source.items():
            assert row["count"] == (
                a.by_source.get(source, {"count": 0})["count"]
                + b.by_source.get(source, {"count": 0})["count"]
            )

    def test_empty_accumulator_report_rejected(self):
        with pytest.raises(EmptyStream):
            StatsAccumulator().report()

    def test_json_dict_round_trip(self, ten_pairs):
        d = report(ten_pairs).to_json_dict()
        assert d["total"] == 10
        assert d["yes_balance"] == pytest.approx(2 / 3)
        assert "answer_normalization" in d


class TestExportEmbeddings:
    @pytest.fixture()
    def store(self):
        return make_store(
            {
                "is": [1.0, 0.0, 0.0],
                "there": [0.0, 1.0, 0.0],
                "a": [0.0, 0.0, 1.0],
                "dog": [1.0, 1.0, 0.0],
            }
        )

    def test_one_line_per_pair(self, tmp_path, store):
        pairs = [
            pair(0, "Is there a dog?", "yes", "yesno", "template"),
            pair(1, "Is there a cat?", "no", "yesno", "template"),
            pair(2, "What is parked?", "car", "object", "template"),
        ]
        out = tmp_path / "emb.txt"
        assert export_embeddings(pairs, store, out) == 3
        lines = out.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 3
        for line in lines:
            fields = line.split()
            assert len(fields) == 1 + store.dim
        assert lines[0].split()[0] == "qa-0"

    def test_vector_is_question_mean(self, tmp_path, store):
        pairs = [pair(0, "Is there a dog?", "yes", "yesno", "template")]
        out = tmp_path / "emb.txt"
        export_embeddings(pairs, store, out)
        values = [float(x) for x in out.read_text().split()[1:]]
        expected = np.mean(
            [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]], axis=0
        )
        assert values == pytest.approx(list(expected))

    def test_all_oov_question_writes_zero_vector(self, tmp_path, store):
        pairs = [pair(0, "Quelle heure?", "noon", "phrase", "srl")]
        out = tmp_path / "emb.txt"
        export_embeddings(pairs, store, out)
        values = [float(x) for x in out.read_text().split()[1:]]
        assert values == [0.0, 0.0, 0.0]

    def test_re_export_byte_identical(self, tmp_path, store):
        pairs = [
            pair(0, "Is there a dog?", "yes", "yesno", "template"),
            pair(1, "Is a dog there?", "yes", "yesno", "template"),
        ]
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        export_embeddings(pairs, store, first)
        export_embeddings(pairs, store, second)
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_path_raises_oserror(self, tmp_path, store):
        pairs = [pair(0, "Is there a dog?", "yes", "yesno", "template")]
        with pytest.raises(OSError):
            export_embeddings(pairs, store, tmp_path / "missing" / "emb.txt")
