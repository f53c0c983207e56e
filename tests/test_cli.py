"""Command-line pipeline: dispatch, determinism, exit codes, file plumbing."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capqa
from capqa import files
from capqa.cli import main
from capqa.config import PipelineConfig, load_config, require_file, resolve
from capqa.errors import MalformedInput
from capqa.qa import QAPair, read_jsonl, write_jsonl
from conftest import traced_layers, write_coco


@pytest.fixture()
def demo_coco(tmp_path):
    records = [
        {
            "image_id": 1,
            "captions": [
                "A man wearing a hat",
                "Two black dogs sitting on the street",
            ],
            "width": 640,
            "height": 480,
        },
        {
            "image_id": 2,
            "captions": [
                "A red car parked on the street",
                "There is a small boat in the river",
            ],
            "width": 800,
            "height": 600,
        },
        {
            "image_id": 3,
            "captions": ["A woman holding a phone in the kitchen"],
            "width": 500,
            "height": 375,
        },
    ]
    return write_coco(tmp_path / "captions.json", records)


@pytest.fixture()
def srl_frames(tmp_path):
    frame = {
        "image_id": 3,
        "caption_index": 0,
        "predicate": {"lemma": "hold", "span": [2, 3]},
        "args": [
            {"role": "AGENT", "text": "woman", "span": [1, 2]},
            {"role": "PATIENT", "text": "a phone", "span": [3, 5]},
        ],
    }
    path = tmp_path / "frames.jsonl"
    path.write_text(json.dumps(frame) + "\n")
    return str(path)


def run_generate(coco, out, *extra) -> int:
    return main(["generate", "--captions", coco, "--out", str(out), *extra])


# --- config resolution -------------------------------------------------------


class TestConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.seed == 0
        assert "yesno" in cfg.generators

    def test_unknown_generator_rejected(self):
        with pytest.raises(MalformedInput):
            PipelineConfig(generators=("yesno", "nope"))

    def test_bad_value_in_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"adversarial_threshold": 2}')
        with pytest.raises(MalformedInput, match="adversarial_threshold"):
            resolve(load_config(path), {})

    def test_wrong_type_in_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"levels": "1,3"}')
        with pytest.raises(MalformedInput) as exc:
            load_config(path)
        assert str(exc.value).startswith(f"{path}: bad config value: levels")

    def test_load_config_unknown_key(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 3, "mystery": 1}')
        with pytest.raises(MalformedInput, match="mystery"):
            load_config(path)

    def test_load_config_values(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 9, "workers": 2, "levels": [1, 3]}')
        assert load_config(path) == {"seed": 9, "workers": 2, "levels": (1, 3)}

    def test_env_overrides_file_seed(self, tmp_path, monkeypatch):
        path = tmp_path / "cfg.json"
        path.write_text('{"seed": 9}')
        monkeypatch.setenv("CAPQA_SEED", "31")
        assert resolve(load_config(path), {}).seed == 31

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("CAPQA_SEED", "31")
        assert resolve(None, {"seed": 7}).seed == 7

    def test_bad_env_seed(self, monkeypatch):
        monkeypatch.setenv("CAPQA_SEED", "lots")
        with pytest.raises(MalformedInput):
            resolve(None, {})

    def test_bad_levels(self):
        for levels in ([], [3, 1], [1, 1], [0, 3]):
            with pytest.raises(MalformedInput, match="levels"):
                PipelineConfig(levels=levels)

    def test_negative_neg_ratio_rejected(self):
        with pytest.raises(MalformedInput, match="neg_ratio"):
            PipelineConfig(neg_ratio=-1.0)

    def test_default_dims_rule(self):
        for dims in ("", "640x480", "1x1"):
            assert PipelineConfig(default_dims=dims).default_dims == dims
        # the last is 640x480 in Arabic-Indic digits
        for dims in ("640by480", "640x", "0x480", "640x0", " 640x480",
                     "\u0666\u0664\u0660x\u0664\u0668\u0660"):
            with pytest.raises(MalformedInput, match="default_dims"):
                PipelineConfig(default_dims=dims)

    def test_rewriter_rule(self):
        for rewriter in ("", "builtin", "http://127.0.0.1:9/rewrite", "https://x",
                         "python3 'my rewriter.py' --fast"):
            assert PipelineConfig(rewriter=rewriter).rewriter == rewriter
        for rewriter in (" ", "\t\n", 'python "x', "http:/x 'y"):
            with pytest.raises(MalformedInput, match="rewriter"):
                PipelineConfig(rewriter=rewriter)

    def test_require_file(self, tmp_path):
        with pytest.raises(MalformedInput, match="--vectors"):
            require_file("", "--vectors")
        with pytest.raises(MalformedInput, match="missing.txt"):
            require_file(str(tmp_path / "missing.txt"), "--vectors")
        path = tmp_path / "there.txt"
        path.write_text("x")
        assert require_file(str(path), "--vectors") == str(path)


# --- generate ----------------------------------------------------------------


class TestGenerate:
    def test_writes_sorted_weighted_pairs(self, demo_coco, tmp_path, capsys):
        out = tmp_path / "qa.jsonl"
        assert run_generate(demo_coco, out, "--seed", "7") == 0
        pairs = list(read_jsonl(out))
        assert pairs
        keys = [(qa.image_id, qa.qa_id) for qa in pairs]
        assert keys == sorted(keys)
        assert all(qa.weights for qa in pairs)
        report = json.loads(capsys.readouterr().out)
        assert report["total"] == len(pairs)

    def test_run_manifest_written(self, demo_coco, tmp_path):
        out = tmp_path / "qa.jsonl"
        run_generate(demo_coco, out, "--seed", "7")
        manifest = json.loads((tmp_path / "qa.jsonl.manifest.json").read_text())
        assert manifest["command"] == "generate"
        assert manifest["config"]["seed"] == 7
        assert manifest["counts"]["pairs"] == len(out.read_text().splitlines())

    def test_failed_manifest_rewrite_keeps_the_old_one(self, demo_coco, tmp_path,
                                                       monkeypatch, capsys):
        out = tmp_path / "qa.jsonl"
        manifest = tmp_path / "qa.jsonl.manifest.json"
        assert run_generate(demo_coco, out, "--seed", "1") == 0
        before = (out.read_bytes(), manifest.read_bytes())

        real_write_lines = files.write_lines

        def fragment_then_fail():
            yield '{"command": '
            raise OSError("synthetic failure")

        def fail_on_manifest(path, lines):
            if str(path).endswith(".manifest.json.partial"):
                lines = fragment_then_fail()
            return real_write_lines(path, lines)

        monkeypatch.setattr(files, "write_lines", fail_on_manifest)
        assert run_generate(demo_coco, out, "--seed", "8") == 1
        assert "synthetic failure" in capsys.readouterr().err
        assert (out.read_bytes(), manifest.read_bytes()) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "captions.json", "qa.jsonl", "qa.jsonl.manifest.json"
        ]

    def test_failed_manifest_move_leaves_no_stale_manifest(self, demo_coco, tmp_path,
                                                           monkeypatch, capsys):
        out = tmp_path / "qa.jsonl"
        assert run_generate(demo_coco, out, "--seed", "1") == 0
        real_replace = os.replace

        def fail_on_manifest(src, dst):
            if str(dst).endswith(".manifest.json"):
                raise OSError("synthetic failure")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", fail_on_manifest)
        assert run_generate(demo_coco, out, "--seed", "8") == 1
        assert "synthetic failure" in capsys.readouterr().err
        # the seed-8 rows stand alone: the seed-1 manifest is gone, not beside them
        assert sorted(p.name for p in tmp_path.iterdir()) == ["captions.json", "qa.jsonl"]

    def test_same_seed_byte_identical(self, demo_coco, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_generate(demo_coco, a, "--seed", "5")
        run_generate(demo_coco, b, "--seed", "5")
        assert a.read_bytes() == b.read_bytes()

    def test_worker_count_never_changes_bytes(self, demo_coco, vectors_path, srl_frames,
                                              tmp_path, capsys):
        adversarial_srl = ("--vectors", vectors_path, "--srl-frames", srl_frames,
                           "--negative-mode", "adversarial")
        for extra in ((), adversarial_srl):
            outputs = []
            for workers in ("1", "3"):
                out = tmp_path / f"w{workers}.jsonl"
                assert run_generate(demo_coco, out, "--seed", "5", "--workers", workers,
                                    *extra) == 0
                outputs.append((out.read_bytes(), capsys.readouterr().out))
            assert outputs[0] == outputs[1]
        sources = {json.loads(line)["source"] for line in outputs[0][0].splitlines()}
        assert {"adversarial", "srl"} <= sources

    def test_printed_report_equals_stats_of_written_file(self, demo_coco, tmp_path, capsys):
        out = tmp_path / "qa.jsonl"
        assert run_generate(demo_coco, out, "--seed", "5") == 0
        printed = capsys.readouterr().out
        assert main(["stats", "--in", str(out)]) == 0
        assert printed == capsys.readouterr().out

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_generator_failure_leaves_nothing(self, demo_coco, tmp_path, capsys,
                                              monkeypatch, workers):
        import capqa.cli

        real = capqa.cli.gen_color

        def fail_on_last_record(record, *args):
            if record.image_id == 3:
                raise MalformedInput("synthetic failure on image 3")
            return real(record, *args)

        # patched before the pool starts, so forked workers inherit it
        monkeypatch.setattr(capqa.cli, "gen_color", fail_on_last_record)
        out = tmp_path / "qa.jsonl"
        assert run_generate(demo_coco, out, "--workers", workers) == 1
        assert "synthetic failure on image 3" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["captions.json"]

    def test_seed_changes_output(self, corpus_1000_path, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_generate(corpus_1000_path, a, "--seed", "1")
        run_generate(corpus_1000_path, b, "--seed", "2")
        assert a.read_bytes() != b.read_bytes()

    def test_env_seed_matches_flag_seed(self, demo_coco, tmp_path, monkeypatch):
        flagged = tmp_path / "flag.jsonl"
        run_generate(demo_coco, flagged, "--seed", "13")
        monkeypatch.setenv("CAPQA_SEED", "13")
        via_env = tmp_path / "env.jsonl"
        run_generate(demo_coco, via_env)
        assert flagged.read_bytes() == via_env.read_bytes()

    def test_explicit_flag_beats_env(self, demo_coco, tmp_path, monkeypatch):
        baseline = tmp_path / "base.jsonl"
        run_generate(demo_coco, baseline, "--seed", "13")
        monkeypatch.setenv("CAPQA_SEED", "99")
        flagged = tmp_path / "flag.jsonl"
        run_generate(demo_coco, flagged, "--seed", "13")
        assert baseline.read_bytes() == flagged.read_bytes()

    def test_config_file_equivalent_to_flag(self, demo_coco, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 21}')
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_generate(demo_coco, a, "--config", str(cfg))
        run_generate(demo_coco, b, "--seed", "21")
        assert a.read_bytes() == b.read_bytes()

    def test_missing_vectors_exit_1_names_path(self, demo_coco, tmp_path, capsys):
        out = tmp_path / "qa.jsonl"
        rc = run_generate(
            demo_coco, out,
            "--negative-mode", "adversarial",
            "--vectors", str(tmp_path / "no-vectors.txt"),
        )
        assert rc == 1
        assert "no-vectors.txt" in capsys.readouterr().err
        assert not out.exists()

    def test_adversarial_without_vectors_exit_1(self, demo_coco, tmp_path, capsys):
        rc = run_generate(
            demo_coco, tmp_path / "qa.jsonl", "--negative-mode", "adversarial"
        )
        assert rc == 1
        assert "--vectors" in capsys.readouterr().err

    def test_generator_toggle_yesno_only(self, demo_coco, tmp_path):
        out = tmp_path / "qa.jsonl"
        run_generate(demo_coco, out, "--generators", "yesno", "--seed", "3")
        pairs = list(read_jsonl(out))
        assert pairs and all(qa.answer_type == "yesno" for qa in pairs)
        yes = sum(1 for qa in pairs if qa.answer == "yes")
        assert yes * 2 == len(pairs)

    def test_srl_generator_without_frames_exit_1(self, demo_coco, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"generators": ["yesno", "srl"]}')
        out = tmp_path / "qa.jsonl"
        # named by the flag, by --set or by a config file: the same rule
        for extra in (("--generators", "srl"), ("--set", 'generators=["srl"]'),
                      ("--config", str(cfg))):
            assert run_generate(demo_coco, out, *extra) == 1
            assert "--srl-frames" in capsys.readouterr().err
            assert not out.exists()
        # the default list names srl too, and skips it without frames
        assert run_generate(demo_coco, out) == 0
        assert all(qa.source != "srl" for qa in read_jsonl(out))

    def test_srl_frames_produce_pairs(self, demo_coco, srl_frames, tmp_path):
        out = tmp_path / "qa.jsonl"
        rc = run_generate(demo_coco, out, "--srl-frames", srl_frames, "--seed", "2")
        assert rc == 0
        srl_pairs = [qa for qa in read_jsonl(out) if qa.source == "srl"]
        assert len(srl_pairs) == 2
        assert {qa.question for qa in srl_pairs} == {
            "Who is holding something?",
            "What is someone holding?",
        }

    def test_with_vectors_runs_adversarial(self, demo_coco, vectors_path, tmp_path):
        out = tmp_path / "qa.jsonl"
        sources = set()
        for mode in ("auto", "adversarial"):
            rc = run_generate(
                demo_coco, out,
                "--vectors", vectors_path,
                "--negative-mode", mode,
                "--seed", "4",
            )
            assert rc == 0
            pairs = list(read_jsonl(out))
            yesno = [qa for qa in pairs if qa.answer_type == "yesno"]
            assert sum(1 for qa in yesno if qa.answer == "yes") * 2 == len(yesno)
            # a hard negative is only ever made from an affirmed yes/no row
            by_id = {qa.qa_id: qa for qa in pairs}
            for qa in pairs:
                if qa.source in ("negation", "adversarial"):
                    sources.add(qa.source)
                    assert qa.answer_type == "yesno"
                    parent = by_id[qa.parent_id]
                    assert (parent.answer_type, parent.answer) == ("yesno", "yes")
        assert sources == {"negation", "adversarial"}

    def test_pickled_context_gives_same_rows(self, demo_coco, vectors_path, srl_frames):
        import pickle

        from capqa.cli import _Context, _record_pairs
        from capqa.qa import qa_json_line

        cfg = PipelineConfig(captions=demo_coco, vectors=vectors_path,
                             srl_frames=srl_frames, negative_mode="adversarial", seed=5)
        ctx = _Context(cfg)
        copy = pickle.loads(pickle.dumps(ctx))

        def lines(context):
            return [qa_json_line(qa) for record in context.corpus.records
                    for qa in _record_pairs(record, context)]

        assert lines(copy) == lines(ctx)
        assert any('"source": "adversarial"' in line for line in lines(ctx))


# --- downstream stages ---------------------------------------------------------


def craft_pairs(tmp_path, name="pairs.jsonl"):
    pairs = [
        QAPair(
            qa_id=f"id{i:02d}",
            image_id=1 if i < 10 else 2,
            question=f"Is there a dog in picture {i}?",
            answer="yes" if i % 2 == 0 else "no",
            answer_type="yesno",
            source="template",
            source_caption="A dog",
        )
        for i in range(12)
    ]
    path = tmp_path / name
    write_jsonl(pairs, path)
    return path, pairs


class TestAugmentCommand:
    def test_builtin_paraphrase_roundtrip(self, tmp_path):
        src, pairs = craft_pairs(tmp_path)
        out = tmp_path / "aug.jsonl"
        rc = main([
            "augment", "--in", str(src), "--out", str(out),
            "--mode", "paraphrase", "--seed", "0",
        ])
        assert rc == 0
        rows = list(read_jsonl(out))
        assert len(rows) > len(pairs)
        derived = [qa for qa in rows if qa.parent_id]
        assert derived
        assert all(qa.source == "paraphrase" for qa in derived)
        assert all(qa.weights for qa in derived)
        originals = [qa.qa_id for qa in rows if not qa.parent_id]
        assert originals == [qa.qa_id for qa in pairs]

    def test_backtranslate_requires_pivot(self, tmp_path, capsys):
        src, _ = craft_pairs(tmp_path)
        rc = main([
            "augment", "--in", str(src), "--out", str(tmp_path / "x.jsonl"),
            "--mode", "backtranslate",
        ])
        assert rc == 1
        assert "pivot" in capsys.readouterr().err

    @pytest.mark.parametrize("file_values, flags", [
        ({"augment_mode": "backtranslate"}, ["--pivot-language", "fr"]),
        ({"pivot_language": "fr"}, ["--mode", "backtranslate"]),
    ], ids=["mode-in-file", "pivot-in-file"])
    def test_config_file_and_flags_are_checked_together(self, tmp_path, file_values,
                                                        flags):
        src, _ = craft_pairs(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(file_values))
        mixed, flagged = tmp_path / "mixed.jsonl", tmp_path / "flagged.jsonl"
        assert main(["augment", "--in", str(src), "--out", str(mixed),
                     "--config", str(cfg), *flags]) == 0
        assert main(["augment", "--in", str(src), "--out", str(flagged),
                     "--mode", "backtranslate", "--pivot-language", "fr"]) == 0
        assert mixed.read_bytes() == flagged.read_bytes()

    def test_missing_rewriter_binary_exit_1(self, tmp_path, capsys):
        src, _ = craft_pairs(tmp_path)
        out = tmp_path / "x.jsonl"
        rc = main([
            "augment", "--in", str(src), "--out", str(out),
            "--rewriter", "/no/such/rewriter-binary",
        ])
        assert rc == 1
        assert not out.exists()


class TestWeighCommand:
    def test_fills_missing_weights(self, tmp_path):
        pairs = [
            QAPair("w1", 1, "What is parked?", "two black cars", "phrase", "srl", "c"),
            QAPair("w2", 1, "Is there a dog?", "yes", "yesno", "template", "c"),
        ]
        src = tmp_path / "in.jsonl"
        write_jsonl(pairs, src)
        out = tmp_path / "out.jsonl"
        assert main(["weigh", "--in", str(src), "--out", str(out)]) == 0
        rows = list(read_jsonl(out))
        swa = dict(rows[0].weights)
        assert len(swa) == 9
        assert swa["two black cars"] == pytest.approx(1.0)
        assert swa["cars"] == pytest.approx(1 / 3)
        assert rows[1].weights == [("yes", 1.0)]

    def test_existing_weights_kept_unless_forced(self, tmp_path):
        pair = QAPair(
            "w1", 1, "What is parked?", "two black cars", "phrase", "srl", "c",
            weights=[("sentinel", 0.5)],
        )
        src = tmp_path / "in.jsonl"
        write_jsonl([pair], src)
        kept = tmp_path / "kept.jsonl"
        main(["weigh", "--in", str(src), "--out", str(kept)])
        assert dict(next(read_jsonl(kept)).weights) == {"sentinel": 0.5}
        forced = tmp_path / "forced.jsonl"
        main(["weigh", "--in", str(src), "--out", str(forced), "--force"])
        assert len(next(read_jsonl(forced)).weights) == 9

    def test_streams_rows_and_counts_the_filled(self, tmp_path, monkeypatch, capsys):
        pairs = [
            QAPair("w1", 1, "What is parked?", "two black cars", "phrase", "srl", "c",
                   weights=[("sentinel", 0.5)]),
            QAPair("w2", 1, "Is there a dog?", "yes", "yesno", "template", "c"),
            QAPair("w3", 1, "What is red?", "a red bus", "phrase", "srl", "c"),
        ]
        src = tmp_path / "in.jsonl"
        write_jsonl(pairs, src)
        events = []

        def logged_read(path):
            for qa in read_jsonl(path):
                events.append(("read", qa.qa_id))
                yield qa

        def logged_write(rows, path):
            def logged():
                for qa in rows:
                    events.append(("write", qa.qa_id))
                    yield qa
            return write_jsonl(logged(), path)

        monkeypatch.setattr(capqa.cli, "read_jsonl", logged_read)
        monkeypatch.setattr(capqa.cli, "write_jsonl", logged_write)
        out = tmp_path / "out.jsonl"
        assert main(["weigh", "--in", str(src), "--out", str(out)]) == 0
        # each row is written before the next one is read
        assert events == [(step, qa.qa_id) for qa in pairs for step in ("read", "write")]
        assert json.loads(capsys.readouterr().out) == {"pairs": 3, "weighed": 2}
        manifest = json.loads((tmp_path / "out.jsonl.manifest.json").read_text())
        assert manifest["counts"] == {"pairs": 3, "weighed": 2}


class TestVocabCommand:
    def test_writes_vocab_file(self, tmp_path, capsys):
        pairs = [
            QAPair("v1", 1, "What is parked?", "two black cars", "phrase", "srl", "c"),
            QAPair("v2", 2, "What is parked?", "two black cars", "phrase", "srl", "c"),
            QAPair("v3", 3, "Is there a dog?", "yes", "yesno", "template", "c"),
        ]
        src = tmp_path / "in.jsonl"
        write_jsonl(pairs, src)
        out = tmp_path / "vocab.txt"
        assert main(["vocab", "--in", str(src), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("#capqa-vocab")
        assert "cars" in lines[1:]
        payload = json.loads(capsys.readouterr().out)
        assert payload["phrases"] == len(lines) - 1

    def test_min_count_filters(self, tmp_path):
        pairs = [
            QAPair("v1", 1, "Q?", "red", "color", "template", "c"),
            QAPair("v2", 2, "Q?", "red", "color", "template", "c"),
            QAPair("v3", 3, "Q?", "blue", "color", "template", "c"),
        ]
        src = tmp_path / "in.jsonl"
        write_jsonl(pairs, src)
        out = tmp_path / "vocab.txt"
        main(["vocab", "--in", str(src), "--out", str(out), "--min-count", "2"])
        words = out.read_text().splitlines()[1:]
        assert words == ["red"]

    def test_unweighed_rows_count_as_weigh_fills_them(self, tmp_path, capsys):
        pairs = [
            QAPair("v1", 1, "Is there a dog?", "yes", "yesno", "template", "c"),
            QAPair("v2", 2, "What is this?", "can't say", "object", "adversarial", "c"),
            QAPair("v3", 3, "What is parked?", "two black cars", "phrase", "srl", "c"),
        ]
        src = tmp_path / "in.jsonl"
        write_jsonl(pairs, src)
        weighed = tmp_path / "weighed.jsonl"
        assert main(["weigh", "--in", str(src), "--out", str(weighed)]) == 0
        direct, via_weigh = tmp_path / "direct.txt", tmp_path / "via_weigh.txt"
        assert main(["vocab", "--in", str(src), "--out", str(direct)]) == 0
        assert main(["vocab", "--in", str(weighed), "--out", str(via_weigh)]) == 0
        assert direct.read_text() == via_weigh.read_text()
        phrases = direct.read_text().splitlines()[1:]
        assert {"yes", "can't say"} <= set(phrases)
        assert not {"yeses", "can't", "say", "says"} & set(phrases)


class TestPatchesCommand:
    def test_entry_count(self, demo_coco, tmp_path, capsys):
        out = tmp_path / "patches.jsonl"
        assert main(["patches", "--captions", demo_coco, "--out", str(out)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"images": 3, "entries": 3 * 84}
        assert len(out.read_text().splitlines()) == 3 * 84

    def test_missing_dims_exit_1_lists_ids(self, tmp_path, capsys):
        coco = write_coco(
            tmp_path / "captions.json",
            [
                {"image_id": 5, "captions": ["A dog"], "width": 640, "height": 480},
                {"image_id": 6, "captions": ["A cat"]},
                {"image_id": 7, "captions": ["A bird"]},
            ],
        )
        out = tmp_path / "patches.jsonl"
        rc = main(["patches", "--captions", coco, "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "6" in err and "7" in err
        assert not out.exists()

    def test_default_dims_fills_gaps(self, tmp_path):
        coco = write_coco(
            tmp_path / "captions.json",
            [{"image_id": 6, "captions": ["A cat"]}],
        )
        out = tmp_path / "patches.jsonl"
        rc = main([
            "patches", "--captions", coco, "--out", str(out),
            "--default-dims", "640x480",
        ])
        assert rc == 0
        first = json.loads(out.read_text().splitlines()[0])
        assert first["image_id"] == 6

    def test_malformed_default_dims_exit_2(self, demo_coco, tmp_path):
        for dims in ("640by480", "\u0666\u0664\u0660x\u0664\u0668\u0660"):
            with pytest.raises(SystemExit) as exc:
                main([
                    "patches", "--captions", demo_coco,
                    "--out", str(tmp_path / "x.jsonl"),
                    "--default-dims", dims,
                ])
            assert exc.value.code == 2

    def test_levels_override(self, demo_coco, tmp_path):
        out = tmp_path / "patches.jsonl"
        main(["patches", "--captions", demo_coco, "--out", str(out),
              "--levels", "1,2"])
        assert len(out.read_text().splitlines()) == 3 * (1 + 4)

    def test_levels_flag_overrides_a_bad_file_value(self, demo_coco, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"levels": [3, 1]}')
        out = tmp_path / "patches.jsonl"
        assert main(["patches", "--captions", demo_coco, "--out", str(out),
                     "--config", str(cfg), "--levels", "1,3"]) == 0
        assert len(out.read_text().splitlines()) == 3 * (1 + 9)


class TestPretrainCommand:
    def test_mlm_and_itm_counts(self, demo_coco, tmp_path, capsys):
        out = tmp_path / "samples.jsonl"
        rc = main([
            "pretrain", "--captions", demo_coco, "--out", str(out),
            "--tasks", "mlm,itm", "--seed", "3",
        ])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        mlm = [r for r in rows if r["task"] == "mlm"]
        itm = [r for r in rows if r["task"] == "itm"]
        assert len(mlm) == 5
        assert all("[MASK]" in r["text"] for r in mlm)
        assert len([r for r in itm if r["label"] == "match"]) == 5

    def test_itm_shortfall_logged_once(self, demo_coco, tmp_path, caplog):
        # images 1 and 2 share "street"; only image 3 is disjoint from both
        with caplog.at_level("WARNING"):
            rc = main([
                "pretrain", "--captions", demo_coco, "--out", str(tmp_path / "s.jsonl"),
                "--tasks", "itm", "--neg-ratio", "5",
            ])
        assert rc == 0
        assert caplog.messages == [
            "itm: 3 image(s) had too few disjoint captions; 19 negative(s) missing"
        ]

    def test_mqa_requires_qa_file(self, demo_coco, tmp_path, capsys):
        rc = main([
            "pretrain", "--captions", demo_coco,
            "--out", str(tmp_path / "x.jsonl"), "--tasks", "mqa",
        ])
        assert rc == 1
        assert "--qa" in capsys.readouterr().err

    def test_mqa_from_pairs(self, demo_coco, tmp_path):
        src, pairs = craft_pairs(tmp_path)
        out = tmp_path / "samples.jsonl"
        rc = main([
            "pretrain", "--captions", demo_coco, "--out", str(out),
            "--tasks", "mqa", "--qa", str(src),
        ])
        assert rc == 0
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert len(rows) == len(pairs)
        assert all(r["task"] == "mqa" for r in rows)
        assert rows[0]["provenance"] == "id00"


class TestSampleEpochCommand:
    def test_per_image_clamp_and_order(self, tmp_path):
        src, pairs = craft_pairs(tmp_path)
        out = tmp_path / "epoch1.jsonl"
        rc = main([
            "sample-epoch", "--in", str(src), "--epoch", "1",
            "--out", str(out), "--per-image", "3", "--seed", "0",
        ])
        assert rc == 0
        rows = list(read_jsonl(out))
        by_image = {}
        for qa in rows:
            by_image.setdefault(qa.image_id, []).append(qa.qa_id)
        assert len(by_image[1]) == 3    # 10 available, k=3
        assert len(by_image[2]) == 2    # only 2 available
        all_ids = [qa.qa_id for qa in pairs]
        positions = [all_ids.index(qa.qa_id) for qa in rows]
        assert positions == sorted(positions)

    def test_epochs_differ(self, tmp_path):
        src, _ = craft_pairs(tmp_path)
        outs = []
        for epoch in ("1", "2"):
            out = tmp_path / f"epoch{epoch}.jsonl"
            main([
                "sample-epoch", "--in", str(src), "--epoch", epoch,
                "--out", str(out), "--per-image", "3", "--seed", "0",
            ])
            outs.append(out.read_bytes())
        assert outs[0] != outs[1]

    def test_same_epoch_reproduces(self, tmp_path):
        src, _ = craft_pairs(tmp_path)
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        for out in (a, b):
            main([
                "sample-epoch", "--in", str(src), "--epoch", "4",
                "--out", str(out), "--per-image", "3", "--seed", "0",
            ])
        assert a.read_bytes() == b.read_bytes()

    def test_zero_per_image_exit_1(self, tmp_path, capsys):
        src, _ = craft_pairs(tmp_path)
        rc = main([
            "sample-epoch", "--in", str(src), "--epoch", "1",
            "--out", str(tmp_path / "x.jsonl"), "--per-image", "0",
        ])
        assert rc == 1

    def test_empty_dataset_exit_1(self, tmp_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        rc = main([
            "sample-epoch", "--in", str(src), "--epoch", "1",
            "--out", str(tmp_path / "x.jsonl"),
        ])
        assert rc == 1


class TestStatsCommand:
    def test_report_to_stdout(self, tmp_path, capsys):
        src, pairs = craft_pairs(tmp_path)
        assert main(["stats", "--in", str(src)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total"] == len(pairs)
        assert doc["by_source"]["template"]["count"] == len(pairs)

    def test_report_to_file(self, tmp_path):
        src, pairs = craft_pairs(tmp_path)
        out = tmp_path / "report.json"
        main(["stats", "--in", str(src), "--out", str(out)])
        assert json.loads(out.read_text())["total"] == len(pairs)

    def test_embeddings_export(self, tmp_path, vectors_path):
        src, pairs = craft_pairs(tmp_path)
        emb = tmp_path / "emb.txt"
        rc = main([
            "stats", "--in", str(src), "--embeddings-out", str(emb),
            "--vectors", vectors_path,
        ])
        assert rc == 0
        assert len(emb.read_text().splitlines()) == len(pairs)

    def test_embeddings_export_manifest(self, tmp_path, vectors_path):
        src, pairs = craft_pairs(tmp_path)
        emb = tmp_path / "emb.txt"
        assert main(["stats", "--in", str(src), "--embeddings-out", str(emb),
                     "--vectors", vectors_path]) == 0
        manifest = json.loads((tmp_path / "emb.txt.manifest.json").read_text())
        assert manifest["command"] == "stats"
        assert manifest["outputs"] == [str(emb)]
        assert manifest["counts"] == {"pairs": len(pairs)}
        assert manifest["config"]["vectors"] == vectors_path

    def test_empty_input_exit_1(self, tmp_path, capsys):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        assert main(["stats", "--in", str(src)]) == 1

    def test_report_and_export_read_the_input_once(self, tmp_path, vectors_path,
                                                   monkeypatch, capsys):
        src, pairs = craft_pairs(tmp_path)
        plain = tmp_path / "plain.json"
        assert main(["stats", "--in", str(src), "--out", str(plain)]) == 0
        plain_stdout = json.loads(capsys.readouterr().out)
        reads = []

        def counted_read(path):
            reads.append(0)
            for qa in read_jsonl(path):
                reads[-1] += 1
                yield qa

        monkeypatch.setattr(capqa.cli, "read_jsonl", counted_read)
        report, emb = tmp_path / "report.json", tmp_path / "emb.txt"
        assert main(["stats", "--in", str(src), "--out", str(report),
                     "--embeddings-out", str(emb), "--vectors", vectors_path]) == 0
        assert reads == [len(pairs)]
        assert report.read_bytes() == plain.read_bytes()
        assert json.loads(capsys.readouterr().out) == dict(plain_stdout,
                                                           embeddings_exported=len(pairs))
        assert len(emb.read_text().splitlines()) == len(pairs)
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["counts"] == {"pairs": len(pairs)}

    def test_empty_input_with_export_publishes_nothing(self, tmp_path, vectors_path):
        src = tmp_path / "empty.jsonl"
        src.write_text("")
        report, emb = tmp_path / "report.json", tmp_path / "emb.txt"
        assert main(["stats", "--in", str(src), "--out", str(report),
                     "--embeddings-out", str(emb), "--vectors", vectors_path]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.jsonl"]


class TestUsageErrors:
    def test_no_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_command_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_missing_required_flag_exit_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["augment", "--out", "x.jsonl"])
        assert exc.value.code == 2

    def test_missing_captions_exit_1(self, tmp_path, capsys):
        rc = main(["generate", "--out", str(tmp_path / "x.jsonl")])
        assert rc == 1
        assert "--captions" in capsys.readouterr().err

    def test_unknown_set_field_exit_1(self, demo_coco, tmp_path, capsys):
        rc = run_generate(demo_coco, tmp_path / "x.jsonl", "--set", "bogus=1")
        assert rc == 1
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("setting", [
        "max_questions_per_caption=0",
        "adversarial_threshold=2",
        "yesno_prefixes=[]",
        'negative_mode="bogus"',
        "vocab_limit=0",
        "vocab_limit=-5",
        "workers=2.5",
        "max_questions_per_caption=2.5",
        "batch_size=1.5",
        'fallback="no"',
        "vocab_limit=true",
        'seed="abc"',
        "seed=null",
        "levels=[1,true]",
    ])
    def test_invalid_config_value_exit_1(self, demo_coco, tmp_path, capsys, setting):
        out = tmp_path / "x.jsonl"
        assert run_generate(demo_coco, out, "--set", setting) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert setting.partition("=")[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("command, field, extra", [
        ("patches", "levels", ["--set", "levels=[3,1]"]),
        ("patches", "default_dims", ["--set", "default_dims=640by480"]),
        ("augment", "pivot_language", ["--set", "pivot_language=xx"]),
        ("augment", "rewriter", ["--set", 'rewriter=" "']),
        ("augment", "rewriter", ["--rewriter", " "]),
        ("augment", "rewriter", ["--rewriter", 'python "x']),
    ], ids=["levels", "default_dims", "pivot_language", "rewriter", "blank_rewriter_flag",
            "unsplittable_rewriter_flag"])
    def test_bad_value_fails_before_any_input_is_read(self, tmp_path, capsys, command,
                                                      field, extra):
        missing = str(tmp_path / "missing.json")
        source = {"patches": "--captions", "augment": "--in"}[command]
        out = tmp_path / "x.jsonl"
        assert main([command, source, missing, "--out", str(out), *extra]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert field in err and missing not in err
        assert not out.exists()

    def test_wrong_type_config_value_exit_1(self, demo_coco, tmp_path, capsys):
        rc = run_generate(demo_coco, tmp_path / "x.jsonl",
                          "--set", 'max_questions_per_caption="many"')
        assert rc == 1
        assert capsys.readouterr().err.startswith("error: bad config value")

    def test_set_overrides_field(self, demo_coco, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        run_generate(demo_coco, a, "--set", "seed=33")
        run_generate(demo_coco, b, "--seed", "33")
        assert a.read_bytes() == b.read_bytes()


class TestAtomicOutputs:
    def test_failed_write_leaves_no_partial(self, demo_coco, tmp_path, monkeypatch,
                                            capsys):
        import capqa.cli

        def boom(pairs, path):
            with open(path, "w") as fh:
                fh.write("partial data")
            raise MalformedInput("synthetic failure")

        monkeypatch.setattr(capqa.cli, "write_jsonl", boom)
        assert run_generate(demo_coco, tmp_path / "out.jsonl") == 1
        assert "synthetic failure" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["captions.json"]


# --- bad input files --------------------------------------------------------------

GOOD_ROW = {"qa_id": "q1", "image_id": 1, "question": "Is there a dog?", "answer": "yes",
            "answer_type": "yesno", "source": "template", "source_caption": "A dog"}
GOOD_FRAME = {"image_id": 3, "caption_index": 0,
              "predicate": {"lemma": "hold", "span": [8, 15]},
              "args": [{"role": "AGENT", "text": "A woman", "span": [0, 7]}]}


def jsonl(*rows) -> bytes:
    return b"".join(
        row if isinstance(row, bytes) else json.dumps(row).encode() + b"\n" for row in rows
    )


# flag that takes the bad file, its bytes, and the line the error names (None for
# whole-document formats); "--in" files go to weigh, the rest to generate
BAD_INPUTS = {
    "captions-not-utf8": ("--captions",
                          b'{"annotations": [{"image_id": 1, "caption": "a \xff dog"}]}', None),
    "config-not-utf8": ("--config", b'{"seed": 1, "captions": "\xff"}', None),
    "config-workers-float": ("--config", b'{"workers": 2.5}', None),
    "lexicons-not-utf8": ("--lexicons", b'{"colors": ["\xff"]}', None),
    "lexicons-colors-number": ("--lexicons", b'{"colors": 5}', None),
    "lexicons-colors-string": ("--lexicons", b'{"colors": "red"}', None),
    "lexicons-colors-null-and-number": ("--lexicons", b'{"colors": [null, 5]}', None),
    "lexicons-number-word-int": ("--lexicons", b'{"number_words": {"dozen": 12}}', None),
    "vectors-not-utf8": ("--vectors", b"dog 1 0\ncat\xff 0 1\n", 2),
    "frames-not-utf8": ("--srl-frames", jsonl(GOOD_FRAME, b"\n", b'{"\xff": 1}\n'), 3),
    "frames-args-number": ("--srl-frames", jsonl(GOOD_FRAME, dict(GOOD_FRAME, args=5)), 2),
    "frames-image-id-float": ("--srl-frames", jsonl(GOOD_FRAME, dict(GOOD_FRAME, image_id=3.5)),
                              2),
    "frames-caption-index-bool": ("--srl-frames",
                                  jsonl(GOOD_FRAME, dict(GOOD_FRAME, caption_index=False)), 2),
    "frames-span-bool": ("--srl-frames", jsonl(GOOD_FRAME, dict(
        GOOD_FRAME, predicate=dict(GOOD_FRAME["predicate"], span=[True, 15]))), 2),
    "frames-lemma-number": ("--srl-frames", jsonl(GOOD_FRAME, dict(
        GOOD_FRAME, predicate=dict(GOOD_FRAME["predicate"], lemma=5))), 2),
    "frames-arg-text-number": ("--srl-frames", jsonl(GOOD_FRAME, dict(
        GOOD_FRAME, args=[dict(GOOD_FRAME["args"][0], text=7)])), 2),
    "qa-not-utf8": ("--in", jsonl(GOOD_ROW, b'{"qa_id": "\xff"}\n'), 2),
    "qa-image-id-string": ("--in", jsonl(GOOD_ROW, dict(GOOD_ROW, image_id="abc")), 2),
    "qa-image-id-null": ("--in", jsonl(GOOD_ROW, dict(GOOD_ROW, image_id=None)), 2),
    "qa-image-id-float": ("--in", jsonl(GOOD_ROW, dict(GOOD_ROW, image_id=1.7)), 2),
    "qa-image-id-bool": ("--in", jsonl(GOOD_ROW, dict(GOOD_ROW, image_id=True)), 2),
    "qa-question-null": ("--in", jsonl(GOOD_ROW, dict(GOOD_ROW, question=None)), 2),
    "qa-parent-id-number": ("--in", jsonl(GOOD_ROW, dict(GOOD_ROW, parent_id=5)), 2),
    "qa-weight-phrase-number": ("--in", jsonl(GOOD_ROW, dict(
        GOOD_ROW, weights=[{"phrase": 5, "weight": 0.5}])), 2),
    "qa-weight-string": ("--in", jsonl(GOOD_ROW, dict(
        GOOD_ROW, weights=[{"phrase": "yes", "weight": "0.5"}])), 2),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_file_is_one_located_error_line(case, demo_coco, tmp_path, capsys):
    flag, data, line = BAD_INPUTS[case]
    bad = tmp_path / "bad-input"
    bad.write_bytes(data)
    out = str(tmp_path / "out.jsonl")
    if flag == "--in":
        argv = ["weigh", "--in", str(bad), "--out", out]
    else:
        paths = {"--captions": demo_coco, flag: str(bad)}
        argv = ["generate", "--out", out, *[x for item in paths.items() for x in item]]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    where = f"{bad}:{line}" if line else str(bad)
    assert err.startswith(f"error: {where}: ")
    assert not os.path.exists(out)


# --- failures in the middle of a stream ------------------------------------------


def _too_small_last_image(tmp_path, demo_coco):
    doc = json.loads(Path(demo_coco).read_text())
    doc["images"].append({"id": 4, "width": 3, "height": 480})
    doc["annotations"].append({"id": 99, "image_id": 4, "caption": "A tiny dog"})
    bad = tmp_path / "bad-captions.json"
    bad.write_text(json.dumps(doc))
    return bad, "error: image 4: 3x480 too small for level 7"


def _empty_answer_last(tmp_path, pairs_path):
    rows = list(read_jsonl(pairs_path))
    rows.append(QAPair(qa_id="id99", image_id=2, question="What is it?", answer="",
                       answer_type="object", source="template", source_caption="A dog"))
    bad = tmp_path / "bad-pairs.jsonl"
    write_jsonl(rows, bad)
    return bad, "error: pair id99 has an empty answer"


def _malformed_last_line(tmp_path, pairs_path):
    bad = tmp_path / "bad-pairs.jsonl"
    bad.write_bytes(pairs_path.read_bytes() + b'{"qa_id": "id99"}\n')
    return bad, (f"error: {bad}:13: qa record lacks keys: image_id, question, answer, "
                 "answer_type, source, source_caption")


# command -> (argv with {src} for the input, maker of the bad input)
MID_STREAM_FAILURES = {
    "patches": (["patches", "--captions", "{src}"], _too_small_last_image),
    "pretrain": (["pretrain", "--captions", "{coco}", "--qa", "{src}", "--tasks", "mlm,mqa"],
                 _empty_answer_last),
    "sample-epoch": (["sample-epoch", "--in", "{src}", "--epoch", "1"], _malformed_last_line),
}


@pytest.mark.parametrize("command", sorted(MID_STREAM_FAILURES))
def test_failure_mid_stream_keeps_the_published_output(command, demo_coco, tmp_path,
                                                        capsys):
    argv, make_bad = MID_STREAM_FAILURES[command]
    pairs_path, _ = craft_pairs(tmp_path)
    good = Path(demo_coco) if command == "patches" else pairs_path
    bad, expected = make_bad(tmp_path, good)
    out = tmp_path / "out.jsonl"
    manifest = tmp_path / "out.jsonl.manifest.json"

    def run(src):
        args = [a.format(src=src, coco=demo_coco) for a in argv]
        return main([*args, "--out", str(out)])

    assert run(good) == 0
    before = (out.read_bytes(), manifest.read_bytes())
    capsys.readouterr()
    assert run(bad) == 1
    assert capsys.readouterr().err == expected + "\n"
    assert (out.read_bytes(), manifest.read_bytes()) == before
    assert not list(tmp_path.glob("*.partial"))


def test_augment_repeated_qa_id_exit_1(tmp_path, capsys):
    src = tmp_path / "pairs.jsonl"
    src.write_bytes(jsonl(dict(GOOD_ROW, qa_id="same"),
                          dict(GOOD_ROW, qa_id="same", question="Is there a cat?")))
    out = tmp_path / "x.jsonl"
    assert main(["augment", "--in", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'same'" in err
    assert not out.exists()


# --- import cost -----------------------------------------------------------------

# numpy, requests and the process pool load only on the paths that use them
HEAVY = ("numpy", "requests", "concurrent.futures.process")

IMPORT_PROBE = """\
import json, sys
import capqa.cli

heavy, layers, runs, out = json.loads(sys.argv[1])
loaded = lambda: [m for m in heavy if m in sys.modules]
seen = {"import": loaded(), "layers": [m for m in layers if m in sys.modules]}
for name, argv in runs:
    seen[name] = [capqa.cli.main(argv), loaded()]
with open(out, "w") as fh:
    json.dump(seen, fh)
"""


def test_heavy_imports_load_only_where_used(demo_coco, vectors_path, tmp_path):
    layers = traced_layers()
    assert len(layers) == 12
    qa, _ = craft_pairs(tmp_path)
    runs = [
        ("weigh", ["weigh", "--in", str(qa), "--out", str(tmp_path / "w.jsonl")]),
        ("generate", ["generate", "--captions", demo_coco,
                      "--out", str(tmp_path / "g.jsonl")]),
        ("vectors", ["generate", "--captions", demo_coco, "--vectors", vectors_path,
                     "--out", str(tmp_path / "v.jsonl")]),
    ]
    result = tmp_path / "loaded.json"
    env = dict(os.environ, PYTHONPATH=str(Path(capqa.__file__).resolve().parents[1]))
    subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE,
         json.dumps([HEAVY, layers, runs, str(result)])],
        check=True, env=env, stdout=subprocess.DEVNULL,
    )
    seen = json.loads(result.read_text())
    assert seen["import"] == []
    assert seen["layers"] == layers
    assert seen["weigh"] == [0, []]
    assert seen["generate"] == [0, []]
    assert seen["vectors"] == [0, ["numpy"]]
