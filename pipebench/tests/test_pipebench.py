"""The benchmark's own tests: every workload at a small size, every check
against a corrupted output, determinism of inputs and outputs.

Run from the root of the repository:

    python3 -m pytest -q pipebench/tests
"""

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
from inputs import make_inputs  # noqa: E402
from rewriter import rewrites  # noqa: E402

SEED = 7


def produce(workload, seed, root: Path, workers=None):
    """Small inputs for `workload` and one round of its commands under root."""
    inputs = make_inputs(workload, seed, root / "in", "small")
    out = root / "out"
    out.mkdir(parents=True)
    steps = run.sequence(inputs, out, seed)
    if workers is not None:
        args = steps[0][1]
        args[args.index("--workers") + 1] = str(workers)
    launcher = run.Launcher(run.program_env())
    try:
        rnd = run.run_round(steps, out, launcher)
    finally:
        launcher.close()
    assert rnd["failed"] == 0
    return inputs, out


def data_digest(out: Path) -> str:
    """Digest of the data files; run manifests name absolute paths."""
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix != ".stderr" and not path.name.endswith(".manifest.json"):
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module", params=run.WORKLOADS)
def produced(request, tmp_path_factory):
    root = tmp_path_factory.mktemp(request.param)
    return produce(request.param, SEED, root)


# --- whole workloads --------------------------------------------------------------


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_small_workload_runs_clean(workload):
    result = run.benchmark(workload, SEED, 0.1, trace=False, scale="small")
    assert result["record"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = run.benchmark(workload, SEED, 0.1, trace=True, scale="small")
    assert result["correct"] and result["failed"] == 0
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    assert list(metrics) == [name for name, _ in run.PER_LAYER]
    assert metrics["cli.self_s"] > 0
    if workload == "templates":
        assert metrics["lingo.analyze.calls"] > 0 and metrics["qgen.pairs"] > 0
        assert metrics["qgen.adversarial_qa.calls"] == 0
    if workload == "adversarial":
        # these run in the two forked workers only
        assert metrics["qgen.adversarial_qa.calls"] > 0
        assert 0 < metrics["qgen.adversarial_qa.hit_ratio"] <= 1
        assert metrics["embed.nearest.candidates"] > 0 and metrics["srl.render_qa.calls"] > 0
    if workload == "downstream":
        assert metrics["augment.rewriter_spawns"] >= 1
        assert metrics["augment.variants"] > 0 and metrics["pretrain.itm_pairs.calls"] > 0
        assert metrics["qa.rows_read"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("work", "runs", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "templates", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# --- determinism ------------------------------------------------------------------


def test_same_seed_same_outputs_and_other_seed_other_inputs(tmp_path):
    a_in, a_out = produce("downstream", SEED, tmp_path / "a")
    b_in, b_out = produce("downstream", SEED, tmp_path / "b")
    assert a_in.digest() == b_in.digest()
    assert data_digest(a_out) == data_digest(b_out)
    other = make_inputs("downstream", SEED + 1, tmp_path / "c", "small")
    assert other.digest() != a_in.digest()


@pytest.mark.parametrize("workload", ("templates", "adversarial"))
def test_inputs_depend_on_seed_only(workload, tmp_path):
    a = make_inputs(workload, SEED, tmp_path / "a", "small")
    b = make_inputs(workload, SEED, tmp_path / "b", "small")
    c = make_inputs(workload, SEED + 1, tmp_path / "c", "small")
    assert a.digest() == b.digest() != c.digest()


def test_adversarial_one_and_two_workers_agree(tmp_path):
    _, one = produce("adversarial", SEED, tmp_path / "one", workers=1)
    _, two = produce("adversarial", SEED, tmp_path / "two", workers=2)
    assert (one / "qa.jsonl").read_bytes() == (two / "qa.jsonl").read_bytes()


# --- every check fails on a corrupted output --------------------------------------


def load(path):
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def save(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))


def edit_rows(name, fn):
    def corrupt(out, inputs):
        rows = load(out / name)
        fn(rows, inputs)
        save(out / name, rows)
    return corrupt


def edit_json(name, fn):
    def corrupt(out, inputs):
        doc = json.loads((out / name).read_text())
        fn(doc)
        (out / name).write_text(json.dumps(doc))
    return corrupt


def _first(rows, pred):
    return next(r for r in rows if pred(r))


def _swap_to(rows, inputs, choose):
    """Rewrite one adversarial row to swap in the noun `choose` picks."""
    by_id = {r["qa_id"]: r for r in rows}
    space = checks.VectorSpace(inputs)
    for r in rows:
        if r["source"] != "adversarial":
            continue
        parent = by_id[r["parent_id"]]
        surface, lemma = inputs.first_head[(r["image_id"], parent["source_caption"])]
        new = choose(space, lemma, r["image_id"])
        if new is None:
            continue
        word = new + "s" if surface != lemma else new
        r["question"] = parent["question"].replace(surface, word, 1)
        return
    raise AssertionError("no adversarial row could be corrupted")


def _present(space, lemma, image_id):
    return sorted(space.inputs.lemmas[image_id] - {lemma})[0]


def _below_threshold(space, lemma, image_id):
    eligible = sorted(space.inputs.vocab - space.inputs.lemmas[image_id])
    return min(eligible, key=lambda w: space.cosine(lemma, w))


def _runner_up(space, lemma, image_id):
    eligible = space.inputs.vocab - space.inputs.lemmas[image_id]
    ranked = sorted(eligible, key=lambda w: -space.cosine(lemma, w))
    second = ranked[1]
    if space.cosine(lemma, second) < checks.ADVERSARIAL_THRESHOLD:
        return None
    if space.cosine(lemma, ranked[0]) - space.cosine(lemma, second) < 1e-6:
        return None
    return second


def _extra_template_rows(rows, inputs):
    row = _first(rows, lambda r: r["source"] == "template" and r["answer_type"] != "yesno")
    for i in range(checks.MAX_QUESTIONS_PER_CAPTION + 1):
        rows.append(dict(row, qa_id=f"{row['qa_id'][:-2]}{i:02d}x"))


def _bump_weight(rows, inputs):
    row = _first(rows, lambda r: len(r["weights"]) > 1)
    row["weights"][-1]["weight"] += 0.1


def _drop_negative(rows, inputs):
    rows.remove(_first(rows, lambda r: r["source"] in ("negation", "adversarial")))


def _srl_answer(rows, inputs):
    _first(rows, lambda r: r["source"] == "srl")["answer"] = "a different phrase"


def _variant(rows):
    return _first(rows, lambda r: r.get("parent_id") is not None)


def _foreign_variant(rows, inputs):
    _variant(rows)["question"] = "What is this?"


def _third_variant(rows, inputs):
    v = _variant(rows)
    rows.insert(rows.index(v) + 1, dict(v, qa_id=v["qa_id"][:-1] + "z"))


def _drop_answer(rows, inputs):
    parents = {r["qa_id"]: r for r in rows}
    for v in rows:
        parent = parents.get(v.get("parent_id"))
        if parent is not None and " or " in parent["question"]:
            v["question"] = rewrites(parent["question"])[0]
            return
    raise AssertionError("no variant of a choice question")


def _same_family_mismatch(rows, inputs):
    s = _first(rows, lambda r: r["task"] == "itm" and r["label"] == "mismatch")
    mate = next(i for i in inputs.captions
                if i != s["image_id"] and inputs.family[i] == inputs.family[s["image_id"]])
    s["provenance"] = f"{mate}:0"
    s["text"] = inputs.captions[mate][0].split()


def _unmask_one(rows, inputs):
    s = _first(rows, lambda r: r["task"] == "mlm")
    pos, tok = next(iter(s["targets"].items()))
    s["text"][int(pos)] = tok
    del s["targets"][pos]


def _short_mqa(rows, inputs):
    s = _first(rows, lambda r: r["task"] == "mqa" and len(r["targets"]) > 1)
    last = max(s["targets"], key=int)
    del s["targets"][last]
    s["text"].pop()


def _drop_patch(rows, inputs):
    rows.pop(40)


def _shrink_level_one(rows, inputs):
    p = _first(rows, lambda r: r["level"] == 1)
    p["rect"][2] -= 1


def _vocab(fn):
    def corrupt(out, inputs):
        lines = (out / "vocab.txt").read_text().splitlines()
        fn(lines, inputs, out)
        (out / "vocab.txt").write_text("\n".join(lines) + "\n")
    return corrupt


def _wrong_header(lines, inputs, out):
    lines[0] = lines[0] + "1"


def _missing_answer(lines, inputs, out):
    answer = " ".join(checks.normalized_answer(load(out / "weighed.jsonl")[0]["answer"]))
    lines.remove(answer)
    lines[0] = f"#capqa-vocab v1 count={len(lines) - 1}"


def _reverse_epoch(out, inputs):
    lines = (out / "epoch.jsonl").read_text().splitlines()
    (out / "epoch.jsonl").write_text("\n".join(reversed(lines)) + "\n")


def _plus_one_total(doc):
    doc["total"] += 1


GENERATE_CORRUPTIONS = {
    "rows_parse": edit_rows("qa.jsonl", lambda rows, i: rows[0].pop("question")),
    "unique_ids": edit_rows("qa.jsonl", lambda rows, i: rows[1].update(qa_id=rows[0]["qa_id"])),
    "sorted": edit_rows("qa.jsonl", lambda rows, i: rows.reverse()),
    "yesno_pairs": edit_rows("qa.jsonl", _drop_negative),
    "per_caption_cap": edit_rows("qa.jsonl", _extra_template_rows),
    "weights": edit_rows("qa.jsonl", _bump_weight),
    "report_totals": edit_json("generate.stdout", _plus_one_total),
}
ADVERSARIAL_CORRUPTIONS = {
    "adversarial_swap": edit_rows("qa.jsonl", lambda rows, i: _swap_to(rows, i, _present)),
    "adversarial_threshold": edit_rows(
        "qa.jsonl", lambda rows, i: _swap_to(rows, i, _below_threshold)),
    "adversarial_nearest": edit_rows("qa.jsonl", lambda rows, i: _swap_to(rows, i, _runner_up)),
    "srl_answers": edit_rows("qa.jsonl", _srl_answer),
}
DOWNSTREAM_CORRUPTIONS = {
    "augment_variants": edit_rows("augmented.jsonl", _foreign_variant),
    "augment_max_variants": edit_rows("augmented.jsonl", _third_variant),
    "augment_answer_kept": edit_rows("augmented.jsonl", _drop_answer),
    "weigh_rows_parse": edit_rows("weighed.jsonl", lambda rows, i: rows[3].pop("answer_type")),
    "weigh_weights": edit_rows("weighed.jsonl", _bump_weight),
    "itm": edit_rows("pretrain.jsonl", _same_family_mismatch),
    "mlm": edit_rows("pretrain.jsonl", _unmask_one),
    "mqa": edit_rows("pretrain.jsonl", _short_mqa),
    "patch_count": edit_rows("patches.jsonl", _drop_patch),
    "patch_cover": edit_rows("patches.jsonl", _shrink_level_one),
    "vocab_header": _vocab(_wrong_header),
    "vocab_answers": _vocab(_missing_answer),
    "sample_epoch": _reverse_epoch,
    "stats_total": edit_json("stats.stdout", _plus_one_total),
}
CORRUPTIONS = {
    "templates": GENERATE_CORRUPTIONS,
    "adversarial": {**GENERATE_CORRUPTIONS, **ADVERSARIAL_CORRUPTIONS},
    "downstream": DOWNSTREAM_CORRUPTIONS,
}


def test_every_check_has_a_corruption(produced):
    inputs, out = produced
    runner = checks.downstream_checks if inputs.workload == "downstream" else checks.generate_checks
    names = [name for name, _ in runner(inputs, out)]
    assert sorted(names) == sorted(CORRUPTIONS[inputs.workload])
    assert checks.run_checks(inputs, out) == []


def test_each_check_fails_on_its_corruption(produced, tmp_path):
    inputs, out = produced
    for name, corrupt in CORRUPTIONS[inputs.workload].items():
        copy = tmp_path / name
        shutil.copytree(out, copy)
        corrupt(copy, inputs)
        failures = checks.run_checks(inputs, copy)
        assert any(f.startswith(f"{name}:") for f in failures), (name, failures)
