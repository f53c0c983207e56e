"""Peak memory per command does not grow with the rows it writes.

Each command runs in its own interpreter on a 1x and an 8x input (50 and 400
images); the peak is the child's own VmHWM, read from /proc/self/status as it
exits. A command that holds its whole input or output grows by several MB
over that range; one that streams grows only by what it must keep, such as
the corpus. Two more tests hold down fixed costs: the modules `import
capqa.cli` loads, which every command pays, and the transient buffers of the
rewriter exchange.
"""

import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import capqa
from capqa.augment import _subprocess_backend
from capqa.config import PipelineConfig
from capqa.qa import QAPair, read_jsonl, write_jsonl
from conftest import synth_caption, traced_layers, write_coco

pytestmark = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                reason="needs /proc/self/status")

SMALL, LARGE = 50, 400  # images: 1x and 8x
CAPTIONS = 5
PAIRS = 20  # per image
GROWTH_BOUND_MB = 3.0

PROBE = """\
import sys
from capqa.cli import main

code = main(sys.argv[2:])
with open("/proc/self/status") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
with open(sys.argv[1], "w") as fh:
    fh.write(f"{code} {hwm_kb}")
"""

_ANSWERS = [("yes", "yesno"), ("no", "yesno"), ("two", "number"), ("red", "color"),
            ("the park", "location"), ("a small brown dog", "object"),
            ("sitting near the old bench", "phrase")]


def make_inputs(directory: Path, images: int) -> tuple:
    """A caption corpus and a QA file over it, 20 pairs per image."""
    rng = random.Random(images)
    records = [{"image_id": i, "captions": [synth_caption(rng) for _ in range(CAPTIONS)],
                "width": 640, "height": 480} for i in range(1, images + 1)]
    directory.mkdir()
    coco = write_coco(directory / "captions.json", records)
    pairs = [
        QAPair(qa_id=f"{rec['image_id']}-{j}", image_id=rec["image_id"],
               question=f"What is in picture {rec['image_id']}, part {j}?",
               answer=answer, answer_type=kind, source="template",
               source_caption=rec["captions"][j % CAPTIONS])
        for rec in records
        for j, (answer, kind) in enumerate(rng.choices(_ANSWERS, k=PAIRS))
    ]
    qa = directory / "qa.jsonl"
    write_jsonl(pairs, qa)
    return coco, str(qa)


COMMANDS = {
    "generate": ["generate", "--captions", "{coco}", "--workers", "1"],
    "generate-workers-2": ["generate", "--captions", "{coco}", "--workers", "2"],
    "patches": ["patches", "--captions", "{coco}"],
    "pretrain": ["pretrain", "--captions", "{coco}", "--qa", "{qa}",
                 "--tasks", "mlm,mqa,itm"],
    "sample-epoch": ["sample-epoch", "--in", "{qa}", "--epoch", "1"],
    "weigh": ["weigh", "--in", "{qa}", "--force"],
    "stats": ["stats", "--in", "{qa}"],
    "augment": ["augment", "--in", "{qa}"],
}
UNBOUNDED = {"augment"}  # holds its input pairs and every rewriter response


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(capqa.__file__).resolve().parents[1]))
    env.pop("CAPQA_SEED", None)
    return env


def peak_mb(argv, work: Path) -> float:
    result = work / "peak"
    subprocess.run([sys.executable, "-c", PROBE, str(result), *argv], check=True,
                   env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    code, hwm_kb = result.read_text().split()
    assert code == "0", argv
    return int(hwm_kb) / 1024


@pytest.fixture(scope="module")
def scaled_inputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("memory")
    return {n: make_inputs(base / f"x{n}", n) for n in (SMALL, LARGE)}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_peak_memory_growth(command, scaled_inputs, tmp_path, record_property):
    peaks = {}
    for n, (coco, qa) in scaled_inputs.items():
        out = tmp_path / f"out{n}.jsonl"
        argv = [a.format(coco=coco, qa=qa) for a in COMMANDS[command]]
        peaks[n] = peak_mb([*argv, "--out", str(out)], tmp_path)
        assert out.stat().st_size > 0
    growth = peaks[LARGE] - peaks[SMALL]
    record_property("peak_mb", json.dumps(peaks))
    if command not in UNBOUNDED:
        assert growth <= GROWTH_BOUND_MB, f"{command}: {peaks}"


# OpenSSL (through hashlib) and subprocess cost every command resident memory;
# only a command-line rewriter needs subprocess, and no command needs OpenSSL
NOT_AT_IMPORT = ("_hashlib", "hashlib", "subprocess")


def test_import_floor():
    probe = "import json, sys\nimport capqa.cli\nprint(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], check=True, env=child_env(),
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert [m for m in NOT_AT_IMPORT if m in loaded] == []
    # pipebench/traced.py wraps the layers of every capqa module it names
    assert [m for m in traced_layers() if m not in loaded] == []


# answers every request with three rewrites, without a flush per line
REWRITER = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    text = req["text"]
    rewrites = [f"Please tell me, {text}", f"In this picture, {text}", f"Looking closely, {text}"]
    sys.stdout.write(json.dumps({"request_id": req["request_id"], "rewrites": rewrites}) + "\\n")
"""
EXCHANGE_BOUND_MB = 2.0


def test_rewriter_exchange_holds_no_whole_payload(scaled_inputs, tmp_path):
    script = tmp_path / "rewriter.py"
    script.write_text(REWRITER, encoding="utf-8")
    cfg = PipelineConfig(augment_mode="paraphrase")
    pairs = list(read_jsonl(scaled_inputs[LARGE][1]))
    batches = [pairs[i:i + cfg.batch_size] for i in range(0, len(pairs), cfg.batch_size)]
    tracemalloc.start()
    try:
        got = _subprocess_backend([sys.executable, str(script)], batches, cfg)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not [answers for answers in got if isinstance(answers, Exception)]
    assert [len(answers) for answers in got] == [len(batch) for batch in batches]
    transient_mb = (peak - after) / 2**20
    assert transient_mb < EXCHANGE_BOUND_MB, f"{transient_mb:.2f} MB"
