"""Peak memory per command does not grow with the rows it writes.

Each command runs in its own interpreter on a 1x and an 8x input (50 and 400
images); the peak is the child's own VmHWM, read from /proc/self/status as it
exits. A command that holds its whole input or output grows by several MB
over that range; one that streams grows only by what it must keep, such as
the corpus.
"""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import capqa
from capqa.qa import QAPair, write_jsonl
from conftest import synth_caption, write_coco

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
    "patches": ["patches", "--captions", "{coco}"],
    "pretrain": ["pretrain", "--captions", "{coco}", "--qa", "{qa}",
                 "--tasks", "mlm,mqa,itm"],
    "sample-epoch": ["sample-epoch", "--in", "{qa}", "--epoch", "1"],
    "weigh": ["weigh", "--in", "{qa}", "--force"],
    "stats": ["stats", "--in", "{qa}"],
    "augment": ["augment", "--in", "{qa}"],
}
UNBOUNDED = {"augment"}  # holds its input pairs and every rewriter response


def peak_mb(argv, work: Path) -> float:
    result = work / "peak"
    env = dict(os.environ, PYTHONPATH=str(Path(capqa.__file__).resolve().parents[1]))
    env.pop("CAPQA_SEED", None)
    subprocess.run([sys.executable, "-c", PROBE, str(result), *argv], check=True, env=env,
                   stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
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
