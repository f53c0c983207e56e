"""Cold set-up of one workload, run in a fresh interpreter.

Usage: python setup_probe.py WORKLOAD CAPTIONS [VECTORS FRAMES | QA]

Imports capqa.cli and loads, through the public loaders, what the workload's
first command loads before its first record. Prints where capqa was imported
from and how many images it loaded, so the caller can confirm the program
under test is the one in the checkout.
"""

import json
import sys

import capqa
import capqa.cli  # noqa: F401
from capqa.corpus import load_coco
from capqa.embed import load_vectors
from capqa.lingo import Lexicons, object_lemma_index
from capqa.qa import read_jsonl
from capqa.qgen import build_object_vocab
from capqa.srl import load_frames


def main() -> int:
    workload, captions = sys.argv[1], sys.argv[2]
    corpus = load_coco(captions)
    _, counts = object_lemma_index(corpus.records, Lexicons.default())
    loaded = {"capqa": capqa.__file__, "images": len(corpus.records)}
    if workload == "adversarial":
        store = load_vectors(sys.argv[3])
        build_object_vocab(counts)
        loaded["vectors"] = len(store.vocab_order)
        loaded["frames"] = len(load_frames(sys.argv[4], corpus))
    elif workload == "downstream":
        loaded["rows"] = sum(1 for _ in read_jsonl(sys.argv[3]))
    print(json.dumps(loaded))
    return 0


if __name__ == "__main__":
    sys.exit(main())
