"""Run one capqa command with its layer boundaries timed from outside.

Usage: python traced.py OUT.json CAPQA-ARGS...

Before calling capqa.cli.main, every function named in LAYERS is replaced by
a timing wrapper at every place that binds it: in its own module and in each
capqa module that imported it by name. No program file changes. A wrapper
records calls and the time inside the call; the time its child spans cover
is subtracted to give self time. Helpers a layer calls internally (such as
qa_json_line or singularize) stay unwrapped, so their time counts in the self
time of the layer function that calls them and no wrapper runs per token.

The root span "cli" wraps capqa.cli.main: its self time is the command's
wall time minus its top-level layer spans. Worker processes forked by
`generate --workers N` inherit the wrappers; each writes its own totals at
exit and the parent merges them into OUT.json.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import sys
import time
from collections import Counter
from multiprocessing import util

LAYERS = {
    "corpus": ("load_coco",),
    "lingo": ("analyze", "object_lemma_index"),
    "qgen": ("gen_yesno", "gen_object", "gen_number", "gen_color", "gen_location",
             "negate_qa", "adversarial_qa", "build_object_vocab"),
    "rng": ("stream", "stable_id"),
    "embed": ("load_vectors", "nearest"),
    "srl": ("load_frames", "render_qa"),
    "answers": ("expand_answer", "build_vocab", "save_vocab_file"),
    "qa": ("read_jsonl", "write_jsonl"),
    "augment": ("augment_batch", "_subprocess_backend"),
    "patches": ("pyramid", "write_manifest"),
    "pretrain": ("itm_pairs", "mlm_mask", "mqa_mask", "write_samples"),
    "stats": ("report",),
}

# span names that differ from module.function
_NAMES = {"augment._subprocess_backend": "augment.rewriter"}


def _arg(args, kwargs, pos, key):
    return args[pos] if len(args) > pos else kwargs[key]


def _count_analyze(c, args, kwargs, result):
    c["lingo.analyze.tokens"] += len(result[0])


def _count_pairs(c, args, kwargs, result):
    c["qgen.pairs"] += len(result)


def _count_adversarial(c, args, kwargs, result):
    c["qgen.adversarial_qa.hits"] += result is not None


def _count_nearest(c, args, kwargs, result):
    c["embed.nearest.candidates"] += len(_arg(args, kwargs, 2, "candidates"))


def _count_write(c, args, kwargs, result):
    c["qa.rows_written"] += result
    c["qa.bytes_written"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _count_augment(c, args, kwargs, result):
    requests = len(_arg(args, kwargs, 0, "pairs"))
    c["augment.requests"] += requests
    c["augment.variants"] += len(result) - requests


COUNTERS = {
    "lingo.analyze": _count_analyze,
    "qgen.gen_yesno": _count_pairs,
    "qgen.gen_object": _count_pairs,
    "qgen.gen_number": _count_pairs,
    "qgen.gen_color": _count_pairs,
    "qgen.gen_location": _count_pairs,
    "qgen.adversarial_qa": _count_adversarial,
    "embed.nearest": _count_nearest,
    "qa.write_jsonl": _count_write,
    "augment.augment_batch": _count_augment,
}


class Tracer:
    """Per-process span totals: name -> [calls, total_s, self_s], plus counters."""

    def __init__(self, out_path: str):
        self.out_path = out_path
        self.spans = {}
        self.counts = Counter()
        self.stack = []

    def _totals(self, name):
        return self.spans.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name, fn):
        totals = self._totals(name)
        stack = self.stack
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        def close(t0):
            dur = clock() - t0
            child = stack.pop()
            totals[0] += 1
            totals[1] += dur
            totals[2] += dur - child
            if stack:
                stack[-1] += dur

        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is one span
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    stack.append(0.0)
                    t0 = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        close(t0)
                    self.counts[f"{name}.rows"] += 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(t0)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def install(self):
        import capqa.cli  # noqa: F401  (loads every capqa module)
        modules = [m for n, m in sys.modules.items() if n.startswith("capqa.") and m]
        for mod_name, fn_names in LAYERS.items():
            mod = sys.modules[f"capqa.{mod_name}"]
            for fn_name in fn_names:
                original = getattr(mod, fn_name)
                name = _NAMES.get(f"{mod_name}.{fn_name}", f"{mod_name}.{fn_name}")
                wrapped = self.wrap(name, original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)
        util.register_after_fork(self, Tracer._after_fork)
        return self.wrap("cli", capqa.cli.main)

    def _after_fork(self):
        # a forked worker starts from empty totals and writes them at exit
        for totals in self.spans.values():
            totals[:] = [0, 0.0, 0.0]
        self.counts.clear()
        self.stack.clear()
        util.Finalize(self, self.dump, args=(f"{self.out_path}.w{os.getpid()}",),
                      exitpriority=100)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)

    def merge_workers(self):
        for path in sorted(glob.glob(f"{glob.escape(self.out_path)}.w*")):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            os.unlink(path)
            for name, (calls, total, own) in doc["spans"].items():
                totals = self._totals(name)
                totals[0] += calls
                totals[1] += total
                totals[2] += own
            self.counts.update(doc["counts"])


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer(out_path)
    cli_main = tracer.install()
    try:
        code = cli_main(argv)
    finally:
        tracer.merge_workers()
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
