"""Pipeline command line.

Eight subcommands that compose through JSONL files: generate, augment,
weigh, vocab, patches, pretrain, sample-epoch, stats. Every run is fully
determined by (inputs, effective config); worker count never changes output
bytes. Exit codes: 0 ok, 1 error, 2 bad usage.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from collections import deque

from . import files
from .answers import answer_weights, build_vocab, save_vocab_file
from .augment import augment_batch
from .config import (
    AUGMENT_MODES,
    FIELD_NAMES,
    GENERATORS,
    NEGATIVE_MODES,
    PRETRAIN_TASKS,
    PipelineConfig,
    _DIMS_RE,
    load_config,
    require_file,
    resolve,
)
from .corpus import load_coco
from .embed import Candidates, load_vectors
from .errors import BadDims, CapqaError, MalformedInput
from .lingo import Lexicons, analyze, object_lemma_index
from .patches import pyramid, write_manifest
from .pretrain import itm_pairs, mlm_mask, mqa_mask, write_samples
from .qa import read_jsonl, write_jsonl
from .qgen import (
    build_object_vocab,
    gen_color,
    gen_location,
    gen_number,
    gen_object,
    gen_yesno,
)
from .rng import stream
from .srl import load_frames, render_qa
from .stats import StatsAccumulator, export_embeddings, report

log = logging.getLogger(__name__)


def _lexicons(cfg: PipelineConfig) -> Lexicons:
    if not cfg.lexicons:
        return Lexicons.default()
    return Lexicons.load(require_file(cfg.lexicons, "--lexicons"))


# --- generation context -----------------------------------------------------------


class _Context:
    """Read-only state shared by every record of a generate run."""

    __slots__ = ("cfg", "lex", "corpus", "store", "object_vocab",
                 "lemma_index", "frames_by_image")

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.lex = _lexicons(cfg)
        self.corpus = load_coco(require_file(cfg.captions, "--captions"))
        if cfg.vectors:
            # only the adversarial search reads the head lemmas and their counts
            self.lemma_index, counts = object_lemma_index(self.corpus.records, self.lex)
            self.store = load_vectors(require_file(cfg.vectors, "--vectors"))
            self.object_vocab = Candidates(self.store,
                                           build_object_vocab(counts, cfg.vocab_limit))
        else:
            if cfg.negative_mode == "adversarial":
                raise MalformedInput(
                    "negative_mode 'adversarial' needs an embedding file (--vectors)"
                )
            self.lemma_index = {}
            self.store = None
            self.object_vocab = None
        self.frames_by_image = {}
        if "srl" in cfg.generators and cfg.srl_frames:
            for frame in load_frames(require_file(cfg.srl_frames, "--srl-frames"),
                                     self.corpus):
                self.frames_by_image.setdefault(frame.image_id, []).append(frame)


def _record_pairs(record, ctx: _Context) -> list:
    """Every enabled generator over one record's captions, weights filled,
    sorted by qa_id."""
    out = []
    cfg, lex = ctx.cfg, ctx.lex
    gens = cfg.generators
    for idx, caption in enumerate(record.captions):
        analysis = analyze(caption, lex)
        atomic = []
        rest = []
        if "yesno" in gens:
            atomic = gen_yesno(
                record, idx, analysis, cfg, lex,
                store=ctx.store,
                object_vocab=ctx.object_vocab,
                record_lemmas=ctx.lemma_index.get(record.image_id),
            )
        if "object" in gens:
            rest.extend(gen_object(record, idx, analysis, lex))
        if "number" in gens:
            rest.extend(gen_number(record, idx, analysis, cfg, lex))
        if "color" in gens:
            rest.extend(gen_color(record, idx, analysis))
        if "location" in gens:
            rest.extend(gen_location(record, idx, analysis, lex))
        # the yes/no pair is indivisible and exempt from the per-caption cap
        out.extend(atomic)
        out.extend(rest[: cfg.max_questions_per_caption])
    if "srl" in gens:
        for frame in ctx.frames_by_image.get(record.image_id, ()):
            out.extend(render_qa(frame, lex))
    for qa in out:
        qa.weights = answer_weights(qa, lex)
    out.sort(key=lambda qa: qa.qa_id)
    return out


# worker processes get the parent's context once, at start-up
_WORKER_CTX = None

# records per task sent to a worker, and tasks in flight per worker: the
# parent never holds more than this many records' finished pairs
_CHUNK_RECORDS = 16
_CHUNKS_PER_WORKER = 2


def _init_worker(ctx: _Context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_pairs(records) -> list:
    return [_record_pairs(record, _WORKER_CTX) for record in records]


def _pool_pairs(pool, records, workers: int):
    """Each record's pairs, in record order, from `pool`'s workers with at
    most `_CHUNKS_PER_WORKER * workers` chunks in flight."""
    pending = deque()
    try:
        for start in range(0, len(records), _CHUNK_RECORDS):
            if len(pending) == _CHUNKS_PER_WORKER * workers:
                yield from pending.popleft().result()
            pending.append(pool.submit(_worker_pairs, records[start:start + _CHUNK_RECORDS]))
        while pending:
            yield from pending.popleft().result()
    finally:
        for future in pending:
            future.cancel()


# --- output plumbing --------------------------------------------------------------


def _publish(path: str, writer, command: str, cfg: PipelineConfig, counts):
    """Write `path` through `writer`, and its run manifest.

    Both are staged to `.partial` files first. Then the old manifest goes, the
    output moves in, and its manifest last, so a failure leaves the previous
    pair, or the new output with no manifest, but never an output beside
    another run's manifest. `counts` maps the writer's result to the
    manifest's counts. Returns the writer's result.
    """
    manifest = f"{path}.manifest.json"
    # target -> staging file, in move order
    staged = {path: f"{path}.partial", manifest: f"{manifest}.partial"}
    try:
        result = writer(staged[path])
        _write_json({
            "command": command,
            "config": dataclasses.asdict(cfg),
            "outputs": [str(path)],
            "counts": counts(result),
        }, staged[manifest])
        if os.path.exists(manifest):
            os.unlink(manifest)
        for target, tmp in staged.items():
            os.replace(tmp, target)
        return result
    finally:
        for tmp in staged.values():
            if os.path.exists(tmp):
                os.unlink(tmp)


def _write_json(doc: dict, path: str) -> int:
    return files.write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --- command handlers -------------------------------------------------------------


def _cmd_generate(args) -> int:
    file_values, overrides = _config_sources(args)
    cfg = resolve(file_values, overrides)
    # the default list names srl too, and runs it only when frames are given
    named = "generators" in file_values or "generators" in overrides
    if named and "srl" in cfg.generators and not cfg.srl_frames:
        raise MalformedInput("generator 'srl' needs a frame file (--srl-frames)")
    ctx = _Context(cfg)
    records = ctx.corpus.records
    acc = StatsAccumulator()

    def rows(per_record):
        # records come in ascending image_id, each sorted by qa_id
        for pairs in per_record:
            for qa in pairs:
                acc.add(qa)
                yield qa

    def publish(per_record):
        return _publish(args.out, lambda p: write_jsonl(rows(per_record), p),
                        "generate", cfg, lambda n: {"pairs": n})

    if cfg.workers == 1:
        count = publish(_record_pairs(record, ctx) for record in records)
    else:
        # loads multiprocessing and socket, which no single-process run needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=_init_worker,
            initargs=(ctx,),
        ) as pool:
            count = publish(_pool_pairs(pool, records, cfg.workers))
    _emit(acc.report().to_json_dict() if count else {"total": 0})
    return 0


def _cmd_augment(args) -> int:
    cfg = _effective_config(args)
    pairs = list(read_jsonl(require_file(args.input, "--in")))
    out_pairs = augment_batch(pairs, cfg.rewriter or None, cfg)
    lex = _lexicons(cfg)

    def rows():
        # weighed as written: a written row keeps no weights, which as
        # Fractions would outweigh the rows themselves
        for qa in out_pairs:
            qa.weights = answer_weights(qa, lex)
            yield qa
            qa.weights = None

    count = _publish(args.out, lambda p: write_jsonl(rows(), p),
                     "augment", cfg, lambda n: {"pairs": n})
    _emit({"pairs": count, "new": count - len(pairs)})
    return 0


def _cmd_weigh(args) -> int:
    cfg = _effective_config(args)
    lex = _lexicons(cfg)
    pairs = read_jsonl(require_file(args.input, "--in"))
    filled = 0

    def rows():
        nonlocal filled
        for qa in pairs:
            if args.force:
                qa.weights = None
            if not qa.weights:
                qa.weights = answer_weights(qa, lex)
                filled += 1
            yield qa

    count = _publish(args.out, lambda p: write_jsonl(rows(), p),
                     "weigh", cfg, lambda n: {"pairs": n, "weighed": filled})
    _emit({"pairs": count, "weighed": filled})
    return 0


def _cmd_vocab(args) -> int:
    cfg = _effective_config(args)
    phrases = build_vocab(
        read_jsonl(require_file(args.input, "--in")),
        lex=_lexicons(cfg),
        min_count=cfg.min_count,
    )
    count = _publish(args.out, lambda p: save_vocab_file(phrases, p),
                     "vocab", cfg, lambda n: {"phrases": n})
    _emit({"phrases": count})
    return 0


def _cmd_patches(args) -> int:
    cfg = _effective_config(args)
    corpus = load_coco(require_file(cfg.captions, "--captions"))
    default_dims = None
    if cfg.default_dims:
        default_dims = tuple(map(int, cfg.default_dims.split("x")))
    missing = [
        rec.image_id
        for rec in corpus.records
        if rec.width is None or rec.height is None
    ]
    if missing and default_dims is None:
        listed = ", ".join(str(i) for i in missing)
        raise BadDims(f"images missing dimensions: {listed}")

    def specs():
        for rec in corpus.records:
            if rec.width is None or rec.height is None:
                width, height = default_dims
            else:
                width, height = rec.width, rec.height
            yield pyramid(rec.image_id, width, height, cfg.levels)

    images = len(corpus.records)
    count = _publish(args.out, lambda p: write_manifest(specs(), p),
                     "patches", cfg, lambda n: {"images": images, "entries": n})
    _emit({"images": images, "entries": count})
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _effective_config(args)
    corpus = load_coco(require_file(cfg.captions, "--captions"))

    def samples():
        # task by task, mlm, mqa, itm, each sample written as it is made
        if "mlm" in cfg.tasks:
            for rec in corpus.records:
                for idx, caption in enumerate(rec.captions):
                    yield mlm_mask(caption, cfg.seed, image_id=rec.image_id,
                                   caption_index=idx)
        if "mqa" in cfg.tasks:
            qa_path = require_file(args.qa or "", "--qa (needed for the mqa task)")
            for qa in read_jsonl(qa_path):
                yield mqa_mask(qa)
        if "itm" in cfg.tasks:
            index, _ = object_lemma_index(corpus.records, _lexicons(cfg))
            short_images = missing = 0
            for rec in corpus.records:
                itm, short = itm_pairs(rec, corpus, index, cfg.neg_ratio, cfg.seed)
                yield from itm
                short_images += short > 0
                missing += short
            if missing:
                log.warning(
                    "itm: %d image(s) had too few disjoint captions; %d negative(s) missing",
                    short_images, missing,
                )

    count = _publish(args.out, lambda p: write_samples(samples(), p),
                     "pretrain", cfg, lambda n: {"samples": n})
    _emit({"samples": count})
    return 0


def _cmd_sample_epoch(args) -> int:
    cfg = _effective_config(args)
    path = require_file(args.input, "--in")
    # two passes over --in: the first checks every row and keeps only its
    # position under its image_id, the second streams the sampled rows
    by_image = {}
    for pos, qa in enumerate(read_jsonl(path)):
        by_image.setdefault(qa.image_id, []).append(pos)
    if not by_image:
        raise MalformedInput(f"dataset {args.input} holds no pairs")
    k = cfg.questions_per_image_per_epoch
    keep = set()
    for image_id, positions in by_image.items():
        rng = stream(cfg.seed, args.epoch, image_id)
        keep.update(rng.sample(positions, min(k, len(positions))))
    sampled = (qa for pos, qa in enumerate(read_jsonl(path)) if pos in keep)
    count = _publish(args.out, lambda p: write_jsonl(sampled, p),
                     "sample-epoch", cfg, lambda n: {"pairs": n, "epoch": args.epoch})
    _emit({"pairs": count, "images": len(by_image), "epoch": args.epoch})
    return 0


def _cmd_stats(args) -> int:
    cfg = _effective_config(args)
    pairs = read_jsonl(require_file(args.input, "--in"))
    exported = None
    if args.embeddings_out:
        # one pass over --in feeds both the export and the report
        store = load_vectors(require_file(cfg.vectors, "--vectors"))
        acc = StatsAccumulator()

        def rows():
            for qa in pairs:
                acc.add(qa)
                yield qa

        def export(path):
            nonlocal rep
            count = export_embeddings(rows(), store, path)
            rep = acc.report()  # an empty input raises here, before anything is published
            return count

        exported = _publish(args.embeddings_out, export, "stats", cfg, lambda n: {"pairs": n})
    else:
        rep = report(pairs)
    doc = rep.to_json_dict()
    if args.out:
        _publish(args.out, lambda p: _write_json(doc, p),
                 "stats", cfg, lambda _: {"pairs": rep.total})
    if exported is not None:
        doc["embeddings_exported"] = exported
    _emit(doc)
    return 0


# --- argument parsing -------------------------------------------------------------


def _comma_list(value: str) -> tuple:
    return tuple(part.strip() for part in value.split(",") if part.strip())


def _comma_ints(value: str) -> tuple:
    try:
        return tuple(int(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {value!r}")


def _dims_arg(value: str) -> str:
    if not _DIMS_RE.fullmatch(value):
        raise argparse.ArgumentTypeError("expected WIDTHxHEIGHT, e.g. 640x480")
    return value


def _parse_overrides(args) -> dict:
    overrides = {}
    for pair in getattr(args, "set", None) or []:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise MalformedInput(f"--set expects field=value, got {pair!r}")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        overrides[key.strip()] = value
    for field in FIELD_NAMES:
        if getattr(args, field, None) is not None:
            overrides[field] = getattr(args, field)
    return overrides


def _config_sources(args) -> tuple:
    """The config file's values and the flag overrides, each a dict."""
    return (load_config(args.config) if args.config else {}), _parse_overrides(args)


def _effective_config(args) -> PipelineConfig:
    return resolve(*_config_sources(args))


def _add_common(sub) -> None:
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--seed", type=int, help="run seed")
    sub.add_argument("--set", action="append", metavar="FIELD=VALUE",
                     help="override any config field")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capqa",
        description="Synthesize VQA training data from image captions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="captions to weighted QA pairs")
    p.add_argument("--captions", help="caption annotation JSON")
    p.add_argument("--vectors", help="word embedding text file")
    p.add_argument("--srl-frames", dest="srl_frames", help="SRL frame JSONL")
    p.add_argument("--lexicons", help="lexicon override JSON")
    p.add_argument("--out", required=True, help="output QA JSONL")
    p.add_argument("--generators", type=_comma_list,
                   help=f"comma list from {','.join(GENERATORS)}")
    p.add_argument("--negative-mode", dest="negative_mode",
                   choices=NEGATIVE_MODES)
    p.add_argument("--max-questions-per-caption", dest="max_questions_per_caption",
                   type=int)
    p.add_argument("--workers", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("augment", help="rewrite questions for variety")
    p.add_argument("--in", dest="input", required=True, help="input QA JSONL")
    p.add_argument("--out", required=True, help="output QA JSONL")
    p.add_argument("--rewriter", help="'builtin', an argv string, or an http URL")
    p.add_argument("--mode", dest="augment_mode",
                   choices=AUGMENT_MODES)
    p.add_argument("--pivot-language", dest="pivot_language")
    p.add_argument("--max-variants", dest="max_variants", type=int)
    p.add_argument("--keep-probability", dest="keep_probability", type=float)
    p.add_argument("--fallback", action=argparse.BooleanOptionalAction)
    p.add_argument("--timeout-s", dest="timeout_s", type=float,
                   help="rewriter time budget in seconds per batch")
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--lexicons")
    _add_common(p)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("weigh", help="fill sub-phrase answer weights")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--force", action="store_true",
                   help="recompute weights even when present")
    p.add_argument("--lexicons")
    _add_common(p)
    p.set_defaults(func=_cmd_weigh)

    p = sub.add_parser("vocab", help="build the answer vocabulary")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--min-count", dest="min_count", type=int)
    p.add_argument("--lexicons")
    _add_common(p)
    p.set_defaults(func=_cmd_vocab)

    p = sub.add_parser("patches", help="write the patch-geometry manifest")
    p.add_argument("--captions", help="caption annotation JSON (for image dims)")
    p.add_argument("--out", required=True)
    p.add_argument("--levels", type=_comma_ints)
    p.add_argument("--default-dims", dest="default_dims", type=_dims_arg,
                   help="fallback WIDTHxHEIGHT for images without dimensions")
    _add_common(p)
    p.set_defaults(func=_cmd_patches)

    p = sub.add_parser("pretrain", help="masking and image-text samples")
    p.add_argument("--captions")
    p.add_argument("--qa", help="QA JSONL (for the mqa task)")
    p.add_argument("--out", required=True)
    p.add_argument("--tasks", type=_comma_list,
                   help=f"comma list from {','.join(PRETRAIN_TASKS)}")
    p.add_argument("--neg-ratio", dest="neg_ratio", type=float)
    p.add_argument("--lexicons")
    _add_common(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("sample-epoch", help="per-image question subset for an epoch")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--epoch", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--per-image", dest="questions_per_image_per_epoch", type=int)
    _add_common(p)
    p.set_defaults(func=_cmd_sample_epoch)

    p = sub.add_parser("stats", help="dataset report")
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", help="write the report JSON here as well")
    p.add_argument("--embeddings-out", dest="embeddings_out",
                   help="export mean-pooled question embeddings here")
    p.add_argument("--vectors")
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except (CapqaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
