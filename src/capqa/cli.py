"""Pipeline command line.

Eight subcommands that compose through JSONL files: generate, augment,
weigh, vocab, patches, pretrain, sample-epoch, stats. Every run is fully
determined by (inputs, effective config); worker count never changes output
bytes. Exit codes: 0 ok, 1 error, 2 bad usage.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

from .answers import build_vocab, expand_answer, save_vocab_file
from .augment import augment_batch
from .config import (
    AUGMENT_MODES,
    FIELD_NAMES,
    GENERATORS,
    NEGATIVE_MODES,
    PRETRAIN_TASKS,
    PipelineConfig,
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

# answers that are atomic labels rather than decomposable phrases
_ATOMIC_ANSWERS = ("yes", "no", "none", "can't say")


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


def _ensure_weights(qa, lex) -> None:
    if qa.weights:
        return
    if qa.answer_type == "yesno" or qa.answer in _ATOMIC_ANSWERS:
        qa.weights = [(qa.answer, Fraction(1))]
    else:
        qa.weights = list(expand_answer(qa.answer, lex).entries)


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
        _ensure_weights(qa, lex)
    out.sort(key=lambda qa: qa.qa_id)
    return out


# worker processes get the parent's context once, at start-up
_WORKER_CTX = None


def _init_worker(ctx: _Context) -> None:
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_pairs(record) -> list:
    return _record_pairs(record, _WORKER_CTX)


# --- output plumbing --------------------------------------------------------------


def _atomic_write(path: str, writer):
    """Run writer against a temp path, then move into place; a failure leaves
    nothing at the target."""
    tmp = f"{path}.partial"
    try:
        result = writer(tmp)
        os.replace(tmp, path)
        return result
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_run_manifest(out_path: str, command: str, cfg: PipelineConfig,
                        counts: dict) -> None:
    doc = {
        "command": command,
        "config": cfg.to_json_dict(),
        "outputs": [str(out_path)],
        "counts": counts,
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


# --- command handlers -------------------------------------------------------------


def _cmd_generate(args) -> int:
    cfg = _effective_config(args)
    if "srl" in cfg.generators and args.generators and "srl" in args.generators \
            and not cfg.srl_frames:
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

    if cfg.workers == 1:
        per_record = (_record_pairs(record, ctx) for record in records)
        count = _atomic_write(args.out, lambda p: write_jsonl(rows(per_record), p))
    else:
        with ProcessPoolExecutor(
            max_workers=cfg.workers,
            initializer=_init_worker,
            initargs=(ctx,),
        ) as pool:
            chunksize = max(1, -(-len(records) // (cfg.workers * 4)))
            per_record = pool.map(_worker_pairs, records, chunksize=chunksize)
            count = _atomic_write(args.out, lambda p: write_jsonl(rows(per_record), p))
    _write_run_manifest(args.out, "generate", cfg, {"pairs": count})
    _emit(acc.report().to_json_dict() if count else {"total": 0})
    return 0


def _cmd_augment(args) -> int:
    cfg = _effective_config(args)
    pairs = list(read_jsonl(require_file(args.input, "--in")))
    try:
        out_pairs = augment_batch(pairs, cfg.rewriter or None, cfg)
    except ValueError as exc:
        raise MalformedInput(str(exc)) from exc
    lex = _lexicons(cfg)
    for qa in out_pairs:
        _ensure_weights(qa, lex)
    count = _atomic_write(args.out, lambda p: write_jsonl(out_pairs, p))
    _write_run_manifest(args.out, "augment", cfg, {"pairs": count})
    _emit({"pairs": count, "new": count - len(pairs)})
    return 0


def _cmd_weigh(args) -> int:
    cfg = _effective_config(args)
    lex = _lexicons(cfg)
    pairs = list(read_jsonl(require_file(args.input, "--in")))
    filled = 0
    for qa in pairs:
        if args.force:
            qa.weights = None
        if not qa.weights:
            _ensure_weights(qa, lex)
            filled += 1
    count = _atomic_write(args.out, lambda p: write_jsonl(pairs, p))
    _write_run_manifest(args.out, "weigh", cfg, {"pairs": count, "weighed": filled})
    _emit({"pairs": count, "weighed": filled})
    return 0


def _cmd_vocab(args) -> int:
    cfg = _effective_config(args)
    vocab = build_vocab(
        read_jsonl(require_file(args.input, "--in")),
        lex=_lexicons(cfg),
        min_count=cfg.min_count,
    )
    def write(path):
        save_vocab_file(vocab, path)
        return len(vocab.phrases)
    count = _atomic_write(args.out, write)
    _write_run_manifest(args.out, "vocab", cfg, {"phrases": count})
    _emit({"phrases": count})
    return 0


_DIMS_RE = re.compile(r"(\d+)x(\d+)")


def _cmd_patches(args) -> int:
    cfg = _effective_config(args)
    corpus = load_coco(require_file(cfg.captions, "--captions"))
    default_dims = None
    if cfg.default_dims:
        m = _DIMS_RE.fullmatch(cfg.default_dims)
        if not m:
            raise MalformedInput(
                f"default_dims must look like 640x480, got {cfg.default_dims!r}"
            )
        default_dims = (int(m.group(1)), int(m.group(2)))
    missing = [
        rec.image_id
        for rec in corpus.records
        if rec.width is None or rec.height is None
    ]
    if missing and default_dims is None:
        listed = ", ".join(str(i) for i in missing)
        raise BadDims(f"images missing dimensions: {listed}")
    specs = []
    for rec in corpus.records:
        if rec.width is None or rec.height is None:
            width, height = default_dims
        else:
            width, height = rec.width, rec.height
        specs.append(pyramid(rec.image_id, width, height, cfg.levels))
    count = _atomic_write(args.out, lambda p: write_manifest(specs, p))
    _write_run_manifest(args.out, "patches", cfg,
                        {"images": len(specs), "entries": count})
    _emit({"images": len(specs), "entries": count})
    return 0


def _cmd_pretrain(args) -> int:
    cfg = _effective_config(args)
    corpus = load_coco(require_file(cfg.captions, "--captions"))
    samples = []
    if "mlm" in cfg.tasks:
        for rec in corpus.records:
            for idx, caption in enumerate(rec.captions):
                samples.append(
                    mlm_mask(caption, cfg.seed, image_id=rec.image_id,
                             caption_index=idx)
                )
    if "mqa" in cfg.tasks:
        qa_path = require_file(args.qa or "", "--qa (needed for the mqa task)")
        for qa in read_jsonl(qa_path):
            samples.append(mqa_mask(qa, cfg.seed))
    if "itm" in cfg.tasks:
        index, _ = object_lemma_index(corpus.records, _lexicons(cfg))
        for rec in corpus.records:
            samples.extend(itm_pairs(rec, corpus, index, cfg.neg_ratio, cfg.seed))
    count = _atomic_write(args.out, lambda p: write_samples(samples, p))
    _write_run_manifest(args.out, "pretrain", cfg, {"samples": count})
    _emit({"samples": count})
    return 0


def _cmd_sample_epoch(args) -> int:
    cfg = _effective_config(args)
    pairs = list(read_jsonl(require_file(args.input, "--in")))
    if not pairs:
        raise MalformedInput(f"dataset {args.input} holds no pairs")
    k = cfg.questions_per_image_per_epoch
    by_image = {}
    for pos, qa in enumerate(pairs):
        by_image.setdefault(qa.image_id, []).append(pos)
    keep = set()
    for image_id, positions in by_image.items():
        rng = stream(cfg.seed, args.epoch, image_id)
        keep.update(rng.sample(positions, min(k, len(positions))))
    sampled = [qa for pos, qa in enumerate(pairs) if pos in keep]
    count = _atomic_write(args.out, lambda p: write_jsonl(sampled, p))
    _write_run_manifest(args.out, "sample-epoch", cfg,
                        {"pairs": count, "epoch": args.epoch})
    _emit({"pairs": count, "images": len(by_image), "epoch": args.epoch})
    return 0


def _cmd_stats(args) -> int:
    cfg = _effective_config(args)
    rep = report(read_jsonl(require_file(args.input, "--in")))
    doc = rep.to_json_dict()
    if args.out:
        def write(path):
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=2, sort_keys=True)
                fh.write("\n")
            return rep.total
        _atomic_write(args.out, write)
        _write_run_manifest(args.out, "stats", cfg, {"pairs": rep.total})
    if args.embeddings_out:
        store = load_vectors(require_file(cfg.vectors, "--vectors"))
        pairs = read_jsonl(args.input)
        written = _atomic_write(
            args.embeddings_out, lambda p: export_embeddings(pairs, store, p)
        )
        doc = dict(doc)
        doc["embeddings_exported"] = written
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


def _effective_config(args) -> PipelineConfig:
    file_cfg = load_config(args.config) if args.config else None
    return resolve(file_cfg, _parse_overrides(args))


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
    p.add_argument("--timeout-s", dest="timeout_s", type=float)
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
