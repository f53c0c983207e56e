"""Question rewriting for linguistic variety.

Rewrites come from a pluggable rewriter: an HTTP endpoint (POST /rewrite),
one subprocess per run speaking line-delimited JSON over stdin/stdout, an
in-process callable, or the built-in rule table. Whatever the backend, every
accepted rewrite must leave the answer's presence in the question unchanged,
so augmentation can never silently detach a question from its answer.
"""

from __future__ import annotations

import json
import re
import shlex
import subprocess
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Optional

from .config import AUGMENT_MODES, PipelineConfig
from .errors import MalformedInput, RewriterUnavailable
from .lingo import WORD_RE, lower_squeeze, singularize
from .qa import QAPair, derived_qa_id
from .rng import stream

_PIVOTS = ("fr", "de", "es")


@dataclass(frozen=True)
class RewriteRequest:
    request_id: str
    text: str
    mode: str
    pivot_language: Optional[str] = None

    def __post_init__(self):
        if not self.text:
            raise ValueError("rewrite request text must be non-empty")
        if self.mode not in AUGMENT_MODES:
            raise ValueError(f"mode must be one of {AUGMENT_MODES}")
        if self.mode == "backtranslate":
            if self.pivot_language not in _PIVOTS:
                raise ValueError(f"backtranslate requires pivot_language in {_PIVOTS}")
        elif self.pivot_language is not None:
            raise ValueError("pivot_language only applies to backtranslate")


@dataclass(frozen=True)
class RewriteResponse:
    request_id: str
    rewrites: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "rewrites", tuple(self.rewrites))


# --- built-in rule table --------------------------------------------------------

_PARAPHRASE_RULES = (
    (re.compile(r"^How many (.+) are visible\?$"),
     ("How many {0} can be seen?", "How many {0} are we looking at?")),
    (re.compile(r"^How many (.+) can be seen\?$"),
     ("How many {0} are visible?", "How many {0} are we looking at?")),
    (re.compile(r"^Is there (.+)\?$"), ("Can you see {0}?",)),
    (re.compile(r"^Are there (.+)\?$"), ("Can you see {0}?",)),
    (re.compile(r"^Can you see (.+)\?$"), ("Is there {0}?",)),
    (re.compile(r"^What is (.+)\?$"), ("What's {0}?",)),
    (re.compile(r"^What's (.+)\?$"), ("What is {0}?",)),
)

# round-trip translation artifacts: dropped relative pronouns, verb swaps
_BACKTRANSLATE_RULES = (
    (re.compile(r"^Is (.+) wearing (.+)\?$"), ("Does {0} carry {1}?",)),
    (re.compile(r"^Is there (.+)\?$"), ("Does the image show {0}?",)),
    (re.compile(r"^Are there (.+)\?$"), ("Does the image show {0}?",)),
    (re.compile(r"^Where (is|are) (.+)\?$"), ("In which place {0} {1}?",)),
)

_REL_CLAUSE = re.compile(r"\b(\w+) who (?:is|are) ")


def builtin_rewrite(question: str, cfg: PipelineConfig) -> list:
    """Rule-table rewrites of one question, at most cfg.max_variants of them."""
    variants = []
    base = question
    if cfg.augment_mode == "backtranslate":
        base = _REL_CLAUSE.sub(r"\1 ", question)
        if base != question:
            variants.append(base)
        rules = _BACKTRANSLATE_RULES
    else:
        rules = _PARAPHRASE_RULES
    for pattern, templates in rules:
        m = pattern.match(base)
        if m is None:
            continue
        for template in templates:
            variants.append(template.format(*m.groups()))
    seen = {lower_squeeze(question)}
    unique = []
    for v in variants:
        norm = lower_squeeze(v)
        if norm in seen:
            continue
        seen.add(norm)
        unique.append(v)
    if len(unique) > cfg.max_variants:
        rng = stream(cfg.seed, question, cfg.augment_mode, "builtin")
        keep = sorted(rng.sample(range(len(unique)), cfg.max_variants))
        unique = [unique[i] for i in keep]
    return unique


def _builtin_responses(batch, cfg: PipelineConfig) -> list:
    return [RewriteResponse(r.request_id, builtin_rewrite(r.text, cfg)) for r in batch]


# --- rewriter backends ------------------------------------------------------------


def _payload(req: RewriteRequest) -> dict:
    d = {"request_id": req.request_id, "text": req.text, "mode": req.mode}
    if req.pivot_language is not None:
        d["pivot_language"] = req.pivot_language
    return d


def _parse_response(d) -> RewriteResponse:
    try:
        return RewriteResponse(
            request_id=str(d["request_id"]),
            rewrites=[str(x) for x in d.get("rewrites", [])],
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise RewriterUnavailable(f"malformed rewriter response: {exc}") from exc


def _subprocess_backend(argv, batches, cfg) -> list:
    """Answer every batch of the run from one child process running `argv`.

    The child gets every request of the run, then EOF on stdin, and may answer
    in any order; `communicate` reads while it writes, so a child that does not
    flush per line cannot deadlock. It has `timeout_s` per batch, summed over
    the run. Returns, per batch, its responses or the RewriterUnavailable that
    fails it. A child that exits non-zero or times out fails the batches it
    had not answered in full, and a line it did not finish counts as no
    response.
    """
    payload = "".join(json.dumps(_payload(r)) + "\n" for batch in batches for r in batch)
    failure = None
    try:
        proc = subprocess.run(argv, input=payload.encode("utf-8"), capture_output=True,
                              timeout=cfg.timeout_s * len(batches))
        stdout = proc.stdout
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace").strip()
            failure = RewriterUnavailable(
                f"rewriter exited with status {proc.returncode}: {stderr[:200]}"
            )
    except subprocess.TimeoutExpired as exc:
        # run() has killed and reaped the child; exc.stdout is what it wrote
        stdout = exc.stdout or b""
        failure = RewriterUnavailable(f"rewriter subprocess failed: {exc}")
    except OSError as exc:
        return [RewriterUnavailable(f"rewriter subprocess failed: {exc}")] * len(batches)
    lines = stdout.splitlines()
    if failure is not None and not stdout.endswith((b"\n", b"\r")):
        lines = lines[:-1]  # a line the child did not finish
    try:
        got = _assign(lines, batches)
    except RewriterUnavailable as exc:
        return [exc] * len(batches)
    if failure is None:
        return got
    return [
        answers if {r.request_id for r in batch} <= {a.request_id for a in answers}
        else failure
        for batch, answers in zip(batches, got)
    ]


def _assign(lines, batches) -> list:
    """Each batch's responses among the JSON `lines`, matched by request_id.

    A line that is not a response, or an id that no request of the run
    carries, cannot be put in a batch, so it raises RewriterUnavailable.
    """
    owner = {r.request_id: i for i, batch in enumerate(batches) for r in batch}
    got = [[] for _ in batches]
    stray = set()
    for line in lines:
        if not line.strip():
            continue
        try:
            resp = _parse_response(json.loads(line))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise RewriterUnavailable(f"rewriter wrote invalid JSON: {exc}") from exc
        if resp.request_id in owner:
            got[owner[resp.request_id]].append(resp)
        else:
            stray.add(resp.request_id)
    if stray:
        raise RewriterUnavailable(
            f"rewriter answered ids no request of the run carries: {sorted(stray)[:5]}"
        )
    return got


def _http_backend(url, cfg, stack: ExitStack):
    """POST each request to `url` over one pooled session, which `stack` closes."""
    import requests  # only HTTP rewriters pay for loading it

    session = stack.enter_context(requests.Session())

    def backend(batch):
        responses = []
        for req in batch:
            try:
                resp = session.post(url, json=_payload(req), timeout=cfg.timeout_s)
                resp.raise_for_status()
                d = resp.json()
            except (requests.RequestException, ValueError) as exc:
                raise RewriterUnavailable(f"rewriter endpoint {url} failed: {exc}") from exc
            responses.append(_parse_response(d))
        return responses

    return backend


def _each_batch(backend):
    """Run `backend` on each batch in turn, only once the caller asks for it,
    yielding its responses or the RewriterUnavailable it raised."""
    def run(batches):
        for batch in batches:
            try:
                yield backend(batch)
            except RewriterUnavailable as exc:
                yield exc
    return run


def _resolve_backend(rewriter, cfg, stack: ExitStack):
    """A function from the run's batches to an iterable of per-batch results:
    a batch's responses, or the RewriterUnavailable that fails it."""
    if rewriter is None or rewriter == "builtin":
        return _each_batch(lambda batch: _builtin_responses(batch, cfg))
    if callable(rewriter):
        return _each_batch(rewriter)
    if isinstance(rewriter, str) and rewriter.startswith(("http://", "https://")):
        return _each_batch(_http_backend(rewriter, cfg, stack))
    if isinstance(rewriter, str):
        return lambda batches: _subprocess_backend(shlex.split(rewriter), batches, cfg)
    if isinstance(rewriter, (list, tuple)):
        return lambda batches: _subprocess_backend(list(rewriter), batches, cfg)
    raise MalformedInput(f"unusable rewriter specification: {rewriter!r}")


# --- augmentation -----------------------------------------------------------------


def _mentions(text: str, answer: str) -> bool:
    """True when the answer occurs in the text as a contiguous token run or
    via its head lemma."""
    t = WORD_RE.findall(text.lower())
    a = WORD_RE.findall(answer.lower())
    if not a:
        return False
    n = len(a)
    for i in range(len(t) - n + 1):
        if t[i:i + n] == a:
            return True
    return singularize(a[-1]) in {singularize(w) for w in t}


def _check_ids(batch, got) -> None:
    """A batch's responses must answer each of its requests exactly once."""
    asked = Counter(r.request_id for r in batch)
    answered = Counter(resp.request_id for resp in got)
    if answered != asked:
        missing = sorted(asked - answered)
        extra = sorted(answered - asked)
        raise RewriterUnavailable(
            f"rewriter answered {len(got)} response(s) to {len(batch)} request(s): "
            f"missing ids {missing[:5]}, unrequested or repeated ids {extra[:5]}"
        )


def augment_batch(pairs, rewriter, cfg: PipelineConfig) -> list:
    """Originals plus answer-consistent rewrites, in input order.

    Each accepted rewrite becomes a new pair carrying the same answer and a
    parent_id pointing at its source pair. A batch whose response ids are not
    exactly its request ids counts as an unavailable rewriter. A rewrite whose
    derived qa_id is already an input qa_id is the variant an earlier run
    wrote: it keeps its ordinal and is not written again. Repeated input
    qa_ids raise MalformedInput, and a mode/pivot pair that RewriteRequest
    rejects raises ValueError, both before any rewriter call.
    """
    pairs = list(pairs)
    if not pairs:
        raise MalformedInput("augment_batch needs at least one pair")
    # responses and derived ids are keyed by qa_id, so each must be unique
    input_ids = Counter(p.qa_id for p in pairs)
    repeated = sorted(i for i, n in input_ids.items() if n > 1)
    if repeated:
        raise MalformedInput(f"repeated qa_id(s) in augment input: {repeated[:5]}")
    mode = cfg.augment_mode
    pivot = cfg.pivot_language or None
    responses = {}
    with ExitStack() as stack:
        backend = _resolve_backend(rewriter, cfg, stack)
        reqs = [
            RewriteRequest(request_id=p.qa_id, text=p.question, mode=mode,
                           pivot_language=pivot)
            for p in pairs
        ]
        batches = [reqs[start:start + cfg.batch_size]
                   for start in range(0, len(reqs), cfg.batch_size)]
        for batch, got in zip(batches, backend(batches)):
            try:
                if isinstance(got, RewriterUnavailable):
                    raise got
                _check_ids(batch, got)
            except RewriterUnavailable:
                if not cfg.fallback:
                    raise
                got = _builtin_responses(batch, cfg)
            for resp in got:
                responses[resp.request_id] = resp

    out = []
    for pair in pairs:
        out.append(pair)
        resp = responses[pair.qa_id]
        rng = stream(cfg.seed, pair.qa_id, "augment-keep")
        base_mention = _mentions(pair.question, pair.answer)
        seen = {lower_squeeze(pair.question)}
        ordinal = 0
        for rewrite in resp.rewrites:
            if ordinal >= cfg.max_variants:
                break
            norm = lower_squeeze(rewrite)
            if not norm or norm in seen:
                continue
            seen.add(norm)
            if _mentions(rewrite, pair.answer) != base_mention:
                continue
            if rng.random() >= cfg.keep_probability:
                continue
            qa_id = derived_qa_id(pair.image_id, pair.qa_id, mode, ordinal)
            ordinal += 1
            if qa_id in input_ids:
                continue  # an earlier run's variant, already in the input
            out.append(
                QAPair(
                    qa_id=qa_id,
                    image_id=pair.image_id,
                    question=rewrite,
                    answer=pair.answer,
                    answer_type=pair.answer_type,
                    source=mode,
                    source_caption=pair.source_caption,
                    parent_id=pair.qa_id,
                )
            )
    return out
