"""Question rewriting for linguistic variety.

Rewrites come from a pluggable rewriter: an HTTP endpoint (POST /rewrite),
one subprocess per run speaking line-delimited JSON over stdin/stdout, an
in-process callable, or the built-in rule table. Requests go to a backend in
batches, each a slice of the input pairs, as wire objects {"request_id",
"text", "mode", "pivot_language"?}. Every backend other than the rule table
answers with wire objects {"request_id", "rewrites"}, and one check requires
a string id and a list of string rewrites. The config values a backend reads
were checked when PipelineConfig was built. Whatever the backend, every
accepted rewrite must leave the answer's presence in the question unchanged,
so augmentation can never silently detach a question from its answer.
"""

from __future__ import annotations

import json
import os
import re
import shlex
import time
from collections import Counter
from contextlib import ExitStack, closing
from itertools import islice

from .config import PipelineConfig
from .errors import MalformedInput, RewriterUnavailable
from .lingo import WORD_RE, lower_squeeze, singularize
from .qa import QAPair, derive
from .rng import stream

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
    return [(p.qa_id, builtin_rewrite(p.question, cfg)) for p in batch]


# --- rewriter backends ------------------------------------------------------------


def _payload(pair: QAPair, cfg: PipelineConfig) -> dict:
    d = {"request_id": pair.qa_id, "text": pair.question, "mode": cfg.augment_mode}
    if cfg.pivot_language:
        d["pivot_language"] = cfg.pivot_language
    return d


def _parse_response(d) -> tuple:
    """(request_id, rewrites) of a wire response, which must hold a string
    request_id and a list of string rewrites; anything else raises
    RewriterUnavailable. The run keeps the pair, not the parsed dict, which
    with its own copies of the key strings costs about three times as much."""
    if not (isinstance(d, dict) and isinstance(d.get("request_id"), str)
            and isinstance(d.get("rewrites"), list)
            and all(isinstance(r, str) for r in d["rewrites"])):
        raise RewriterUnavailable(f"malformed rewriter response: {str(d)[:200]}")
    return d["request_id"], d["rewrites"]


def _subprocess_backend(argv, batches, cfg) -> list:
    """Answer every batch of the run from one child process running `argv`.

    The child gets every request of the run, then EOF on stdin, and may answer
    in any order. Requests are written and answers parsed a line at a time,
    as the child takes and gives them, so a child that does not flush per
    line cannot deadlock and the run never holds its whole payload or the
    child's whole output. The child has `timeout_s` per batch, summed over the
    run, and is killed when that runs out. Returns, per batch, its responses
    or the RewriterUnavailable that fails it. A child that exits non-zero or
    times out fails the batches it had not answered in full, and a line it
    did not finish counts as no response.
    """
    import subprocess  # only a command-line rewriter pays for loading it

    budget = cfg.timeout_s * len(batches)
    requests = ((json.dumps(_payload(p, cfg)) + "\n").encode("utf-8")
                for batch in batches for p in batch)
    try:
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
    except OSError as exc:
        return [RewriterUnavailable(f"rewriter subprocess failed: {exc}")] * len(batches)
    failure = None

    def lines():
        nonlocal failure
        deadline = time.monotonic() + budget
        tail, stderr, timed_out = yield from _exchange(proc, requests, deadline)
        if not timed_out:
            try:
                proc.wait(deadline - time.monotonic())
            except subprocess.TimeoutExpired:
                timed_out = True
        if timed_out:
            proc.kill()
            failure = RewriterUnavailable(
                f"rewriter subprocess failed: {subprocess.TimeoutExpired(argv, budget)}")
        elif proc.returncode != 0:
            stderr = stderr.decode("utf-8", "replace").strip()
            failure = RewriterUnavailable(
                f"rewriter exited with status {proc.returncode}: {stderr[:200]}"
            )
        if failure is not None and not tail.endswith(b"\r"):
            yield from tail.splitlines()[:-1]  # a line the child did not finish
        else:
            yield from tail.splitlines()

    with proc, closing(lines()) as child_lines:
        try:
            got = _assign(child_lines, batches)
        except RewriterUnavailable as exc:
            return [exc] * len(batches)
        finally:
            if proc.returncode is None:
                proc.kill()
    if failure is None:
        return got
    return [
        answers if {p.qa_id for p in batch} <= {i for i, _ in answers}
        else failure
        for batch, answers in zip(batches, got)
    ]


def _exchange(proc, requests, deadline):
    """Write the encoded `requests` to the child's stdin, then close it, and
    yield each finished line of its stdout as it arrives, until the child
    closes its output or time.monotonic() reaches `deadline`.

    One select loop drives all three pipes, as `communicate` does, so the
    deadline holds even when a grandchild keeps a pipe open. Returns the bytes
    after the last newline, everything the child wrote to stderr, and whether
    the deadline passed first.
    """
    import select
    import selectors

    pending = b"".join(islice(requests, 32))  # request bytes not yet written
    partial = bytearray()  # stdout bytes after the last newline
    stderr = bytearray()
    with selectors.PollSelector() as sel:
        sel.register(proc.stdin, selectors.EVENT_WRITE)
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            timeout = deadline - time.monotonic()
            if timeout <= 0:
                return partial, stderr, True
            for key, _ in sel.select(timeout):
                if key.fileobj is proc.stdin:
                    try:
                        pending = (pending[os.write(key.fd, pending[:select.PIPE_BUF]):]
                                   or b"".join(islice(requests, 32)))
                    except BrokenPipeError:  # the child stopped reading
                        pending = b""
                    if not pending:
                        sel.unregister(key.fileobj)
                        key.fileobj.close()
                    continue
                data = os.read(key.fd, 32768)
                if not data:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
                elif key.fileobj is proc.stderr:
                    stderr += data
                else:
                    partial += data
                    end = partial.rfind(b"\n", -len(data)) + 1
                    if end:
                        yield from partial[:end].splitlines()
                        del partial[:end]
    return partial, stderr, False


def _assign(lines, batches) -> list:
    """Each batch's responses among the JSON `lines`, matched by request_id.

    `lines` is read once, in order, so each line is parsed as it arrives. A
    line that is not a response, or an id that no request of the run
    carries, cannot be put in a batch, so it raises RewriterUnavailable.
    """
    owner = {p.qa_id: i for i, batch in enumerate(batches) for p in batch}
    got = [[] for _ in batches]
    stray = set()
    for line in lines:
        if not line.strip():
            continue
        try:
            resp = _parse_response(json.loads(line))
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
            raise RewriterUnavailable(f"rewriter wrote invalid JSON: {exc}") from exc
        if resp[0] in owner:
            got[owner[resp[0]]].append(resp)
        else:
            stray.add(resp[0])
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
        for pair in batch:
            try:
                resp = session.post(url, json=_payload(pair, cfg), timeout=cfg.timeout_s)
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
    a batch's (request_id, rewrites) pairs, or the RewriterUnavailable that
    fails it.

    `rewriter` is None or a string that PipelineConfig accepts, or an
    in-process callable from a list of wire requests to wire responses.
    """
    if rewriter is None or rewriter == "builtin":
        return _each_batch(lambda batch: _builtin_responses(batch, cfg))
    if callable(rewriter):
        return _each_batch(lambda batch: [
            _parse_response(d) for d in rewriter([_payload(p, cfg) for p in batch])])
    if rewriter.startswith(("http://", "https://")):
        return _each_batch(_http_backend(rewriter, cfg, stack))
    return lambda batches: _subprocess_backend(shlex.split(rewriter), batches, cfg)


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
    """A batch's responses must answer each of its pairs exactly once."""
    asked = Counter(p.qa_id for p in batch)
    answered = Counter(i for i, _ in got)
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
    qa_ids and empty questions raise MalformedInput before any rewriter call.
    """
    pairs = list(pairs)
    if not pairs:
        raise MalformedInput("augment_batch needs at least one pair")
    # responses and derived ids are keyed by qa_id, so each must be unique
    input_ids = Counter(p.qa_id for p in pairs)
    repeated = sorted(i for i, n in input_ids.items() if n > 1)
    if repeated:
        raise MalformedInput(f"repeated qa_id(s) in augment input: {repeated[:5]}")
    empty = [p.qa_id for p in pairs if not p.question]
    if empty:
        raise MalformedInput(f"empty question in augment input: {empty[:5]}")
    mode = cfg.augment_mode
    rewrites = {}
    with ExitStack() as stack:
        backend = _resolve_backend(rewriter, cfg, stack)
        batches = [pairs[start:start + cfg.batch_size]
                   for start in range(0, len(pairs), cfg.batch_size)]
        for batch, got in zip(batches, backend(batches)):
            try:
                if isinstance(got, RewriterUnavailable):
                    raise got
                _check_ids(batch, got)
            except RewriterUnavailable:
                if not cfg.fallback:
                    raise
                got = _builtin_responses(batch, cfg)
            rewrites.update(got)

    out = []
    for pair in pairs:
        out.append(pair)
        rng = stream(cfg.seed, pair.qa_id, "augment-keep")
        base_mention = _mentions(pair.question, pair.answer)
        seen = {lower_squeeze(pair.question)}
        ordinal = 0
        for rewrite in rewrites[pair.qa_id]:
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
            variant = derive(pair, mode, ordinal, rewrite, pair.answer)
            ordinal += 1
            if variant.qa_id not in input_ids:  # else an earlier run's variant, in the input
                out.append(variant)
    return out
