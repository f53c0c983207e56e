"""Paraphrase/back-translation augmentation and the rewriter contract."""

import http.server
import json
import os
import shlex
import sys
import threading

import pytest

from capqa.augment import augment_batch, builtin_rewrite
from capqa.config import PipelineConfig
from capqa.errors import MalformedInput, RewriterUnavailable
from capqa.qa import QAPair


def make_pair(question, answer, qa_id="p0", answer_type="yesno", image_id=1):
    return QAPair(
        qa_id=qa_id,
        image_id=image_id,
        question=question,
        answer=answer,
        answer_type=answer_type,
        source="template",
        source_caption=question,
    )


PARA = PipelineConfig(augment_mode="paraphrase", max_variants=4, seed=0)
BACK = PipelineConfig(augment_mode="backtranslate", pivot_language="es", max_variants=4, seed=0)


# --- builtin rule table ---------------------------------------------------------


def test_builtin_visible_paraphrases():
    out = builtin_rewrite("How many cars are visible?", PARA)
    assert "How many cars are we looking at?" in out
    assert "How many cars can be seen?" in out


def test_builtin_is_there_paraphrase():
    assert "Can you see a dog?" in builtin_rewrite("Is there a dog?", PARA)


def test_builtin_no_matching_rule():
    assert builtin_rewrite("Why?", PARA) == []


def test_builtin_never_echoes_input():
    for q in ("Is there a dog?", "How many cars are visible?", "What is this?"):
        assert q not in builtin_rewrite(q, PARA)


def test_builtin_deterministic_and_capped():
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=1, seed=3)
    first = builtin_rewrite("How many cars are visible?", cfg)
    second = builtin_rewrite("How many cars are visible?", cfg)
    assert first == second
    assert len(first) == 1


def test_builtin_backtranslation_golden():
    question = "Is the girl who is to the left of the sailboats wearing a backpack?"
    out = builtin_rewrite(question, BACK)
    assert "Does the girl to the left of the sailboats carry a backpack?" in out


# --- request/response invariants -------------------------------------------------


def test_request_requires_pivot_iff_backtranslate():
    requests = []

    def recorder(batch):
        requests.extend(batch)
        return [{"request_id": r["request_id"], "rewrites": []} for r in batch]

    pair = make_pair("Is there a dog?", "yes", qa_id="r1")
    augment_batch([pair], recorder, PipelineConfig(augment_mode="paraphrase"))
    augment_batch([pair], recorder,
                  PipelineConfig(augment_mode="backtranslate", pivot_language="fr"))
    assert requests == [
        {"request_id": "r1", "text": "Is there a dog?", "mode": "paraphrase"},
        {"request_id": "r1", "text": "Is there a dog?", "mode": "backtranslate",
         "pivot_language": "fr"},
    ]
    with pytest.raises(MalformedInput, match="empty question"):
        augment_batch([make_pair("", "yes", qa_id="r5")], recorder, PARA)
    assert len(requests) == 2


def test_config_validation():
    with pytest.raises(MalformedInput):
        PipelineConfig(augment_mode="shout")
    with pytest.raises(MalformedInput):
        PipelineConfig(augment_mode="paraphrase", keep_probability=1.5)
    with pytest.raises(MalformedInput):
        PipelineConfig(max_variants=-1)
    with pytest.raises(MalformedInput):
        PipelineConfig(timeout_s=0)
    with pytest.raises(MalformedInput):
        PipelineConfig(batch_size=0)


@pytest.mark.parametrize("mode, pivot", [
    ("backtranslate", ""),  # pivot missing
    ("backtranslate", "xx"),
    ("paraphrase", "es"),
])
def test_batch_rejects_mode_pivot_mismatch(mode, pivot):
    # no batch can run under such a config: it cannot be built
    with pytest.raises(MalformedInput, match="pivot_language"):
        PipelineConfig(augment_mode=mode, pivot_language=pivot)


# --- augment_batch with the builtin rewriter -------------------------------------


def test_batch_adds_paraphrase_pairs():
    pair = make_pair("How many cars are visible?", "2", answer_type="number")
    out = augment_batch([pair], "builtin", PARA)
    assert out[0] is pair  # original passes through unchanged
    derived = out[1:]
    assert derived
    questions = {p.question for p in derived}
    assert "How many cars are we looking at?" in questions
    for p in derived:
        assert p.answer == "2"
        assert p.answer_type == "number"
        assert p.image_id == 1
        assert p.source == "paraphrase"
        assert p.parent_id == pair.qa_id


def test_batch_output_bound():
    pairs = [
        make_pair("Is there a dog?", "yes", qa_id="a"),
        make_pair("Is there a cat?", "no", qa_id="b"),
    ]
    out = augment_batch(pairs, "builtin", PARA)
    assert len(out) <= len(pairs) * (1 + PARA.max_variants)


def test_batch_empty_rejected():
    with pytest.raises(MalformedInput):
        augment_batch([], "builtin", PARA)


def test_batch_rejects_repeated_qa_ids_before_any_rewrite():
    pairs = [
        make_pair("How many cars are visible?", "2", qa_id="same", answer_type="number"),
        make_pair("How many dogs are visible?", "3", qa_id="same", answer_type="number"),
    ]
    calls = []

    def rewriter(batch):
        calls.append(batch)
        return [{"request_id": r["request_id"], "rewrites": [r["text"]]} for r in batch]

    with pytest.raises(MalformedInput, match="'same'"):
        augment_batch(pairs, rewriter, PARA)
    assert calls == []


def test_keep_probability_zero_drops_all_variants():
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, keep_probability=0.0)
    pair = make_pair("Is there a dog?", "yes")
    assert augment_batch([pair], "builtin", cfg) == [pair]


def test_batch_deterministic():
    pair = make_pair("Is there a dog?", "yes")
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, keep_probability=0.5, seed=9)
    a = [(p.qa_id, p.question) for p in augment_batch([pair], "builtin", cfg)]
    b = [(p.qa_id, p.question) for p in augment_batch([pair], "builtin", cfg)]
    assert a == b


def test_rerun_keeps_the_variants_already_present():
    pairs = [
        make_pair("How many cars are visible?", "2", qa_id="a", answer_type="number"),
        make_pair("Is there a dog?", "yes", qa_id="b"),
    ]
    first = augment_batch(pairs, "builtin", PARA)
    second = augment_batch(first, "builtin", PARA)
    first_ids = {p.qa_id for p in first}
    added = [p for p in second if not any(p is q for q in first)]
    assert len(first_ids) > len(pairs) and added  # both runs wrote variants
    assert not {p.qa_id for p in added} & first_ids
    ids = [p.qa_id for p in second]
    assert len(ids) == len(set(ids))


# --- augment_batch with an in-process rewriter ------------------------------------


def respond_with(texts):
    def rewriter(batch):
        return [{"request_id": r["request_id"], "rewrites": list(texts)} for r in batch]
    return rewriter


def test_identity_rewrites_dropped():
    pair = make_pair("Is there a dog?", "yes")
    out = augment_batch([pair], respond_with(["Is there a dog?", "is there a  dog?"]), PARA)
    assert out == [pair]


def test_duplicate_rewrites_collapse():
    pair = make_pair("Is there a dog?", "yes")
    out = augment_batch(
        [pair], respond_with(["Can you see a dog?", "can you see a dog?"]), PARA
    )
    assert len(out) == 2


def test_filter_drops_rewrites_losing_the_answer():
    pair = make_pair("Is there a dog?", "dog", answer_type="object")
    out = augment_batch([pair], respond_with(["Can you see it?"]), PARA)
    assert out == [pair]


def test_filter_keeps_answer_consistent_rewrites():
    pair = make_pair("Is there a dog?", "dog", answer_type="object")
    out = augment_batch([pair], respond_with(["Can you see a dog?"]), PARA)
    assert [p.question for p in out[1:]] == ["Can you see a dog?"]


def test_filter_matches_answer_by_head_lemma():
    pair = make_pair("How many puppies are there?", "puppies", answer_type="object")
    out = augment_batch([pair], respond_with(["What is the puppy count?"]), PARA)
    assert len(out) == 2  # "puppy" still mentions the answer's head


# --- subprocess rewriter -----------------------------------------------------------


STUB = """\
import json, sys
for line in sys.stdin:
    line = line.strip()
    if not line:
        continue
    req = json.loads(line)
    text = req["text"]
    rewrites = []
    if text.startswith("Is there"):
        rewrites.append(text.replace("Is there", "Can you see", 1))
    print(json.dumps({"request_id": req["request_id"], "rewrites": rewrites}))
    sys.stdout.flush()
"""


def test_subprocess_rewriter(tmp_path):
    script = tmp_path / "rewriter.py"
    script.write_text(STUB, encoding="utf-8")
    pair = make_pair("Is there a dog?", "yes")
    out = augment_batch([pair], shlex.join([sys.executable, str(script)]), PARA)
    assert [p.question for p in out] == ["Is there a dog?", "Can you see a dog?"]
    assert out[1].source == "paraphrase"


def test_subprocess_missing_binary_is_fatal():
    pair = make_pair("Is there a dog?", "yes")
    with pytest.raises(RewriterUnavailable):
        augment_batch([pair], "/nonexistent/rewriter-binary", PARA)


def test_subprocess_failure_falls_back_to_builtin():
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, fallback=True)
    pair = make_pair("Is there a dog?", "yes")
    out = augment_batch([pair], "/nonexistent/rewriter-binary", cfg)
    assert "Can you see a dog?" in {p.question for p in out}


def test_subprocess_garbage_output_is_unavailable(tmp_path):
    script = tmp_path / "broken.py"
    script.write_text("print('not json')\n", encoding="utf-8")
    pair = make_pair("Is there a dog?", "yes")
    with pytest.raises(RewriterUnavailable):
        augment_batch([pair], shlex.join([sys.executable, str(script)]), PARA)


def test_subprocess_undecodable_output_is_unavailable(tmp_path):
    script = tmp_path / "binary.py"
    script.write_text("import sys\nsys.stdout.buffer.write(b'\\xff\\n')\n", encoding="utf-8")
    pair = make_pair("Is there a dog?", "yes")
    with pytest.raises(RewriterUnavailable, match="invalid JSON"):
        augment_batch([pair], shlex.join([sys.executable, str(script)]), PARA)


# --- HTTP rewriter ------------------------------------------------------------------


class Handler(http.server.BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keeps a connection open across requests
    clients = []  # client_address of each request served

    def do_POST(self):
        assert self.path == "/rewrite"
        self.clients.append(self.client_address)
        length = int(self.headers["Content-Length"])
        req = json.loads(self.rfile.read(length))
        rewrites = []
        if req["text"].startswith("Is there"):
            rewrites.append(req["text"].replace("Is there", "Can you see", 1))
        body = json.dumps(
            {"request_id": req["request_id"], "rewrites": rewrites}
        ).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_rewriter():
    Handler.clients.clear()
    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/rewrite"
    server.shutdown()


def test_http_rewriter(http_rewriter):
    pair = make_pair("Is there a dog?", "yes")
    out = augment_batch([pair], http_rewriter, PARA)
    assert [p.question for p in out] == ["Is there a dog?", "Can you see a dog?"]


def test_http_batch_shares_one_connection(http_rewriter):
    pairs = [make_pair(f"Is there a dog {i}?", "yes", qa_id=f"p{i}") for i in range(4)]
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, batch_size=2)
    out = augment_batch(pairs, http_rewriter, cfg)
    assert len(out) == 8
    assert len(Handler.clients) == 4
    assert len(set(Handler.clients)) == 1


def test_http_unreachable_is_fatal():
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=2, timeout_s=2.0)
    pair = make_pair("Is there a dog?", "yes")
    with pytest.raises(RewriterUnavailable):
        augment_batch([pair], "http://127.0.0.1:9/rewrite", cfg)


def test_http_unreachable_with_fallback(tmp_path):
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, timeout_s=2.0, fallback=True)
    pair = make_pair("Is there a dog?", "yes")
    out = augment_batch([pair], "http://127.0.0.1:9/rewrite", cfg)
    assert "Can you see a dog?" in {p.question for p in out}


# --- response ids must match the batch's request ids -------------------------------


ID_REWRITE = "Is a dog visible here?"  # not among the builtin rewrites


def answer_with(responses):
    """A rewriter that ignores its requests and answers `responses` instead."""
    def rewriter(batch):
        return responses
    return rewriter


def answer_ids(*ids):
    return [{"request_id": i, "rewrites": [ID_REWRITE]} for i in ids]


ID_CASES = {
    "stray": answer_ids("a", "b", "zz"),
    "missing": answer_ids("a"),
    "duplicate": answer_ids("a", "b", "b"),
}

# responses whose types are wrong, each beside a well-formed answer for "b"
MALFORMED_CASES = {
    "null_and_number_rewrites": [{"request_id": "a", "rewrites": [None, 7, ID_REWRITE]}],
    "string_rewrites": [{"request_id": "a", "rewrites": "abc"}],
    "number_id": [{"request_id": 1, "rewrites": [ID_REWRITE]}],
    "no_rewrites": [{"request_id": "a"}],
    "not_an_object": [["a", ID_REWRITE]],
}

RESPONSE_SCRIPT = """\
import json, sys
reqs = [json.loads(line) for line in sys.stdin if line.strip()]
for response in {responses!r}:
    print(json.dumps(response))
"""


def two_pairs():
    return [
        make_pair("Is there a dog?", "yes", qa_id="a"),
        make_pair("Is there a dog?", "yes", qa_id="b"),
    ]


@pytest.fixture(params=["callable", "subprocess"])
def id_rewriter(request, tmp_path):
    """Makes a rewriter, in process or a child, that answers `responses`."""
    def make(responses):
        if request.param == "callable":
            return answer_with(responses)
        script = tmp_path / "responses.py"
        script.write_text(RESPONSE_SCRIPT.format(responses=responses), encoding="utf-8")
        return shlex.join([sys.executable, str(script)])
    return make


@pytest.mark.parametrize("case", sorted(ID_CASES))
def test_mismatched_response_ids_are_unavailable(id_rewriter, case):
    with pytest.raises(RewriterUnavailable, match="ids"):
        augment_batch(two_pairs(), id_rewriter(ID_CASES[case]), PARA)


@pytest.mark.parametrize("case", sorted(ID_CASES))
def test_mismatched_response_ids_fall_back_to_builtin(id_rewriter, case):
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, fallback=True)
    pairs = two_pairs()
    out = augment_batch(pairs, id_rewriter(ID_CASES[case]), cfg)
    assert out == augment_batch(pairs, "builtin", cfg)
    assert ID_REWRITE not in {p.question for p in out}


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_responses_are_unavailable(id_rewriter, case):
    responses = MALFORMED_CASES[case] + answer_ids("b")
    with pytest.raises(RewriterUnavailable, match="malformed rewriter response"):
        augment_batch(two_pairs(), id_rewriter(responses), PARA)


@pytest.mark.parametrize("case", sorted(MALFORMED_CASES))
def test_malformed_responses_fall_back_to_builtin(id_rewriter, case):
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, fallback=True)
    pairs = two_pairs()
    out = augment_batch(pairs, id_rewriter(MALFORMED_CASES[case] + answer_ids("b")), cfg)
    assert out == augment_batch(pairs, "builtin", cfg)
    assert not {"None", "7", "a", "b", "c", ID_REWRITE} & {p.question for p in out}


def test_matching_response_ids_in_any_order_accepted(id_rewriter):
    out = augment_batch(two_pairs(), id_rewriter(answer_ids("b", "a")), PARA)
    assert [(p.parent_id, p.question) for p in out[1::2]] == [("a", ID_REWRITE),
                                                              ("b", ID_REWRITE)]


# --- one rewriter child per run ------------------------------------------------------


def numbered_pairs(n=3):
    return [make_pair(f"Is there a dog {i}?", "yes", qa_id=f"q{i}") for i in range(n)]


def run_script(tmp_path, source, **fields):
    """The command line of a fake rewriter; `fields` are substituted into `source`."""
    script = tmp_path / "fake_rewriter.py"
    script.write_text(source.format(**{k: repr(v) for k, v in fields.items()}),
                      encoding="utf-8")
    return shlex.join([sys.executable, str(script)])


# writes its pid, answers every request in reverse order with no flush per
# line, so responses reach the parent only at exit and out of order
SPAWN_ONCE = """\
import json, os, sys
with open({pid_file}, "a") as fh:
    fh.write(f"{{os.getpid()}}\\n")
reqs = [json.loads(line) for line in sys.stdin if line.strip()]
for req in reversed(reqs):
    print(json.dumps({{"request_id": req["request_id"], "rewrites": ["Now, " + req["text"]]}}))
"""


def test_subprocess_rewriter_spawned_once_per_run(tmp_path):
    pid_file = tmp_path / "pids"
    cfg = PipelineConfig(augment_mode="paraphrase", max_variants=4, batch_size=1)
    pairs = numbered_pairs(5)
    argv = run_script(tmp_path, SPAWN_ONCE, pid_file=str(pid_file))
    out = augment_batch(pairs, argv, cfg)
    assert len(pid_file.read_text().splitlines()) == 1
    calls = []

    def in_process(batch):
        calls.append(batch)
        return [{"request_id": r["request_id"], "rewrites": ["Now, " + r["text"]]}
                for r in batch]

    assert out == augment_batch(pairs, in_process, cfg)
    assert len(calls) == 5
    assert [p.question for p in out[1::2]] == ["Now, " + p.question for p in pairs]


# answers the first request, then exits 1 without reading the rest
CRASH_AFTER_FIRST = """\
import json, sys
req = json.loads(sys.stdin.readline())
print(json.dumps({{"request_id": req["request_id"], "rewrites": [{rewrite}]}}))
sys.exit(1)
"""

# the same, then starts a second answer that it never finishes
CRASH_MID_LINE = CRASH_AFTER_FIRST.replace(
    "sys.exit(1)", 'sys.stdout.write(\'{{"request_id": "q1", "rewr\')\nsys.exit(1)')

CRASHES = {"after_first": CRASH_AFTER_FIRST, "mid_line": CRASH_MID_LINE}

# answers every request, plus one id that no request carries
STRAY_ID = """\
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({{"request_id": req["request_id"], "rewrites": [{rewrite}]}}))
print(json.dumps({{"request_id": "zz", "rewrites": [{rewrite}]}}))
"""

# writes its pid, answers the first request, then hangs
HANG_AFTER_FIRST = """\
import json, os, sys, time
with open({pid_file}, "w") as fh:
    fh.write(str(os.getpid()))
req = json.loads(sys.stdin.readline())
print(json.dumps({{"request_id": req["request_id"], "rewrites": [{rewrite}]}}), flush=True)
time.sleep(600)
"""

FAULT_CFG = dict(augment_mode="paraphrase", max_variants=4, batch_size=1)


@pytest.mark.parametrize("crash", sorted(CRASHES))
def test_child_crash_after_first_answer_is_unavailable(tmp_path, crash):
    argv = run_script(tmp_path, CRASHES[crash], rewrite=ID_REWRITE)
    with pytest.raises(RewriterUnavailable, match="status 1"):
        augment_batch(numbered_pairs(), argv, PipelineConfig(**FAULT_CFG))


@pytest.mark.parametrize("crash", sorted(CRASHES))
def test_child_crash_fails_only_the_batches_it_left_open(tmp_path, crash):
    cfg = PipelineConfig(**FAULT_CFG, fallback=True)
    pairs = numbered_pairs()
    argv = run_script(tmp_path, CRASHES[crash], rewrite=ID_REWRITE)
    out = augment_batch(pairs, argv, cfg)
    assert [(p.parent_id, p.question) for p in out[1:2]] == [("q0", ID_REWRITE)]
    assert out[2:] == augment_batch(pairs[1:], "builtin", cfg)


def test_stray_id_fails_every_batch(tmp_path):
    argv = run_script(tmp_path, STRAY_ID, rewrite=ID_REWRITE)
    with pytest.raises(RewriterUnavailable, match="'zz'"):
        augment_batch(numbered_pairs(), argv, PipelineConfig(**FAULT_CFG))


def test_stray_id_falls_back_in_every_batch(tmp_path):
    cfg = PipelineConfig(**FAULT_CFG, fallback=True)
    pairs = numbered_pairs()
    out = augment_batch(pairs, run_script(tmp_path, STRAY_ID, rewrite=ID_REWRITE), cfg)
    assert out == augment_batch(pairs, "builtin", cfg)
    assert ID_REWRITE not in {p.question for p in out}


def assert_reaped(pid_file):
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


def test_hung_child_times_out_and_is_reaped(tmp_path):
    pid_file = tmp_path / "pid"
    argv = run_script(tmp_path, HANG_AFTER_FIRST, pid_file=str(pid_file), rewrite=ID_REWRITE)
    cfg = PipelineConfig(**FAULT_CFG, timeout_s=0.5)
    with pytest.raises(RewriterUnavailable, match="timed out"):
        augment_batch(numbered_pairs(), argv, cfg)
    assert_reaped(pid_file)


def test_hung_child_falls_back_for_unanswered_batches(tmp_path):
    pid_file = tmp_path / "pid"
    argv = run_script(tmp_path, HANG_AFTER_FIRST, pid_file=str(pid_file), rewrite=ID_REWRITE)
    cfg = PipelineConfig(**FAULT_CFG, timeout_s=0.5, fallback=True)
    pairs = numbered_pairs()
    out = augment_batch(pairs, argv, cfg)
    assert_reaped(pid_file)
    assert [(p.parent_id, p.question) for p in out[1:2]] == [("q0", ID_REWRITE)]
    assert out[2:] == augment_batch(pairs[1:], "builtin", cfg)


# takes about half a second per request
SLOW = """\
import json, sys, time
for line in sys.stdin:
    req = json.loads(line)
    time.sleep(0.5)
    print(json.dumps({{"request_id": req["request_id"], "rewrites": [{rewrite}]}}))
"""


def test_timeout_is_per_batch_summed_over_the_run(tmp_path):
    # 3 batches at 1 s each: the child's 1.5 s fits the run's 3 s budget
    cfg = PipelineConfig(**FAULT_CFG, timeout_s=1.0)
    out = augment_batch(numbered_pairs(), run_script(tmp_path, SLOW, rewrite=ID_REWRITE), cfg)
    assert [p.question for p in out[1::2]] == [ID_REWRITE] * 3
