#!/usr/bin/env python3
"""Pipeline benchmark for capqa: seeded inputs, closed command sequences,
checked outputs, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload templates --seed 1 --seconds 20 --trace 0

Each workload runs as rounds of a fixed sequence of `capqa` commands. The
commands run one at a time, each in its own interpreter, against the
checkout's `src/`; launcher.py starts them and reports their resource use. Rounds repeat until their summed wall
time reaches --seconds; every run attempts whole rounds. The first round's
outputs go through every check in checks.py and later rounds must reproduce
them byte for byte.

--trace 0 prints the end-to-end metrics: medians over rounds of the
sequence's wall time, CPU time and peak resident set, and the wall time of one
cold set-up in a fresh interpreter. --trace 1 alternates untraced rounds with
rounds run through traced.py and prints the per-layer metrics, medians over
the traced rounds. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import run_checks
from inputs import (ADVERSARIAL_THRESHOLD, LEVELS, MAX_QUESTIONS_PER_CAPTION, MAX_VARIANTS,
                    NEG_RATIO, PER_IMAGE, make_inputs)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("templates", "adversarial", "downstream")
COMMAND_TIMEOUT_S = 120
LAST_ROUND_START_S = 100  # no round starts later than this into the run

END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))

# (metric, unit): ".calls" and ".self_s" read the span of that name; the rest
# are counters kept by traced.py or values derived below.
PER_LAYER = (
    ("lingo.analyze.calls", "count"), ("lingo.analyze.tokens", "count"),
    ("lingo.analyze.self_s", "s"), ("lingo.object_lemma_index.self_s", "s"),
    ("corpus.load_coco.self_s", "s"),
    ("qgen.gen_yesno.self_s", "s"), ("qgen.gen_object.self_s", "s"),
    ("qgen.gen_number.self_s", "s"), ("qgen.gen_color.self_s", "s"),
    ("qgen.gen_location.self_s", "s"), ("qgen.negate_qa.calls", "count"),
    ("qgen.negate_qa.self_s", "s"), ("qgen.pairs", "count"),
    ("rng.stream.calls", "count"), ("rng.stream.self_s", "s"),
    ("rng.stable_id.calls", "count"), ("rng.stable_id.self_s", "s"),
    ("qgen.adversarial_qa.calls", "count"), ("qgen.adversarial_qa.hits", "count"),
    ("qgen.adversarial_qa.hit_ratio", "ratio"), ("qgen.adversarial_qa.self_s", "s"),
    ("embed.nearest.calls", "count"), ("embed.nearest.candidates", "count"),
    ("embed.nearest.self_s", "s"),
    ("embed.load_vectors.self_s", "s"), ("qgen.build_object_vocab.self_s", "s"),
    ("srl.load_frames.self_s", "s"), ("srl.render_qa.calls", "count"),
    ("srl.render_qa.self_s", "s"),
    ("answers.expand_answer.calls", "count"), ("answers.expand_answer.self_s", "s"),
    ("answers.build_vocab.self_s", "s"),
    ("qa.write_jsonl.self_s", "s"), ("qa.rows_written", "count"), ("qa.bytes_written", "B"),
    ("qa.read_jsonl.self_s", "s"), ("qa.rows_read", "count"),
    ("cli.self_s", "s"),
    ("augment.augment_batch.self_s", "s"), ("augment.requests", "count"),
    ("augment.variants", "count"), ("augment.variant_ratio", "ratio"),
    ("augment.rewriter_spawns", "count"), ("augment.rewriter_wait_s", "s"),
    ("pretrain.itm_pairs.calls", "count"), ("pretrain.itm_pairs.self_s", "s"),
    ("pretrain.mlm_mask.self_s", "s"), ("pretrain.mqa_mask.self_s", "s"),
    ("pretrain.write_samples.self_s", "s"),
    ("patches.pyramid.self_s", "s"), ("patches.write_manifest.self_s", "s"),
    ("stats.report.self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Failure(Exception):
    """The checkout cannot be benchmarked."""


def sequence(inputs, out: Path, seed: int) -> list:
    """(label, capqa arguments) of one round, in order."""
    common = ["--seed", str(seed)]
    cap = str(inputs.captions_path)
    if inputs.workload == "templates":
        return [("generate", [
            "generate", "--captions", cap, "--out", str(out / "qa.jsonl"),
            "--generators", "yesno,object,number,color,location", "--workers", "1",
            "--max-questions-per-caption", str(MAX_QUESTIONS_PER_CAPTION), *common])]
    if inputs.workload == "adversarial":
        return [("generate", [
            "generate", "--captions", cap, "--out", str(out / "qa.jsonl"),
            "--vectors", str(inputs.vectors_path), "--srl-frames", str(inputs.frames_path),
            "--generators", "yesno,object,number,color,location,srl",
            "--negative-mode", "adversarial", "--workers", "2",
            "--max-questions-per-caption", str(MAX_QUESTIONS_PER_CAPTION),
            "--set", f"adversarial_threshold={ADVERSARIAL_THRESHOLD}", *common])]
    rewriter = shlex.join([sys.executable, str(inputs.rewriter_path)])
    weighed = str(out / "weighed.jsonl")
    return [
        ("augment", ["augment", "--in", str(inputs.qa_path), "--out", str(out / "augmented.jsonl"),
                     "--rewriter", rewriter, "--max-variants", str(MAX_VARIANTS), *common]),
        ("weigh", ["weigh", "--in", str(out / "augmented.jsonl"), "--out", weighed, "--force",
                   *common]),
        ("vocab", ["vocab", "--in", weighed, "--out", str(out / "vocab.txt"), *common]),
        ("patches", ["patches", "--captions", cap, "--out", str(out / "patches.jsonl"),
                     "--levels", ",".join(map(str, LEVELS)), *common]),
        ("pretrain", ["pretrain", "--captions", cap, "--qa", weighed,
                      "--out", str(out / "pretrain.jsonl"), "--tasks", "mlm,mqa,itm",
                      "--neg-ratio", str(NEG_RATIO), *common]),
        ("sample-epoch", ["sample-epoch", "--in", weighed, "--epoch", "3",
                          "--out", str(out / "epoch.jsonl"), "--per-image", str(PER_IMAGE),
                          *common]),
        ("stats", ["stats", "--in", weighed, *common]),
    ]


def program_env() -> dict:
    env = dict(os.environ)
    env.pop("CAPQA_SEED", None)  # would override every command's --seed
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Launcher:
    """Runs commands through launcher.py, one at a time."""

    def __init__(self, env):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")], env=env,
                                     cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv, stdout_path: Path) -> tuple:
        """(wall_s, cpu_s, max_rss_mb, exit code) of one command."""
        request = {"argv": [str(a) for a in argv], "stdout": str(stdout_path),
                   "stderr": str(stdout_path.with_suffix(".stderr")),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise Failure(f"launcher exited with {self.proc.wait()}")
        reply = json.loads(line)
        return reply["wall_s"], reply["cpu_s"], reply["max_rss_kb"] / 1024, reply["code"]

    def close(self):
        self.proc.stdin.close()
        self.proc.stdout.close()
        try:
            self.proc.wait(timeout=COMMAND_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def time_setup(inputs, work: Path, launcher) -> float:
    """Wall time of one cold set-up, from interpreter start to exit."""
    argv = [sys.executable, str(BENCH / "setup_probe.py"), inputs.workload,
            str(inputs.captions_path)]
    if inputs.workload == "adversarial":
        argv += [str(inputs.vectors_path), str(inputs.frames_path)]
    elif inputs.workload == "downstream":
        argv += [str(inputs.qa_path)]
    wall, _, _, code = launcher.run(argv, work / "setup.stdout")
    if code != 0:
        raise Failure(f"set-up probe exited with {code}: "
                      f"{(work / 'setup.stderr').read_text(errors='replace')[-400:]}")
    loaded = json.loads((work / "setup.stdout").read_text())
    if not Path(loaded["capqa"]).resolve().is_relative_to(ROOT / "src"):
        raise Failure(f"capqa was imported from {loaded['capqa']}, not from {ROOT / 'src'}")
    if loaded["images"] != len(inputs.captions):
        raise Failure(f"set-up loaded {loaded['images']} images of {len(inputs.captions)}")
    return wall


def run_round(steps, out: Path, launcher, trace_dir=None) -> dict:
    wall = cpu = peak = 0.0
    failed = 0
    traces = []
    for i, (label, args) in enumerate(steps):
        if trace_dir is None:
            argv = [sys.executable, "-m", "capqa.cli", *args]
        else:
            trace_path = trace_dir / f"{i}-{label}.json"
            traces.append(trace_path)
            argv = [sys.executable, str(BENCH / "traced.py"), str(trace_path), *args]
        w, c, rss, code = launcher.run(argv, out / f"{label}.stdout")
        wall += w
        cpu += c
        peak = max(peak, rss)
        if code != 0:
            failed += 1
            err = (out / f"{label}.stderr").read_text(errors="replace")
            print(f"{label} exited with {code}: {err[-400:]}", file=sys.stderr)
    spans, counts = {}, {}
    for path in traces:
        if path.exists():
            doc = json.loads(path.read_text())
            for name, values in doc["spans"].items():
                spans[name] = [a + b for a, b in zip(spans.get(name, (0, 0.0, 0.0)), values)]
            for name, n in doc["counts"].items():
                counts[name] = counts.get(name, 0) + n
    return {"traced": trace_dir is not None, "wall_s": wall, "cpu_s": cpu,
            "peak_rss_mb": peak, "failed": failed, "spans": spans, "counts": counts}


def output_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.is_file() and path.suffix != ".stderr":
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def layer_values(rnd: dict) -> dict:
    spans, counts = rnd["spans"], rnd["counts"]

    def span(name, field):
        return spans.get(name, (0, 0.0, 0.0))[field]

    derived = {
        "qa.rows_read": counts.get("qa.read_jsonl.rows", 0),
        "augment.rewriter_spawns": span("augment.rewriter", 0),
        "augment.rewriter_wait_s": span("augment.rewriter", 1),
    }
    values = {}
    for name, _ in PER_LAYER:
        if name in derived:
            values[name] = derived[name]
        elif name.endswith(".calls"):
            values[name] = span(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = span(name[:-len(".self_s")], 2)
        else:
            values[name] = counts.get(name, 0)
    calls = values["qgen.adversarial_qa.calls"]
    values["qgen.adversarial_qa.hit_ratio"] = (
        values["qgen.adversarial_qa.hits"] / calls if calls else 0.0)
    requests = values["augment.requests"]
    values["augment.variant_ratio"] = values["augment.variants"] / requests if requests else 0.0
    return values


def benchmark(workload: str, seed: int, seconds: float, trace: bool,
              scale: str = "full") -> dict:
    if not (ROOT / "src" / "capqa" / "cli.py").is_file():
        raise Failure(f"no capqa sources under {ROOT / 'src'}")
    started = time.perf_counter()
    work = BENCH / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    out.mkdir(parents=True)
    launcher = Launcher(program_env())
    try:
        inputs = make_inputs(workload, seed, work / "in", scale)
        setup_s = time_setup(inputs, work, launcher)
        steps = sequence(inputs, out, seed)

        rounds = [run_round(steps, out, launcher)]
        failures = run_checks(inputs, out)
        digest = output_digest(out)
        measured = rounds[0]["wall_s"]
        while (trace and len(rounds) < 2) or (
                measured < seconds and time.perf_counter() - started < LAST_ROUND_START_S):
            trace_dir = None
            if trace and len(rounds) % 2 == 1:
                trace_dir = work / f"trace{len(rounds)}"
                trace_dir.mkdir()
            rounds.append(run_round(steps, out, launcher, trace_dir))
            measured += rounds[-1]["wall_s"]
            if output_digest(out) != digest:
                failures.append(f"round {len(rounds)} output differs from round 1")
    finally:
        launcher.close()
        shutil.rmtree(work, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if trace:
        per_round = [layer_values(r) for r in traced]
        metrics = {name: {"value": statistics.median(v[name] for v in per_round), "unit": unit}
                   for name, unit in PER_LAYER}
        # each traced round against the untraced round just before it
        metrics["trace.overhead_s"]["value"] = statistics.median(
            rounds[i]["wall_s"] - rounds[i - 1]["wall_s"]
            for i in range(1, len(rounds)) if rounds[i]["traced"])
    else:
        metrics = {name: {"value": statistics.median(r[name] for r in plain), "unit": unit}
                   for name, unit in END_TO_END if name != "setup_s"}
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "scale": scale,
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "peak_rss_mb", "failed")}
                   for r in rounds],
        "setup_s": setup_s, "failures": failures,
    }
    return {
        "correct": not failures,
        "attempted": len(rounds) * len(steps),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
        "record": record,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = result.pop("record")
    runs = BENCH / "runs"
    runs.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    (runs / name).write_text(json.dumps({**record, **result}, indent=1) + "\n")
    for failure in record["failures"]:
        print(f"check failed: {failure}", file=sys.stderr)
    for metric, m in result["metrics"].items():
        print(f"{metric:36s} {m['value']:>14.6g} {m['unit']}")
    print(f"rounds {len(record['rounds'])}, commands attempted {result['attempted']}, "
          f"failed {result['failed']}, correct {result['correct']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
