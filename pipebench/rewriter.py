"""Question rewriter for the benchmark's `augment` step.

Speaks capqa's subprocess rewriter protocol: one JSON request per stdin line,
{"request_id", "text", "mode"}, and one JSON response per stdout line,
{"request_id", "rewrites": [...]}. The rewrites are a pure function of the
text, so the output checks can recompute them. Some rewrites drop the answer
of a choice question ("Is the X red or blue?" loses "red or "), which the
program's answer-consistency filter must reject.
"""

import json
import re
import sys

_CHOICE = re.compile(r"^(Is the \w+|Which is bigger,) (the )?(\w+) or (the )?(\w+)\?$")


def rewrites(text: str) -> list:
    """Every rewrite offered for one question, in the order offered."""
    if len(text) % 7 == 0:
        return []
    lowered = text[0].lower() + text[1:]
    out = []
    m = _CHOICE.match(text)
    if m:
        # drops the first alternative, which is the answer in the QA file
        out.append(f"{m.group(1)} {m.group(4) or ''}{m.group(5)}?")
    out.append(f"Please tell me, {lowered}")
    out.append(text.upper())  # a duplicate after normalisation
    out.append(f"In this picture, {lowered}")
    out.append(f"Looking closely, {lowered}")
    return out


def main() -> int:
    for line in sys.stdin:
        if not line.strip():
            continue
        request = json.loads(line)
        sys.stdout.write(json.dumps({"request_id": request["request_id"],
                                     "rewrites": rewrites(request["text"])}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
