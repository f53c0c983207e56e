"""How files are opened: inputs decoded, parsed and reported when bad, and
outputs written.

Every loader reads through one of three readers: a whole JSON document, the
non-blank lines of a text file, or the records of a JSON-lines file. Each
reader hands what it read to a parse callback. A file that cannot be opened,
is not UTF-8 or not JSON, or that the callback rejects with KeyError,
TypeError, ValueError or MalformedInput, ends in one MalformedInput naming
`PATH`, or `PATH:LINE` for the line formats.

Every output is written through `write_lines`, one line at a time, so a
writer streams whatever iterable it is given. JSON-lines rows are encoded by
`encode_row`.
"""

from __future__ import annotations

import json

from .errors import MalformedInput

# UnicodeDecodeError and JSONDecodeError are ValueErrors
_BAD_INPUT = (OSError, KeyError, TypeError, ValueError, MalformedInput)

# json.dumps with any non-default argument builds a new JSONEncoder per call;
# every JSON-lines writer shares this one, which gives the same text
encode_row = json.JSONEncoder(ensure_ascii=False).encode


def _bad(where, exc) -> MalformedInput:
    if isinstance(exc, OSError) and exc.strerror:
        reason = exc.strerror
    elif isinstance(exc, KeyError):
        reason = f"missing key {exc}"
    else:
        reason = str(exc)
    return MalformedInput(f"{where}: {reason}")


def read_json(path, parse):
    """`parse` of the UTF-8 JSON document at `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        return parse(doc)
    except _BAD_INPUT as exc:
        raise _bad(path, exc) from exc


def read_lines(path, parse):
    """Yield `parse` of each non-blank UTF-8 line of the text file at `path`."""
    lineno = 0
    try:
        # bytes, decoded line by line, so a bad byte is reported on its own line
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.decode("utf-8")
                if line.strip():
                    yield parse(line)
    except _BAD_INPUT as exc:
        raise _bad(f"{path}:{lineno}" if lineno else path, exc) from exc


def read_json_lines(path, parse):
    """Yield `parse` of each record of the JSON-lines file at `path`."""
    return read_lines(path, lambda line: parse(json.loads(line)))


def write_lines(path, lines) -> int:
    """Write each of `lines` and a newline to the UTF-8 text file at `path`;
    return how many were written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for count, line in enumerate(lines, start=1):
            fh.write(line)
            fh.write("\n")
    return count
