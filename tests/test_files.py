"""The input-file boundary: the shared readers, and that no other module reads files."""

import ast
import json
from pathlib import Path

import pytest

import capqa
from capqa.errors import MalformedInput
from capqa.files import read_json, read_json_lines, read_lines

SRC = Path(capqa.__file__).parent


def read_opens(path):
    """Line numbers of the calls in `path` that open a file for reading."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in ("read_text", "read_bytes"):
            yield node.lineno
        if not (isinstance(func, ast.Name) and func.id == "open"):
            continue
        mode = node.args[1] if len(node.args) > 1 else next(
            (k.value for k in node.keywords if k.arg == "mode"), None)
        writes = isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax")
        if not writes:
            yield node.lineno


def test_only_the_files_module_opens_inputs():
    assert list(read_opens(SRC / "files.py"))  # the check sees a read when there is one
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for line in read_opens(path)
    ]
    assert offenders == []


def test_line_numbers_count_blank_lines(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"n": 1}\n\n{"m": 2}\n', encoding="utf-8")
    with pytest.raises(MalformedInput, match=rf"^{path}:3: missing key 'n'$"):
        list(read_json_lines(path, lambda d: d["n"]))


def test_callback_rejection_names_the_file(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"n": "x"}), encoding="utf-8")
    with pytest.raises(MalformedInput, match=rf"^{path}: "):
        read_json(path, lambda d: int(d["n"]))


def test_missing_file_names_the_path(tmp_path):
    path = tmp_path / "absent.txt"
    with pytest.raises(MalformedInput, match=rf"^{path}: No such file"):
        list(read_lines(path, str.split))


def test_lines_are_parsed_in_order_without_blanks(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"a 1\r\n\n  \nb 2\n")
    assert list(read_lines(path, str.split)) == [["a", "1"], ["b", "2"]]
