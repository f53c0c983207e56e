"""The file boundary: the shared readers and writer, and that no other module
opens a file."""

import ast
import json
from pathlib import Path

import pytest

import capqa
from capqa.errors import MalformedInput
from capqa.files import read_json, read_json_lines, read_lines, write_lines

SRC = Path(capqa.__file__).parent

# calls that open a file, to read or to write: open(), os.open(), Path.open()
# and the Path shortcuts
FILE_CALLS = {"open", "read_text", "read_bytes", "write_text", "write_bytes"}


def file_opens(path):
    """Line numbers of the calls in `path` that open a file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in FILE_CALLS:
            yield node.lineno


def test_only_the_files_module_opens_files():
    # the check sees files.py's two readers and its writer
    assert len(list(file_opens(SRC / "files.py"))) == 3
    offenders = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "files.py"
        for line in file_opens(path)
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


def test_write_lines_streams_and_counts(tmp_path):
    path = tmp_path / "out.txt"
    assert write_lines(path, (w for w in ["a b", "", "ü"])) == 3
    assert path.read_bytes() == "a b\n\nü\n".encode("utf-8")
    assert write_lines(path, iter(())) == 0
    assert path.read_bytes() == b""


def test_lines_are_parsed_in_order_without_blanks(tmp_path):
    path = tmp_path / "words.txt"
    path.write_bytes(b"a 1\r\n\n  \nb 2\n")
    assert list(read_lines(path, str.split)) == [["a", "1"], ["b", "2"]]


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_document_rejects_non_json_numbers(tmp_path, constant):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"seed": {constant}}}', encoding="utf-8")
    with pytest.raises(MalformedInput, match=rf"^{path}: {constant} is not a JSON number$"):
        read_json(path, dict)


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_json_lines_reject_non_json_numbers(tmp_path, constant):
    path = tmp_path / "rows.jsonl"
    path.write_text(f'{{"w": 0.5}}\n{{"w": [1, {constant}]}}\n', encoding="utf-8")
    with pytest.raises(MalformedInput, match=rf"^{path}:2: {constant} is not a JSON number$"):
        list(read_json_lines(path, dict))


def test_byte_order_mark_named_as_json_names_it(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text("\ufeff{}", encoding="utf-8")
    with pytest.raises(MalformedInput, match=rf"^{path}: Unexpected UTF-8 BOM"):
        read_json(path, dict)
