import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from capqa.config import PipelineConfig
from capqa.errors import BadDims
from capqa.patches import pyramid, write_manifest


def test_level_one_is_whole_image():
    spec = pyramid(1, 224, 224, levels=[1])
    assert len(spec.patches) == 1
    p = spec.patches[0]
    assert p.rect == (0, 0, 224, 224)
    assert p.pos_enc[:4] == (0.0, 0.0, 1.0, 1.0)


def test_k3_224_offsets_and_overlap():
    spec = pyramid(1, 224, 224, levels=[3])
    assert len(spec.patches) == 9
    xs = sorted({p.rect[0] for p in spec.patches})
    assert xs == [0, 56, 112]
    x1s = sorted({p.rect[2] for p in spec.patches})
    assert x1s == [112, 168, 224]
    # adjacent patches share exactly half a side
    row0 = sorted((p for p in spec.patches if p.row == 0), key=lambda p: p.col)
    for left, right in zip(row0, row0[1:]):
        assert left.rect[2] - right.rect[0] == 56


def test_default_levels_patch_count():
    spec = pyramid(1, 640, 480, PipelineConfig().levels)
    assert spec.levels == (1, 3, 5, 7)
    assert len(spec.patches) == 84  # 1 + 9 + 25 + 49


def test_bad_dims():
    with pytest.raises(BadDims):
        pyramid(1, 0, 100, levels=[1])
    with pytest.raises(BadDims):
        pyramid(1, 100, -5, levels=[1])


def per_axis_segments(spec, level, axis):
    if axis == 0:
        segs = {(p.rect[0], p.rect[2]) for p in spec.patches if p.level == level and p.row == 0}
    else:
        segs = {(p.rect[1], p.rect[3]) for p in spec.patches if p.level == level and p.col == 0}
    return sorted(segs)


def assert_axis_coverage(segments, size):
    # union of [lo, hi) intervals must be exactly [0, size) with no gaps
    assert segments[0][0] == 0
    reach = 0
    for lo, hi in segments:
        assert lo <= reach  # no gap
        reach = max(reach, hi)
    assert reach == size


@given(
    st.integers(min_value=64, max_value=4096),
    st.integers(min_value=64, max_value=4096),
    st.sampled_from([[1], [3], [5], [7], [1, 3], [1, 3, 5, 7], [2, 4], [3, 7]]),
)
@settings(max_examples=120, deadline=None)
def test_pyramid_laws(width, height, levels):
    spec = pyramid(9, width, height, levels=levels)
    assert len(spec.patches) == sum(k * k for k in levels)
    for k in levels:
        level_patches = [p for p in spec.patches if p.level == k]
        assert len(level_patches) == k * k
        for p in level_patches:
            x0, y0, x1, y1 = p.rect
            assert 0 <= x0 < x1 <= width
            assert 0 <= y0 < y1 <= height
            nx0, ny0, nx1, ny1, li = p.pos_enc
            assert abs(nx0 - x0 / width) < 1e-9
            assert abs(ny0 - y0 / height) < 1e-9
            assert abs(nx1 - x1 / width) < 1e-9
            assert abs(ny1 - y1 / height) < 1e-9
            assert li == levels.index(k)
            # denormalizing recovers the rect within 1 px
            assert abs(nx0 * width - x0) <= 1 and abs(nx1 * width - x1) <= 1
            assert abs(ny0 * height - y0) <= 1 and abs(ny1 * height - y1) <= 1
        assert_axis_coverage(per_axis_segments(spec, k, 0), width)
        assert_axis_coverage(per_axis_segments(spec, k, 1), height)
        if k >= 2:
            half_x = width / (k + 1)
            half_y = height / (k + 1)
            row0 = sorted((p for p in level_patches if p.row == 0), key=lambda p: p.col)
            for left, right in zip(row0, row0[1:]):
                overlap = left.rect[2] - right.rect[0]
                assert abs(overlap - half_x) <= 1
            col0 = sorted((p for p in level_patches if p.col == 0), key=lambda p: p.row)
            for up, down in zip(col0, col0[1:]):
                overlap = up.rect[3] - down.rect[1]
                assert abs(overlap - half_y) <= 1


def test_patch_side_matches_formula():
    width, k = 224, 3
    spec = pyramid(1, width, width, levels=[k])
    s = 2 * width / (k + 1)
    for p in spec.patches:
        assert abs((p.rect[2] - p.rect[0]) - s) <= 1


def test_write_manifest_counts(tmp_path):
    specs = [pyramid(1, 64, 64, levels=[1, 3])]
    path = tmp_path / "patches.jsonl"
    n = write_manifest(specs, path)
    assert n == 10
    assert len(path.read_text(encoding="utf-8").splitlines()) == 10


def test_write_manifest_empty(tmp_path):
    path = tmp_path / "patches.jsonl"
    assert write_manifest([], path) == 0
    assert path.read_text(encoding="utf-8") == ""


def test_manifest_lines_match_specs(tmp_path):
    specs = [
        pyramid(3, 231, 117, levels=[1, 3, 5, 7]),
        pyramid(9, 640, 480, levels=[1, 3, 5, 7]),
    ]
    path = tmp_path / "patches.jsonl"
    write_manifest(specs, path)
    rows = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert rows == [
        {"image_id": spec.image_id, "level": p.level, "row": p.row, "col": p.col,
         "rect": list(p.rect), "pos_enc": list(p.pos_enc)}
        for spec in specs
        for p in spec.patches
    ]


@given(
    st.lists(st.tuples(st.integers(-2**70, 2**70), st.integers(16, 5000),
                       st.integers(16, 5000)), max_size=3),
    st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True).map(sorted),
)
@settings(max_examples=80, deadline=None)
def test_manifest_lines_are_json_encoding(tmp_path_factory, images, levels):
    specs = [pyramid(image_id, w, h, levels=levels) for image_id, w, h in images]
    path = tmp_path_factory.mktemp("manifest") / "patches.jsonl"
    write_manifest(specs, path)
    encode = json.JSONEncoder(ensure_ascii=False).encode
    assert path.read_text(encoding="utf-8").splitlines() == [
        encode({"image_id": spec.image_id, "level": p.level, "row": p.row, "col": p.col,
                "rect": p.rect, "pos_enc": p.pos_enc})
        for spec in specs
        for p in spec.patches
    ]
