"""Overlapping patch pyramids over image rectangles.

Level k slices each axis into k windows on a boundary grid at multiples of
size/(k+1), each window spanning two grid steps, so adjacent windows
overlap by half a side (within a pixel once boundaries are rounded to the
integer grid). Every pixel is covered at every level. A pyramid over
levels {1, 3, 5, 7} yields 1+9+25+49 = 84 patches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from . import files
from .errors import BadDims


@dataclass(frozen=True)
class PatchEntry:
    level: int
    row: int
    col: int
    rect: tuple  # (x0, y0, x1, y1) in pixels, end-exclusive
    pos_enc: tuple  # (x0/W, y0/H, x1/W, y1/H, level_index)


@dataclass(frozen=True)
class PatchSpec:
    image_id: int
    width: int
    height: int
    levels: tuple
    patches: tuple


def _axis_bounds(size: int, k: int):
    # shared boundary grid: b_i = round(i*size/(k+1)), exact integer math;
    # window c spans [b_c, b_c+2], so adjacent windows overlap by half a
    # side within one pixel (each boundary is within 0.5 of the real line)
    denom = k + 1
    grid = [(2 * i * size + denom) // (2 * denom) for i in range(denom + 1)]
    return [(grid[c], grid[c + 2]) for c in range(k)]


def pyramid(image_id: int, width: int, height: int, levels) -> PatchSpec:
    """Every level's patches; `levels` as PipelineConfig checks them."""
    if not isinstance(width, int) or not isinstance(height, int) or width <= 0 or height <= 0:
        raise BadDims(f"image {image_id}: {width}x{height}")
    lv = tuple(levels)
    # below this, rounded grid steps can collapse to zero-width windows
    if 2 * width <= lv[-1] + 1 or 2 * height <= lv[-1] + 1:
        raise BadDims(f"image {image_id}: {width}x{height} too small for level {lv[-1]}")

    patches = []
    for li, k in enumerate(lv):
        xs = _axis_bounds(width, k)
        ys = _axis_bounds(height, k)
        for row in range(k):
            y0, y1 = ys[row]
            for col in range(k):
                x0, x1 = xs[col]
                patches.append(
                    PatchEntry(
                        level=k,
                        row=row,
                        col=col,
                        rect=(x0, y0, x1, y1),
                        pos_enc=(x0 / width, y0 / height, x1 / width, y1 / height, li),
                    )
                )
    return PatchSpec(
        image_id=image_id, width=width, height=height, levels=lv, patches=tuple(patches)
    )


def write_manifest(specs: Iterable[PatchSpec], path) -> int:
    """One JSON line per patch; returns the line count."""
    return files.write_lines(path, (
        files.encode_row({"image_id": spec.image_id, "level": p.level, "row": p.row,
                          "col": p.col, "rect": p.rect, "pos_enc": p.pos_enc})
        for spec in specs
        for p in spec.patches
    ))
