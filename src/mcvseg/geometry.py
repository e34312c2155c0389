"""Integer-lattice geometry: windows, clipping to arrays, dilation. The
paper's clipped window and boundary test on pixel sets are
``reference.clip`` and ``reference.boundary_point``.

Pixels are (col, row) pairs, 1-based, on an m x n lattice. Windows are
finite sets of integer offsets containing the origin; they double as
structuring elements for dilation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from numbers import Integral

import numpy as np

Pixel = tuple[int, int]
Offset = tuple[int, int]


def _integer(value) -> bool:
    """An integer, but not a bool, which a header would print as True."""
    return isinstance(value, Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class Lattice:
    """Rectangular pixel lattice, columns 1..width and rows 1..height."""

    width: int
    height: int

    def __post_init__(self):
        if not (_integer(self.width) and _integer(self.height)):
            raise ValueError(f"lattice sides must be integers, got {self.width!r}x{self.height!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.width}x{self.height}")

    def __contains__(self, pixel: Pixel) -> bool:
        c, r = pixel
        return 1 <= c <= self.width and 1 <= r <= self.height

    def index(self, pixel: Pixel) -> tuple[int, int]:
        """The 0-based (row, col) array index of a pixel on the lattice."""
        if pixel not in self:
            raise ValueError(f"pixel {pixel} outside {self.width}x{self.height} lattice")
        return pixel[1] - 1, pixel[0] - 1

    @property
    def size(self) -> int:
        return self.width * self.height

    def pixels(self):
        """All lattice pixels in raster (row-major) order."""
        for r in range(1, self.height + 1):
            for c in range(1, self.width + 1):
                yield (c, r)


@dataclass(frozen=True)
class Window:
    """Finite set of (dx, dy) offsets around (and including) the origin."""

    offsets: tuple[Offset, ...]

    def __post_init__(self):
        if not all(type(v) is int or isinstance(v, Integral) for o in self.offsets for v in o):
            raise ValueError(f"window offsets must be integers, got {self.offsets!r}")
        cleaned = tuple(sorted({(int(dx), int(dy)) for dx, dy in self.offsets}))
        if (0, 0) not in cleaned:
            raise ValueError("window must contain the origin (0, 0)")
        object.__setattr__(self, "offsets", cleaned)

    def __contains__(self, offset: Offset) -> bool:
        return tuple(offset) in set(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets)

    @cached_property
    def _grid(self) -> tuple[tuple[int, int, int, int], np.ndarray]:
        dxs = [o[0] for o in self.offsets]
        dys = [o[1] for o in self.offsets]
        x0, x1, y0, y1 = min(dxs), max(dxs), min(dys), max(dys)
        m = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        for dx, dy in self.offsets:
            m[dy - y0, dx - x0] = True
        m.flags.writeable = False
        return (x0, x1, y0, y1), m

    def bbox(self) -> tuple[int, int, int, int]:
        """(min_dx, max_dx, min_dy, max_dy) of the offset set."""
        return self._grid[0]

    def mask(self) -> np.ndarray:
        """Read-only boolean membership grid over the bounding box,
        indexed [dy, dx]."""
        return self._grid[1]

    def is_full_rectangle(self) -> bool:
        x0, x1, y0, y1 = self.bbox()
        return len(self.offsets) == (x1 - x0 + 1) * (y1 - y0 + 1)


@dataclass(frozen=True)
class WindowGeom:
    """Bounding box plus membership mask of a window, for cutting it out
    of 0-based arrays. ``mask`` is None when the window fills its box,
    which unlocks the maskless fast paths."""

    bx0: int
    bx1: int
    by0: int
    by1: int
    mask: np.ndarray | None

    @classmethod
    def of(cls, win: Window) -> WindowGeom:
        bx0, bx1, by0, by1 = win.bbox()
        mask = None if win.is_full_rectangle() else win.mask()
        return cls(bx0, bx1, by0, by1, mask)

    @classmethod
    def square(cls, r: int) -> WindowGeom:
        """square_window(r) without materializing its offsets."""
        return cls(-r, r, -r, r, None)

    def clip(self, r0: int, c0: int, h: int, w: int):
        """The window at array position (r0, c0), which must lie on the
        array, clipped to an h x w array: ``cut`` of its ``clip_bounds`` row."""
        return self.cut(self.clip_bounds(np.array([r0]), np.array([c0]), h, w)[0].tolist())

    def clip_bounds(self, r0: np.ndarray, c0: np.ndarray, h: int, w: int) -> np.ndarray:
        """The window at each array position (r0[i], c0[i]), which must lie
        on the array, clipped to an h x w array: an (n, 4) int32 array of
        rows (a0, a1, b0, b1), the row slice a0:a1 and column slice b0:b1,
        plus the row and column where the cut of the mask starts when the
        window has one, (n, 6) then. The extents are clamped to the array
        first, which moves no bound, so any window clips in int64."""
        by0, by1 = max(self.by0, -h), min(self.by1, h)
        bx0, bx1 = max(self.bx0, -w), min(self.bx1, w)
        out = np.empty((len(r0), 4 if self.mask is None else 6), dtype=np.int32)
        np.maximum(r0 + by0, 0, out=out[:, 0])
        np.minimum(r0 + (by1 + 1), h, out=out[:, 1])
        np.maximum(c0 + bx0, 0, out=out[:, 2])
        np.minimum(c0 + (bx1 + 1), w, out=out[:, 3])
        if self.mask is not None:
            out[:, 4] = out[:, 0] - r0 - self.by0
            out[:, 5] = out[:, 2] - c0 - self.bx0
        return out

    def cut(self, bounds: list[int]) -> tuple[slice, slice, np.ndarray | None]:
        """A ``clip_bounds`` row as a row slice, a column slice and the
        window mask cut to them, or None for a maskless row of four bounds."""
        if self.mask is None:
            return slice(bounds[0], bounds[1]), slice(bounds[2], bounds[3]), None
        a0, a1, b0, b1, r, c = bounds
        return slice(a0, a1), slice(b0, b1), self.mask[r : r + a1 - a0, c : c + b1 - b0]


def _w0_reads(w0: Window, h: int, w: int) -> np.ndarray:
    """Every pixel's w0 reads on the h x w lattice: an (N, |w0|) int32
    table of row-major indices, row p for pixel p, the pixel itself first.
    An off-lattice read reads the pixel itself, so a row holds exactly the
    clipped w0-window. A lattice past int32 indices raises ValueError."""
    if h * w - 1 > np.iinfo(np.int32).max:
        raise ValueError(f"{w}x{h} lattice too large for int32 pixel indices")
    offsets = np.array([(0, 0)] + [o for o in w0.offsets if o != (0, 0)], dtype=np.int32)
    rows = np.arange(h, dtype=np.int32)[:, None] + offsets[:, 1]
    cols = np.arange(w, dtype=np.int32)[:, None] + offsets[:, 0]
    reads = (np.clip(rows, 0, h - 1) * w)[:, None] + np.clip(cols, 0, w - 1)
    off = ((rows < 0) | (rows >= h))[:, None] | ((cols < 0) | (cols >= w))
    np.copyto(reads, reads[..., :1], where=off)
    return reads.reshape(h * w, len(offsets))


def square_window(r: int) -> Window:
    """Square window of side 2r + 1 centered at the origin."""
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return Window(tuple((dx, dy) for dy in range(-r, r + 1) for dx in range(-r, r + 1)))


#: 3x3 block of offsets including the origin (8-connectivity).
NINE_NEIGHBORHOOD = square_window(1)

#: Origin plus the four axis neighbors (4-connectivity).
FIVE_NEIGHBORHOOD = Window(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))


_DILATIONS: dict[Window, tuple[Window, ...]] = {}  # dilate(g, 1..k) for each g


def dilate(g: Window, i: int) -> Window:
    """i-fold iterated dilation of ``g`` with itself as structuring element.

    dilate(g, 1) is g itself; dilate(g, i+1) is the Minkowski sum of g with
    dilate(g, i), which a cache per ``g`` extends one step at a time.
    """
    if i < 1:
        raise ValueError(f"dilation count must be >= 1, got {i}")
    chain = _DILATIONS.get(g, (g,))
    while len(chain) < i:
        acc = chain[-1].offsets
        chain += (Window(tuple({(a0 + b0, a1 + b1) for a0, a1 in g.offsets for b0, b1 in acc})),)
    _DILATIONS[g] = chain
    return chain[i - 1]
