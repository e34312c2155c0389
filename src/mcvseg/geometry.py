"""Integer-lattice geometry: windows, clipping, dilation, boundary test.

Pixels are (col, row) pairs, 1-based, on an m x n lattice. Windows are
finite sets of integer offsets containing the origin; they double as
structuring elements for dilation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Pixel = tuple[int, int]
Offset = tuple[int, int]


@dataclass(frozen=True)
class Lattice:
    """Rectangular pixel lattice, columns 1..width and rows 1..height."""

    width: int
    height: int

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError(f"lattice dimensions must be positive, got {self.width}x{self.height}")

    def __contains__(self, pixel: Pixel) -> bool:
        c, r = pixel
        return 1 <= c <= self.width and 1 <= r <= self.height

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
        cleaned = tuple(sorted({(int(dx), int(dy)) for dx, dy in self.offsets}))
        if (0, 0) not in cleaned:
            raise ValueError("window must contain the origin (0, 0)")
        object.__setattr__(self, "offsets", cleaned)

    def __contains__(self, offset: Offset) -> bool:
        return tuple(offset) in set(self.offsets)

    def __len__(self) -> int:
        return len(self.offsets)

    def __iter__(self):
        return iter(self.offsets)

    def offset_array(self) -> np.ndarray:
        """Offsets as an (k, 2) int array of (dx, dy) rows."""
        return np.array(self.offsets, dtype=np.int64)

    def bbox(self) -> tuple[int, int, int, int]:
        """(min_dx, max_dx, min_dy, max_dy) of the offset set."""
        dxs = [o[0] for o in self.offsets]
        dys = [o[1] for o in self.offsets]
        return min(dxs), max(dxs), min(dys), max(dys)

    def mask(self) -> np.ndarray:
        """Boolean membership grid over the bounding box, indexed [dy, dx]."""
        x0, x1, y0, y1 = self.bbox()
        m = np.zeros((y1 - y0 + 1, x1 - x0 + 1), dtype=bool)
        for dx, dy in self.offsets:
            m[dy - y0, dx - x0] = True
        return m

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
        """The window translated to array position (r0, c0) and clipped to
        an h x w array: row slice, column slice, and the window mask cut
        to the same region (None when the window has no mask)."""
        rlo, rhi = r0 + self.by0, r0 + self.by1 + 1
        clo, chi = c0 + self.bx0, c0 + self.bx1 + 1
        a0 = rlo if rlo > 0 else 0
        a1 = rhi if rhi < h else h
        b0 = clo if clo > 0 else 0
        b1 = chi if chi < w else w
        sub = None
        if self.mask is not None:
            sub = self.mask[a0 - rlo : a1 - rlo, b0 - clo : b1 - clo]
        return slice(a0, a1), slice(b0, b1), sub


def square_window(r: int) -> Window:
    """Square window of side 2r + 1 centered at the origin."""
    if r < 0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    return Window(tuple((dx, dy) for dy in range(-r, r + 1) for dx in range(-r, r + 1)))


#: 3x3 block of offsets including the origin (8-connectivity).
NINE_NEIGHBORHOOD = square_window(1)

#: Origin plus the four axis neighbors (4-connectivity).
FIVE_NEIGHBORHOOD = Window(((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)))


def clip(w: Window, x: Pixel, lat: Lattice) -> set[Pixel]:
    """Translate ``w`` to ``x`` and intersect with the lattice.

    The result always contains ``x`` because the window contains the origin.
    """
    if x not in lat:
        raise ValueError(f"pixel {x} outside {lat.width}x{lat.height} lattice")
    c, r = x
    return {
        (c + dx, r + dy)
        for dx, dy in w.offsets
        if 1 <= c + dx <= lat.width and 1 <= r + dy <= lat.height
    }


def boundary_point(x: Pixel, region: set[Pixel], w0: Window, lat: Lattice) -> bool:
    """True iff the clipped window at ``x`` meets both the region and its
    in-lattice complement.

    Both tests run inside the lattice: off-lattice positions never count as
    "outside the region", so a full-lattice region has no boundary points.
    """
    clipped = clip(w0, x, lat)
    inside = clipped & region
    return bool(inside) and len(inside) < len(clipped)


def dilate(g: Window, i: int) -> Window:
    """i-fold iterated dilation of ``g`` with itself as structuring element.

    dilate(g, 1) is g itself; dilate(g, i+1) is the Minkowski sum of g with
    dilate(g, i).
    """
    if i < 1:
        raise ValueError(f"dilation count must be >= 1, got {i}")
    acc = set(g.offsets)
    for _ in range(i - 1):
        acc = {(a0 + b0, a1 + b1) for a0, a1 in g.offsets for b0, b1 in acc}
    return Window(tuple(acc))
