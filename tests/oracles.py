"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in a different style from the
package: plain Python data structures, breadth-first search, explicit set
arithmetic, quadratic pair enumeration, and a one-visit-at-a-time NumPy
loop. None of it imports from mcvseg or takes its types (only tuples,
sets, lists and plain arrays), so a bug in the library cannot hide in
its own oracle.
"""

from collections import deque
from math import comb

import numpy as np


def bfs_components(pixels, offsets, width, height):
    """Connected components of a pixel set by breadth-first flood fill.

    ``pixels`` is an iterable of 1-based (col, row) pairs; ``offsets`` the
    adjacency (dx, dy) set, origin allowed and ignored. Returns a set of
    frozensets.
    """
    todo = set(pixels)
    comps = set()
    while todo:
        start = todo.pop()
        seen = {start}
        queue = deque([start])
        while queue:
            c, r = queue.popleft()
            for dx, dy in offsets:
                if dx == 0 and dy == 0:
                    continue
                q = (c + dx, r + dy)
                if q in todo and 1 <= q[0] <= width and 1 <= q[1] <= height:
                    todo.remove(q)
                    seen.add(q)
                    queue.append(q)
        comps.add(frozenset(seen))
    return comps


def window_at(x, offsets, width, height):
    """The clipped translate of an offset set, as a pixel set."""
    c, r = x
    return {
        (c + dx, r + dy)
        for dx, dy in offsets
        if 1 <= c + dx <= width and 1 <= r + dy <= height
    }


def merge_sets(blocks, x, w0_offsets, psi_offsets, width, height):
    """The windowed merge as literal set arithmetic on a block family.

    Blocks touching the w0-window of x contribute their intersection with
    the psi-window to one merged block; their leftovers survive as
    residue blocks; untouched blocks pass through. Empty residues vanish.
    Returns a set of frozensets.
    """
    w0 = window_at(x, w0_offsets, width, height)
    psi = window_at(x, psi_offsets, width, height)
    touched = [b for b in blocks if b & w0]
    untouched = [b for b in blocks if not (b & w0)]
    merged = set()
    for b in touched:
        merged |= b & psi
    out = {frozenset(b) for b in untouched}
    if merged:
        out.add(frozenset(merged))
    for b in touched:
        residue = b - merged
        if residue:
            out.add(frozenset(residue))
    return out


def rand_brute(assign1, assign2):
    """Rand index by enumerating every pixel pair.

    ``assign1`` and ``assign2`` map each pixel to its block label; the
    key sets must coincide.
    """
    keys = sorted(assign1)
    n = len(keys)
    agree = 0
    for i in range(n):
        for j in range(i + 1, n):
            a, b = keys[i], keys[j]
            same1 = assign1[a] == assign1[b]
            same2 = assign2[a] == assign2[b]
            if same1 == same2:
                agree += 1
    return agree / comb(n, 2)


def energy_reference(values, region, offsets, metric="euclidean"):
    """Scalar-loop transcription of the autoregressive patch energy.

    ``values`` maps (col, row) to a float or a tuple of floats; ``region``
    is the pixel set; ``offsets`` the neighborhood. Each pixel is predicted
    by the mean of its in-region neighbors; isolated pixels contribute
    nothing.
    """
    total = 0.0
    for (c, r) in region:
        nbrs = [
            (c + dx, r + dy)
            for dx, dy in offsets
            if (dx, dy) != (0, 0) and (c + dx, r + dy) in region
        ]
        if not nbrs:
            continue
        v = values[(c, r)]
        if isinstance(v, tuple):
            bands = len(v)
            pred = [0.0] * bands
            for q in nbrs:
                for k in range(bands):
                    pred[k] += values[q][k] / len(nbrs)
            if metric == "euclidean":
                total += sum((pred[k] - v[k]) ** 2 for k in range(bands))
            else:
                total += sum(abs(pred[k] - v[k]) for k in range(bands)) ** 2
        else:
            pred = sum(values[q] for q in nbrs) / len(nbrs)
            total += (pred - v) ** 2
    return total


def downsample_reference(src, out_offsets, g_offsets):
    """Scalar-loop transcription of one pyramid layer.

    ``src`` maps each sampled (dx, dy) position to a tuple of band
    values. Every output offset takes the mean of the samples at its
    g-neighbors, adding the neighbors in sorted offset order. Outputs
    with no sampled neighbor are absent. Returns a dict shaped like
    ``src``.
    """
    out = {}
    for (x, y) in out_offsets:
        sums = None
        count = 0
        for (dx, dy) in sorted(g_offsets):
            v = src.get((x + dx, y + dy))
            if v is None:
                continue
            if sums is None:
                sums = [0.0] * len(v)
            for k in range(len(v)):
                sums[k] += v[k]
            count += 1
        if count:
            out[(x, y)] = tuple(s / count for s in sums)
    return out


def chain_energy_per_pixel(values, x, chain, w0_offsets, width, height,
                           metric="euclidean"):
    """Energy per scored pixel of pixel x's evaluation window chain.

    ``chain`` lists offset sets coarse-ward. The first one, placed on x
    and clipped, picks the samples of ``values`` (tuples of floats); each
    later one is one ``downsample_reference`` layer of means over
    ``w0_offsets``. The last layer's samples are scored with
    ``energy_reference``.
    """
    c, r = x
    samples = {p: values[p] for p in window_at(x, chain[0], width, height)}
    for offsets in chain[1:]:
        out = [(c + dx, r + dy) for dx, dy in offsets]
        samples = downsample_reference(samples, out, w0_offsets)
    return energy_reference(samples, set(samples), w0_offsets, metric) / len(samples)


def run_mcv_reference(values, width, height, orders, w0_offsets, eval_chains,
                      merge_offsets, rho, metric="euclidean"):
    """The level loop as literal set arithmetic.

    ``values`` maps each (col, row) to a tuple of floats; ``orders``
    lists each level's visiting order of (col, row) pixels;
    ``eval_chains`` and ``merge_offsets`` list each level's evaluation
    window chain (one window in direct mode) and merge window. At every
    pixel in order: if its clipped w0-window leaves its block, test the
    chain's energy per pixel (``chain_energy_per_pixel``) against
    ``rho``, and on acceptance merge the blocks it touches inside the
    merge window. Returns one (blocks, evaluations, accepted) triple per
    level, level 0 (the singletons) first.
    """
    blocks = {frozenset([(c, r)]) for r in range(1, height + 1)
              for c in range(1, width + 1)}
    out = [(blocks, 0, 0)]
    for order, chain, mo in zip(orders, eval_chains, merge_offsets):
        evaluations = accepted = 0
        for x in order:
            own = next(b for b in blocks if x in b)
            if window_at(x, w0_offsets, width, height) <= own:
                continue
            evaluations += 1
            if chain_energy_per_pixel(values, x, chain, w0_offsets, width, height,
                                      metric) > rho:
                continue
            accepted += 1
            blocks = merge_sets(blocks, x, w0_offsets, mo, width, height)
        out.append((blocks, evaluations, accepted))
    return out


def _clipped_indices(c, r, offsets, height, width):
    """Row and column index arrays of the in-lattice translates of
    ``offsets`` to the 1-based pixel (c, r)."""
    pts = [(r - 1 + dy, c - 1 + dx) for dx, dy in offsets
           if 0 <= r - 1 + dy < height and 0 <= c - 1 + dx < width]
    return (np.array([p[0] for p in pts], dtype=np.int64),
            np.array([p[1] for p in pts], dtype=np.int64))


def merge_level_reference(labels, verdict, order, w0_offsets, psi_offsets):
    """The merge layer of one level, one visit at a time.

    ``labels`` is an (h, w) integer array and ``verdict`` an (h, w) bool
    array; ``order`` lists 1-based (col, row) pixels; the offsets are
    (dx, dy) pairs. At each pixel in order: if its clipped w0-window holds
    a label other than the pixel's own, count an evaluation; if the
    pixel's verdict is set, the window's labels (``np.unique``) are the
    targets, and every pixel of the clipped psi-window whose label is a
    target (``np.isin``) takes the next fresh label, one above the largest
    label so far. Returns (labels, evaluations, accepted) with a new
    label array.
    """
    labels = np.array(labels, copy=True)
    height, width = labels.shape
    fresh = int(labels.max()) + 1
    evaluations = accepted = 0
    for c, r in order:
        block = labels[_clipped_indices(c, r, w0_offsets, height, width)]
        if (block == labels[r - 1, c - 1]).all():
            continue
        evaluations += 1
        if not verdict[r - 1, c - 1]:
            continue
        targets = np.unique(block)
        rows, cols = _clipped_indices(c, r, psi_offsets, height, width)
        hit = np.isin(labels[rows, cols], targets)
        labels[rows[hit], cols[hit]] = fresh
        fresh += 1
        accepted += 1
    return labels, evaluations, accepted


def first_occurrence_reference(rows, absent):
    """Renumber a grid of labels 0, 1, 2, ... in the order they first
    appear, reading each row left to right, top row first. ``rows`` is a
    list of lists of ints; cells equal to ``absent`` stay as they are.
    Returns a new list of lists."""
    rank = {}
    out = []
    for row in rows:
        out.append([lab if lab == absent else rank.setdefault(lab, len(rank)) for lab in row])
    return out


def singletons_reference(pixels, width, height):
    """Single-pixel blocks of a pixel collection, one pixel at a time:
    the distinct (col, row) pixels in (row, col) order take the labels
    0, 1, 2, ... in a (height, width) int32 array, -1 elsewhere. The
    first pixel off the lattice in that order raises ValueError with
    ``Lattice.index``'s message."""
    labels = np.full((height, width), -1, dtype=np.int32)
    for i, (c, r) in enumerate(sorted(set(pixels), key=lambda p: (p[1], p[0]))):
        if not (1 <= c <= width and 1 <= r <= height):
            raise ValueError(f"pixel {(c, r)} outside {width}x{height} lattice")
        labels[r - 1, c - 1] = i
    return labels


def relabel_reference(rows, x, offsets, targets, fresh):
    """The windowed relabel, one pixel at a time: every pixel of the
    clipped translate of ``offsets`` to the 1-based (col, row) pixel
    ``x`` whose label is in ``targets`` takes the label ``fresh``.
    ``rows`` is a list of lists of ints; returns a new list of lists."""
    out = [list(row) for row in rows]
    for c, r in window_at(x, offsets, len(rows[0]), len(rows)):
        if out[r - 1][c - 1] in targets:
            out[r - 1][c - 1] = fresh
    return out


def neighbor_means_reference(sources, reads, out_mask, dy0=0, dx0=0):
    """One mean layer, one position at a time: at each position (i, j) of
    the (h, w) bool ``out_mask`` that is set, and for each index ``b`` of
    the leading batch axes, add in order the band values of every
    ``((dx, dy), k)`` read whose source position (i + dy0 + dy,
    j + dx0 + dx) lies on source k's mask, and divide each band sum once
    by the number of such reads. ``sources`` maps k to (values, mask)
    arrays of shapes (..., hs, ws, bands) and (..., hs, ws). A position
    with no read, or off ``out_mask``, is 0.0 and off the returned mask,
    and a mean of zero is +0.0. Returns (means, mask) as arrays."""
    values, mask = next(iter(sources.values()))
    batch, (hs, ws), bands = mask.shape[:-2], mask.shape[-2:], values.shape[-1]
    h, w = out_mask.shape
    means = np.zeros((*batch, h, w, bands))
    present = np.zeros((*batch, h, w), dtype=bool)
    for b in np.ndindex(*batch):
        for i in range(h):
            for j in range(w):
                if not out_mask[i, j]:
                    continue
                sums, count = [0.0] * bands, 0
                for (dx, dy), k in reads:
                    y, x = i + dy0 + dy, j + dx0 + dx
                    vals, m = sources[k]
                    if 0 <= y < hs and 0 <= x < ws and m[b + (y, x)]:
                        for band in range(bands):
                            sums[band] += float(vals[b + (y, x, band)])
                        count += 1
                if count:
                    present[b + (i, j)] = True
                    for band in range(bands):
                        mean = sums[band] / count
                        means[b + (i, j, band)] = 0.0 if mean == 0 else mean
    return means, present


def plain_pnm_tokens(data):
    """Split a plain PNM into its magic number and its integer tokens,
    one byte at a time. Whitespace is space, tab, CR, LF, VT or FF; a '#'
    starts a comment, also directly after a token, that runs up to the
    next CR or LF. Every token must be ASCII digits, else ValueError.
    Returns (magic bytes, list of ints)."""
    whitespace = {0x20, 0x09, 0x0D, 0x0A, 0x0B, 0x0C}
    tokens, current, in_comment = [], [], False
    for byte in data[2:]:
        if in_comment and byte not in (0x0A, 0x0D):
            continue
        in_comment = False
        if byte in whitespace or byte == ord("#"):
            if current:
                tokens.append(current)
            current, in_comment = [], byte == ord("#")
        else:
            current.append(byte)
    if current:
        tokens.append(current)
    numbers = []
    for token in tokens:
        if not all(ord("0") <= b <= ord("9") for b in token):
            raise ValueError(f"not an integer token: {bytes(token)!r}")
        numbers.append(int(bytes(token)))
    return bytes(data[:2]), numbers


def spiral_map(side):
    """A side x side class map of 0s and 1s: a square spiral wall of 1s,
    one pixel wide, walked inward from the top-left corner with a one-pixel
    corridor of 0s between its turns, so both classes run the length of
    the spiral."""
    grid = np.zeros((side, side), dtype=np.uint8)
    r = c = dr = 0
    dc, turns = 1, 0
    grid[0, 0] = 1
    while turns < 2:
        nr, nc, ar, ac = r + dr, c + dc, r + 2 * dr, c + 2 * dc
        ahead = 0 <= ar < side and 0 <= ac < side and grid[ar, ac]
        if 0 <= nr < side and 0 <= nc < side and not grid[nr, nc] and not ahead:
            r, c, turns = nr, nc, 0
            grid[r, c] = 1
        else:
            dr, dc, turns = dc, -dr, turns + 1
    return grid


def serpentine_map(side):
    """A side x side class map whose 1s form one path that runs along
    every even row and turns at alternate ends; the 0s are the odd rows
    between its turns."""
    grid = np.zeros((side, side), dtype=np.uint8)
    grid[::2] = 1
    grid[1::4, -1] = 1
    grid[3::4, 0] = 1
    return grid
