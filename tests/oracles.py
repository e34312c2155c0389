"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written in a different style from the
package: plain Python data structures, breadth-first search, explicit set
arithmetic, and quadratic pair enumeration. None of it imports from
mcvseg beyond type-free data (tuples, sets, lists), so a bug in the
library cannot hide in its own oracle.
"""

from collections import deque
from math import comb


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
    is the pixel set; ``offsets`` the neighborhood without any weights
    (uniform). Isolated pixels contribute nothing.
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


def downsample_reference(src, out_offsets, g_offsets, theta):
    """Scalar-loop transcription of one pyramid layer.

    ``src`` maps each sampled (dx, dy) position to a tuple of band
    values; ``theta`` maps each aggregation offset to its weight. Every
    output offset takes the theta-weighted mean of the samples at its
    g-neighbors, adding the neighbors in sorted offset order. Outputs
    with no weighted sample are absent. Returns a dict shaped like
    ``src``.
    """
    out = {}
    for (x, y) in out_offsets:
        sums = None
        total = 0.0
        for (dx, dy) in sorted(g_offsets):
            v = src.get((x + dx, y + dy))
            wt = theta[(dx, dy)]
            if v is None or wt == 0.0:
                continue
            if sums is None:
                sums = [0.0] * len(v)
            for k in range(len(v)):
                sums[k] += wt * v[k]
            total += wt
        if total > 0.0:
            out[(x, y)] = tuple(s / total for s in sums)
    return out


def run_mcv_reference(values, width, height, orders, w0_offsets, eval_offsets,
                      merge_offsets, rho, metric="euclidean"):
    """Direct-mode level loop as literal set arithmetic.

    ``values`` maps each (col, row) to a float or a tuple of floats;
    ``orders`` lists each level's visiting order of (col, row) pixels;
    ``eval_offsets`` and ``merge_offsets`` list each level's windows. At
    every pixel in order: if its clipped w0-window leaves its block, test
    the clipped eval window's energy per pixel against ``rho``, and on
    acceptance merge the blocks it touches inside the merge window.
    Returns one (blocks, evaluations, accepted) triple per level, level 0
    (the singletons) first.
    """
    blocks = {frozenset([(c, r)]) for r in range(1, height + 1)
              for c in range(1, width + 1)}
    out = [(blocks, 0, 0)]
    for order, evo, mo in zip(orders, eval_offsets, merge_offsets):
        evaluations = accepted = 0
        for x in order:
            own = next(b for b in blocks if x in b)
            if window_at(x, w0_offsets, width, height) <= own:
                continue
            evaluations += 1
            window = window_at(x, evo, width, height)
            if energy_reference(values, window, w0_offsets, metric) / len(window) > rho:
                continue
            accepted += 1
            blocks = merge_sets(blocks, x, w0_offsets, mo, width, height)
        out.append((blocks, evaluations, accepted))
    return out
