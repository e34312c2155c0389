"""A fixed reference computation that measures the host's current speed.

On a shared host the speed of the same code drifts by 30% or more over
minutes, which no run of under a minute can average out. The timed run
calls this reference between every job and every batch of set-up probes
and reports host-normalized seconds: wall seconds x ``REF_S`` / the mean
wall seconds of the nearest reference calls. The reference mixes
interpreter work and small NumPy calls like the program's per-pixel
loop, but shares no code with ``mcvseg``, so a change to the program
moves the normalized time while host drift largely cancels out of it.
"""

from time import perf_counter

import numpy as np

#: Nominal wall seconds of one reference call.
REF_S = 0.1

_rng = np.random.default_rng(0)
_IMAGE = _rng.random((40, 40))
_LABELS = _rng.integers(0, 50, (40, 40))


def host_ref() -> float:
    """Wall seconds of one run of the fixed reference computation."""
    start = perf_counter()
    acc = 0.0
    for i in range(3000):
        r, c = i % 30, (i * 7) % 30
        patch = _IMAGE[r : r + 5, c : c + 5]
        diff = patch[1:, :] - patch[:-1, :]
        acc += float(np.sum(diff * diff)) / patch.size
        block = _LABELS[r : r + 3, c : c + 3]
        if (block != block[1, 1]).any():
            targets = np.unique(block)
            acc += int(np.isin(_LABELS[r : r + 8, c : c + 8], targets).sum())
    return perf_counter() - start
