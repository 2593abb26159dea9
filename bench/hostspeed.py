"""A fixed block of reference work that reads how fast the host runs right now.

The benchmark's host shares its cores with other machines, and its per-core
speed moves by up to 2x over seconds to minutes (see README.md).  A run that
happens to fall in a slow stretch reads slow, whatever the program does.  So
the benchmark runs a few of these blocks after every pass and every set-up
import.  A timing is reported scaled by ``REF_BLOCK_S`` over the blocks' mean
time around it: in seconds at the host speed at which one block takes
``REF_BLOCK_S``.

The block is independent of convexkit, so a change to the library leaves it
unchanged, and it does the kind of work the library does: interpreted loops
over float arithmetic, small and mid-sized numpy arrays, and JSON encoding.
The garbage collector is off while it runs, so the heap a pass leaves behind
does not change its cost.
"""

from __future__ import annotations

import gc
import itertools
import json
import time

import numpy as np

# About the time one block takes on the 2-vCPU x86_64 VM the baseline was
# measured on (python 3.11, numpy 2.4), when that host runs in its fast state.
REF_BLOCK_S = 0.004
MIN_BLOCKS = 3

_ROWS = np.linspace(-1.0, 1.0, 36).reshape(6, 6) + 2.0 * np.eye(6)
_POINTS = np.linspace(-1.0, 1.0, 256 * 6).reshape(256, 6) ** 3


def block() -> float:
    """Seconds one reference block takes now.

    Three parts of about equal time: interpreted float arithmetic on short
    vectors, broadcast sums and a sort over a few thousand rows, and sums of
    all pairs of short vectors built one by one into an array.  Over windows
    of passes the library's time moved about 0.8-0.9 times as much as the
    first part's alone and about as much as all three together.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0.0
        for rep in range(12):
            basis = []
            for row in _ROWS:
                v = row * (1.0 + 1e-3 * rep)
                for b in basis:
                    v = v - float(v @ b) * b
                basis.append(v / float(np.linalg.norm(v)))
            acc += float(np.max(_ROWS @ basis[-1]))
            acc += len(json.dumps([float(x) for x in basis[-1]]))
            acc += sum(i * i % 7 for i in range(150))
        for rep in range(2):
            sums = (_POINTS[:, None, :] + _POINTS[None, 8 * rep : 8 * rep + 16, :]).reshape(-1, 6)
            acc += float((sums @ _ROWS[rep]).max())
            acc += float(np.unique(np.round(sums[:512], 2), axis=0).shape[0])
        pairs = np.array([u + v for u, v in itertools.product(_POINTS[:24], _POINTS[32:64])])
        pairs = np.array([u + v for u, v in itertools.product(pairs[:48], _POINTS[64:80])])
        acc += float(pairs.sum())
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if acc != acc:
        raise RuntimeError("reference block lost its result")
    return elapsed


def sample(seconds: float) -> tuple[float, float, int]:
    """Blocks for at least ``seconds`` and ``MIN_BLOCKS`` blocks: (midpoint, seconds, blocks).

    One block runs first untimed: right after a pass the caches hold the
    pass's data, and the first block reads about 15% slow.
    """
    block()
    start = time.perf_counter()
    total, count = 0.0, 0
    while count < MIN_BLOCKS or total < seconds:
        total += block()
        count += 1
    return (start + time.perf_counter()) / 2, total, count


def scale(samples, start: float, end: float, window: float) -> float:
    """``REF_BLOCK_S`` over the mean block time of the samples near ``[start, end]``.

    Pooled over the samples whose midpoint lies within ``window`` seconds of
    the interval, and the nearest one on either side of it, so the scale
    follows the host's drift but not the noise of a single sample.
    """
    before = [s for s in samples if s[0] <= start]
    after = [s for s in samples if s[0] >= end]
    near = [s for s in samples if start - window <= s[0] <= end + window]
    pool = {id(s): s for s in near + before[-1:] + after[:1]}.values()
    return REF_BLOCK_S * sum(s[2] for s in pool) / sum(s[1] for s in pool)
