"""A fixed reference job that measures how fast the host runs right now.

The CPU clock of ``session.py`` leaves out time the hypervisor gave to
other guests, but not the slowdown of the time it did give: a busy
sibling hyperthread or a shared cache makes every instruction slower,
and that drifted CPU-clock figures by about 25% over minutes on a
shared host.  Each session therefore times :func:`probe` beside its
units; ``run.py`` divides the session's timings by the probe's median
and multiplies by :data:`REFERENCE_S`, which reports them as they would
read on a host where the probe takes exactly that long.

The probe calls nothing in ``src/``, so a change to the program cannot
move it: two commits measured on one host get the same scale.  It mixes
the kinds of work the workloads do, in about equal parts: interpreter
loops over dicts and lists, NumPy filters on a small image, and JSON
plus SQLite row writes.
"""

from __future__ import annotations

import json
import sqlite3
import time

import numpy as np

#: CPU seconds of one probe that reported timings are scaled to (about
#: what it takes on the 2-vCPU Xeon VM the bounds were set on).
REFERENCE_S = 0.025

_RNG = np.random.default_rng(12345)
_IMAGE = (_RNG.random((120, 160)) * 255).astype(np.float32)
_ROWS = [
    {"register": int(r), "bit": int(b), "outcome": ("mask", "sdc", "crash")[int(r) % 3]}
    for r, b in zip(_RNG.integers(0, 32, 400), _RNG.integers(0, 64, 400))
]


def probe() -> float:
    """CPU seconds one fixed job takes on this host now."""
    start = time.process_time()
    table: dict[int, int] = {}
    items = []
    for i in range(12_000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        items.append((key, i & 255))
    items.sort()

    image = _IMAGE
    for _ in range(12):
        blurred = (image[:-2, 1:-1] + image[2:, 1:-1] + image[1:-1, :-2] + image[1:-1, 2:]) * 0.25
        grad = np.abs(blurred[1:, :-1] - blurred[:-1, :-1]) + np.abs(
            blurred[:-1, 1:] - blurred[:-1, :-1]
        )
        strongest = np.argpartition(grad, -200, axis=None)[-200:]
        ys, xs = np.unravel_index(strongest, grad.shape)
        image = _IMAGE + float(blurred[ys, xs].mean()) * 1e-6

    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE rows (register INTEGER, bit INTEGER, outcome TEXT, doc TEXT)")
    for _ in range(2):
        con.executemany(
            "INSERT INTO rows VALUES (?, ?, ?, ?)",
            [(r["register"], r["bit"], r["outcome"], json.dumps(r, sort_keys=True)) for r in _ROWS],
        )
    con.execute("SELECT outcome, COUNT(*) FROM rows GROUP BY outcome").fetchall()
    con.close()
    return time.process_time() - start
