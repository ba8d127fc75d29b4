"""Time a fixed computation that measures how fast the host runs right now.

Usage::

    python3 perfbench/probe.py

Prints one JSON object ``{"probe_s": <wall seconds>}``.  The computation
imports nothing from the package and never changes, so its wall time moves
only with the host: a shared machine's slow and fast phases scale it by the
same factor as the studies ``run.py`` times beside it.  It mixes the kinds of
work the studies do: an interpreter loop over small complex arrays (the
modal time-steppers), dot products of growing length (the Volterra history
sums) and BLAS products with FFTs (Gram matrices and convolutions).
"""

from __future__ import annotations

import json
import time

import numpy as np


def probe() -> float:
    rng = np.random.default_rng(12345)
    mus = np.linspace(1.0, 2.0, 16)
    sp = rng.standard_normal(14000)
    hist = rng.standard_normal(14000) + 0j
    frame = rng.standard_normal((96, 4096)) + 1j * rng.standard_normal((96, 4096))

    start = time.perf_counter()
    z = np.zeros(16, dtype=np.complex128)
    p = np.ones(16, dtype=np.complex128)
    for _ in range(40000):
        z = (z + 0.01 * p - 0.25 * mus * z) / 1.001
        p = p - 0.005 * mus * z
    acc = 0j
    for j in range(2, sp.size):
        acc += np.dot(sp[j - 1:0:-1], hist[1:j])
    for _ in range(10):
        gram = frame @ frame.conj().T
        spectrum = np.fft.fft(frame, axis=1)
    wall = time.perf_counter() - start
    if not np.isfinite(acc + gram[0, 0] + spectrum[0, 0] + z[0]):
        raise SystemExit("probe: non-finite result")
    return wall


if __name__ == "__main__":
    print(json.dumps({"probe_s": probe()}))
