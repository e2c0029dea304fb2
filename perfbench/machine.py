"""Machine-speed reference for the benchmark's timings.

On a shared machine the speed of one core drifts by up to a factor of two in
phases of seconds to tens of seconds, with no stolen time visible to the
guest, so CPU time moves with wall time. Every timed span is therefore
bracketed by a fixed reference workload that owes nothing to anonvox but has
the program's mix: many small Python objects, dict grouping, keyed sorting,
number formatting and parsing, and float64 quadratic forms over a few MB. A
time is reported as ``wall * REFERENCE_S / ref``, where ``ref`` is the mean
reference time just before and after the span: seconds on a machine whose
reference takes ``REFERENCE_S``. Raw wall times stay in the detail record.

Over two sets of ten runs per workload on the 2-core VM, the quartile
distance over the median of the per-run medians is 12-28% raw and 5-10.5%
scaled (perfbench/README.md).
"""

from __future__ import annotations

import gc
import time

import numpy as np

REFERENCE_S = 0.25  # typical reference time on the 2-core Xeon VM of the baseline

_MATRIX = np.random.default_rng(0).standard_normal((8000, 64))
_GRAM = _MATRIX.T @ _MATRIX


def reference_loop() -> float:
    """Seconds taken by the fixed reference work, with the collector off so the
    caller's heap does not change the work done."""
    gc.collect()
    gc.disable()
    try:
        return _timed_reference()
    finally:
        gc.enable()


def _timed_reference() -> float:
    start = time.perf_counter()
    recs = [(f"u{i:06d}", f"s{i % 997:04d}", _MATRIX[i % 8000]) for i in range(30_000)]
    groups: dict[str, list[str]] = {}
    for utt, spk, _ in recs:
        groups.setdefault(spk, []).append(utt)
    sorted(range(len(recs)), key=lambda i: (recs[i][1], recs[i][0]))
    text = "\n".join(f"{u} {s} {v[0]:.6f}" for u, s, v in recs[:10_000])
    sum(float(line.split()[2]) for line in text.splitlines())
    for _ in range(2):
        np.einsum("ij,jk,ik->i", _MATRIX, _GRAM, _MATRIX)
    return time.perf_counter() - start


def scaled(wall_s: float, ref_before: float, ref_after: float) -> float:
    return wall_s * REFERENCE_S / (0.5 * (ref_before + ref_after))
