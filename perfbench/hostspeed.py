"""Host-speed compensation: a fixed probe timed between units of work.

On a shared host the machine's own speed drifts: a fixed pure-Python loop,
a fixed BLAS matmul and a fixed memory sweep all slow down together by 30
to 80% for stretches of seconds to minutes while other tenants load the
machine, and a 30 s run can land wholly in a slow stretch. Longer runs and
medians do not remove that. So after every unit the benchmark times this
probe, a fixed 3x3 conv written the way irunet's kernel is (one matmul per
tap over a strided slice), and scales the unit's time by NOMINAL_S over the
median probe time around it. With train steps, denoised files, evaluate
passes and probes interleaved for 200 s, this probe cut the spread of
8-unit medians from 0.09-0.12 to 0.05-0.065 (sd of log time) on all three
workloads; a pure-Python loop as the probe over-reacted and removed nothing.
The probe is the benchmark's own code: a change to irunet cannot move it.

Reported times are therefore seconds on a host running the probe in
NOMINAL_S; raw times are kept in the run record.
"""

from __future__ import annotations

import time

import numpy as np

NOMINAL_S = 0.008  # about the probe's time on a quiet host of the kind the bounds were set on
WINDOW = 9  # units whose probes set one unit's scale


class Probe:
    """A fixed workload: ten 3x3 convs of a 16-channel 64x64 map, each with a relu."""

    def __init__(self):
        gen = np.random.default_rng(0)
        self.x = gen.random((1, 16, 66, 66), dtype=np.float32)
        self.w = gen.random((16, 16, 3, 3), dtype=np.float32)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(10):
            y = np.zeros((1, 16, 64 * 64), dtype=np.float32)
            for i in range(3):
                for j in range(3):
                    taps = self.x[:, :, i:i + 64, j:j + 64].reshape(1, 16, 64 * 64)
                    y += np.matmul(self.w[:, :, i, j], taps)
            np.maximum(y, 0.0, out=y)
        return time.perf_counter() - start


def scales(probes: list[float]) -> list[float]:
    """Per-unit factor NOMINAL_S / median of the probes in a window around the unit."""
    half = WINDOW // 2
    return [NOMINAL_S / float(np.median(probes[max(0, i - half):i + half + 1]))
            for i in range(len(probes))]
