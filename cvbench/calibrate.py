"""Machine-speed calibration for a shared host.

On a host shared with other tenants the same code runs up to ~1.8x slower
for minutes at a time (a shared 2-vCPU VM showed sweep operations of 79 ms and
169 ms within three minutes, with CPU time equal to wall time, so the
slowdown is slower execution, not descheduling). Raw wall times of two sets
of runs taken minutes apart then disagree by more than any useful bound.

A fixed kernel that calls nothing in cvdisc runs between the timed
operations, so every operation is bracketed by two kernel runs. Each
operation's time is reported scaled by NOMINAL_S / (mean of the two kernel
times), i.e. in seconds on a machine where the kernel takes its nominal
time. A set-up probe runs the kernel five times after its set-up and is
scaled by their median. A change to the program cannot move the kernel, so
a real speed-up or slow-down shows in full; a change of machine speed moves
both and cancels. The raw times are printed beside the scaled ones.

The kernel mirrors the workloads' resource profile: interpreter work,
small-array numpy dispatch and transcendental arithmetic on a cache-resident
array. The mc workload streams shot-length arrays through memory, which a
busy host slows differently, so its kernel adds a streaming pass over a
1e6-element array.
"""

from __future__ import annotations

import time

import numpy as np

# Typical kernel times on the shared 2-vCPU x86_64 VM the bounds were set on.
NOMINAL_S = {False: 0.006, True: 0.0135}


class Calibration:
    def __init__(self, memory: bool):
        self.memory = memory
        self.nominal_s = NOMINAL_S[memory]
        idx = np.arange(128)
        self._phase = np.outer(idx, idx) * (-2j * np.pi / 128)
        self._phase_out = np.empty_like(self._phase)
        if memory:
            self._stream = np.random.default_rng(12345).random(10 ** 6)
            self._stream_out = np.empty_like(self._stream)

    def _kernel(self) -> float:
        # Every array above a few elements is preallocated: a temporary of
        # 256 KiB or more would go through malloc's mmap threshold, which the
        # program's own allocations move, and so tie the kernel's speed to
        # the program's memory use.
        acc = 0
        for i in range(30000):
            acc += i * i
        small = np.arange(8.0)
        for _ in range(250):
            small = np.sort(np.exp(1j * small).real + small)
        for _ in range(6):
            np.exp(self._phase, out=self._phase_out)
            acc += float(self._phase_out.sum().real)
        if self.memory:
            out = self._stream_out
            np.multiply(self._stream, 2.0, out=out)
            np.add(out, 1.0, out=out)
            acc += float(out.sum())
            np.cumsum(self._stream, out=out)
            acc += float(out[-1])
        return acc + float(small[0])

    def kernel_s(self) -> float:
        """Run the kernel once and return its wall time in seconds."""
        start = time.perf_counter()
        self._kernel()
        return time.perf_counter() - start
