"""Fixed reference kernel that defines the benchmark's time unit.

The kernel does the same kinds of work as the simulator (an interpreter
loop, blake2b hashing, struct packing and small numpy calls) but imports
nothing from ``interperc``, so a change to the program cannot change it.
Timings are reported in reference seconds: a wall time multiplied by
``R0 / R``, where ``R`` is the kernel's wall time measured in the same run
next to the work being timed.  When the host slows down, ``R`` and the work
slow down together and the ratio stays put.

The kernel and ``R0`` are part of the unit.  Changing either changes every
reported time and is a change of the benchmark, not of the program.
"""

from __future__ import annotations

import hashlib
import struct
import time

import numpy as np

#: Wall seconds of one kernel call that define one reference second.  On
#: the 2-core machine described in README.md the kernel takes ~11 ms in
#: fast phases of the host and ~20 ms in slow ones; R0 sits between them.
R0 = 0.0150

#: Loop trips per kernel call.
ITERATIONS = 2000

#: Value the kernel returns; a different value means the kernel changed.
CHECKSUM = 6919517484623308277

_MASK64 = (1 << 64) - 1


def kernel() -> int:
    """Run the fixed workload once and return its checksum."""
    acc = 0
    vec = np.zeros(16)
    ramp = np.arange(16, dtype=np.float64)
    for i in range(ITERATIONS):
        h = hashlib.blake2b(digest_size=8)
        h.update(struct.pack("<qQ", i, acc))
        d = int.from_bytes(h.digest(), "little")
        acc = (acc * 1_000_003 + d) & _MASK64
        a = ramp * float(d & 255)
        vec = np.maximum(vec, np.sort(a)[::-1])
        j = int(np.searchsorted(ramp, float(d % 17), side="right"))
        acc ^= j + int(vec[j % 16])
    return acc


def timed_kernel() -> float:
    """Wall seconds of one kernel call; fails if the result drifted."""
    t0 = time.perf_counter()
    got = kernel()
    dt = time.perf_counter() - t0
    if got != CHECKSUM:
        raise RuntimeError(f"reference kernel returned {got}, expected {CHECKSUM}")
    return dt
