"""Host-speed calibration: fixed pure-Python kernels timed between items.

On a shared host the speed a process gets changes by up to about 2x, in
phases from under a second to minutes, while the load average inside the VM
stays the same; process CPU time slows down with wall time, so it is no
cure.  A measured run therefore times a fixed kernel before and after every
item and reports each item in reference milliseconds:

    ref_ms = wall_ms * REF_MS[kernel] / (mean of the two kernel times)

that is, the time the item would take on a host where the kernel takes
REF_MS[kernel].  The kernels use no library code, so a change to the
library moves the items and not the kernels.

Set-up (interpreter start, imports and constructions, 0.2-0.4 s) is scaled
the same way, but by ``spawn_s``, the time of a fresh interpreter that
imports what the library imports from outside, numpy included, timed before
and after each set-up.  The host's speed changes within a second, and an
in-process kernel timed next to a set-up did not follow it: scaling 25
fresh set-ups by ``mixed`` widened their spread from 0.14 to 0.32 of the
median, while ``spawn_s`` narrowed 40 of them from 0.26 to 0.10.

Code slows down by different amounts in a slow phase: interpreter-heavy,
allocating code (Fractions, tuples, dicts) more than big-integer arithmetic,
which runs in C.  Each workload names the kernel whose slowdown follows its
own (``HOST_KERNEL`` in ``workloads.py``).  With the right kernel, the spread
of a fixed item's time over a 40 s run on the reference host fell from
0.22-0.34 of its median to 0.03-0.09.
"""

from __future__ import annotations

import subprocess
import sys
import time
from fractions import Fraction

_MODULUS = 3**400 + 1


def small_int():
    """Small-integer arithmetic in a tight loop: bytecode dispatch only."""
    acc = 0
    for k in range(15000):
        acc += k * k % 7
    return acc


def mixed():
    """Small-integer loop, 400-digit modular products and Fraction products:
    bytecode dispatch plus object allocation."""
    acc = 0
    big = 3**400
    for k in range(3000):
        acc += k * k % 7
        big = (big * 7 + k) % _MODULUS
    f = Fraction(1, 3)
    for k in range(150):
        f = (f * Fraction(k + 2, 3)) / Fraction(k + 1, 2)
    return acc + big % 97 + f.numerator % 97


KERNELS = {"small_int": small_int, "mixed": mixed}

# About each kernel's time on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7) at its usual speed.  Fixed: reference milliseconds are only
# comparable while these stay the same.
REF_MS = {"small_int": 1.4, "mixed": 2.5}


def kernel_ms(name):
    """Wall time of one run of the named kernel, in milliseconds."""
    kernel = KERNELS[name]
    t = time.perf_counter()
    kernel()
    return (time.perf_counter() - t) * 1000


SPAWN_IMPORTS = "import dataclasses, fractions, json, random, numpy"
# About spawn_s() on the reference host at its usual speed; fixed, like REF_MS.
REF_SPAWN_S = 0.15


def spawn_s(timeout):
    """Wall time of a fresh interpreter that runs SPAWN_IMPORTS, in seconds."""
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_IMPORTS], check=True,
                   timeout=timeout)
    return time.perf_counter() - t
