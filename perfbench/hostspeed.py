"""Host-speed probe: the timings of a run in units of a fixed kernel.

Each vCPU of a shared host changes speed on its own, for a second to
minutes at a time, as other guests load the physical core: the same
operation can take 40 % less time in one phase than in the next, and a
whole run can fall inside one phase.  So the process that runs the
operations times a fixed pure-Python kernel (the benchmark's own word
arithmetic on free-group maps, nothing of ``loneaxis``) right before each
operation, and the operation's wall time is scaled by ``REFERENCE_S`` over
that kernel time.  A fresh process (a CLI operation, a set-up) times the
kernel right after its Python work instead.  The timings are then milliseconds at the speed where
the kernel takes ``REFERENCE_S``: a change to the program moves them as
it moves wall time, a change of host phase much less.
"""

from __future__ import annotations

import time

import gen

# The kernel's median time on a 2-vCPU Intel Xeon guest; the scaled
# timings read as wall time at that speed.
REFERENCE_S = 0.0064
_PETALS = {"a": ("b",), "b": ("c",), "c": ("a", "b")}


def kernel_s():
    """Seconds to compose a rose map with itself 24 times: building and
    freely reducing tuple words, the kind of work ``loneaxis`` does most."""
    t0 = time.perf_counter()
    gen.power(_PETALS, 24)
    return time.perf_counter() - t0


def scale(probe_s):
    """Factor that turns a wall time measured beside ``probe_s`` into
    reference-speed time."""
    return REFERENCE_S / probe_s


def scaled_start(wall, python_s, probe_s):
    """Reference-speed time of a fresh process that ran ``python_s`` of
    Python work (from the import of ``loneaxis`` on) within ``wall`` and
    then timed the kernel.  Only that Python work is scaled: process
    creation and interpreter start-up follow the host's phases less than
    the kernel does, and scaling them too overcorrects."""
    return wall - python_s + python_s * scale(probe_s)
