"""Paths, program import, child-process environment and statistics helpers.

The benchmark drives the ``drowsebench`` package straight from the
checkout's ``src/`` tree, never from an installed copy, so a checkout
without ``src/drowsebench`` fails before any measurement.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PROFILES = BENCH_DIR / "profiles"
WORK = BENCH_DIR / "_work"
CLK_TCK = os.sysconf("SC_CLK_TCK")


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing program, broken child)."""


def import_program():
    """Import ``drowsebench`` from the checkout's ``src/`` and return it."""
    if not (SRC / "drowsebench" / "__init__.py").is_file():
        raise BenchError(f"no drowsebench package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import drowsebench

    if Path(drowsebench.__file__).resolve().parent != SRC / "drowsebench":
        raise BenchError(f"imported drowsebench from {drowsebench.__file__}, not {SRC}")
    return drowsebench


def child_env() -> dict[str, str]:
    """Environment for child interpreters: the checkout's src first, unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONUNBUFFERED"] = "1"
    return env


def pin_to_one_cpu() -> int:
    """Pin this process, and every child it starts later, to one CPU.

    On a small shared host the CPUs' speeds drift apart over time, and a
    client and server on two CPUs also pay cross-CPU wake-ups.  One CPU
    makes both the same in every run; call before any thread starts.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def stolen_s() -> float:
    """Seconds the hypervisor has stolen so far from the CPUs this process may use.

    Steal is time a virtual CPU was ready to run while the host ran
    something else.  It adds to wall time but to no process's CPU time,
    and on a shared host it comes in bursts of seconds to minutes.  Read
    from the ``steal`` field of the ``cpuN`` lines of ``/proc/stat``; 0
    where that is missing, which leaves every figure uncorrected.
    """
    names = {f"cpu{cpu}" for cpu in os.sched_getaffinity(0)}
    try:
        with open("/proc/stat") as fh:
            ticks = sum(int(f[8]) for f in map(str.split, fh) if len(f) > 8 and f[0] in names)
    except OSError:
        return 0.0
    return ticks / CLK_TCK


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values) -> float:
    return statistics.median(values)


def geomean(values) -> float:
    return statistics.geometric_mean(values)


def peak_rss_mb(who: int) -> float:
    """Peak resident set size in MiB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0
