"""A fixed pure-Python kernel that measures how fast the host runs Python
at the moment.

On a shared machine the speed of this process swings by about 1.4x, and
each speed can last for minutes, so a whole run can fall into a slow
phase.  The benchmark therefore times this kernel right after every op
and scales the op's latency by `REFERENCE_S / kernel seconds`.  Latencies
then read as on a host where the kernel takes `REFERENCE_S` seconds.
Pairing must be this close: a kernel timed only between repetitions of a
round, seconds away from most ops, did not track the slowdowns.

The kernel does the kind of work the equality engine does: it builds
frozen dataclass trees, memoizes in dicts keyed by them, and rewrites them
to a normal form by recursion.  It shares no code with `gat`.  A change to
`gat` can still move the kernel's time a little, through the CPU caches an
op leaves behind.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

# about the kernel's time right after an op, on one vCPU of a 2.1 GHz Intel
# Xeon in its fast phase
REFERENCE_S = 0.0035


@dataclass(frozen=True)
class _Node:
    op: str
    a: object
    b: object


def _tree(i: int, leaves: int):
    if leaves == 1:
        return f"x{i % 5}"
    k = 1 + (i * 7919) % (leaves - 1)
    return _Node("*", _tree(i * 31 + 1, k), _tree(i * 17 + 3, leaves - k))


def _normalize(t, memo: dict):
    """Right-associate a product tree, memoizing every subtree."""
    if not isinstance(t, _Node):
        return t
    hit = memo.get(t)
    if hit is not None:
        return hit
    a, b = _normalize(t.a, memo), _normalize(t.b, memo)
    if isinstance(a, _Node):
        out = _normalize(_Node("*", a.a, _Node("*", a.b, b)), memo)
    else:
        out = _Node("*", a, b)
    memo[t] = out
    return out


def kernel_seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    for i in range(2):
        _normalize(_tree(i, 40), {})
    return time.perf_counter() - t0
