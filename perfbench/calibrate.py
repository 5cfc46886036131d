"""Reference workload for the speed of the machine during a run.

The host this benchmark was built on is shared: the same pure-Python work
runs up to 60% slower when neighbours are busy, switching between fast and
slow within a second and staying mostly slow or mostly fast for minutes.
That is far beyond any bound a regression check could use. So the benchmark
also runs this fixed piece of interpreter work in the gap before and after
every timed call, for a quarter of the time it measures, and reports each
call's time rescaled by the mean unit time of those two gaps to a machine on
which the work takes REFERENCE_SECONDS.

The work imitates what pcert does most (immutable trees built and rebuilt
with structural pattern matching, a context searched by a reverse linear
scan and hashed whole as a cache key, dictionary lookups, deep equality)
with a working set of similar size, but it shares no code with pcert, so no
change to pcert can move it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

# time of unit() on the reference machine, a shared 2-vCPU Linux VM with
# CPython 3.11, while its neighbours were quiet
REFERENCE_SECONDS = 0.0025

# share of the measured time spent running unit() in the gaps
SHARE = 0.25


@dataclass(frozen=True)
class _Node:
    op: str
    kids: tuple


def _build(depth: int, salt: int) -> _Node:
    if depth == 0:
        return _Node(f"v{salt % 7}", ())
    return _Node("app" if depth % 2 else "lam", (_build(depth - 1, salt * 3 + 1), _build(depth - 1, salt * 5 + 2)))


def _subst(t: _Node, env: dict) -> _Node:
    match t:
        case _Node(op, ()):
            return env.get(op, t)
        case _Node(op, kids):
            return _Node(op, tuple(_subst(k, env) for k in kids))


def _lookup(ctx: tuple, name: str):
    for n, ty in reversed(ctx):
        if n == name:
            return ty
    return None


_TREE = _build(7, 1)
_CTX = tuple((f"c{i}", _TREE.kids[i % 2].kids[i % 2].kids[i % 2]) for i in range(200))
_ENV = {f"v{i}": _Node(f"w{i}", ()) for i in range(0, 7, 2)}


def unit() -> float:
    """Seconds the fixed work takes, measured now."""
    start = perf_counter()
    out = _subst(_TREE, _ENV)
    cache = {(_CTX, out): 1}
    found = sum(_lookup(_CTX, f"c{i}") is not None for i in range(0, 200, 5))
    if not (out != _TREE and found == 40 and (_CTX, out) in cache):
        raise AssertionError("reference work computed a wrong result")
    return perf_counter() - start


class Meter:
    """Runs unit() in the gaps between measured calls, for SHARE of the
    time measured and at least once per gap."""

    def __init__(self):
        self.owed = 0.0

    def measured(self, seconds: float) -> None:
        self.owed += seconds * SHARE

    def pay(self) -> float:
        """Run the units owed; returns their mean time."""
        took = []
        while not took or self.owed > 0:
            took.append(unit())
            self.owed -= took[-1]
        return sum(took) / len(took)


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    """A time measured between gaps whose units took `before` and `after`,
    rescaled to a machine on which a unit takes REFERENCE_SECONDS."""
    return seconds * REFERENCE_SECONDS * 2 / (before + after)
