"""Host-speed normalisation for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts by
30-50% over minutes as other tenants come and go, which swamps any change a
pull request can make.  So every timed campaign call is bracketed by
``probe()``, a fixed pure-Python task that uses no ``repro`` code: no change
to the program moves it, only the host's speed does.  A call's *reference
seconds* are its wall seconds scaled by ``REFERENCE_PROBE_S`` over the
median of the probes around it, i.e. the time it would have taken on the host
at the speed it had when ``REFERENCE_PROBE_S`` was measured.

Interpreter start-up tracks the in-process probe poorly (it is file and
page-fault work, and the child may run on the other core), so start-up times
are scaled instead by fresh interpreters that import only the standard
library (``STARTUP_PROBE_CODE``), against ``REFERENCE_STARTUP_S``.

The raw wall seconds are printed beside every reference figure.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Tuple, TypeVar

T = TypeVar("T")

#: Median of ``probe()`` on the reference host, 2 vCPUs of an Intel Xeon.
REFERENCE_PROBE_S = 0.009
#: Probes taken on each side of a timed call.
PROBES = 3
#: Median of ``child_wall(STARTUP_PROBE_CODE)`` on the reference host.
REFERENCE_STARTUP_S = 0.165
STARTUP_PROBE_CODE = (
    "import argparse, ast, asyncio, concurrent.futures, csv, dataclasses, "
    "decimal, difflib, email.message, fractions, http.client, inspect, json, "
    "logging, pickle, sqlite3, statistics, tarfile, typing, unittest, "
    "xml.dom.minidom, zipfile"
)


class _Node:
    __slots__ = ("kind", "value", "kids")

    def __init__(self, kind: str, value: int, kids: tuple) -> None:
        self.kind = kind
        self.value = value
        self.kids = kids


def _build(depth: int, index: int) -> _Node:
    if depth == 0:
        return _Node("leaf", index, ())
    kids = (_build(depth - 1, 2 * index), _build(depth - 1, 2 * index + 1))
    return _Node(f"op{index % 4}", index, kids)


def _fold(node: _Node, memo: dict) -> int:
    if node.kind == "leaf":
        return node.value & 0xFFFF
    key = (node.kind, node.value)
    folded = memo.get(key)
    if folded is None:
        left, right = _fold(node.kids[0], memo), _fold(node.kids[1], memo)
        if node.kind == "op3":
            folded = (left - right) & 0xFFFF
        else:
            folded = (left * 31 + right) ^ len(node.kind)
        memo[key] = folded
    return folded


def probe() -> float:
    """Seconds taken by a fixed task shaped like a compiler pass: build
    small trees of objects, fold them through a memo dict, format and sort
    strings."""
    start = time.perf_counter()
    for index in range(6):
        _fold(_build(10, index), {})
        sorted(str(number) for number in range(300))
    return time.perf_counter() - start


def timed(fn: Callable[[], T]) -> Tuple[T, float, float]:
    """``(fn(), wall seconds, reference seconds)``, the host's speed taken
    as the median of ``PROBES`` probes before and as many after, so that one
    probe caught by an interrupt does not skew the call."""
    probes = [probe() for _ in range(PROBES)]
    start = time.perf_counter()
    value = fn()
    wall = time.perf_counter() - start
    probes += [probe() for _ in range(PROBES)]
    return value, wall, wall * REFERENCE_PROBE_S / statistics.median(probes)


def child_wall(code: str, cwd: Path) -> float:
    """Wall seconds of a fresh interpreter running ``code`` in ``cwd``."""
    start = time.perf_counter()
    # No timeout: with one, subprocess polls the child on a 50 ms back-off
    # and the measured times snap to that grid.
    subprocess.run([sys.executable, "-c", code], cwd=cwd, check=True)
    return time.perf_counter() - start
