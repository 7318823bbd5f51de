"""Oclgrind-style data-race detection.

The paper (section 3.1) defines a data race as two accesses to a common
memory location by distinct threads where at least one access is a write and
either (a) the threads are in different work-groups, or (b) the threads are in
the same group, at least one access is non-atomic, and the accesses are not
separated by a barrier.

The detector implements this definition directly: every shared-memory access
is logged with the accessing thread, its work-group, whether it is a write,
whether it is atomic, and the group's current *synchronisation epoch* (a
counter incremented at each barrier).  Two accesses to the same location
conflict exactly under the paper's conditions.

The paper used this style of analysis informally -- manual investigation plus
Oclgrind -- to discover previously-unknown data races in the Parboil ``spmv``
and Rodinia ``myocyte`` benchmarks (section 2.4); experiment E9 reproduces
that finding against our miniature workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.runtime.errors import DataRaceError
from repro.runtime.memory import Cell, Path


@dataclass(frozen=True)
class Access:
    """One logged access to a shared-memory location."""

    group: int
    thread: int
    is_write: bool
    is_atomic: bool
    epoch: int


@dataclass
class RaceReport:
    """A detected race, retained for reporting even in non-throwing mode."""

    location: str
    first: Access
    second: Access

    def describe(self) -> str:
        return (
            f"data race on {self.location}: "
            f"thread {self.first.thread} (group {self.first.group}, "
            f"{'write' if self.first.is_write else 'read'}) vs "
            f"thread {self.second.thread} (group {self.second.group}, "
            f"{'write' if self.second.is_write else 'read'})"
        )


def _conflict(a: Access, b: Access) -> bool:
    if a.thread == b.thread and a.group == b.group:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.group != b.group:
        return True
    if a.is_atomic and b.is_atomic:
        return False
    return a.epoch == b.epoch


class RaceDetector:
    """Collects shared-memory accesses and reports conflicting pairs.

    One detector instance is shared by an entire kernel launch so that
    inter-group conflicts on global memory are visible.  The per-group
    barrier epoch is supplied by the caller when logging.
    """

    def __init__(self, throw_on_race: bool = True, max_reports: int = 16) -> None:
        self.throw_on_race = throw_on_race
        self.max_reports = max_reports
        self.reports: List[RaceReport] = []
        self._log: Dict[Tuple[int, Path], List[Access]] = {}

    def record(
        self,
        cell: Cell,
        path: Path,
        is_write: bool,
        is_atomic: bool,
        group: int,
        thread: int,
        epoch: int,
    ) -> None:
        """Log one access and check it against previously-seen accesses."""
        access = Access(group, thread, is_write, is_atomic, epoch)
        key = (cell.uid, path)
        previous = self._log.setdefault(key, [])
        for other in previous:
            if _conflict(access, other):
                report = RaceReport(f"{cell.name}{_render_path(path)}", other, access)
                self.reports.append(report)
                if self.throw_on_race:
                    raise DataRaceError(report.describe())
                if len(self.reports) >= self.max_reports:
                    return
                break
        previous.append(access)

    def summary(self) -> str:
        if not self.reports:
            return "no data races detected"
        lines = [f"{len(self.reports)} data race(s) detected:"]
        lines.extend(f"  - {r.describe()}" for r in self.reports)
        return "\n".join(lines)


def _render_path(path: Path) -> str:
    parts = []
    for element in path:
        if isinstance(element, int):
            parts.append(f"[{element}]")
        else:
            parts.append(f".{element}")
    return "".join(parts)


__all__ = ["Access", "RaceReport", "RaceDetector"]
