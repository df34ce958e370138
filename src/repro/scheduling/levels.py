"""Level-oriented 2-D strip packing with DB constraints (Section V).

"Think of processors on the X-axis and time on the Y-axis.  The tasks are
mapped from left to right (in terms of available processors), in rows
forming levels.  Within the same level, all tasks are packed so that their
bottoms align.  The first level is the bottom of the strip and subsequent
levels are defined by the time taken of the slowest task on the previous
level."

Both the paper's mapping algorithms live here:

- **NFDT-DC** (Next-Fit Decreasing Time with DB constraints): place the
  next task (in non-increasing time) on the *current* level if it fits and
  the database-access constraint holds; otherwise close the level and open
  a new one.
- **FFDT-DC** (First-Fit Decreasing Time with DB constraints): try every
  open level in order; open a new one only when no level can accommodate
  the task.

Without the DB constraints these are the classical NFDH / FFDH shelf
algorithms with worst-case guarantees of 2 and 17/10.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .wmp import MappingTask, WMPInstance


@dataclass
class Level:
    """One shelf of the packing."""

    index: int
    tasks: list[MappingTask] = field(default_factory=list)
    used_width: int = 0

    def region_count(self, region_code: str) -> int:
        """Tasks of one region on this level (DB concurrency)."""
        return sum(1 for t in self.tasks if t.region_code == region_code)


@dataclass(frozen=True)
class PackingResult:
    """Outcome of a level-oriented packing.

    Attributes:
        algorithm: "NFDT-DC" or "FFDT-DC".
        levels: the shelves in bottom-to-top order.
        instance: the packed instance.
    """

    algorithm: str
    levels: list[Level]
    instance: WMPInstance

    def ordered_tasks(self) -> list[tuple[MappingTask, int]]:
        """(task, level) pairs in submission order for Slurm."""
        return [(t, lv.index) for lv in self.levels for t in lv.tasks]

    def validate(self) -> None:
        """Check width, DB caps and task conservation."""
        seen = set()
        for lv in self.levels:
            if lv.used_width > self.instance.machine_width:
                raise AssertionError(f"level {lv.index} over width")
            per_region: dict[str, int] = {}
            for t in lv.tasks:
                per_region[t.region_code] = per_region.get(t.region_code, 0) + 1
                if t.task_id in seen:
                    raise AssertionError(f"duplicate task {t.task_id}")
                seen.add(t.task_id)
            for code, n in per_region.items():
                cap = self.instance.db_caps.get(code)
                if cap is not None and n > cap:
                    raise AssertionError(
                        f"level {lv.index}: {code} exceeds DB cap")
        if len(seen) != len(self.instance.tasks):
            raise AssertionError("packing lost or invented tasks")


def _fits(level: Level, task: MappingTask, instance: WMPInstance) -> bool:
    if level.used_width + task.n_nodes > instance.machine_width:
        return False
    cap = instance.db_caps.get(task.region_code)
    if cap is not None and level.region_count(task.region_code) >= cap:
        return False
    return True


def _decreasing_time(tasks: list[MappingTask]) -> list[MappingTask]:
    # Stable tie-break on id keeps packings deterministic.
    return sorted(tasks, key=lambda t: (-t.est_time, t.task_id))


def pack_nfdt_dc(instance: WMPInstance) -> PackingResult:
    """Next-Fit Decreasing Time with database constraints."""
    levels: list[Level] = [Level(0)]
    for task in _decreasing_time(instance.tasks):
        current = levels[-1]
        if not _fits(current, task, instance) and current.tasks:
            levels.append(Level(len(levels)))
            current = levels[-1]
        if not _fits(current, task, instance):
            raise AssertionError(
                f"{task.task_id} cannot fit an empty level")
        current.tasks.append(task)
        current.used_width += task.n_nodes
    result = PackingResult("NFDT-DC", levels, instance)
    result.validate()
    return result


def pack_ffdt_dc(instance: WMPInstance) -> PackingResult:
    """First-Fit Decreasing Time with database constraints."""
    levels: list[Level] = []
    for task in _decreasing_time(instance.tasks):
        placed = False
        for level in levels:
            if _fits(level, task, instance):
                level.tasks.append(task)
                level.used_width += task.n_nodes
                placed = True
                break
        if not placed:
            level = Level(len(levels))
            if not _fits(level, task, instance):
                raise AssertionError(
                    f"{task.task_id} cannot fit an empty level")
            level.tasks.append(task)
            level.used_width += task.n_nodes
            levels.append(level)
    result = PackingResult("FFDT-DC", levels, instance)
    result.validate()
    return result
