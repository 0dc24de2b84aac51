"""Exception types shared across the package."""

from __future__ import annotations


class SchednetError(Exception):
    """Base class for every error raised by this package."""


class ScheduleParseError(SchednetError):
    """A schedule file could not be parsed.

    Carries the offending file path and 1-based line number when known.
    """

    def __init__(self, message: str, *, path: str | None = None, line: int | None = None) -> None:
        self.path = path
        self.line = line
        location = "" if path is None else str(path)
        if line is not None:
            location += f":{line}"
        super().__init__(f"{location}: {message}" if location else message)


class DuplicateActivityId(SchednetError):
    def __init__(self, activity_id: str) -> None:
        self.activity_id = activity_id
        super().__init__(f"duplicate activity id: {activity_id!r}")


class UnknownActivityId(SchednetError):
    def __init__(self, activity_id: str) -> None:
        self.activity_id = activity_id
        super().__init__(f"dependency references unknown activity id: {activity_id!r}")


class SelfLoop(SchednetError):
    def __init__(self, activity_id: str) -> None:
        self.activity_id = activity_id
        super().__init__(f"dependency from {activity_id!r} to itself is not allowed")


class CycleDetected(SchednetError):
    """The dependency graph contains a directed cycle.

    ``cycle`` lists the activity ids of one offending cycle, in order.
    """

    def __init__(self, cycle: list[str]) -> None:
        self.cycle = list(cycle)
        path = " -> ".join([*self.cycle, self.cycle[0]]) if self.cycle else "?"
        super().__init__(f"dependency cycle detected: {path}")


class EmptyNetwork(SchednetError):
    def __init__(self, message: str = "no nodes left after pruning isolated activities") -> None:
        super().__init__(message)


class UnknownNode(SchednetError):
    def __init__(self, node: object) -> None:
        self.node = node
        super().__init__(f"no such node in network: {node!r}")


class NoValidDelays(SchednetError):
    def __init__(self, which: str) -> None:
        self.which = which
        super().__init__(f"no activity carries the actual dates needed to compute {which}")


class InsufficientData(SchednetError):
    def __init__(self, needed: int, got: int) -> None:
        self.needed = needed
        self.got = got
        super().__init__(f"need at least {needed} valid observations, got {got}")


class DegenerateConfig(SchednetError):
    """Generator configuration cannot produce a usable network."""


class DegenerateNormalization(SchednetError):
    """Defensive: a degenerate heterogeneity normalization met a nonzero sum."""


class DegenerateMetricWarning(UserWarning):
    """A variable is constant, so its statistics carry no information.

    Emitted when all metric values are identical (binning collapses to a
    single bin) and when every valid delay is equal (every mutual
    information is zero and benchmark ranks only sort metric names).
    """
