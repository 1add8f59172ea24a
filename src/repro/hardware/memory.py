"""Controller memory: stores the pre-loaded I/O tasks (Phase 1).

Before run time, the continuous I/O commands of every timed I/O task are
grouped into one I/O operation and written into the controller memory through
the communication channel.  At run time the synchroniser retrieves and
translates them into executable commands for the EXU.  The memory model tracks
its capacity (in KB, like the BRAM budget of Table I) and access counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


class MemoryCapacityError(Exception):
    """Raised when pre-loading would exceed the controller-memory capacity."""


@dataclass(frozen=True)
class IOCommand:
    """One primitive I/O command of a timed I/O task.

    ``duration`` is the time the command occupies the I/O device; the sum of a
    task's command durations is its WCET ``C_i``.
    """

    opcode: str
    device: str
    value: int = 0
    duration: int = 1

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("command duration must be positive")
        if not self.opcode:
            raise ValueError("command opcode must be non-empty")

    #: Encoded size of one command in bytes (opcode + device id + value + time).
    ENCODED_SIZE_BYTES: int = 8


@dataclass
class StoredTask:
    """A pre-loaded I/O task: its identifier and command sequence."""

    task_name: str
    commands: List[IOCommand]

    @property
    def size_bytes(self) -> int:
        return len(self.commands) * IOCommand.ENCODED_SIZE_BYTES

    @property
    def duration(self) -> int:
        return sum(command.duration for command in self.commands)


class ControllerMemory:
    """Capacity-bounded storage for pre-loaded I/O tasks."""

    def __init__(self, capacity_kb: int = 32):
        if capacity_kb <= 0:
            raise ValueError("memory capacity must be positive")
        self.capacity_kb = capacity_kb
        self._tasks: Dict[str, StoredTask] = {}
        #: Bytes of every stored task, kept up to date by :meth:`store`.
        self._used_bytes = 0
        self.reads = 0
        self.writes = 0

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_kb * 1024

    @property
    def used_bytes(self) -> int:
        return self._used_bytes

    def store(self, task_name: str, commands: Sequence[IOCommand]) -> StoredTask:
        """Pre-load the command sequence of one I/O task (Phase 1).

        Storing a task again replaces it, and frees the bytes it held.
        """
        commands = list(commands)
        if not commands:
            raise ValueError(f"task {task_name!r} must have at least one command")
        stored = StoredTask(task_name=task_name, commands=commands)
        size = stored.size_bytes
        existing = self._tasks.get(task_name)
        projected = self._used_bytes - (existing.size_bytes if existing else 0) + size
        if projected > self.capacity_bytes:
            raise MemoryCapacityError(
                f"storing task {task_name!r} ({size} B) exceeds the "
                f"{self.capacity_kb} KB controller memory"
            )
        self._tasks[task_name] = stored
        self._used_bytes = projected
        self.writes += 1
        return stored

    def retrieve(self, task_name: str) -> StoredTask:
        """Fetch the commands of a pre-loaded task (used by the synchroniser)."""
        try:
            stored = self._tasks[task_name]
        except KeyError:
            raise KeyError(f"task {task_name!r} has not been pre-loaded") from None
        self.reads += 1
        return stored

    def contains(self, task_name: str) -> bool:
        return task_name in self._tasks
