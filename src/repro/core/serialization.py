"""JSON (de)serialisation of task sets and schedules.

Offline schedules are computed on a host and then loaded into the I/O
controller (Phase 2 of the paper); in practice that means task sets and
scheduling decisions need a stable on-disk/exchange format.  The format is
deliberately plain JSON so that host tooling in any language can produce or
consume it.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.schedule import FlatSchedule, Schedule, ScheduleEntry, task_table
from repro.core.task import IOTask, TaskSet

_TASK_FIELDS = (
    "name",
    "wcet",
    "period",
    "deadline",
    "priority",
    "ideal_offset",
    "theta",
    "device",
    "v_max",
    "v_min",
    "offset",
)


def task_to_dict(task: IOTask) -> Dict[str, Any]:
    """Plain-dict representation of one task (all times in microseconds)."""
    return {field: getattr(task, field) for field in _TASK_FIELDS}


def task_from_dict(data: Dict[str, Any]) -> IOTask:
    """Inverse of :func:`task_to_dict`; unknown keys are rejected."""
    unknown = set(data) - set(_TASK_FIELDS)
    if unknown:
        raise ValueError(f"unknown task fields: {sorted(unknown)}")
    return IOTask(**data)


def taskset_to_dict(task_set: TaskSet) -> Dict[str, Any]:
    return {"tasks": [task_to_dict(task) for task in task_set]}


def taskset_from_dict(data: Dict[str, Any]) -> TaskSet:
    return TaskSet([task_from_dict(entry) for entry in data["tasks"]])


def schedule_to_dict(schedule: Schedule, task_set: TaskSet) -> Dict[str, Any]:
    """Schedule as ``{device, entries: [{task, job, start}]}`` (tasks by name)."""
    return flat_schedule_to_dict(
        FlatSchedule.from_schedule(schedule, task_table([schedule], task_set))
    )


def flat_schedule_to_dict(schedule: FlatSchedule) -> Dict[str, Any]:
    """:func:`schedule_to_dict` of a flat schedule: its entries in ``(start,
    task name, index)`` order, as plain ``int`` values."""
    ordered = schedule.table_order()
    names = schedule.tasks.columns().names
    return {
        "device": schedule.device,
        "entries": [
            {"task": names[task], "job": job, "start": start}
            for task, job, start in zip(
                ordered.task.tolist(), ordered.job.tolist(), ordered.start.tolist()
            )
        ],
    }


def schedule_from_dict(data: Dict[str, Any], task_set: TaskSet) -> Schedule:
    """Rebuild a schedule against the given task set (tasks looked up by name)."""
    schedule = Schedule(device=data.get("device"))
    for entry in data["entries"]:
        task = task_set.by_name(entry["task"])
        schedule.add(ScheduleEntry(job=task.job(int(entry["job"])), start=int(entry["start"])))
    return schedule


def flat_schedule_from_dict(data: Dict[str, Any], task_set: TaskSet) -> FlatSchedule:
    """:func:`schedule_from_dict` in the flat form, over ``task_set``.

    The entries become three vectors through the task set's name index,
    without a job, entry or schedule object.  Entries that the object form
    rejects or folds take the object form: an unknown task, a job index
    that is negative or not an integer, a start that is not an integer, a
    job listed twice, or a task of another device.  So the result, or the
    error raised, is always the object form's.
    """
    entries = data["entries"]
    device = data.get("device")
    index = task_set.name_index
    try:
        task = np.array([index[entry["task"]] for entry in entries], dtype=np.int64)
        job = np.array([entry["job"] for entry in entries])
        start = np.array([entry["start"] for entry in entries])
    except (KeyError, TypeError, ValueError, OverflowError):
        return FlatSchedule.from_schedule(schedule_from_dict(data, task_set), task_set)
    if not len(task):
        return FlatSchedule(task_set, task, task, task, device)
    if job.dtype.kind == start.dtype.kind == "i":
        columns = task_set.columns()
        codes = columns.device_code[task]
        if device is None:
            device = columns.device_names[codes[0]]
        stride = int(job.max()) + 1
        if (
            device in columns.device_names
            and bool((codes == columns.device_names.index(device)).all())
            and job.min() >= 0
            and stride <= 2**32
            and len(np.unique(task * stride + job)) == len(task)
        ):
            return FlatSchedule(
                task_set,
                task,
                job.astype(np.int64, copy=False),
                start.astype(np.int64, copy=False),
                device,
            )
    return FlatSchedule.from_schedule(schedule_from_dict(data, task_set), task_set)


# -- versioned payloads and content hashing ------------------------------------
#
# Experiment artifacts (sweep results, cached evaluation cells) are persisted
# across runs and possibly across versions of this package, so every on-disk
# payload carries an explicit ``kind`` and integer ``version``.  Readers check
# both and fail loudly on mismatch instead of silently misinterpreting stale
# files.  Content keys (cache directories) are derived from the canonical JSON
# form so that logically-equal configurations hash identically regardless of
# dict ordering.


class PayloadVersionError(ValueError):
    """A payload was written by a newer format version than this reader.

    Distinct from generic ``ValueError`` corruption so callers that fall back
    to recomputing on unreadable data can still fail loudly here — silently
    recomputing (and overwriting) a *newer* artifact would destroy it.
    """


def versioned_payload(kind: str, version: int, data: Any) -> Dict[str, Any]:
    """Wrap ``data`` in the standard ``{kind, version, data}`` envelope."""
    return {"kind": kind, "version": int(version), "data": data}


def parse_versioned_payload(
    payload: Dict[str, Any], kind: str, *, max_version: int
) -> Tuple[int, Any]:
    """Validate a versioned envelope; returns ``(version, data)``.

    Raises ``ValueError`` when the kind does not match or the version is newer
    than this reader understands (older versions are the caller's business —
    that is what the returned version number is for).
    """
    found_kind = payload.get("kind")
    if found_kind != kind:
        raise ValueError(f"expected payload kind {kind!r}, found {found_kind!r}")
    version = payload.get("version")
    if not isinstance(version, int) or version < 1:
        raise ValueError(f"invalid payload version {version!r} for kind {kind!r}")
    if version > max_version:
        raise PayloadVersionError(
            f"payload kind {kind!r} has version {version}, "
            f"but this reader only understands versions <= {max_version}"
        )
    return version, payload.get("data")


def atomic_write_json(
    path: Union[str, Path],
    payload: Any,
    *,
    indent: Union[int, None] = None,
    sort_keys: bool = True,
) -> Path:
    """Write ``payload`` as JSON to ``path`` atomically (temp file + rename).

    Every writer goes through its own unique temp file in the destination
    directory, so concurrent processes sharing one directory can never read a
    torn/partial file: readers see either the old content or the new content,
    and the last complete writer wins.  Used by every persistent store in the
    repository (the schedule cache, experiment artifacts, campaign reports).
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=indent, sort_keys=sort_keys)
            handle.write("\n")
        # mkstemp creates 0600 files; widen to the umask-governed mode a
        # plain open() would have produced, so shared artifact directories
        # stay readable by other users/groups.
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp_name, 0o666 & ~umask)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def canonical_json(obj: Any) -> str:
    """Deterministic JSON text (sorted keys, no whitespace) for hashing."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def content_hash(obj: Any, *, length: int = 16) -> str:
    """Hex digest of the canonical JSON form of ``obj`` (content cache key)."""
    digest = hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()
    return digest[:length]


class JsonEnvelope:
    """A value that travels as a versioned ``{kind, version, data}`` payload.

    Subclasses define ``to_dict`` and the classmethod ``from_dict``; this
    adds their JSON text forms.
    """

    def to_json(self, *, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=indent)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))


class ContentKeyed:
    """A frozen value addressed by the :func:`content_hash` of :meth:`_key_dict`."""

    def _key_dict(self) -> Any:
        """Exactly the content that determines what the value means."""
        raise NotImplementedError

    def content_key(self) -> str:
        """The content address: any change to the keyed content changes it.

        The value is frozen, so the key is hashed once and memoised; the
        cached string also rides along in pickles, saving pool workers the
        re-hash.
        """
        cached = self.__dict__.get("_content_key")
        if cached is None:
            cached = content_hash(self._key_dict())
            object.__setattr__(self, "_content_key", cached)
        return cached
