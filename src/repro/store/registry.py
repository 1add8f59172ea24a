"""Backend registry: ``name:key=value`` spec strings → live backends.

Backend specs are :class:`~repro.service.spec.BackendSpec` s: the scheduler
spec grammar — the same ``name:key=value,...`` strings, typed values
included — so one parser (and one set of round-trip guarantees) covers
scheduler specs and storage specs alike::

    directory:root=/var/cache/repro      # one JSON file per key under root
    sqlite:path=/var/cache/repro.db      # everything in one SQLite file
    sqlite:path=cache.db,timeout=60.0    # with a longer writer busy-timeout

As a convenience, a spec with no ``:`` and no registered backend name is
treated as a bare path: ``cache.db``/``cache.sqlite`` opens the SQLite
backend, anything else the directory backend.  That keeps
``--cache-backend my-cache-dir`` working the way ``--cache-dir`` users
expect.

Third-party backends register through :func:`register_backend` (into
:data:`BACKENDS`); the two built-ins are registered at import time by
:mod:`repro.store`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.core.registry import Registry
from repro.store.backends import (
    SCHEDULE_CACHE_SUBDIR,
    SIM_CACHE_SUBDIR,
    CacheBackend,
    DirectoryBackend,
    SqliteBackend,
)

#: A factory takes the spec's typed options plus ``subdir`` — the logical
#: namespace (``schedules`` / ``sim-responses``) the caller wants.  Backends
#: with physical sub-locations (directory) honour it; single-file backends
#: (sqlite) ignore it because their entries carry a ``kind`` column instead.
BackendFactory = Callable[..., CacheBackend]

#: Every cache backend, by name.
BACKENDS = Registry("cache backend")
#: Backend name -> the one-line description :func:`format_backend_listing` prints.
_DESCRIPTIONS: Dict[str, str] = {}

#: File suffixes that make a bare (grammar-free) path mean "sqlite".
_SQLITE_SUFFIXES = (".db", ".sqlite", ".sqlite3")


def register_backend(
    name: str, factory: BackendFactory, *, description: str = ""
) -> None:
    """Register ``factory`` under ``name`` (replacing any previous owner)."""
    BACKENDS.register(name, factory, overwrite=True)
    _DESCRIPTIONS[name] = description


def backend_names() -> List[str]:
    """Registered backend names, sorted."""
    return list(BACKENDS.names())


def format_backend_listing() -> str:
    """One ``name — description`` line per registered backend."""
    return "\n".join(f"  {name} — {_DESCRIPTIONS[name]}" for name in BACKENDS.names())


def _directory_factory(*, subdir: Optional[str] = None, **options: Any) -> CacheBackend:
    root = options.pop("root", None)
    if root is None:
        raise ValueError("directory backend requires a root= option")
    if options:
        raise ValueError(
            f"directory backend got unknown options: {sorted(options)}"
        )
    path = Path(str(root))
    if subdir:
        path = path / subdir
    return DirectoryBackend(path)


def _sqlite_factory(*, subdir: Optional[str] = None, **options: Any) -> CacheBackend:
    path = options.pop("path", None)
    if path is None:
        raise ValueError("sqlite backend requires a path= option")
    del subdir  # one file holds every namespace; entries carry their kind
    kwargs: Dict[str, Any] = {}
    for key in ("timeout", "wal", "synchronous"):
        if key in options:
            kwargs[key] = options.pop(key)
    if options:
        raise ValueError(f"sqlite backend got unknown options: {sorted(options)}")
    return SqliteBackend(Path(str(path)), **kwargs)


register_backend(
    "directory",
    _directory_factory,
    description="one JSON file per key under root= (the classic cache layout)",
)
register_backend(
    "sqlite",
    _sqlite_factory,
    description="all entries in one SQLite file at path= (WAL, concurrency-safe)",
)


def parse_backend_spec(text: str) -> Tuple[str, Dict[str, Any]]:
    """Parse a backend spec string into ``(name, typed options)``.

    Applies the bare-path convenience: text that is neither a registered
    backend name nor valid spec grammar is interpreted as a filesystem path
    (sqlite for ``.db``/``.sqlite``/``.sqlite3`` suffixes, directory
    otherwise).
    """
    # Lazy import: repro.service imports repro.store for its cache backends.
    from repro.service.spec import BackendSpec

    if not isinstance(text, str) or not text.strip():
        raise ValueError(f"invalid backend spec: {text!r}")
    text = text.strip()
    name, sep, _ = text.partition(":")
    if not sep and name not in BACKENDS:
        # A bare path like "my-cache-dir" or "cache.db".
        if text.lower().endswith(_SQLITE_SUFFIXES):
            return "sqlite", {"path": text}
        return "directory", {"root": text}
    try:
        spec = BackendSpec.parse(text)
    except ValueError as error:
        raise ValueError(f"invalid backend spec {text!r}: {error}") from error
    return spec.name, spec.options_dict()


def create_backend(
    spec: Union[str, CacheBackend], *, subdir: Optional[str] = None
) -> CacheBackend:
    """Open the backend described by ``spec``.

    ``subdir`` names the logical cache namespace (see :data:`BackendFactory`).
    A live :class:`CacheBackend` passes through unchanged (``subdir`` is then
    the caller's responsibility).
    """
    if isinstance(spec, CacheBackend):
        return spec
    name, options = parse_backend_spec(spec)
    if name not in BACKENDS:
        raise ValueError(
            f"unknown cache backend {name!r} (available: {', '.join(backend_names())})"
        )
    return BACKENDS.factory(name)(subdir=subdir, **options)


def schedule_backend(spec: Union[str, CacheBackend]) -> CacheBackend:
    """Open ``spec`` as the schedule-cache namespace."""
    return create_backend(spec, subdir=SCHEDULE_CACHE_SUBDIR)


def simulation_backend(spec: Union[str, CacheBackend]) -> CacheBackend:
    """Open ``spec`` as the simulation-response-cache namespace."""
    return create_backend(spec, subdir=SIM_CACHE_SUBDIR)
