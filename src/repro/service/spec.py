"""``SchedulerSpec`` — scheduling methods as declarative, serialisable values.

A spec names a registered scheduling method plus the keyword overrides to
construct it with, in a compact string grammar::

    spec    := name [":" option ("," option)*]
    option  := key "=" value
    name    := [A-Za-z0-9_][A-Za-z0-9_-]*
    key     := [A-Za-z_][A-Za-z0-9_]*
    value   := "true" | "false" | "none" | <int> | <float> | <string>

Examples: ``"static"``, ``"fps-offline"``,
``"ga:generations=50,population_size=40,seed=7"``.

Values are typed: ``true``/``false`` parse to booleans, ``none``/``null`` to
``None``, number literals to ``int``/``float``, everything else stays a
string.  :meth:`SchedulerSpec.format` is the exact inverse of
:meth:`SchedulerSpec.parse` (a property test holds the round-trip), so specs
can travel through CLIs, JSON requests and cache keys without a second,
divergent representation of "which scheduler, configured how".

Resolution goes through the registry the spec class names in ``REGISTRY``
(the scheduler registry; :class:`~repro.runtime.ExecutionModelSpec` names the
execution-model one, :class:`BackendSpec` the cache-backend one):
:meth:`SchedulerSpec.resolve` forwards the options to
the registered factory, which fails loudly (naming the factory) on an unknown
keyword.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Tuple, Union

from repro.scheduling.registry import SCHEDULERS
from repro.store.registry import BACKENDS

#: JSON-compatible option value types a spec can carry.
OptionValue = Union[bool, int, float, str, None]

_NAME_RE = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_-]*$")
_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")

_TRUE_LITERALS = ("true",)
_FALSE_LITERALS = ("false",)
_NONE_LITERALS = ("none", "null")


def parse_option_value(text: str) -> OptionValue:
    """Parse one option value literal (see the grammar above).

    Non-finite float literals (``nan``, ``inf``, ``1e999``, ...) stay strings:
    :func:`format_option_value` cannot render non-finite floats (they are not
    JSON-representable either), so admitting them here would break the
    parse/format inverse.
    """
    lowered = text.lower()
    if lowered in _TRUE_LITERALS:
        return True
    if lowered in _FALSE_LITERALS:
        return False
    if lowered in _NONE_LITERALS:
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    return text


def format_option_value(value: OptionValue) -> str:
    """Render ``value`` so that :func:`parse_option_value` recovers it exactly.

    Raises ``ValueError`` for values the grammar cannot represent losslessly:
    non-finite floats, strings containing the delimiters ``:,=`` or
    whitespace, and strings that would re-parse as a different type (e.g.
    ``"true"`` or ``"1.5"``).  Such values still travel fine through the JSON
    dict form (:meth:`SchedulerSpec.to_dict`); only the string grammar refuses
    them.
    """
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        if parse_option_value(text) != value:  # nan / inf parse back as strings
            raise ValueError(f"float value {value!r} is not representable in a spec string")
        return text
    if isinstance(value, str):
        if not value or re.search(r"[:,=\s]", value):
            raise ValueError(
                f"string value {value!r} is not representable in a spec string "
                "(empty, or contains ':', ',', '=' or whitespace)"
            )
        reparsed = parse_option_value(value)
        if reparsed != value or not isinstance(reparsed, str):
            raise ValueError(
                f"string value {value!r} would re-parse as {reparsed!r}; "
                "use the dict form instead"
            )
        return value
    raise ValueError(f"unsupported option value type: {value!r}")


@dataclass(frozen=True)
class SchedulerSpec:
    """A registered scheduler name plus typed construction options.

    Instances are immutable and hashable; ``options`` may be given as any
    mapping and is normalised to a key-sorted tuple of pairs, so two specs
    with the same options in different order compare (and hash) equal.
    """

    #: The registry :meth:`resolve` creates through (not a field, never serialised).
    REGISTRY = SCHEDULERS

    name: str
    options: Tuple[Tuple[str, OptionValue], ...] = field(default=())

    def __post_init__(self) -> None:
        if not _NAME_RE.match(self.name):
            raise ValueError(f"invalid {self.REGISTRY.noun} name {self.name!r}")
        raw = self.options
        items = raw.items() if isinstance(raw, Mapping) else raw
        # Sort by key only: values of different types are not comparable.
        pairs = tuple(sorted(items, key=lambda pair: pair[0]))
        seen: Dict[str, OptionValue] = {}
        for key, value in pairs:
            if not _KEY_RE.match(key):
                raise ValueError(f"invalid option key {key!r} in spec {self.name!r}")
            if key in seen:
                raise ValueError(f"duplicate option key {key!r} in spec {self.name!r}")
            seen[key] = value
        object.__setattr__(self, "options", pairs)

    # -- construction ------------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "SchedulerSpec":
        """Parse ``"name"`` or ``"name:key=value,key=value"`` into a spec."""
        if not isinstance(text, str):
            raise TypeError(f"spec must be a string, got {type(text).__name__}")
        name, sep, rest = text.partition(":")
        name = name.strip()
        options: Dict[str, OptionValue] = {}
        if sep:
            if not rest.strip():
                raise ValueError(f"spec {text!r} has ':' but no options")
            for item in rest.split(","):
                key, eq, value = item.partition("=")
                key = key.strip()
                if not eq:
                    raise ValueError(f"option {item!r} in spec {text!r} is missing '='")
                if key in options:
                    raise ValueError(f"duplicate option key {key!r} in spec {text!r}")
                options[key] = parse_option_value(value.strip())
        return cls(name=name, options=options)

    @classmethod
    def coerce(cls, spec: Union[str, "SchedulerSpec"]) -> "SchedulerSpec":
        """Accept a spec object or its string form; a subclass rewraps a plain
        :class:`SchedulerSpec` (the grammar is shared)."""
        if isinstance(spec, cls):
            return spec
        if isinstance(spec, SchedulerSpec):
            return cls(name=spec.name, options=spec.options)
        return cls.parse(spec)

    def canonical(self) -> "SchedulerSpec":
        """This spec under its registry's canonical name (``self`` if it is one)."""
        name = self.REGISTRY.canonical(self.name)
        return self if name == self.name else type(self)(name=name, options=self.options)

    def with_options(self, **options: OptionValue) -> "SchedulerSpec":
        """A copy of the same spec class with ``options`` merged over the existing ones."""
        merged = self.options_dict()
        merged.update(options)
        return type(self)(name=self.name, options=merged)

    # -- views -------------------------------------------------------------------

    def options_dict(self) -> Dict[str, OptionValue]:
        return dict(self.options)

    def format(self) -> str:
        """The canonical string form; exact inverse of :meth:`parse`."""
        if not self.options:
            return self.name
        rendered = ",".join(
            f"{key}={format_option_value(value)}" for key, value in self.options
        )
        return f"{self.name}:{rendered}"

    def __str__(self) -> str:
        return self.format()

    # -- serialisation -----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form (used by requests, cache keys and JSON payloads)."""
        return {"name": self.name, "options": self.options_dict()}

    @classmethod
    def from_dict(cls, data: Union[str, Dict[str, Any]]) -> "SchedulerSpec":
        """Inverse of :meth:`to_dict`; also accepts the string grammar."""
        if isinstance(data, str):
            return cls.parse(data)
        unknown = set(data) - {"name", "options"}
        if unknown:
            raise ValueError(f"unknown spec fields: {sorted(unknown)}")
        return cls(name=data["name"], options=dict(data.get("options") or {}))

    # -- resolution --------------------------------------------------------------

    def resolve(self) -> Any:
        """Instantiate the named scheduler (or model) through :attr:`REGISTRY`.

        Raises ``KeyError`` for an unregistered name and ``TypeError`` (naming
        the factory) for an option the factory rejects.
        """
        return self.REGISTRY.create(self.name, **self.options_dict())


@dataclass(frozen=True)
class BackendSpec(SchedulerSpec):
    """A cache-backend name plus typed options (``sqlite:path=cache.db``): the
    spec grammar, resolving through :data:`~repro.store.registry.BACKENDS`."""

    REGISTRY = BACKENDS
