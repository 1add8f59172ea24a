"""Name → factory registries: how every named alternative is looked up.

The paper compares named alternatives: scheduling methods (FPS, GPIOCP, the
static heuristic, the GA) and run-time execution models (the dedicated
controller, CPU-instigated I/O); the reproduction also names its scenario
presets and cache backends.  Each kind is one :class:`Registry`
(:data:`~repro.scheduling.registry.SCHEDULERS`,
:data:`~repro.runtime.models.EXECUTION_MODELS`,
:data:`~repro.scenario.registry.SCENARIOS`,
:data:`~repro.store.registry.BACKENDS`).  Modules register their own
factories, so a new alternative plugs into every sweep, campaign and CLI by
registering itself; ``name:key=value`` spec strings resolve through
:meth:`Registry.create`.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Optional, Sequence, Tuple


def describe_factory(factory: Callable[..., Any]) -> str:
    """A factory's dotted identity (``module.QualName``) for listings and errors."""
    qualname = getattr(factory, "__qualname__", None) or getattr(factory, "__name__", None)
    if qualname is None:
        return repr(factory)
    module = getattr(factory, "__module__", None)
    return f"{module}.{qualname}" if module else qualname


class Registry:
    """Names and aliases bound to the factories of one kind of thing.

    ``noun`` names the kind in every error, as in ``unknown scheduler 'x';
    registered: …``.  An alias is a name of its own bound to the same
    factory; :meth:`canonical` folds it into the factory's first name.
    """

    def __init__(self, noun: str):
        self.noun = noun
        self._factories: Dict[str, Callable[..., Any]] = {}
        #: ``id(factory) -> (factory, first name)``; ``name -> canonical name``.
        self._first: Dict[int, Tuple[Callable[..., Any], str]] = {}
        self._canonical: Dict[str, str] = {}

    def register(
        self,
        name: str,
        factory: Optional[Callable[..., Any]] = None,
        *,
        aliases: Sequence[str] = (),
        overwrite: bool = False,
    ):
        """Bind ``factory`` to ``name`` and each alias; a decorator if ``factory`` is omitted.

        A key bound to another factory raises ``ValueError`` unless
        ``overwrite=True`` (two modules fighting over a name).  Every key is
        checked before any is bound, so a conflicting alias binds nothing.
        """

        def _register(target: Callable[..., Any]) -> Callable[..., Any]:
            keys = (name, *aliases)
            if not overwrite:
                for key in keys:
                    bound = self._factories.get(key, target)
                    if bound is not target:
                        raise ValueError(
                            f"{self.noun} {key!r} is already registered "
                            f"(to {bound!r}); pass overwrite=True to replace it"
                        )
            for key in keys:
                self._factories[key] = target
            self._first.setdefault(id(target), (target, name))
            self._fold()
            return target

        return _register if factory is None else _register(factory)

    def unregister(self, name: str) -> None:
        """Unbind ``name`` (aliases are unbound separately)."""
        if name not in self._factories:
            raise KeyError(f"unknown {self.noun} {name!r}")
        del self._factories[name]
        self._fold()

    def _fold(self) -> None:
        """Rebuild the canonical name of every bound name (see :meth:`canonical`)."""
        canonical = {}
        for key, factory in self._factories.items():
            first = self._first[id(factory)][1]
            canonical[key] = first if self._factories.get(first) is factory else key
        self._canonical = canonical

    def canonical(self, name: str) -> str:
        """The name ``name``'s factory was first registered under, while that
        name is still bound to it; otherwise ``name`` (unknown names too)."""
        return self._canonical.get(name, name)

    def __contains__(self, name: str) -> bool:
        return name in self._factories

    def names(self) -> Tuple[str, ...]:
        """Every bound name, aliases included, sorted."""
        return tuple(sorted(self._factories))

    def factory(self, name: str) -> Callable[..., Any]:
        """The factory bound to ``name``; a ``KeyError`` lists the bound names."""
        try:
            return self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.noun} {name!r}; registered: {', '.join(self.names())}"
            ) from None

    def create(self, name: str, *args: Any, **overrides: Any) -> Any:
        """Call the factory bound to ``name`` with ``args`` and keyword ``overrides``.

        An override that the factory's signature cannot bind (when it has
        one; some builtins do not) or that the call rejects raises a
        ``TypeError`` naming the entry and the factory, so a typo in a spec
        string points at the culprit.
        """
        factory = self.factory(name)
        if not overrides:
            return factory(*args)
        try:
            signature = inspect.signature(factory)
        except (TypeError, ValueError):
            signature = None
        if signature is not None:
            try:
                signature.bind(*args, **overrides)
            except TypeError as error:
                accepted = ", ".join(signature.parameters) or "<none>"
                raise self._rejected(
                    name, factory, overrides, f"{error}; accepted parameters: {accepted}"
                ) from None
        try:
            return factory(*args, **overrides)
        except TypeError as error:
            # The signature bound, but the factory still rejected a keyword
            # (e.g. an unknown config field).
            raise self._rejected(name, factory, overrides, error) from error

    def _rejected(
        self, name: str, factory: Callable[..., Any], overrides: Dict[str, Any], reason: Any
    ) -> TypeError:
        return TypeError(
            f"{self.noun} {name!r} (factory {describe_factory(factory)}) rejected "
            f"keyword overrides {sorted(overrides)}: {reason}"
        )
