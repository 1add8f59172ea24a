"""Scheduler registry — pluggable lookup of scheduling methods by name.

The experiment harness refers to scheduling methods by short string names
("fps-offline", "gpiocp", "static", "ga", ...).  Every scheduler module
registers its own factory in :data:`SCHEDULERS` with
:func:`register_scheduler`, and the harness instantiates methods through
:func:`create_scheduler` without importing the concrete classes.  A
*factory* is any callable returning a scheduler-like object (something with
a ``schedule_taskset(task_set)`` method), optionally taking one positional
``config`` (e.g. :class:`~repro.scheduling.ga.GAConfig` for the GA).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.registry import Registry, describe_factory

#: Every scheduling method, by name and alias.
SCHEDULERS = Registry("scheduler")

_MISSING = object()

register_scheduler = SCHEDULERS.register
unregister_scheduler = SCHEDULERS.unregister
scheduler_registered = SCHEDULERS.__contains__
available_schedulers = SCHEDULERS.names
get_scheduler_factory = SCHEDULERS.factory


def list_schedulers() -> Dict[str, str]:
    """Every registered scheduler name mapped to its factory's identity.

    Aliases appear as their own entries (pointing at the same factory), so the
    mapping answers both "what can I pass as a method?" and "which of these
    are the same thing?".  This is what the CLIs print for ``--list-methods``.
    """
    return {name: describe_factory(SCHEDULERS.factory(name)) for name in SCHEDULERS.names()}


def format_scheduler_listing() -> str:
    """The ``--list-methods`` text both CLIs print: one ``name  factory`` line each."""
    return "\n".join(f"{name:<16} {factory}" for name, factory in list_schedulers().items())


def create_scheduler(name: str, config: Any = _MISSING, **overrides: Any) -> Any:
    """Instantiate the scheduler registered under ``name``.

    ``config`` (when given) is forwarded as the factory's single positional
    argument; omitted otherwise, so factories without configuration knobs need
    not declare a parameter for it.  Keyword ``overrides`` are forwarded to
    the factory verbatim — this is the hook spec strings such as
    ``"ga:generations=50,population_size=40"`` resolve through.  An override
    the factory rejects raises ``TypeError`` naming the factory.
    """
    args = () if config is _MISSING else (config,)
    return SCHEDULERS.create(name, *args, **overrides)
