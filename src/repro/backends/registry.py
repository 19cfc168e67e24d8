"""Backend registry: name -> :class:`~repro.backends.base.ChannelBackend`.

This module is deliberately import-light (only :mod:`repro.errors`):
:class:`~repro.core.config.SystemConfig` validates backend names at
construction time, so the registry must be importable before any of
the simulation machinery.  The built-in backends are resolved lazily
on first :func:`get_backend` -- ``import repro`` never pays for a
backend nobody selected.

Custom backends (a vectorized kernel, a remote worker proxy, ...) register
at runtime::

    from repro.backends import ChannelBackend, register_backend

    class MyBackend(ChannelBackend):
        name = "mybackend"
        ...

    register_backend(MyBackend())
    config = SystemConfig(backend="mybackend")

The process-wide *default* backend (what ``SystemConfig()`` resolves
``backend`` to when the caller does not pass one) is ``reference``;
:func:`set_default_backend` overrides it, which is how the CI backend
matrix runs the whole suite under ``--backend batch``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Tuple

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.backends.base import ChannelBackend

#: Built-in backends, resolved lazily: name -> (module, class).
_BUILTIN: Dict[str, Tuple[str, str]] = {
    "reference": ("repro.backends.reference", "ReferenceBackend"),
    "analytic": ("repro.backends.analytic", "AnalyticBackend"),
    "batch": ("repro.backends.batch", "BatchBackend"),
}

#: Instantiated backends (built-ins land here on first resolution).
_REGISTRY: Dict[str, "ChannelBackend"] = {}

#: What ``SystemConfig()`` uses when no backend is passed.
_DEFAULT_BACKEND = "reference"


def available_backends() -> Tuple[str, ...]:
    """Sorted names of every registered backend (built-in + custom)."""
    return tuple(sorted(set(_BUILTIN) | set(_REGISTRY)))


def validate_backend_name(name: str) -> str:
    """Check that ``name`` is a registered backend and return it.

    Raises :class:`~repro.errors.ConfigurationError` naming the
    registered backends otherwise -- the error a typo'd
    ``SystemConfig(backend="refrence")`` or ``--backend`` value hits.
    """
    if not isinstance(name, str):
        raise ConfigurationError(
            f"backend must be a backend name (str), got {name!r}; "
            f"registered backends: {', '.join(available_backends())}"
        )
    if name not in _BUILTIN and name not in _REGISTRY:
        raise ConfigurationError(
            f"unknown backend {name!r}; registered backends: "
            f"{', '.join(available_backends())}"
        )
    return name


def get_backend(name: str) -> "ChannelBackend":
    """Resolve a backend name to its registered instance.

    Built-in backends are imported and instantiated on first use and
    cached.  Unknown names raise
    :class:`~repro.errors.ConfigurationError` listing what is
    registered.
    """
    validate_backend_name(name)
    backend = _REGISTRY.get(name)
    if backend is None:
        import importlib

        module_name, class_name = _BUILTIN[name]
        backend_cls = getattr(importlib.import_module(module_name), class_name)
        backend = backend_cls()
        _REGISTRY[name] = backend
    return backend


def register_backend(backend: "ChannelBackend", replace: bool = False) -> None:
    """Register a custom backend under ``backend.name``.

    ``replace=True`` allows shadowing an existing registration
    (including a built-in); without it a name collision raises
    :class:`~repro.errors.ConfigurationError` -- silently replacing the
    reference backend is exactly the kind of action-at-a-distance this
    guard exists to catch.
    """
    name = getattr(backend, "name", None)
    if not isinstance(name, str) or not name:
        raise ConfigurationError(
            f"backend {backend!r} must define a non-empty string 'name'"
        )
    if not replace and (name in _BUILTIN or name in _REGISTRY):
        raise ConfigurationError(
            f"backend name {name!r} is already registered "
            "(pass replace=True to shadow it)"
        )
    _REGISTRY[name] = backend


def unregister_backend(name: str) -> None:
    """Remove a runtime registration (built-ins reappear lazily)."""
    _REGISTRY.pop(name, None)


def default_backend_name() -> str:
    """The backend ``SystemConfig()`` selects when none is passed."""
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Set the process-wide default backend; returns the previous one.

    Used by the test harness's ``--backend`` option to run existing
    suites under a different backend without touching every
    ``SystemConfig()`` call site.
    """
    global _DEFAULT_BACKEND
    validate_backend_name(name)
    previous = _DEFAULT_BACKEND
    _DEFAULT_BACKEND = name
    return previous
