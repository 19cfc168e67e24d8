"""Pluggable channel-simulation backends.

One :class:`~repro.backends.base.ChannelBackend` sits behind
:class:`~repro.core.system.MultiChannelMemorySystem`, the sweep
runners and the CLI; ``reference``, ``batch`` and ``analytic`` ship
built in (see
:mod:`repro.backends.registry` for the trade-offs and how to register
a custom backend).

This package imports only the protocol and the registry -- concrete
backends load lazily on first use.
"""

from repro.backends.base import ChannelBackend, ChannelSimulator
from repro.backends.registry import (
    available_backends,
    default_backend_name,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
    validate_backend_name,
)

__all__ = [
    "ChannelBackend",
    "ChannelSimulator",
    "available_backends",
    "default_backend_name",
    "get_backend",
    "register_backend",
    "set_default_backend",
    "unregister_backend",
    "validate_backend_name",
]
