"""The persistent result cache shared by every sweep.

:mod:`repro.service.cache` is a content-addressed on-disk store of
completed sweep points, keyed by :func:`repro.keys.canonical_key`, so
every figure, the explorer, the ``sweep`` subcommand and the
feasibility oracle share stored work, and an interrupted sweep resumes
from it.
"""

from __future__ import annotations

from .cache import CacheWarning, ResultCache, resolve_cache

__all__ = ["CacheWarning", "ResultCache", "resolve_cache"]
