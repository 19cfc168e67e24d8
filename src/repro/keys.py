"""Canonical content keys for jobs and the result cache.

Cache entries identify a piece of completed work by a content key: two
runs may share a stored result if and only if their keys match.  Until
this module existed sweep points were keyed by the ``repr`` of the job
description, which had two defects a content-addressed store cannot
inherit:

- ``repr`` omits nothing *visibly* but promises nothing *stably*: a
  dataclass gaining a field with a default, or a field changing its
  repr formatting, silently changes every key and orphans every stored
  result -- or worse, a refactor that makes two semantically different
  objects repr identically silently aliases them.
- The key carried no engine version, so a stored result produced by an
  older simulation engine could be served verbatim after a semantics
  change -- precisely the staleness a content-addressed store must
  rule out.

:func:`canonical_key` fixes both: the job description is projected to
a deterministic JSON document (dataclasses become ``{"__class__":
name, field: ...}`` maps with sorted keys, enums become their
qualified names, mappings are sorted) and hashed together with
:data:`ENGINE_VERSION`.  The projection is structural, not textual, so
it survives field reordering and repr changes; the embedded class and
field names mean a *semantic* refactor (renaming a field, changing a
default's meaning) still changes the key -- which is the safe
direction for cached simulation results.

:class:`repro.service.cache.ResultCache` files every sweep point under
this key, and the feasibility oracle probes it with the same function.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from typing import Any, Optional

#: Version of the simulation engine's observable semantics.  Bump this
#: whenever a change alters any simulated result (timing algebra,
#: power integration, traffic generation, ...): every canonical key
#: embeds it, so stored results from older semantics become misses
#: instead of silently served stale values.  Purely-internal speedups
#: that keep results bit-identical must NOT bump it -- that would
#: needlessly cold the cache.
ENGINE_VERSION = "2"

#: Schema tag embedded in every canonical payload, so a future change
#: to the *projection itself* (not the engine) can also invalidate
#: old keys explicitly.
_PROJECTION_VERSION = 1


def canonical_fragment(obj: Any) -> Any:
    """Project ``obj`` onto a deterministic JSON-able structure.

    Handles the vocabulary job descriptions are made of: dataclasses
    (projected field by field under their class name), enums
    (qualified name), mappings (string-keyed, sorted by
    :func:`json.dumps` at serialisation time), sequences, and JSON
    scalars.  Non-finite floats are rejected -- a NaN inside a job
    description would make the key compare unequal to itself in
    spirit, and JSON cannot carry it losslessly anyway.  Anything else
    falls back to ``repr`` *tagged as such*, so an accidental reliance
    on repr stability is at least visible in the payload.
    """
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(
                f"canonical key material must be finite, got {obj!r}"
            )
        return obj
    if isinstance(obj, enum.Enum):
        return {"__enum__": type(obj).__name__, "name": obj.name}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        projected = {
            field.name: canonical_fragment(getattr(obj, field.name))
            for field in dataclasses.fields(obj)
        }
        projected["__class__"] = type(obj).__name__
        return projected
    if isinstance(obj, dict):
        fragment = {}
        for key, value in obj.items():
            if not isinstance(key, str):
                raise ValueError(
                    f"canonical key material needs string dict keys, "
                    f"got {key!r}"
                )
            fragment[key] = canonical_fragment(value)
        return fragment
    if isinstance(obj, (list, tuple)):
        return [canonical_fragment(item) for item in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(canonical_fragment(item) for item in obj)
    return {"__repr__": repr(obj), "__class__": type(obj).__name__}


def canonical_payload(description: Any, engine_version: Optional[str] = None) -> str:
    """The exact JSON document that gets hashed (useful for debugging
    why two keys differ: diff the payloads).

    ``engine_version`` defaults to the *current* :data:`ENGINE_VERSION`
    at call time (not import time), so a runtime bump invalidates keys
    immediately.
    """
    return json.dumps(
        {
            "projection": _PROJECTION_VERSION,
            "engine": (
                engine_version if engine_version is not None else ENGINE_VERSION
            ),
            "job": canonical_fragment(description),
        },
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def canonical_key(description: Any, engine_version: Optional[str] = None) -> str:
    """SHA-256 content key of one job description.

    Deterministic across processes, Python versions and dataclass
    field order; sensitive to every projected field value, to class
    and field names, and to ``engine_version``.
    """
    return hashlib.sha256(
        canonical_payload(description, engine_version).encode("utf-8")
    ).hexdigest()
