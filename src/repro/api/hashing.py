"""Canonical content hashing of declarative specs.

A spec's hash is the SHA-256 of its *canonical form*: a JSON document built
recursively from the spec's dataclass fields with deterministic encodings
for every supported leaf type.  Two specs that describe the same
computation hash identically regardless of how they were spelled:

* keyword-argument order cannot matter (dataclass fields have a fixed
  order and the canonical form sorts every mapping);
* a default left implicit and the same value passed explicitly produce the
  same field value, hence the same hash;
* sweep values given as a list, tuple or NumPy array normalize to the same
  canonical sequence (the specs coerce them in ``__post_init__``);
* floats are encoded with :meth:`float.hex`, so the hash covers the exact
  bit pattern rather than a rounded decimal rendering.

Callables (circuit factories) are encoded by their import path
(``module:qualname``), which is also how the spec layer resolves them — a
lambda or a nested function is rejected because it can neither be hashed
stably nor rebuilt in a worker process.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

import numpy as np


def callable_path(obj: Any) -> str:
    """The stable ``module:qualname`` import path of a module-level callable."""
    module = getattr(obj, "__module__", None)
    qualname = getattr(obj, "__qualname__", None)
    if not module or not qualname or "<" in qualname:
        raise TypeError(
            f"cannot derive a stable import path for {obj!r}; circuit factories "
            "must be module-level callables (or dotted 'module:function' strings)"
        )
    return f"{module}:{qualname}"


def canonical(value: Any) -> Any:
    """The JSON-safe canonical form of a spec field value."""
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        return {"__float__": value.hex()}
    if isinstance(value, np.floating):
        return {"__float__": float(value).hex()}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return {"__array__": [canonical(item) for item in value.tolist()]}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = {}
        for field in dataclasses.fields(value):
            item = getattr(value, field.name)
            # solver=None and "auto" are one policy (get_solver(None) is an
            # AutoSolver), so they share a hash; "auto" canonicalizes to None
            # so a default-constructed spec hashes the same as specs from
            # before "auto" became the spec default.
            if field.name == "solver" and item == "auto":
                item = None
            # Same policy for the factorization-reuse knob: newton=None and
            # the explicit full-Newton spelling are the same computation.
            # The default is skipped entirely (the key is omitted) so specs
            # from before the field existed hash unchanged; newton="reuse"
            # does enter the hash.
            if field.name == "newton" and item in (None, "full"):
                continue
            fields[field.name] = canonical(item)
        return {"__dataclass__": type(value).__qualname__, "fields": fields}
    if isinstance(value, Mapping):
        items = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(
                    f"spec mappings must have string keys, got {key!r}"
                )
            items[key] = canonical(item)
        return {"__mapping__": dict(sorted(items.items()))}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if callable(value):
        return {"__callable__": callable_path(value)}
    # Non-dataclass domain objects that know how to describe themselves
    # (e.g. repro.core.lattice.Lattice exposes to_strings()).
    to_strings = getattr(value, "to_strings", None)
    if callable(to_strings):
        return {"__object__": type(value).__qualname__, "form": list(to_strings())}
    raise TypeError(
        f"cannot canonicalize {type(value).__qualname__!r} for content hashing; "
        "spec parameters must be primitives, sequences, mappings, dataclasses, "
        "NumPy arrays or module-level callables"
    )


def canonical_json(value: Any) -> str:
    """Canonical form rendered as deterministic JSON."""
    return json.dumps(canonical(value), sort_keys=True, separators=(",", ":"))


def content_hash(value: Any) -> str:
    """SHA-256 hex digest of the canonical form of ``value``."""
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


def spec_hash(spec: Any) -> str:
    """The content hash identifying a spec (alias of :func:`content_hash`)."""
    return content_hash(spec)
