"""JSON codec for declarative specs: the wire format of the service layer.

:func:`spec_to_dict` renders any spec (:class:`~repro.api.specs.CircuitSpec`
or an analysis variant — :class:`~repro.api.specs.DCOp`,
:class:`~repro.api.specs.DCSweep`, :class:`~repro.api.specs.Transient`,
:class:`~repro.api.specs.MonteCarlo`, :class:`~repro.api.specs.Corners`) as
a plain JSON-safe dict; :func:`spec_from_dict` is its inverse.  The codec is
what lets a client who does not write Python submit a study: a spec travels
as JSON over HTTP (:mod:`repro.service`), is decoded on the server, and runs
through the ordinary :class:`~repro.api.session.Session` machinery.

The round trip is pinned against :func:`repro.api.hashing.canonical`: a
decoded spec hashes *identically* to the Python-constructed original, so the
content-hash cache dedupes across the wire — a million identical JSON
submissions cost one solve.  That works because

* JSON numbers round-trip IEEE doubles exactly in Python (``json`` renders
  floats with :func:`repr`, the shortest exact form, and parses them back
  bit-for-bit), and :func:`~repro.api.hashing.canonical` hashes the bit
  pattern via ``float.hex``;
* lists and tuples share one canonical form, so JSON arrays decoding to
  tuples cannot split the hash;
* the specs themselves normalize field spellings in ``__post_init__``
  (sorted params, coerced sweep values), so the decoder only has to deliver
  equal *values*, not equal spellings.

The codec speaks *strict* JSON: non-finite floats (NaN/Infinity) are
rejected on both sides — ``json`` would render them as non-standard tokens
that non-Python parsers refuse, and a NaN-valued spec can never hash
cache-equal to itself, so they have no place on the wire.

Decoding is strict: unknown spec kinds, unknown fields, malformed nesting
and unresolvable circuit-factory paths raise :class:`SpecDecodeError` with
the JSON-path of the offending value and what would have been accepted —
the service maps these straight onto actionable HTTP 400 responses rather
than a traceback.

Factory paths name arbitrary importable callables, which is an injection
surface when payloads cross a trust boundary.  ``allowed_factory_prefixes``
restricts decoding to an explicit namespace (the service front door defaults
it to ``("repro.",)``); the prefix check runs *before* any import is
attempted.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

from repro.api.specs import (
    AnalysisSpec,
    CircuitSpec,
    Corners,
    DCOp,
    DCSweep,
    MonteCarlo,
    Transient,
    resolve_factory,
)
from repro.spice.montecarlo import Distribution, Gaussian, Lognormal, Uniform

__all__ = ["SpecDecodeError", "spec_to_dict", "spec_from_dict", "SPEC_KINDS"]

#: The analysis spec variants the codec speaks, by their ``kind`` tag.
SPEC_KINDS: Dict[str, type] = {
    DCOp.kind: DCOp,
    DCSweep.kind: DCSweep,
    Transient.kind: Transient,
    MonteCarlo.kind: MonteCarlo,
    Corners.kind: Corners,
}

#: Distribution dataclasses by their wire tag (the class name).
_DISTRIBUTIONS: Dict[str, type] = {
    "Gaussian": Gaussian,
    "Uniform": Uniform,
    "Lognormal": Lognormal,
}

#: Fields deleted from a spec whose default older clients and journals
#: still send (:func:`spec_to_dict` writes defaults too).  A ``null`` value
#: is that default and never entered the hash, so it decodes as absent;
#: any other value is rejected as an unknown field.
_RETIRED_NULL_FIELDS: Dict[str, Tuple[str, ...]] = {
    MonteCarlo.kind: ("threads",),
}


class SpecDecodeError(ValueError):
    """A spec payload that cannot be decoded, with the JSON-path of why.

    ``path`` is the location inside the payload (``$`` is the root, e.g.
    ``$.base.circuit.factory``); the message always states what was found
    and what would have been accepted, so an HTTP client can fix the
    payload without reading server code.
    """

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")


# ---------------------------------------------------------------------- #
# encoding
# ---------------------------------------------------------------------- #


def _encode_value(value: Any, path: str) -> Any:
    """A JSON-safe rendering of one (possibly nested) spec field value."""
    if isinstance(value, float) and not math.isfinite(value):
        # json.dumps would emit the non-standard NaN/Infinity tokens,
        # which strict parsers reject — and NaN never hashes cache-equal
        # to itself, so a NaN-bearing spec could never dedupe anyway.
        raise TypeError(
            f"{path}: non-finite float {value!r} has no strict-JSON wire "
            "form; replace NaN/Infinity spec values with a finite sentinel"
        )
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # NumPy scalars sneak into params through array-derived knobs.
    item = getattr(value, "item", None)
    if callable(item) and getattr(value, "shape", None) == ():
        return _encode_value(value.item(), path)
    if isinstance(value, CircuitSpec):
        return _encode_circuit(value)
    if isinstance(value, AnalysisSpec):
        return spec_to_dict(value)
    if isinstance(value, Distribution):
        return _encode_distribution(value, path)
    if isinstance(value, Mapping):
        return {str(key): _encode_value(item, f"{path}.{key}") for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [
            _encode_value(item, f"{path}[{index}]") for index, item in enumerate(value)
        ]
    raise TypeError(
        f"{path}: {type(value).__qualname__!r} is not JSON-encodable; the spec "
        "codec carries primitives, lists, string-keyed mappings, nested specs "
        "and distributions.  Circuit parameters that are rich Python objects "
        "(e.g. switch models) cannot travel as JSON — move their construction "
        "into the circuit factory and pass its numeric knobs instead"
    )


def _encode_circuit(spec: CircuitSpec) -> Dict[str, Any]:
    if not isinstance(spec.factory, str):
        # CircuitSpec.__post_init__ normalizes callables to their import
        # path, so this only triggers on hand-built exotic instances.
        raise TypeError(
            "circuit factory must be an import path string to encode as JSON"
        )
    return {
        "factory": spec.factory,
        "params": {
            name: _encode_value(value, f"$.params.{name}")
            for name, value in spec.params
        },
    }


def _encode_distribution(dist: Distribution, path: str) -> Dict[str, Any]:
    name = type(dist).__name__
    if name not in _DISTRIBUTIONS or not dataclasses.is_dataclass(dist):
        raise TypeError(
            f"{path}: distribution {name!r} has no wire form; the codec "
            f"speaks {sorted(_DISTRIBUTIONS)}"
        )
    payload: Dict[str, Any] = {"dist": name}
    for field in dataclasses.fields(dist):
        payload[field.name] = _encode_value(
            getattr(dist, field.name), f"{path}.{field.name}"
        )
    return payload


def spec_to_dict(spec: Any) -> Dict[str, Any]:
    """Render a spec as a JSON-safe dict (inverse of :func:`spec_from_dict`).

    Analysis specs carry their ``kind`` tag plus every dataclass field
    (defaults included, so the payload is self-describing); a bare
    :class:`~repro.api.specs.CircuitSpec` renders as its
    ``{"factory": ..., "params": {...}}`` form.
    """
    if isinstance(spec, CircuitSpec):
        return _encode_circuit(spec)
    if isinstance(spec, AnalysisSpec) and dataclasses.is_dataclass(spec):
        payload: Dict[str, Any] = {"kind": spec.kind}
        for field in dataclasses.fields(spec):
            value = getattr(spec, field.name)
            if field.name == "perturbations":
                payload[field.name] = {
                    name: _encode_distribution(dist, f"$.perturbations.{name}")
                    for name, dist in value
                }
            else:
                payload[field.name] = _encode_value(value, f"$.{field.name}")
        return payload
    raise TypeError(
        f"cannot encode {type(spec).__qualname__!r}; expected a CircuitSpec "
        f"or one of the analysis specs ({sorted(SPEC_KINDS)})"
    )


# ---------------------------------------------------------------------- #
# decoding
# ---------------------------------------------------------------------- #


def _require_mapping(payload: Any, path: str, what: str) -> Mapping:
    if not isinstance(payload, Mapping):
        raise SpecDecodeError(
            f"{what} must be a JSON object, got {type(payload).__qualname__}",
            path,
        )
    return payload


def _decode_param(value: Any, path: str) -> Any:
    """Decode one circuit-factory parameter value.

    JSON arrays come back as tuples — the immutable spelling Python-side
    specs use — which canonicalizes identically to the original list or
    tuple, so the hash cannot split on the container type.
    """
    if isinstance(value, Mapping):
        return {
            str(key): _decode_param(item, f"{path}.{key}")
            for key, item in value.items()
        }
    if isinstance(value, list):
        return tuple(_decode_param(item, f"{path}[{i}]") for i, item in enumerate(value))
    if isinstance(value, float) and not math.isfinite(value):
        # Python's json.loads accepts the non-standard NaN/Infinity tokens;
        # mirror the encoder and refuse them — a NaN spec value can never
        # hash cache-equal, so it would silently defeat the dedupe layer.
        raise SpecDecodeError(
            f"non-finite float {value!r} is not valid strict JSON; "
            "NaN/Infinity spec values are rejected",
            path,
        )
    return value


def _decode_circuit(
    payload: Any,
    path: str,
    allowed_factory_prefixes: Optional[Sequence[str]],
    resolve: bool,
) -> CircuitSpec:
    payload = _require_mapping(payload, path, "a circuit spec")
    unknown = sorted(set(payload) - {"factory", "params"})
    if unknown:
        raise SpecDecodeError(
            f"unknown circuit fields {unknown}; a circuit spec has "
            "'factory' (an importable 'module:function' path) and 'params'",
            path,
        )
    factory = payload.get("factory")
    if not isinstance(factory, str) or not factory:
        raise SpecDecodeError(
            "circuit 'factory' must be a non-empty 'module:function' import "
            f"path string, got {factory!r}",
            f"{path}.factory",
        )
    if allowed_factory_prefixes is not None and not any(
        factory.startswith(prefix) for prefix in allowed_factory_prefixes
    ):
        raise SpecDecodeError(
            f"factory path {factory!r} is outside the allowed namespaces "
            f"{sorted(allowed_factory_prefixes)}",
            f"{path}.factory",
        )
    if resolve:
        # Validate the path actually names a callable now, so a typo fails
        # the submission instead of the job.  The prefix check above has
        # already run — nothing outside the allowlist gets imported.
        try:
            resolve_factory(factory)
        except (ImportError, ValueError, TypeError) as error:
            raise SpecDecodeError(
                f"factory path {factory!r} does not resolve: {error}",
                f"{path}.factory",
            ) from None
    params_payload = payload.get("params", {})
    params = _require_mapping(params_payload, f"{path}.params", "circuit 'params'")
    decoded = {
        str(name): _decode_param(value, f"{path}.params.{name}")
        for name, value in params.items()
    }
    try:
        return CircuitSpec(factory, params=tuple(sorted(decoded.items())))
    except (TypeError, ValueError) as error:
        raise SpecDecodeError(str(error), path) from None


def _decode_distribution(payload: Any, path: str) -> Distribution:
    payload = _require_mapping(payload, path, "a distribution")
    name = payload.get("dist")
    if name not in _DISTRIBUTIONS:
        raise SpecDecodeError(
            f"unknown distribution {name!r}; expected 'dist' naming one of "
            f"{sorted(_DISTRIBUTIONS)}",
            f"{path}.dist",
        )
    cls = _DISTRIBUTIONS[name]
    field_names = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - field_names - {"dist"})
    if unknown:
        raise SpecDecodeError(
            f"unknown {name} fields {unknown}; valid fields: "
            f"{sorted(field_names)}",
            path,
        )
    kwargs = {
        key: _decode_param(value, f"{path}.{key}")
        for key, value in payload.items()
        if key != "dist"
    }
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as error:
        raise SpecDecodeError(f"invalid {name}: {error}", path) from None


def spec_from_dict(
    payload: Any,
    allowed_factory_prefixes: Optional[Sequence[str]] = None,
    resolve: bool = True,
    _path: str = "$",
) -> AnalysisSpec:
    """Decode an analysis spec from its :func:`spec_to_dict` form.

    ``payload`` must be a JSON object with a ``kind`` tag naming one of
    :data:`SPEC_KINDS`; missing fields take the spec's defaults, unknown
    fields are rejected (a retired field sent as ``null``, its old default,
    decodes as absent).  The decoded spec hashes identically to the
    Python-constructed equivalent (pinned in the test-suite against
    :func:`repro.api.hashing.canonical`).

    ``allowed_factory_prefixes`` restricts circuit-factory import paths to
    the given namespaces (checked before any import); ``resolve=False``
    skips resolving factories entirely (pure structural decode).

    Raises :class:`SpecDecodeError` — never a bare ``KeyError``/
    ``TypeError`` — with the JSON-path of the problem.
    """
    payload = _require_mapping(payload, _path, "a spec")
    kind = payload.get("kind")
    if kind not in SPEC_KINDS:
        raise SpecDecodeError(
            f"unknown spec kind {kind!r}; expected 'kind' naming one of "
            f"{sorted(SPEC_KINDS)}",
            f"{_path}.kind",
        )
    cls = SPEC_KINDS[kind]
    retired = _RETIRED_NULL_FIELDS.get(kind, ())
    payload = {
        name: value
        for name, value in payload.items()
        if not (name in retired and value is None)
    }
    field_names = {field.name for field in dataclasses.fields(cls)}
    unknown = sorted(set(payload) - field_names - {"kind"})
    if unknown:
        raise SpecDecodeError(
            f"unknown {cls.__qualname__} fields {unknown}; valid fields: "
            f"{sorted(field_names)}",
            _path,
        )

    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        if name == "kind" or value is None and name in ("circuit", "base"):
            continue
        field_path = f"{_path}.{name}"
        if name == "circuit":
            kwargs[name] = _decode_circuit(
                value, field_path, allowed_factory_prefixes, resolve
            )
        elif name == "base":
            kwargs[name] = spec_from_dict(
                value,
                allowed_factory_prefixes=allowed_factory_prefixes,
                resolve=resolve,
                _path=field_path,
            )
        elif name == "perturbations":
            mapping = _require_mapping(value, field_path, "'perturbations'")
            kwargs[name] = {
                str(pname): _decode_distribution(dist, f"{field_path}.{pname}")
                for pname, dist in mapping.items()
            }
        elif isinstance(value, list):
            kwargs[name] = tuple(
                _decode_param(item, f"{field_path}[{i}]")
                for i, item in enumerate(value)
            )
        elif isinstance(value, Mapping):
            raise SpecDecodeError(
                f"field {name!r} does not take a JSON object", field_path
            )
        else:
            kwargs[name] = _decode_param(value, field_path)

    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as error:
        # The spec dataclasses validate in __post_init__ with messages
        # written for humans; keep them, add the location.
        raise SpecDecodeError(f"invalid {cls.__qualname__}: {error}", _path) from None


def spec_roundtrip_hash_equal(spec: AnalysisSpec) -> bool:
    """``True`` when a spec survives the JSON round trip hash-identically.

    A convenience for tests and debugging: encodes, serializes through the
    :mod:`json` module (so real wire behaviour is exercised, including float
    rendering), decodes, and compares content hashes.
    """
    import json

    from repro.api.hashing import spec_hash

    decoded = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))), resolve=False)
    return spec_hash(decoded) == spec_hash(spec)
