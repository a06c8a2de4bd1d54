"""Spec JSON codec: round-trip fidelity, hash parity, decode errors."""

import json
import math

import pytest

from repro.api import (
    CircuitSpec,
    Corners,
    DCOp,
    DCSweep,
    MonteCarlo,
    SpecDecodeError,
    Transient,
    canonical_json,
    spec_from_dict,
    spec_hash,
    spec_to_dict,
)
from repro.api.codec import SPEC_KINDS, spec_roundtrip_hash_equal
from repro.spice.montecarlo import Gaussian, Lognormal, Uniform

CHAIN_FACTORY = "repro.circuits.series_chain:build_series_chain"
CHAIN = CircuitSpec(CHAIN_FACTORY, params={"num_switches": 3})


def wire_roundtrip(spec):
    """Encode -> JSON text -> decode, as the service actually does it."""
    return spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))), resolve=False)


ALL_KIND_SPECS = [
    DCOp(circuit=CHAIN),
    DCOp(circuit=CHAIN, gmin=1e-10, newton="reuse", solver="sparse"),
    DCSweep(circuit=CHAIN, source="v_drive", values=(0.0, 0.3, 0.6, 1.2)),
    Transient(circuit=CHAIN, stop_time_s=5e-9, timestep_s=1e-10),
    Transient(
        circuit=CHAIN,
        stop_time_s=5e-9,
        adaptive=True,
        lte_tolerance_v=1e-3,
        min_timestep_s=1e-12,
        max_timestep_s=1e-9,
        integration="trap",
    ),
    MonteCarlo(
        circuit=CHAIN,
        perturbations={
            "mos_vth": Gaussian(sigma=0.03),
            "mos_beta": Gaussian(sigma=0.05, relative=True, correlated=True),
            "resistor_ohm": Uniform(halfwidth=0.1, relative=True),
            "cap_c": Lognormal(sigma_ln=0.2),
        },
        trials=8,
        seed=7,
        mode="per-trial",
    ),
    MonteCarlo(
        base=Transient(circuit=CHAIN, stop_time_s=5e-9, timestep_s=1e-10),
        perturbations={"mos_vth": Gaussian(sigma=0.02)},
        trials=4,
        metric_node="n_0",
        metrics=("repro.analysis.waveform_metrics:edge_and_level_metrics",),
    ),
    Corners(base=DCOp(circuit=CHAIN), corners=("TT", "FF", "SS")),
    Corners(
        base=DCSweep(circuit=CHAIN, source="v_drive", values=(0.0, 1.2)),
        beta_spread=0.2,
        vth_shift_v=0.03,
    ),
]


class TestRoundTrip:
    @pytest.mark.parametrize(
        "spec", ALL_KIND_SPECS, ids=lambda spec: type(spec).__name__
    )
    def test_decoded_spec_equals_original(self, spec):
        assert wire_roundtrip(spec) == spec

    @pytest.mark.parametrize(
        "spec", ALL_KIND_SPECS, ids=lambda spec: type(spec).__name__
    )
    def test_hash_parity_pinned_against_canonical(self, spec):
        decoded = wire_roundtrip(spec)
        # The pin is on the canonical form itself, not just the digest:
        # the decoded spec must canonicalize byte-for-byte like the
        # Python-constructed one, so stores dedupe across the wire.
        assert canonical_json(decoded) == canonical_json(spec)
        assert spec_hash(decoded) == spec_hash(spec)
        assert spec_roundtrip_hash_equal(spec)

    def test_circuit_spec_roundtrip(self):
        wire = json.loads(json.dumps(spec_to_dict(CHAIN)))
        assert wire == {"factory": CHAIN_FACTORY, "params": {"num_switches": 3}}

    def test_awkward_floats_roundtrip_bitwise(self):
        values = (0.1, 1e-300, math.pi, 5e-324, -0.0, float("inf"), float("nan"))
        spec = DCSweep(
            circuit=CircuitSpec(CHAIN_FACTORY, params={"drive_v": 0.1 + 0.2}),
            source="v_drive",
            values=values[:5],  # sweep values must be finite for the engine
        )
        decoded = wire_roundtrip(spec)
        assert canonical_json(decoded) == canonical_json(spec)

    def test_list_and_tuple_params_hash_identically(self):
        by_tuple = CircuitSpec(CHAIN_FACTORY, params={"taps": (1, 2, 3)})
        decoded = spec_from_dict(
            json.loads(
                json.dumps(
                    spec_to_dict(DCOp(circuit=by_tuple))
                )
            ),
            resolve=False,
        )
        by_list = CircuitSpec(CHAIN_FACTORY, params={"taps": [1, 2, 3]})
        assert spec_hash(decoded) == spec_hash(DCOp(circuit=by_tuple))
        assert spec_hash(decoded) == spec_hash(DCOp(circuit=by_list))

    def test_defaults_may_be_omitted(self):
        decoded = spec_from_dict(
            {"kind": "dcop", "circuit": {"factory": CHAIN_FACTORY}},
            resolve=False,
        )
        assert decoded == DCOp(circuit=CircuitSpec(CHAIN_FACTORY))

    def test_null_solver_hashes_like_default_auto(self):
        # canonical() maps solver="auto" onto None, so a JSON null solver
        # is the same computation as the spec default.
        decoded = spec_from_dict(
            {"kind": "dcop", "circuit": {"factory": CHAIN_FACTORY}, "solver": None},
            resolve=False,
        )
        assert spec_hash(decoded) == spec_hash(DCOp(circuit=CircuitSpec(CHAIN_FACTORY)))


class TestDecodeErrors:
    def test_unknown_kind_lists_known_kinds(self):
        with pytest.raises(SpecDecodeError) as excinfo:
            spec_from_dict({"kind": "acsweep"})
        message = str(excinfo.value)
        assert "acsweep" in message
        for kind in SPEC_KINDS:
            assert kind in message

    def test_missing_kind(self):
        with pytest.raises(SpecDecodeError, match="kind"):
            spec_from_dict({"circuit": {"factory": CHAIN_FACTORY}})

    def test_non_object_payload(self):
        with pytest.raises(SpecDecodeError, match="JSON object"):
            spec_from_dict([1, 2, 3])

    def test_unknown_field_names_field_and_valid_set(self):
        for kind, field, value, valid in [
            ("dcop", "tollerance_v", 1e-6, "tolerance_v"),
            # the removed thread-pool knob: only its null default is dropped
            ("montecarlo", "threads", 2, "perturbations"),
        ]:
            with pytest.raises(SpecDecodeError) as excinfo:
                spec_from_dict(
                    {"kind": kind, "circuit": {"factory": CHAIN_FACTORY}, field: value},
                    resolve=False,
                )
            message = str(excinfo.value)
            assert field in message and valid in message

    def test_older_montecarlo_payload_with_null_threads_decodes(self):
        # Verbatim spec_to_dict output from before the thread-pool knob was
        # removed: every field is written, so "threads": null rides along.
        # It is the old default and never entered the hash, so the payload
        # decodes to the same content hash it was stored under.
        payload = json.loads(
            '{"kind": "montecarlo", "circuit": {"factory": '
            '"repro.circuits.series_chain:build_series_chain", "params": '
            '{"num_switches": 3}}, "base": null, "perturbations": {"mos_vth": '
            '{"dist": "Gaussian", "sigma": 0.01, "relative": false, '
            '"correlated": false}}, "trials": 4, "seed": 3, "mode": "batched", '
            '"metrics": [], "metric_node": "", "max_iterations": 300, '
            '"tolerance_v": 1e-07, "gmin": 1e-09, "damping_v": 0.6, '
            '"time_s": 0.0, "solver": "auto", "newton": null, "threads": null}'
        )
        assert spec_hash(spec_from_dict(payload, resolve=False)) == (
            "b1b6e93ca69c7cda97ae0fe54671d014a6db83c8c6eb632c1109f20577e91a93"
        )

    def test_unknown_circuit_field(self):
        with pytest.raises(SpecDecodeError, match=r"\$\.circuit"):
            spec_from_dict(
                {
                    "kind": "dcop",
                    "circuit": {"factory": CHAIN_FACTORY, "fabric": {}},
                },
                resolve=False,
            )

    def test_unresolvable_factory_path(self):
        with pytest.raises(SpecDecodeError, match="does not resolve"):
            spec_from_dict(
                {
                    "kind": "dcop",
                    "circuit": {"factory": "repro.no_such_module:thing"},
                }
            )

    def test_factory_missing_attribute(self):
        with pytest.raises(SpecDecodeError, match="does not resolve"):
            spec_from_dict(
                {
                    "kind": "dcop",
                    "circuit": {"factory": "repro.circuits.series_chain:nope"},
                }
            )

    def test_factory_outside_allowlist_is_rejected_before_import(self):
        with pytest.raises(SpecDecodeError, match="allowed namespaces"):
            spec_from_dict(
                {
                    "kind": "dcop",
                    # Would import fine — but the prefix check must run first.
                    "circuit": {"factory": "os.path:join"},
                },
                allowed_factory_prefixes=("repro.",),
            )

    def test_error_paths_point_into_nesting(self):
        with pytest.raises(SpecDecodeError, match=r"\$\.base\.circuit\.factory"):
            spec_from_dict(
                {
                    "kind": "corners",
                    "base": {"kind": "dcop", "circuit": {"factory": 17}},
                },
                resolve=False,
            )

    def test_unknown_distribution(self):
        with pytest.raises(SpecDecodeError, match="Cauchy"):
            spec_from_dict(
                {
                    "kind": "montecarlo",
                    "circuit": {"factory": CHAIN_FACTORY},
                    "perturbations": {"mos_vth": {"dist": "Cauchy", "sigma": 1.0}},
                },
                resolve=False,
            )

    def test_unknown_distribution_field(self):
        with pytest.raises(SpecDecodeError, match="sigm"):
            spec_from_dict(
                {
                    "kind": "montecarlo",
                    "circuit": {"factory": CHAIN_FACTORY},
                    "perturbations": {"mos_vth": {"dist": "Gaussian", "sigm": 1.0}},
                },
                resolve=False,
            )

    def test_spec_validation_errors_become_decode_errors(self):
        # MonteCarlo.__post_init__ rejects zero perturbations; the codec
        # must surface that as a SpecDecodeError, not a bare ValueError.
        with pytest.raises(SpecDecodeError, match="perturbation"):
            spec_from_dict(
                {
                    "kind": "montecarlo",
                    "circuit": {"factory": CHAIN_FACTORY},
                    "perturbations": {},
                },
                resolve=False,
            )

    def test_encode_rejects_rich_objects_actionably(self):
        class Model:
            pass

        spec = CircuitSpec(CHAIN_FACTORY, params={"model": Model()})
        with pytest.raises(TypeError, match="circuit factory"):
            spec_to_dict(DCOp(circuit=spec))

    def test_encode_rejects_non_spec(self):
        with pytest.raises(TypeError, match="CircuitSpec"):
            spec_to_dict({"kind": "dcop"})

    def test_encode_rejects_non_finite_floats(self):
        # json.dumps would emit the non-standard NaN/Infinity tokens that
        # strict parsers reject; the codec refuses them up front.
        spec = DCOp(
            circuit=CircuitSpec(CHAIN_FACTORY, params={"knob": math.nan})
        )
        with pytest.raises(TypeError, match="non-finite"):
            spec_to_dict(spec)

    def test_decode_rejects_non_finite_floats(self):
        # Python's json.loads *accepts* NaN/Infinity tokens, so the decoder
        # must reject them itself — in circuit params, scalar spec fields
        # and distribution fields alike, with the JSON-path of the value.
        payload = spec_to_dict(DCOp(circuit=CHAIN))
        payload["circuit"]["params"]["bad"] = math.inf
        with pytest.raises(SpecDecodeError, match=r"non-finite") as excinfo:
            spec_from_dict(payload, resolve=False)
        assert "$.circuit.params.bad" in str(excinfo.value)

        payload = spec_to_dict(DCOp(circuit=CHAIN))
        payload["gmin"] = math.nan
        with pytest.raises(SpecDecodeError, match=r"\$\.gmin.*non-finite"):
            spec_from_dict(payload, resolve=False)

        payload = spec_to_dict(
            MonteCarlo(
                circuit=CHAIN,
                perturbations={"mos_vth": Gaussian(sigma=0.03)},
                trials=4,
            )
        )
        payload["perturbations"]["mos_vth"]["sigma"] = math.inf
        with pytest.raises(SpecDecodeError, match="non-finite"):
            spec_from_dict(payload, resolve=False)
