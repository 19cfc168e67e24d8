"""Tests for :mod:`repro.workloads.spec`: validation, round-trips,
binding and the instantiated traffic machinery."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.usecase.levels import level_by_name
from repro.workloads.spec import (
    BufferDecl,
    GopSpec,
    StageSpec,
    TrafficDecl,
    WorkloadParam,
    WorkloadSpec,
)

LEVEL = level_by_name("3.1")


def _spec(**overrides) -> WorkloadSpec:
    """A small but feature-complete spec: params, derived symbols,
    counted/conserved buffers, gated and fanned-out traffic."""
    fields = dict(
        name="toy_codec",
        title="Toy codec",
        description="test fixture",
        params=(
            WorkloadParam("factor", 2.0, doc="read amplification", minimum=0.0),
            WorkloadParam("intra_only", False, doc="I-frame variant"),
        ),
        derived=(
            ("frame_bits", "yuv420 * n"),
            ("ref_read", "factor * frame_bits"),
        ),
        buffers=(
            BufferDecl("src", "(frame_bits + 7) // 8", conserved=True),
            BufferDecl("ref", "(frame_bits + 7) // 8", count="n_ref"),
            BufferDecl("bs", "4096"),
        ),
        stages=(
            StageSpec(
                name="Capture",
                category="image",
                reads=(),
                writes=(TrafficDecl("src", "frame_bits"),),
            ),
            StageSpec(
                name="Encode",
                category="coding",
                reads=(
                    TrafficDecl("src", "frame_bits"),
                    TrafficDecl(
                        "ref", "ref_read", when="not intra_only", each=True
                    ),
                ),
                writes=(TrafficDecl("bs", "frame_bits / 50"),),
            ),
        ),
        gop=GopSpec(length=8, intra_param="intra_only"),
        metrics=(("amplification", "factor"),),
    )
    fields.update(overrides)
    return WorkloadSpec(**fields)


class TestValidation:
    def test_fixture_is_valid(self):
        _spec()

    def test_empty_stages_rejected(self):
        with pytest.raises(ConfigurationError, match="stages"):
            _spec(stages=())

    def test_empty_buffers_rejected(self):
        with pytest.raises(ConfigurationError, match="buffers"):
            _spec(buffers=())

    def test_param_shadowing_intrinsic_rejected(self):
        with pytest.raises(ConfigurationError, match="shadows"):
            _spec(params=(WorkloadParam("n", 1.0),))

    def test_derived_shadowing_param_rejected(self):
        with pytest.raises(ConfigurationError, match="shadows"):
            _spec(derived=(("factor", "2"),))

    def test_unknown_buffer_in_stage_rejected(self):
        stage = StageSpec(
            name="Bad",
            category="image",
            reads=(TrafficDecl("nope", "1"),),
            writes=(),
        )
        with pytest.raises(ConfigurationError, match="nope"):
            _spec(stages=(stage,))

    def test_each_requires_counted_buffer(self):
        stage = StageSpec(
            name="Bad",
            category="image",
            reads=(TrafficDecl("src", "1", each=True),),
            writes=(),
        )
        with pytest.raises(ConfigurationError, match="counted"):
            _spec(stages=(stage,))

    def test_undeclared_intra_param_rejected(self):
        with pytest.raises(ConfigurationError, match="intra_param"):
            _spec(gop=GopSpec(length=8, intra_param="missing"))

    def test_duplicate_buffers_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            _spec(
                buffers=(
                    BufferDecl("src", "16"),
                    BufferDecl("src", "32"),
                )
            )

    def test_param_bounds_enforced(self):
        spec = _spec()
        with pytest.raises(ConfigurationError, match="factor"):
            spec.resolve_params({"factor": -1.0})

    def test_unknown_param_listed(self):
        spec = _spec()
        with pytest.raises(ConfigurationError, match="typo"):
            spec.resolve_params({"typo": 1})


class TestRoundTrip:
    def test_to_from_dict_is_lossless(self):
        spec = _spec()
        clone = WorkloadSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.structure_digest() == spec.structure_digest()

    def test_zoo_specs_round_trip(self):
        from repro.workloads.registry import _BUILTIN, get_workload

        for name in _BUILTIN:
            spec = get_workload(name)
            clone = WorkloadSpec.from_dict(spec.to_dict())
            assert clone == spec, name
            # Traffic produced by the clone is bit-identical too.
            ours = spec.instantiate(LEVEL)
            theirs = clone.instantiate(LEVEL)
            assert [
                (s.name, s.reads, s.writes) for s in ours.stages()
            ] == [(s.name, s.reads, s.writes) for s in theirs.stages()]

    def test_dict_is_json_serialisable(self):
        import json

        payload = json.loads(json.dumps(_spec().to_dict()))
        assert WorkloadSpec.from_dict(payload) == _spec()

    def test_wrong_schema_tag_rejected(self):
        payload = _spec().to_dict()
        payload["schema"] = "repro-workload/99"
        with pytest.raises(ConfigurationError, match="schema"):
            WorkloadSpec.from_dict(payload)

    def test_missing_field_rejected(self):
        payload = _spec().to_dict()
        del payload["name"]
        with pytest.raises(ConfigurationError):
            WorkloadSpec.from_dict(payload)


class TestStructureDigest:
    def test_docs_do_not_participate(self):
        a = _spec()
        b = _spec(description="completely different prose")
        assert a.structure_digest() == b.structure_digest()

    def test_traffic_changes_participate(self):
        a = _spec()
        b = _spec(derived=(("frame_bits", "yuv420 * n * 2"), a.derived[1]))
        assert a.structure_digest() != b.structure_digest()

    def test_stored_digest_matches_a_fresh_equal_spec(self):
        spec = _spec()
        first = spec.structure_digest()
        assert spec.structure_digest() is first
        assert _spec().structure_digest() == first
        assert spec._compute_structure_digest() == first

    def test_stored_digest_survives_pickling(self):
        import pickle

        spec = _spec()
        digest = spec.structure_digest()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone.__dict__.get("_structure_digest") == digest
        assert clone.structure_digest() == digest

    def test_stored_digest_is_invisible(self):
        from repro.keys import canonical_fragment

        spec, plain = _spec(), _spec()
        spec.structure_digest()
        assert "_structure_digest" in spec.__dict__
        assert "_structure_digest" not in plain.__dict__
        assert spec == plain
        assert hash(spec) == hash(plain)
        assert repr(spec) == repr(plain)
        assert spec.to_dict() == plain.to_dict()
        assert canonical_fragment(spec) == canonical_fragment(plain)
        assert "_structure_digest" not in repr(canonical_fragment(spec))


class TestBinding:
    def test_bind_resolves_defaults(self):
        bound = _spec().bind()
        assert bound.param_dict() == {"factor": 2.0, "intra_only": False}

    def test_with_params_layers(self):
        bound = _spec().bind(factor=3.0)
        assert bound.with_params(intra_only=True).param_dict() == {
            "factor": 3.0,
            "intra_only": True,
        }

    def test_intra_variant(self):
        bound = _spec().bind()
        assert bound.intra_variant(True).param_dict()["intra_only"] is True
        assert bound.intra_variant(False).param_dict()["intra_only"] is False

    def test_identity_carries_name_params_structure(self):
        bound = _spec().bind(factor=4.0)
        identity = bound.identity()
        assert identity["workload"] == "toy_codec"
        assert identity["params"]["factor"] == 4.0
        assert identity["structure"] == _spec().structure_digest()

    def test_bound_workload_is_picklable(self):
        import pickle

        bound = _spec().bind(factor=4.0)
        clone = pickle.loads(pickle.dumps(bound))
        assert clone == bound
        assert clone.identity() == bound.identity()


class TestInstance:
    def test_counted_buffer_expands(self):
        instance = _spec().instantiate(LEVEL)
        names = [b.name for b in instance.buffers()]
        assert "src" in names and "bs" in names
        refs = [n for n in names if n.startswith("ref_")]
        assert len(refs) == LEVEL.reference_frames

    def test_each_fans_out_over_instances(self):
        instance = _spec().instantiate(LEVEL)
        encode = [s for s in instance.stages() if s.name == "Encode"][0]
        ref_reads = [(b, bits) for b, bits in encode.reads if b.startswith("ref_")]
        assert len(ref_reads) == LEVEL.reference_frames
        per_ref = instance.value("ref_read")
        assert all(bits == per_ref for _, bits in ref_reads)

    def test_when_gate_drops_traffic(self):
        instance = _spec().instantiate(LEVEL, intra_only=True)
        encode = [s for s in instance.stages() if s.name == "Encode"][0]
        assert not any(b.startswith("ref_") for b, _ in encode.reads)

    def test_totals_split_by_category(self):
        instance = _spec().instantiate(LEVEL)
        capture = instance.stages()[0]
        encode = instance.stages()[1]
        assert instance.image_processing_bits_per_frame() == capture.total_bits
        assert instance.video_coding_bits_per_frame() == encode.total_bits
        assert instance.total_bits_per_frame() == (
            capture.total_bits + encode.total_bits
        )

    def test_metrics_evaluate(self):
        instance = _spec().instantiate(LEVEL, factor=5.0)
        assert instance.metric("amplification") == 5.0
        assert instance.metrics() == {"amplification": 5.0}
        with pytest.raises(ConfigurationError, match="amplification"):
            instance.metric("nope")

    def test_oracles_pass_on_fixture(self):
        assert _spec().instantiate(LEVEL).check_traffic_oracles() == []

    def test_conserved_violation_detected(self):
        # 'src' is declared conserved but only ever written: the
        # oracle must flag the read/write asymmetry.
        spec = _spec(
            stages=(
                StageSpec(
                    name="Capture",
                    category="image",
                    reads=(),
                    writes=(TrafficDecl("src", "frame_bits"),),
                ),
            )
        )
        problems = spec.instantiate(LEVEL).check_traffic_oracles()
        assert problems and "src" in problems[0]

    def test_negative_traffic_rejected(self):
        spec = _spec(
            stages=(
                StageSpec(
                    name="Capture",
                    category="image",
                    reads=(),
                    writes=(TrafficDecl("src", "0 - frame_bits"),),
                ),
            )
        )
        with pytest.raises(ConfigurationError, match="negative"):
            spec.instantiate(LEVEL)

    def test_load_model_accepts_instance(self):
        """The duck-typed load-model contract: an instantiated spec
        drives transaction generation directly."""
        from repro.load.model import VideoRecordingLoadModel

        instance = _spec().instantiate(LEVEL)
        model = VideoRecordingLoadModel(instance, block_bytes=1024)
        transactions = model.generate_frame(scale=0.001)
        assert transactions
