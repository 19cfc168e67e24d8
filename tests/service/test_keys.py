"""Tests for the canonical job-key module (:mod:`repro.keys`)."""

import dataclasses
import enum
import json
import subprocess
import sys
from dataclasses import dataclass

import pytest

from repro.analysis.sweep import (
    _job_description,
    job_keys,
    point_description,
    point_key,
    simulate_use_case,
)
from repro.controller.interconnect import InterconnectModel
from repro.controller.mapping import AddressMultiplexing
from repro.controller.pagepolicy import PagePolicy
from repro.controller.queue import CommandQueueModel
from repro.core.config import SystemConfig
from repro.dram.datasheet import CONTEMPORARY_MOBILE_DDR
from repro.dram.powerstate import NoPowerDown
from repro.errors import ReproError
from repro.keys import (
    ENGINE_VERSION,
    canonical_fragment,
    canonical_key,
    canonical_payload,
)
from repro.usecase.levels import level_by_name


@dataclass(frozen=True)
class _Sample:
    name: str
    value: int


class _Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


class TestCanonicalFragment:
    def test_scalars_pass_through(self):
        assert canonical_fragment(None) is None
        assert canonical_fragment(True) is True
        assert canonical_fragment(7) == 7
        assert canonical_fragment("x") == "x"
        assert canonical_fragment(2.5) == 2.5

    def test_nonfinite_float_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                canonical_fragment(bad)

    def test_enum_projects_to_qualified_name(self):
        assert canonical_fragment(_Color.RED) == {
            "__enum__": "_Color",
            "name": "RED",
        }

    def test_dataclass_projects_fields_and_class(self):
        fragment = canonical_fragment(_Sample(name="a", value=3))
        assert fragment == {"name": "a", "value": 3, "__class__": "_Sample"}

    def test_set_is_order_free(self):
        assert canonical_fragment({3, 1, 2}) == [1, 2, 3]

    def test_non_string_dict_keys_rejected(self):
        with pytest.raises(ValueError):
            canonical_fragment({1: "x"})

    def test_fallback_is_tagged_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        fragment = canonical_fragment(Opaque())
        assert fragment == {"__repr__": "<opaque>", "__class__": "Opaque"}


class TestCanonicalKey:
    def test_deterministic_within_process(self):
        description = {"kind": "x", "config": SystemConfig(channels=2)}
        assert canonical_key(description) == canonical_key(description)

    def test_payload_is_sorted_json_with_engine_version(self):
        payload = json.loads(canonical_payload({"a": 1}))
        assert payload["engine"] == ENGINE_VERSION
        assert payload["job"] == {"a": 1}

    def test_engine_version_changes_key(self):
        description = {"kind": "x"}
        assert canonical_key(description) != canonical_key(
            description, engine_version=ENGINE_VERSION + ".different"
        )

    def test_field_change_changes_key(self):
        base = SystemConfig(channels=2, freq_mhz=400.0)
        assert canonical_key(base) != canonical_key(base.with_frequency(200.0))
        assert canonical_key(base) != canonical_key(base.with_channels(4))

    def test_backend_change_changes_key(self):
        base = SystemConfig(channels=2, backend="reference")
        assert canonical_key(base) != canonical_key(base.with_backend("batch"))

    def test_stable_across_processes(self):
        """The key must be a pure content function -- no hash salting,
        no repr drift -- so a second process computes the same digest."""
        description = {
            "kind": "sweep-point",
            "config": SystemConfig(channels=4, freq_mhz=333.0, backend="reference"),
            "level": level_by_name("3.1"),
        }
        script = (
            "from repro.keys import canonical_key\n"
            "from repro.core.config import SystemConfig\n"
            "from repro.usecase.levels import level_by_name\n"
            "print(canonical_key({'kind': 'sweep-point',"
            " 'config': SystemConfig(channels=4, freq_mhz=333.0,"
            " backend='reference'),"
            " 'level': level_by_name('3.1')}))\n"
        )
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert remote == canonical_key(description)


class TestJobKeys:
    def _job(self, index, config, scale=0.125, workload=None):
        from repro.workloads.registry import resolve_workload

        return (
            index,
            level_by_name("3.1"),
            config,
            scale,
            60_000,
            64,
            resolve_workload(workload),
        )

    def test_grid_index_excluded(self):
        """The same configuration must share stored work no matter
        where it sits in which grid."""
        config = SystemConfig(channels=2)
        keys = job_keys([self._job(0, config), self._job(17, config)])
        assert keys[0] == keys[1]

    def test_distinct_configs_distinct_keys(self):
        keys = job_keys(
            [
                self._job(0, SystemConfig(channels=2)),
                self._job(1, SystemConfig(channels=4)),
            ]
        )
        assert keys[0] != keys[1]

    def test_scale_participates(self):
        config = SystemConfig(channels=2)
        a = job_keys([self._job(0, config, scale=0.125)])[0]
        b = job_keys([self._job(0, config, scale=0.25)])[0]
        assert a != b

    def test_description_surfaces_backend(self):
        description = _job_description(
            self._job(0, SystemConfig(channels=2, backend="batch"))
        )
        assert description["backend"] == "batch"
        assert "index" not in description

    def test_point_key_is_canonical_key(self):
        level = level_by_name("4")
        config = SystemConfig(channels=2, backend="batch")
        assert point_key(level, config, chunk_budget=20_000) == canonical_key(
            point_description(level, config, chunk_budget=20_000)
        )

    def test_paper_point_key_is_pinned(self):
        # The store's entries are named by this key: a change here
        # cools every existing result cache.
        config = SystemConfig(channels=4, freq_mhz=400.0, backend="batch")
        assert point_key(level_by_name("4"), config, chunk_budget=20_000) == (
            "122857ff2af4a7276b2b46ecd9cf96c57deff81eea9dd3422841d08c6f1ee49c"
        )

    def test_workloads_never_alias(self):
        """The same grid point under two different workloads must map
        to two different canonical keys: a cached vvc_encoder result
        served to a camcorder sweep would silently corrupt artifacts."""
        config = SystemConfig(channels=2)
        keys = {
            name: job_keys([self._job(0, config, workload=name)])[0]
            for name in (
                "h264_camcorder",
                "vvc_encoder",
                "h264_lossy_ec",
                "vdcm_display",
            )
        }
        assert len(set(keys.values())) == len(keys)

    def test_default_workload_matches_explicit_camcorder(self):
        """Legacy callers (no workload) and explicit camcorder callers
        must share stored work -- the default routes through the same
        spec."""
        config = SystemConfig(channels=2)
        implicit = job_keys([self._job(0, config)])[0]
        explicit = job_keys([self._job(0, config, workload="h264_camcorder")])[0]
        assert implicit == explicit

    def test_workload_params_participate(self):
        """Changing a spec parameter changes the key (the parameters
        are part of the bound identity)."""
        from repro.workloads.registry import resolve_workload

        config = SystemConfig(channels=2)
        base = resolve_workload("vvc_encoder")
        tweaked = base.with_params(encoder_factor=13.0)
        a = job_keys([self._job(0, config, workload=base)])[0]
        b = job_keys([self._job(0, config, workload=tweaked)])[0]
        assert a != b

    def test_workload_structure_participates(self):
        """Re-registering a name with different spec structure changes
        the key via the structure digest -- a name is not enough."""
        import dataclasses

        from repro.workloads.registry import (
            get_workload,
            register_workload,
            resolve_workload,
            unregister_workload,
        )

        config = SystemConfig(channels=2)
        original = resolve_workload("vdcm_display")
        spec = get_workload("vdcm_display")
        mutated = dataclasses.replace(spec, stages=spec.stages[:-1])
        register_workload(mutated, replace=True)
        try:
            shadowed = resolve_workload("vdcm_display")
            a = job_keys([self._job(0, config, workload=original)])[0]
            b = job_keys([self._job(0, config, workload=shadowed)])[0]
            assert a != b
        finally:
            unregister_workload("vdcm_display")


#: For every keyed ``SystemConfig`` field that can change a result: a
#: value that changes the outcome of the witness point (level 3.1, one
#: reference channel at 400 MHz).
_WITNESSES = {
    "channels": 2,
    "freq_mhz": 200.0,
    # Rated to 200 MHz: the outcome is the error raised at 400 MHz.
    "device": CONTEMPORARY_MOBILE_DDR,
    "multiplexing": AddressMultiplexing.BRC,
    "page_policy": PagePolicy.CLOSED,
    "power_down": NoPowerDown(),
    "interconnect": InterconnectModel(address_cycles_per_access=0.0),
    "queue": CommandQueueModel(depth=1),
    "backend": "analytic",
}

#: Fields that stay in the point key although no value of theirs
#: changes a point's outcome, each with a value that must still move
#: the key and the reason it is kept.
_KEYED_WITHOUT_EFFECT = {
    # Audits the run it rides on and leaves the result alone, but an
    # invariant-checked run must never be answered by an unchecked
    # cache entry.
    "check_invariants": True,
}

_WITNESS_LEVEL = level_by_name("3.1")


def _outcome(make_config):
    """A point's result, or the error raised on the way to it."""
    try:
        point = simulate_use_case(
            _WITNESS_LEVEL, make_config(), chunk_budget=2000
        )
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return (point.result, point.power, point.verdict)


class TestSystemConfigKeyContract:
    """Every ``SystemConfig`` field lands in every point key, so a
    field that cannot change a result makes a warm cache miss for
    nothing.  Each field either changes some outcome or is kept in the
    key on purpose; a new field without that decision fails here."""

    def test_every_field_is_decided(self):
        names = {field.name for field in dataclasses.fields(SystemConfig)}
        assert not set(_WITNESSES) & set(_KEYED_WITHOUT_EFFECT)
        assert names == set(_WITNESSES) | set(_KEYED_WITHOUT_EFFECT)

    @pytest.mark.parametrize("name", sorted(_WITNESSES))
    def test_field_changes_an_outcome(self, name):
        base = SystemConfig(backend="reference")
        changed = _outcome(
            lambda: dataclasses.replace(base, **{name: _WITNESSES[name]})
        )
        assert changed != _outcome(lambda: base)

    @pytest.mark.parametrize("name", sorted(_KEYED_WITHOUT_EFFECT))
    def test_exempt_field_stays_keyed(self, name):
        base = SystemConfig(backend="reference")
        changed = dataclasses.replace(
            base, **{name: _KEYED_WITHOUT_EFFECT[name]}
        )
        assert point_key(_WITNESS_LEVEL, changed) != point_key(
            _WITNESS_LEVEL, base
        )

    def test_integer_clock_shares_the_float_key(self):
        as_int = SystemConfig(freq_mhz=400, backend="reference")
        as_float = SystemConfig(freq_mhz=400.0, backend="reference")
        assert type(as_int.freq_mhz) is float
        assert point_key(_WITNESS_LEVEL, as_int) == point_key(
            _WITNESS_LEVEL, as_float
        )

    def test_float_clock_key_is_unchanged(self):
        # Normalising the clock to float must not move the keys a
        # store filled by the paper grid's float clocks holds.
        config = SystemConfig(freq_mhz=400.0, backend="reference")
        assert point_key(_WITNESS_LEVEL, config) == (
            "d0cd5e05cac2fa4343b2ca0907ecb443b6cafce634c97c85a647ab06372542ad"
        )
