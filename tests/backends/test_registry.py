"""Backend registry: discovery, registration, defaults, error paths."""

import re

import pytest

from repro.backends import (
    ChannelBackend,
    available_backends,
    get_backend,
    register_backend,
    set_default_backend,
    unregister_backend,
)
from repro.backends.registry import default_backend_name, validate_backend_name
from repro.core.config import SystemConfig
from repro.core.system import MultiChannelMemorySystem
from repro.errors import ConfigurationError


class TestBuiltins:
    def test_builtins_listed(self):
        names = available_backends()
        for name in ("reference", "analytic", "batch"):
            assert name in names
        assert "fast" not in names

    def test_get_backend_caches(self):
        assert get_backend("reference") is get_backend("reference")

    def test_backend_metadata(self):
        ref = get_backend("reference")
        assert ref.name == "reference"
        assert ref.supports_command_log
        analytic = get_backend("analytic")
        assert analytic.name == "analytic"
        assert not analytic.supports_command_log
        batch = get_backend("batch")
        assert batch.name == "batch"
        assert batch.supports_command_log
        assert batch.reference_tolerance == 0.0
        assert batch.bit_identical

    def test_default_is_reference_out_of_the_box(self, pytestconfig):
        if pytestconfig.getoption("--backend"):
            pytest.skip("suite runs under an explicit --backend override")
        assert default_backend_name() == "reference"


class TestErrorPaths:
    def test_unknown_backend_raises_listing_registered(self):
        with pytest.raises(ConfigurationError) as excinfo:
            get_backend("warp-drive")
        message = str(excinfo.value)
        assert "warp-drive" in message
        for name in ("reference", "analytic", "batch"):
            assert name in message

    def test_validate_rejects_non_string(self):
        with pytest.raises(ConfigurationError):
            validate_backend_name(42)

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError) as excinfo:
            SystemConfig(backend="nope")
        assert "nope" in str(excinfo.value)
        assert "reference" in str(excinfo.value)

    def test_set_default_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            set_default_backend("nope")


def _analytic_command_log():
    config = SystemConfig(channels=1, backend="analytic")
    get_backend("analytic").create(config).run([(0, 0, 16)], command_log=[])


def _analytic_audit():
    MultiChannelMemorySystem(SystemConfig(channels=1, backend="analytic")).audit([[]])


@pytest.mark.parametrize(
    "trigger", [_analytic_command_log, _analytic_audit], ids=["run", "audit"]
)
def test_command_log_advice_names_capable_backends(trigger):
    """The errors a command-log request hits on a backend that cannot
    log recommend only registered backends that can."""
    with pytest.raises(ConfigurationError) as excinfo:
        trigger()
    advice = str(excinfo.value).rsplit(" the ", 1)[-1]
    suggested = re.findall(r"'([^']+)'", advice)
    assert suggested
    for name in suggested:
        assert name in available_backends()
        assert get_backend(name).supports_command_log


class _TinyBackend(ChannelBackend):
    name = "tiny"
    description = "test-only stub"

    def create(self, config, index=0):  # pragma: no cover - never run
        raise NotImplementedError


class TestRegistration:
    def test_register_and_unregister(self):
        register_backend(_TinyBackend())
        try:
            assert "tiny" in available_backends()
            config = SystemConfig(backend="tiny")
            assert config.backend == "tiny"
            assert "backend=tiny" in config.describe()
        finally:
            unregister_backend("tiny")
        assert "tiny" not in available_backends()

    def test_duplicate_registration_needs_replace(self):
        register_backend(_TinyBackend())
        try:
            with pytest.raises(ConfigurationError):
                register_backend(_TinyBackend())
            register_backend(_TinyBackend(), replace=True)
        finally:
            unregister_backend("tiny")

    def test_default_backend_roundtrip(self):
        previous = set_default_backend("batch")
        try:
            assert default_backend_name() == "batch"
            assert SystemConfig().backend == "batch"
        finally:
            set_default_backend(previous)

    def test_with_backend_returns_new_config(self):
        base = SystemConfig(channels=4)
        batch = base.with_backend("batch")
        assert batch.backend == "batch"
        assert batch.channels == base.channels
        assert base.backend != "batch" or base is not batch
