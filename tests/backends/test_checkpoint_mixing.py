"""Checkpoint/backend interaction: resuming must not blend fidelities.

A checkpoint written under one backend holds that backend's numbers;
silently resuming the sweep under another would splice e.g. analytic
estimates into a reference figure.  The sweep layer refuses the mix
with :class:`~repro.errors.CheckpointError` unless forced
(``checkpoint_force=True`` / CLI ``--force``).
"""

import pytest

from repro.analysis.sweep import sweep_use_case
from repro.core.config import SystemConfig
from repro.errors import CheckpointError
from repro.usecase.levels import level_by_name

BUDGET = 5_000


@pytest.fixture
def level():
    return level_by_name("3.1")


@pytest.fixture
def configs():
    return [SystemConfig(channels=2, freq_mhz=400.0)]


def _sweep(level, configs, path, **kwargs):
    return sweep_use_case(
        [level], configs, chunk_budget=BUDGET, checkpoint=path, **kwargs
    )


class TestBackendMixingGuard:
    def test_same_backend_resume_allowed(self, tmp_path, level, configs):
        path = tmp_path / "sweep.ckpt"
        first = _sweep(level, configs, path, backend="reference")
        resumed = _sweep(level, configs, path, backend="reference")
        assert resumed.points[0].access_time_ms == first.points[0].access_time_ms

    def test_mixing_backends_refused(self, tmp_path, level, configs):
        path = tmp_path / "sweep.ckpt"
        _sweep(level, configs, path, backend="reference")
        with pytest.raises(CheckpointError) as excinfo:
            _sweep(level, configs, path, backend="batch")
        message = str(excinfo.value)
        assert "reference" in message
        assert "batch" in message
        assert "--force" in message or "checkpoint_force" in message

    def test_mixing_refusal_names_batch(self, tmp_path, level, configs):
        path = tmp_path / "sweep.ckpt"
        _sweep(level, configs, path, backend="batch")
        with pytest.raises(CheckpointError) as excinfo:
            _sweep(level, configs, path, backend="reference")
        message = str(excinfo.value)
        assert "batch" in message
        assert "reference" in message

    def test_force_allows_mixing(self, tmp_path, level, configs):
        path = tmp_path / "sweep.ckpt"
        _sweep(level, configs, path, backend="reference")
        report = _sweep(
            level, configs, path, backend="batch", checkpoint_force=True
        )
        assert len(report.points) == 1

    def test_distinct_backends_do_not_share_points(self, tmp_path, level, configs):
        """Backend is part of the job key: a forced mixed checkpoint
        still recomputes (rather than reuses) the other backend's
        points."""
        path = tmp_path / "sweep.ckpt"
        ref = _sweep(level, configs, path, backend="reference")
        batch = _sweep(
            level, configs, path, backend="batch", checkpoint_force=True
        )
        # Bit-identical backends, but independently keyed entries.
        assert batch.points[0].access_time_ms == ref.points[0].access_time_ms
        entries = path.read_text().strip().splitlines()
        assert len(entries) == 2

    def test_checkpoint_recorded_under_retired_backend_refused(
        self, tmp_path, level, configs
    ):
        """Checkpoints written under the retired ``fast`` backend meet
        the same cross-backend guard as any other foreign backend."""
        path = tmp_path / "sweep.ckpt"
        _sweep(level, configs, path, backend="reference")
        path.write_text(
            path.read_text().replace('"backend": "reference"', '"backend": "fast"')
        )
        with pytest.raises(CheckpointError) as excinfo:
            _sweep(level, configs, path, backend="batch")
        message = str(excinfo.value)
        assert "fast" in message
        assert "batch" in message
