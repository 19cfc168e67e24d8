"""Public-API surface tests: everything the README and examples use
must be importable from the top-level package."""

import importlib
import pkgutil

import repro


class TestPublicSurface:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"missing export {name}"

    def test_every_module_exports_resolve(self):
        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        exporting = [m for m in modules if hasattr(m, "__all__")]
        assert len(exporting) > 10
        for module in exporting:
            for name in module.__all__:
                assert hasattr(module, name), (
                    f"{module.__name__}.__all__ names missing {name}"
                )

    def test_quickstart_flow(self):
        """The README quickstart, verbatim in spirit."""
        level = repro.level_by_name("4")
        config = repro.SystemConfig(channels=4, freq_mhz=400.0)
        point = repro.simulate_use_case(level, config, chunk_budget=30_000)
        assert point.access_time_ms < level.frame_period_ms
        assert point.verdict is repro.RealTimeVerdict.PASS

    def test_key_constants(self):
        assert len(repro.PAPER_LEVELS) == 5
        assert repro.FORMAT_720P.pixels == 921_600
        assert repro.XDR_CELL_BE.power_w == 5.0
        assert repro.NEXT_GEN_MOBILE_DDR.geometry.banks == 4

    def test_subpackage_docstrings(self):
        import repro.analysis
        import repro.controller
        import repro.core
        import repro.dram
        import repro.load
        import repro.power
        import repro.usecase

        for module in (
            repro,
            repro.analysis,
            repro.controller,
            repro.core,
            repro.dram,
            repro.load,
            repro.power,
            repro.usecase,
        ):
            assert module.__doc__
