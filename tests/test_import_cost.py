"""Import-cost pin: ``import repro`` must stay cheap.

The package facade lazy-loads the heavy ``repro.analysis`` surface via
PEP 562 ``__getattr__``; these tests run a fresh interpreter so the
current process's already-imported modules cannot mask a regression.
"""

import json
import subprocess
import sys


def _fresh_python(code):
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


class TestLazyFacade:
    def test_import_repro_does_not_pull_analysis(self):
        out = _fresh_python(
            "import sys, json, repro;"
            "print(json.dumps([m for m in sys.modules"
            " if m.startswith('repro.analysis')]))"
        )
        loaded = json.loads(out)
        assert loaded == [], (
            f"import repro eagerly loaded {loaded}; the analysis surface "
            "must stay behind the PEP 562 facade"
        )

    def test_import_repro_does_not_pull_charts(self):
        out = _fresh_python(
            "import sys, repro;"
            "print('repro.analysis.charts' in sys.modules)"
        )
        assert out.strip() == "False"

    def test_lazy_names_resolve_and_load_analysis(self):
        out = _fresh_python(
            "import sys, repro;"
            "fn = repro.sweep_use_case;"
            "print(fn.__module__, 'repro.analysis' in sys.modules)"
        )
        module, loaded = out.split()
        assert module == "repro.analysis.sweep"
        assert loaded == "True"

    def test_every_public_name_resolves(self):
        _fresh_python(
            "import repro;"
            "[getattr(repro, name) for name in repro.__all__]"
        )

    def test_unknown_attribute_raises(self):
        out = _fresh_python(
            "import repro\n"
            "try:\n"
            "    repro.no_such_name\n"
            "except AttributeError as exc:\n"
            "    print('AttributeError', 'no_such_name' in str(exc))\n"
        )
        assert out.strip() == "AttributeError True"

    def test_dir_advertises_lazy_names(self):
        out = _fresh_python(
            "import repro;"
            "d = dir(repro);"
            "print('run_fig3' in d, 'SystemConfig' in d)"
        )
        assert out.strip() == "True True"


class TestStdlibOnlyBatch:
    def test_batch_runs_with_numpy_blocked(self):
        # ``sys.modules[name] = None`` makes any ``import numpy`` raise,
        # so this proves the batch engine needs nothing beyond the
        # standard library -- and still matches the reference exactly.
        out = _fresh_python(
            "import sys, json\n"
            "sys.modules['numpy'] = None\n"
            "from repro.analysis.sweep import simulate_use_case\n"
            "from repro.core.config import SystemConfig\n"
            "from repro.usecase.levels import level_by_name\n"
            "level = level_by_name('3.1')\n"
            "points = [\n"
            "    simulate_use_case(level, SystemConfig(channels=2, backend=b),\n"
            "                      chunk_budget=5000)\n"
            "    for b in ('reference', 'batch')\n"
            "]\n"
            "print(json.dumps({\n"
            "    'equal': points[0].access_time_ms == points[1].access_time_ms\n"
            "    and points[0].result.channels == points[1].result.channels,\n"
            "    'numpy': [m for m in sys.modules\n"
            "              if m == 'numpy' or m.startswith('numpy.')\n"
            "              if sys.modules[m] is not None],\n"
            "}))\n"
        )
        report = json.loads(out)
        assert report == {"equal": True, "numpy": []}

    def test_batch_simulation_never_imports_numpy(self):
        out = _fresh_python(
            "import sys\n"
            "from repro.analysis.sweep import simulate_use_case\n"
            "from repro.core.config import SystemConfig\n"
            "from repro.usecase.levels import level_by_name\n"
            "simulate_use_case(level_by_name('3.1'),\n"
            "                  SystemConfig(channels=2, backend='batch'),\n"
            "                  chunk_budget=5000)\n"
            "print('numpy' in sys.modules)\n"
        )
        assert out.strip() == "False"
