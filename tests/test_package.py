"""The package namespace: each public name declared once, by its module;
and the modules a pipeline process loads."""

import json
import os
import subprocess
import sys
from pathlib import Path

import sepeval
from sepeval import audio, bsseval, campaign, dataset, masks, reports, spectral, stats

MODULES = (audio, bsseval, campaign, dataset, masks, reports, spectral, stats)

# Run in a fresh interpreter: the test process itself has loaded
# scipy.stats and scipy.signal for the reference checks of other tests.
FOOTPRINT = """
import json, sys
import numpy as np
import sepeval, sepeval.cli
from sepeval import AudioSignal, oracle_separate

absent = ("scipy.stats", "scipy.signal")
loaded = {"import": [name for name in absent if name in sys.modules]}
rng = np.random.default_rng(5)
sources = [AudioSignal(rng.standard_normal((8000, 2)), 8000) for _ in range(2)]
oracle_separate(AudioSignal(sum(s.samples for s in sources), 8000), sources, "IRM2")
loaded["oracle"] = [name for name in absent if name in sys.modules]
print(json.dumps(loaded))
"""


def test_every_module_name_is_exported_once():
    assert len(sepeval.__all__) == len(set(sepeval.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sepeval, name) is getattr(module, name), name
    assert set(sepeval.__all__) == {
        name for module in MODULES for name in module.__all__
    } | {"__version__"}


def test_pipeline_loads_neither_scipy_stats_nor_scipy_signal():
    """``import sepeval, sepeval.cli`` and an oracle run with the default
    (Hann) transform load NumPy, scipy.fft and scipy.linalg only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(sepeval.__file__).resolve().parents[1])]
        + [path for path in [env.get("PYTHONPATH")] if path]
    )
    done = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": [], "oracle": []}
