"""The benchmark's tracer can still wrap every callable it names.

``perfbench/layers.py`` swaps a timing wrapper in for every sepeval binding
of the callables it traces, including the SciPy Cholesky factor and solve
that ``bsseval`` imports.  Removing or renaming one of them makes
``install()`` fail here instead of in a traced benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import scipy.linalg

import sepeval.bsseval

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _bindings() -> dict:
    """(module, name) -> object for every callable bound in a sepeval module."""
    return {
        (key, name): value
        for key, module in list(sys.modules.items())
        if module is not None and (key == "sepeval" or key.startswith("sepeval."))
        for name, value in vars(module).items()
        if callable(value)
    }


def test_layers_install_then_close_restores_every_binding():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    before = _bindings()
    tracer = layers.install()
    try:
        during = _bindings()
        assert sepeval.bsseval.cho_factor is not scipy.linalg.cho_factor
        assert sepeval.bsseval.cho_solve is not scipy.linalg.cho_solve
    finally:
        tracer.close()
    after = _bindings()
    assert any(during[key] is not value for key, value in before.items())
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
