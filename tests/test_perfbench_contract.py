"""The benchmark's tracer and output checks still hold for the program.

``perfbench/layers.py`` swaps a timing wrapper in for every sepeval binding
of the callables it traces, including the SciPy Cholesky factor and solve
that ``bsseval`` imports.  Removing or renaming one of them makes
``install()`` fail here instead of in a traced benchmark run.

``perfbench/workloads.py`` checks each pass's outputs: reports round-trip
through ``read_report`` and keep their bytes from pass to pass, medians
equal NumPy's, and oracle estimates sum to the mixture.  Each workload's
tiny form runs here, so a change that breaks those checks fails the
tests rather than the benchmark.
"""

import importlib.util
import sys
from pathlib import Path

import pytest
import scipy.linalg

import sepeval.bsseval

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
LAYERS = PERFBENCH / "layers.py"


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


@pytest.fixture(scope="module")
def workloads():
    """``perfbench/workloads.py``, imported with ``perfbench/`` on the path.

    Afterwards ``sys.path`` is restored and every module loaded from
    ``perfbench/`` (its ``corpus`` helper) leaves ``sys.modules``.
    """
    path, modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", PERFBENCH / "workloads.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        yield module
    finally:
        sys.path[:] = path
        for name in set(sys.modules) - modules:
            origin = getattr(sys.modules[name], "__file__", None) or ""
            if Path(origin).parent == PERFBENCH:
                del sys.modules[name]


def test_tiny_workloads_pass_their_output_checks(workloads, tmp_path):
    problems = {}
    for name, workload in workloads.WORKLOADS.items():
        tiny = workload.tiny()
        inputs = tmp_path / name / "in"
        inputs.mkdir(parents=True)
        tiny.setup(inputs, seed=1)
        for index in range(2):
            out = tmp_path / name / f"out{index}"
            out.mkdir()
            tiny.run(out)
            problems[name, index] = tiny.check(out)
    assert problems == {key: [] for key in problems}
