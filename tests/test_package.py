"""The package namespace: each public name declared once, by its module."""

import sepeval
from sepeval import audio, bsseval, campaign, dataset, masks, reports, spectral, stats

MODULES = (audio, bsseval, campaign, dataset, masks, reports, spectral, stats)


def test_every_module_name_is_exported_once():
    assert len(sepeval.__all__) == len(set(sepeval.__all__))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(sepeval, name) is getattr(module, name), name
    assert set(sepeval.__all__) == {
        name for module in MODULES for name in module.__all__
    } | {"__version__"}
