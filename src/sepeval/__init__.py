"""Source separation evaluation toolkit.

Oracle time-frequency masks (IBM, IRM, multichannel Wiener filter),
BSS Eval image metrics with track-global or per-window distortion
filters, a MUSDB18-layout corpus reader, and campaign tooling with JSON
reports, median aggregation and pairwise significance tests.

The package re-exports the public names of its modules, each declared
once in its module's ``__all__``.
"""

from . import audio, bsseval, campaign, dataset, masks, reports, spectral, stats
from .audio import *  # noqa: F403
from .bsseval import *  # noqa: F403
from .campaign import *  # noqa: F403
from .dataset import *  # noqa: F403
from .masks import *  # noqa: F403
from .reports import *  # noqa: F403
from .spectral import *  # noqa: F403
from .stats import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (audio, spectral, masks, bsseval, dataset, reports, campaign, stats)
    for name in module.__all__
] + ["__version__"]
