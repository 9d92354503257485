"""Multi-route infinite-server occupancy model for multicell networks.

Closed-form product-form analytics, a session-table simulator for
arbitrary and correlated channel holding times, and a trace pipeline for
validating the model against polling logs.

``import multicell`` loads no submodule: each one loads on first use, as
``multicell.sim`` or ``from multicell import sim``, so a CLI subcommand
compiles only the modules it runs.
"""

import importlib

__version__ = "0.1.0"   # written into every run's manifest by cli

_SUBMODULES = ("analytic", "cli", "model", "sim", "stats", "trace")
__all__ = [*_SUBMODULES, "__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule also binds it here, so this runs once per name
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
