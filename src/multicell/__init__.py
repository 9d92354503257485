"""Multi-route infinite-server occupancy model for multicell networks.

Closed-form product-form analytics, a session-table simulator for
arbitrary and correlated channel holding times, and a trace pipeline for
validating the model against polling logs.
"""

__version__ = "0.1.0"   # set before the submodules load: cli reads it

from . import analytic, cli, model, sim, stats, trace

__all__ = ["analytic", "cli", "model", "sim", "stats", "trace", "__version__"]
