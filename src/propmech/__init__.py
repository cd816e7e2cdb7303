"""Proportional allocation with price-guided taxes.

A toolkit for a resource allocation mechanism on linear polytopes: agents
announce demands and per-constraint prices, the planner scales demands back
proportionally when they are infeasible, and a tax schedule built from the
others' prices makes truthful price discovery the stable outcome. The
package bundles the benchmark social optimum solver, the allocation and tax
maps, the induced game with best responses and adjustment dynamics, an
equilibrium verifier, and a generator plus experiment harness.
"""

from . import allocation, centralized, game, harness, model, taxation
from .allocation import *  # noqa: F403
from .centralized import *  # noqa: F403
from .game import *  # noqa: F403
from .harness import *  # noqa: F403
from .model import *  # noqa: F403
from .taxation import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [name for module in (model, allocation, taxation, centralized, game,
                               harness) for name in module.__all__]
