"""Warm-start price initialization for LLA.

The paper leaves the dual-variable initialization unspecified (its Figure 5
runs evidently start cold — the long γ=1 climb).  A resource can however
estimate its own equilibrium price *locally*: at a saturated optimum with
inactive path constraints, every subtask on resource ``r`` satisfies the
stationarity condition

    μ_r · cost_s / lat_s² = w_s         ⇒   lat_s = sqrt(μ_r · cost_s / w_s)

and the capacity constraint binds:

    Σ_s cost_s / lat_s = B_r            ⇒   sqrt(μ_r) = Σ_s sqrt(cost_s · w_s) / B_r

The estimate needs only the hosted subtasks' costs and weights — data the
resource receives in the first protocol round anyway — so it is exact for
saturated resources with λ = 0 (e.g. the Figure 6 regime, where it makes
convergence instant) and a useful starting point otherwise.

Only defined for the hyperbolic share model with linear utilities; other
configurations fall back to the default initialization.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict

from repro.errors import OptimizationError
from repro.model.share import CorrectedShare, HyperbolicShare
from repro.model.task import TaskSet
from repro.model.utility import LinearUtility

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.core.optimizer import LLAOptimizer

__all__ = ["warm_start_resource_prices", "apply_warm_start"]


def warm_start_resource_prices(taskset: TaskSet,
                               default: float = 1.0) -> Dict[str, float]:
    """Per-resource equilibrium price estimates.

    Resources hosting any subtask whose share/utility model falls outside
    the closed form get the ``default`` price, as does any resource whose
    availability is zero or non-finite (a blacked-out resource has no
    equilibrium price — the estimate would divide by zero mid-recovery).
    """
    prices: Dict[str, float] = {}
    for rname, resource in taskset.resources.items():
        total = 0.0
        estimable = True
        for task, sub in taskset.subtasks_on(rname):  # statan: disable=REP016 -- one-time warm-start seeding, not per-iteration
            share_fn = taskset.share_function(sub.name)
            if isinstance(share_fn, CorrectedShare):
                share_fn = share_fn.base
            utility = task.utility
            if not isinstance(share_fn, HyperbolicShare) or \
                    not isinstance(utility, LinearUtility):
                estimable = False
                break
            weight = task.weight(sub.name) * utility.slope
            total += math.sqrt(share_fn.cost * weight)
        availability = resource.availability
        if estimable and total > 0.0 and availability > 0.0 \
                and math.isfinite(availability):
            prices[rname] = (total / availability) ** 2
        else:
            prices[rname] = float(default)
    return prices


def apply_warm_start(optimizer: "LLAOptimizer") -> Dict[str, float]:
    """Install warm-start prices into an :class:`LLAOptimizer`.

    Returns the applied price map.  Delegates to
    :meth:`~repro.core.optimizer.LLAOptimizer.adopt_prices`, one engine
    call that installs μ, resets λ and γ to their initial values and
    solves Eq. 7 once — so on an already-run optimizer (``reset()`` with
    ``warm_start``) the iterate is identical to a fresh optimizer's at
    these prices, with no stale λ leaking into the next solve.  An
    optimizer without a task set raises
    :class:`~repro.errors.OptimizationError`.
    """
    if optimizer.taskset is None:
        raise OptimizationError(
            "a warm start estimates prices from the task set, and this "
            "optimizer was built on a compiled structure alone"
        )
    prices = warm_start_resource_prices(
        optimizer.taskset, default=optimizer.config.initial_resource_price
    )
    optimizer.adopt_prices(prices)
    return prices
