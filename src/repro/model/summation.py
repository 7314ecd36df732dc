"""One summation order for utilities, on every Python version.

The objective ``Σ_i U_i`` (Eq. 2) is reported by the kernel
(:meth:`repro.core.vectorized.StepArrays.utility`), by
:func:`repro.core.vectorized.observe_assignment` and by
:meth:`repro.model.task.TaskSet.total_utility`, and parity suites compare
those values bit for bit.  They must therefore add in the same order.
The built-in ``sum()`` is not that order everywhere: up to Python 3.11 it
adds floats left to right, but from 3.12 on it compensates the rounding
error (Neumaier), so the same values sum to a different last ulp.
:func:`sequential_sum` fixes the order to the plain left-to-right one.
"""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

__all__ = ["sequential_sum"]


def sequential_sum(values: Union[np.ndarray, Sequence[float]]) -> float:
    """``((0.0 + v_0) + v_1) + …`` in float64: the left-to-right sum that
    ``sum()`` of floats computes before Python 3.12, on every version.

    ``np.add.accumulate`` is a running sum, so each add waits for the one
    before it: no pairwise or vectorized reordering.  Adding ``0.0`` to
    its last element restores the ``0.0`` start, which only matters when
    every value is ``-0.0`` (``0.0 + -0.0`` is ``0.0``).
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return 0.0
    return float(np.add.accumulate(arr)[-1]) + 0.0
