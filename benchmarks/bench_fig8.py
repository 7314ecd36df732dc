"""Benchmark + reproduction assertions for Figure 8 (error correction).

Drives the registered ``fig8`` spec through the harness — the same code
path as ``repro experiment fig8`` — and asserts its claim checks:

* before correction the fast subtasks hold more than their minimum rate
  share (model-driven over-allocation);
* after correction the fast subtasks descend to exactly their minimum
  rate share (0.2) and the slow subtasks absorb the surplus (0.25);
* the reallocation has the paper's sign pattern (fast −, slow +; the
  paper reports −23% / +32%, our model gives −30% / +52% from a different
  pre-correction split);
* the error mean stabilizes once the shares converge.
"""

import pytest

import _report


@pytest.mark.benchmark(group="fig8")
def test_fig8_error_correction(benchmark):
    run = _report.run_spec(benchmark, "fig8")
    _report.assert_claims(run)

    payload = run.payload
    print()
    print(f"  fast: {payload['fast_share_before']:.3f} -> "
          f"{payload['fast_share_after']:.3f} "
          f"({payload['fast_change_percent']:+.0f}%) "
          f"[paper: 0.26 -> 0.20, -23%]")
    print(f"  slow: {payload['slow_share_before']:.3f} -> "
          f"{payload['slow_share_after']:.3f} "
          f"({payload['slow_change_percent']:+.0f}%) "
          f"[paper: 0.19 -> 0.25, +32%]")


@pytest.mark.benchmark(group="fig8")
def test_fig8_quantum_scheduler(benchmark):
    """The same experiment on the surplus-fair quantum scheduler: the
    correction behaviour must be model-independent."""
    run = _report.run_spec(
        benchmark, "fig8", {"model": "quantum", "epochs_after": 22},
    )
    _report.assert_claims(
        run, "overallocated_before_correction", "slow_gains_surplus",
    )
    payload = run.payload
    # The quantum scheduler's endpoint is slightly coarser: 0.02 band.
    assert payload["fast_share_after"] == pytest.approx(0.20, abs=0.02)
    print()
    print(f"  quantum: fast {payload['fast_share_before']:.3f} -> "
          f"{payload['fast_share_after']:.3f}, "
          f"slow {payload['slow_share_before']:.3f} -> "
          f"{payload['slow_share_after']:.3f}")

