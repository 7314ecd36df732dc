"""``repro bench-diff``: compare two benchmark artifacts for regressions.

Understands both artifact shapes the repo produces:

* **BENCH reports** (``BENCH_<name>.json`` from ``benchmarks/``):
  ``{"bench", "generated_at", "metrics": registry-snapshot}``.  Scalars
  (counters/gauges) compare by value; distributions (histograms/timers)
  compare by mean.
* **Scorecards** (``repro experiment --all -o``): every claim present
  in both compares by status — any ``pass`` → ``fail`` (or ``skipped``)
  transition is a regression regardless of thresholds — and each
  experiment's run payload compares informationally: an experiment whose
  ``runs[].payload`` differs from the baseline is listed as changed,
  never flagged.

Direction is inferred from the metric name: throughputs (``ops_per_sec``,
``_rate``) regress downward, durations (``seconds``, ``_time``) regress
upward, everything else is reported as changed but never flagged.  Timing
comparisons — durations and the wall-clock rates derived from them
(``per_sec``) — can be suppressed wholesale (``--ignore-timing``) for
noisy CI runners while still catching status flips and count changes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import DiagnosticsError

__all__ = [
    "MetricDelta",
    "BenchDiff",
    "load_artifact",
    "diff_artifacts",
    "diff_files",
    "format_diff",
]

#: Substrings marking a metric where *larger* is better.
_HIGHER_BETTER = ("ops_per_sec", "_rate", "throughput", "passed")
#: Substrings marking a metric where *smaller* is better.
_LOWER_BETTER = ("seconds", "_time", "latency", "dropped", "failed")


def _direction(name: str) -> Optional[str]:
    """``"higher"`` / ``"lower"`` = which direction is *better*."""
    lowered = name.lower()
    for token in _HIGHER_BETTER:
        if token in lowered:
            return "higher"
    for token in _LOWER_BETTER:
        if token in lowered:
            return "lower"
    return None


def _is_timing(name: str) -> bool:
    """Wall-clock measurements and the rates derived from them
    (``ops_per_sec``, ``per_second``), which follow host speed."""
    lowered = name.lower()
    return any(token in lowered for token in ("seconds", "_time", "per_sec"))


@dataclass(frozen=True)
class MetricDelta:
    """One compared value between baseline and current."""

    name: str
    baseline: Optional[float]
    current: Optional[float]
    direction: Optional[str]
    regression: bool
    note: str = ""

    @property
    def change(self) -> Optional[float]:
        """Relative change vs baseline (None when not computable)."""
        if self.baseline is None or self.current is None:
            return None
        if self.baseline == 0.0:
            return None if self.current == 0.0 else math.inf
        return (self.current - self.baseline) / abs(self.baseline)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "baseline": self.baseline,
            "current": self.current,
            "direction": self.direction,
            "regression": self.regression,
            "change": None if self.change is None or math.isinf(self.change)
            else self.change,
            "note": self.note,
        }


@dataclass
class BenchDiff:
    """The full comparison: every delta plus the regression verdict."""

    kind: str
    deltas: List[MetricDelta] = field(default_factory=list)
    missing: List[str] = field(default_factory=list)
    added: List[str] = field(default_factory=list)
    #: scorecard experiments whose run payload differs from the baseline
    changed: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[MetricDelta]:
        return [d for d in self.deltas if d.regression]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "ok": self.ok,
            "regressions": [d.to_dict() for d in self.regressions],
            "deltas": [d.to_dict() for d in self.deltas],
            "missing": list(self.missing),
            "added": list(self.added),
            "changed": list(self.changed),
        }


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and classify one artifact; adds an ``_artifact_kind`` key."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise DiagnosticsError(f"cannot read bench artifact {path!r}: {exc}")
    if not isinstance(data, dict):
        raise DiagnosticsError(
            f"bench artifact {path!r} is not a JSON object"
        )
    if "claims" in data and "counts" in data:
        data["_artifact_kind"] = "scorecard"
    elif "metrics" in data:
        data["_artifact_kind"] = "bench"
    else:
        raise DiagnosticsError(
            f"unrecognized bench artifact {path!r}: expected a BENCH "
            "metrics report or a harness scorecard"
        )
    return data


def _comparable(name: str, snap: Mapping[str, Any]) -> Optional[float]:
    """The scalar a metric snapshot compares by (mean for distributions)."""
    kind = snap.get("type")
    key = "mean" if kind in ("histogram", "timer") else "value"
    value = snap.get(key)
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        return None


def _diff_metric_maps(base: Mapping[str, Mapping[str, Any]],
                      cur: Mapping[str, Mapping[str, Any]],
                      threshold: float,
                      ignore_timing: bool) -> BenchDiff:
    diff = BenchDiff(kind="bench")
    for name in sorted(set(base) | set(cur)):
        if name not in cur:
            diff.missing.append(name)
            continue
        if name not in base:
            diff.added.append(name)
            continue
        baseline = _comparable(name, base[name])
        current = _comparable(name, cur[name])
        direction = _direction(name)
        regression = False
        note = ""
        if baseline is not None and current is not None and \
                direction is not None and \
                not (ignore_timing and _is_timing(name)):
            scale = abs(baseline) if baseline else 1.0
            delta = (current - baseline) / scale
            if direction == "higher" and delta < -threshold:
                regression = True
                note = f"dropped {-delta:.1%} (threshold {threshold:.0%})"
            elif direction == "lower" and delta > threshold:
                regression = True
                note = f"grew {delta:.1%} (threshold {threshold:.0%})"
        diff.deltas.append(MetricDelta(
            name=name, baseline=baseline, current=current,
            direction=direction, regression=regression, note=note,
        ))
    return diff


def _claim_rows(data: Mapping[str, Any]) -> Dict[Tuple[str, str], Dict[str, Any]]:
    rows: Dict[Tuple[str, str], Dict[str, Any]] = {}
    for claim in data.get("claims", []):
        rows[(str(claim.get("experiment")), str(claim.get("check")))] = claim
    return rows


def _run_payloads(data: Mapping[str, Any]) -> Dict[str, str]:
    """Each experiment's run payload, as canonical JSON text."""
    return {
        str(run.get("experiment")): json.dumps(run.get("payload"),
                                               sort_keys=True)
        for run in data.get("runs", [])
    }


def _diff_scorecards(base: Mapping[str, Any], cur: Mapping[str, Any],
                     threshold: float, ignore_timing: bool) -> BenchDiff:
    diff = BenchDiff(kind="scorecard")
    base_rows = _claim_rows(base)
    cur_rows = _claim_rows(cur)
    for key in sorted(set(base_rows) | set(cur_rows)):
        label = f"{key[0]}/{key[1]}"
        if key not in cur_rows:
            diff.missing.append(label)
            continue
        if key not in base_rows:
            diff.added.append(label)
            continue
        base_status = str(base_rows[key].get("status"))
        cur_status = str(cur_rows[key].get("status"))
        diff.deltas.append(MetricDelta(
            name=f"{label}.status", baseline=None, current=None,
            direction=None,
            regression=base_status == "pass" and cur_status != "pass",
            note=(cur_status if base_status == cur_status
                  else f"{base_status} -> {cur_status}"),
        ))
    base_runs = _run_payloads(base)
    cur_runs = _run_payloads(cur)
    diff.changed = sorted(name for name in set(base_runs) & set(cur_runs)
                          if base_runs[name] != cur_runs[name])
    # Wall time is the scorecard's only timing scalar worth flagging.
    if not ignore_timing:
        base_wall = base.get("wall_time_seconds")
        cur_wall = cur.get("wall_time_seconds")
        if isinstance(base_wall, (int, float)) and \
                isinstance(cur_wall, (int, float)) and base_wall > 0:
            delta = (float(cur_wall) - float(base_wall)) / float(base_wall)
            diff.deltas.append(MetricDelta(
                name="wall_time_seconds",
                baseline=float(base_wall), current=float(cur_wall),
                direction="lower", regression=delta > threshold,
                note=(f"grew {delta:.1%} (threshold {threshold:.0%})"
                      if delta > threshold else ""),
            ))
    return diff


def diff_artifacts(base: Dict[str, Any], cur: Dict[str, Any],
                   threshold: float = 0.25,
                   ignore_timing: bool = False) -> BenchDiff:
    """Compare two loaded artifacts of the same kind."""
    base_kind = base.get("_artifact_kind")
    cur_kind = cur.get("_artifact_kind")
    if base_kind != cur_kind:
        raise DiagnosticsError(
            f"artifact kinds differ: baseline is {base_kind!r}, "
            f"current is {cur_kind!r}"
        )
    if base_kind == "scorecard":
        return _diff_scorecards(base, cur, threshold, ignore_timing)
    return _diff_metric_maps(
        base.get("metrics", {}), cur.get("metrics", {}),
        threshold, ignore_timing,
    )


def diff_files(baseline_path: str, current_path: str,
               threshold: float = 0.25,
               ignore_timing: bool = False) -> BenchDiff:
    """Load two artifact files and compare them."""
    return diff_artifacts(
        load_artifact(baseline_path), load_artifact(current_path),
        threshold=threshold, ignore_timing=ignore_timing,
    )


def format_diff(diff: BenchDiff, verbose: bool = False) -> str:
    """Human-readable report: regressions first, then context."""
    lines: List[str] = []
    if diff.ok:
        lines.append(
            f"bench-diff: OK — no regressions across "
            f"{len(diff.deltas)} compared values"
        )
    else:
        lines.append(
            f"bench-diff: {len(diff.regressions)} REGRESSION(S) in "
            f"{len(diff.deltas)} compared values"
        )
        for delta in diff.regressions:
            base = "n/a" if delta.baseline is None else f"{delta.baseline:g}"
            cur = "n/a" if delta.current is None else f"{delta.current:g}"
            lines.append(
                f"  REGRESSED {delta.name}: {base} -> {cur}  {delta.note}"
            )
    if diff.missing:
        lines.append(f"  missing from current: {', '.join(diff.missing)}")
    if diff.added:
        lines.append(f"  new in current: {', '.join(diff.added)}")
    if diff.changed:
        lines.append(
            f"  payload differs from baseline: {', '.join(diff.changed)}")
    if verbose:
        for delta in diff.deltas:
            if delta.regression:
                continue
            change = delta.change
            rendered = "n/a" if change is None or math.isinf(change) \
                else f"{change:+.1%}"
            lines.append(f"  {delta.name}: {rendered} {delta.note}".rstrip())
    return "\n".join(lines)
