"""REP014–REP015 — cross-module telemetry and config contracts.

The telemetry registry and tracer are get-or-create by *name*: a typo'd
metric read (``service.supervisor_restart_total`` for
``…restarts_total``) or a consumer filtering a trace kind nobody emits
does not fail — it silently reads nothing, and the dashboard goes dark
without a symptom.  REP014 resolves every literal metric read
(``registry.get("…")``) and trace-kind read (``sink.of_kind("…")``)
against the project-wide emit index, and rejects the same metric name
registered under two different instrument kinds.

REP015 closes the gap REP008 left: a ``*Config`` dataclass may dutifully
define ``__post_init__`` yet never look at half its knobs.  Every
``int``/``float``/``str`` field (the scalar knobs; nested configs
validate themselves and ``Optional`` fields are legitimately
pass-through) must be referenced by the validator.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Tuple

from repro.statan.findings import Finding
from repro.statan.rules import ProjectRule
from repro.statan.project import ConfigInfo, ModuleIndex, ProjectIndex

__all__ = ["UnresolvedTelemetryName", "ConfigFieldUnchecked"]

#: Scalar field annotations REP015 demands validation for.
_SCALAR_ANNOTATIONS = frozenset({"int", "float", "str"})


class UnresolvedTelemetryName(ProjectRule):
    """REP014: metric/trace-event reads resolve against real emits."""

    rule_id = "REP014"
    name = "unresolved-telemetry-name"
    rationale = (
        "The registry is get-or-create by name and trace sinks filter "
        "by kind, so a typo'd read is not an error at runtime — it is a "
        "dashboard that silently reads zero forever. Every literal "
        "`registry.get(...)` must name a metric some module registers, "
        "every `of_kind(...)` must name a kind some module emits, and "
        "one metric name must not be registered under two instrument "
        "kinds (the second registration raises only when both paths "
        "run in one process)."
    )
    scopes = ()

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        metric_defs = index.metric_names()
        event_kinds = index.event_kinds()
        # Kind conflicts: one name, two instrument kinds.
        for name in sorted(metric_defs):
            sites = metric_defs[name]
            kinds = {definition.kind for _, definition in sites}
            if len(kinds) > 1:
                ordered = sorted(sites, key=lambda s: (s[0],
                                                       s[1].lineno))
                first_mod, first_def = ordered[0]
                for mod_name, definition in ordered[1:]:
                    if definition.kind == first_def.kind:
                        continue
                    mod = index.modules[mod_name]
                    yield self.project_finding(
                        path=mod.path, relpath=mod.relpath,
                        line=definition.lineno, col=0,
                        message=(
                            f"metric `{name}` is registered as a "
                            f"{definition.kind} here but as a "
                            f"{first_def.kind} in "
                            f"{index.modules[first_mod].relpath}:"
                            f"{first_def.lineno}; the registry raises on "
                            "the second get-or-create at runtime"
                        ),
                        metric=name, kind=definition.kind,
                        conflicting_kind=first_def.kind,
                    )
        for mod in sorted(index.modules.values(),
                          key=lambda m: m.relpath):
            for read in mod.metric_reads:
                if read.name in metric_defs:
                    continue
                hint = _closest(read.name, metric_defs)
                yield self.project_finding(
                    path=mod.path, relpath=mod.relpath,
                    line=read.lineno, col=read.col,
                    message=(
                        f"metric `{read.name}` is read but never "
                        f"registered anywhere in the project{hint}; the "
                        "read silently returns nothing"
                    ),
                    metric=read.name,
                )
            for read in mod.event_reads:
                if read.kind in event_kinds:
                    continue
                hint = _closest(read.kind, event_kinds)
                yield self.project_finding(
                    path=mod.path, relpath=mod.relpath,
                    line=read.lineno, col=read.col,
                    message=(
                        f"trace-event kind `{read.kind}` is consumed but "
                        f"never emitted anywhere in the project{hint}; "
                        "the filter matches nothing"
                    ),
                    kind=read.kind,
                )


def _closest(name: str, known: Iterable[str]) -> str:
    """A `; did you mean ...` hint when a near-miss exists."""
    best: Tuple[float, str] = (0.0, "")
    for candidate in known:
        score = _similarity(name, candidate)
        if score > best[0]:
            best = (score, candidate)
    if best[0] >= 0.75:
        return f"; did you mean `{best[1]}`?"
    return ""


def _similarity(a: str, b: str) -> float:
    """Cheap token-free similarity: longest common subsequence ratio."""
    if not a or not b:
        return 0.0
    prev = [0] * (len(b) + 1)
    for ch_a in a:
        row = [0]
        for j, ch_b in enumerate(b):
            row.append(prev[j] + 1 if ch_a == ch_b
                       else max(prev[j + 1], row[-1]))
        prev = row
    return 2.0 * prev[-1] / (len(a) + len(b))


class ConfigFieldUnchecked(ProjectRule):
    """REP015: scalar ``*Config`` fields are referenced by the validator."""

    rule_id = "REP015"
    name = "config-field-unchecked"
    rationale = (
        "REP008 makes every public config dataclass define "
        "`__post_init__`; this rule makes the validator actually look "
        "at each scalar knob. An int/float/str field the validator "
        "never references is a knob whose bad value (negative seed, "
        "unknown backend string) sails through construction and "
        "surfaces hundreds of iterations later as an anomaly that "
        "looks like an algorithm bug. Optional fields and nested "
        "configs are exempt: pass-through by design, self-validating "
        "respectively."
    )
    scopes = (
        "repro/core/", "repro/model/", "repro/service/",
        "repro/distributed/", "repro/sim/",
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        for mod in sorted(index.modules.values(),
                          key=lambda m: m.relpath):
            if not self.applies_to(mod.relpath):
                continue
            for config in mod.configs:
                yield from self._check_config(mod, config)

    def _check_config(self, mod: ModuleIndex,
                      config: ConfigInfo) -> Iterator[Finding]:
        if not config.has_post_init:
            return  # REP008's finding; no second report here
        refs = set(config.post_init_refs)
        for field in config.fields:
            if field.optional:
                continue
            if field.annotation not in _SCALAR_ANNOTATIONS:
                continue
            if field.name in refs:
                continue
            yield self.project_finding(
                path=mod.path, relpath=mod.relpath,
                line=field.lineno, col=0,
                message=(
                    f"field `{field.name}` of `{config.cls}` is never "
                    "referenced in `__post_init__`; the knob is "
                    "accepted unvalidated — check it or mark the field "
                    "Optional if it is pass-through"
                ),
                cls=config.cls, field=field.name,
            )
