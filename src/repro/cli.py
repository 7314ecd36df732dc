"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiment`` — run registered paper experiments against their claim
  checks: ``--list`` shows the registry, ``NAME`` runs one spec (with
  uniform ``--seed/--iterations/--set key=value`` overrides and
  ``-o`` writing the RunResult artifact), ``--all`` runs every spec and
  prints the reproduction scorecard (non-zero exit on any failed claim);
* ``optimize <workload.json>`` — load a serialized workload, run LLA, and
  print the converged allocation (optionally write it as JSON); with
  ``--trace FILE`` the run also writes a JSONL telemetry trace;
* ``check <workload.json>`` — run the schedulability test on a workload;
* ``export-workload {base,scaled,unschedulable,prototype} [-o FILE]`` —
  serialize one of the paper's workloads for editing;
* ``trace <run.jsonl>`` — replay a JSONL telemetry trace into the
  convergence diagnostics of :mod:`repro.analysis.trace`;
* ``stats <run.jsonl>`` — event counts and the final metrics snapshot of
  a JSONL telemetry trace (``--prometheus`` renders the snapshot in the
  Prometheus text exposition format);
* ``diagnose <run.jsonl>`` — run the convergence health detectors
  (oscillation, stall, feasibility churn, escalation audit, margins)
  over a recorded trace and print structured findings; with spans in
  the trace, also prints the causal critical path; non-zero exit on
  critical findings;
* ``top <workload.json>`` — drive a live distributed run and render a
  terminal dashboard (prices, loads, bus health, diagnostics);
* ``bench-diff <baseline.json> <current.json>`` — compare two benchmark
  artifacts (BENCH reports or harness scorecards) and flag regressions
  beyond a threshold; non-zero exit on regression;
* ``chaos`` — run a scripted fault scenario (crash/restart, blackout)
  against its fault-free twin and report dip depth, recovery time and
  degraded-round safety; ``-o`` writes the report as a JSON artifact;
* ``lint [paths…]`` — run the :mod:`repro.statan` invariant linter
  (determinism, agent-locality, telemetry and config rules) over the
  given files/directories; text/JSON/SARIF reports, non-zero exit on
  findings (the CI gate).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import TYPE_CHECKING, Any, Coroutine, List, Optional

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.model.task import TaskSet

from repro.analysis.schedulability import SchedulabilityAnalyzer
from repro.core.optimizer import LLAConfig, LLAOptimizer
from repro.errors import TelemetryError
from repro.model.serialize import taskset_from_json, taskset_to_json
from repro.statan.cli import add_lint_arguments, run_lint
from repro.telemetry import Telemetry, event_counts, read_trace
from repro.workloads.paper import (
    make_workload,
    scaled_workload,
    workload_names,
)

__all__ = ["main", "build_parser"]

_CHAOS_SCENARIOS = ("crash-restart", "crash-cold", "blackout", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LLA — Lagrangian Latency Assignment (ICDCS 2008 "
                    "reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser(
        "experiment",
        help="run registered paper experiments against their claim checks",
    )
    exp.add_argument("name", nargs="?",
                     help="registered experiment (see --list)")
    exp.add_argument("--list", action="store_true", dest="list_specs",
                     help="list the experiment registry and exit")
    exp.add_argument("--all", action="store_true", dest="all_specs",
                     help="run every registered experiment and print the "
                          "reproduction scorecard")
    exp.add_argument("--quick", action="store_true",
                     help="reduced budgets; full-budget-only claims are "
                          "recorded as skipped")
    exp.add_argument("--seed", type=int, default=None,
                     help="seed recorded in the artifact and forwarded "
                          "when the experiment takes one")
    exp.add_argument("--iterations", type=int, default=None,
                     help="iteration budget override (experiments with an "
                          "iteration-budget parameter only)")
    exp.add_argument("--set", action="append", default=[],
                     metavar="KEY=VALUE", dest="overrides",
                     help="override one declared parameter (repeatable)")
    exp.add_argument("--trace",
                     help="write a JSONL telemetry trace to this file")
    exp.add_argument("-o", "--output",
                     help="write the RunResult artifact (or, with --all, "
                          "the scorecard) as JSON to this file")

    opt = sub.add_parser("optimize", help="optimize a workload JSON file")
    opt.add_argument("workload", help="path to a serialized workload")
    opt.add_argument("--iterations", type=int, default=1500)
    opt.add_argument("--warm-start", action="store_true")
    opt.add_argument("-o", "--output",
                     help="write the allocation as JSON to this file")
    opt.add_argument("--trace",
                     help="write a JSONL telemetry trace to this file")

    chk = sub.add_parser("check", help="schedulability-test a workload")
    chk.add_argument("workload", help="path to a serialized workload")
    chk.add_argument("--iterations", type=int, default=2000)

    exp_w = sub.add_parser("export-workload",
                           help="serialize a built-in workload")
    exp_w.add_argument("name", choices=workload_names())
    exp_w.add_argument("-o", "--output", help="output file (default stdout)")

    trc = sub.add_parser("trace",
                         help="summarize a JSONL telemetry trace")
    trc.add_argument("tracefile", help="path to a JSONL trace")
    trc.add_argument("--band", type=float, default=0.5,
                     help="settling band around the final utility")

    sts = sub.add_parser("stats",
                         help="event counts + metrics of a JSONL trace")
    sts.add_argument("tracefile", help="path to a JSONL trace")
    sts.add_argument("--prometheus", action="store_true",
                     help="render the final metrics snapshot in the "
                          "Prometheus text exposition format")

    dgn = sub.add_parser(
        "diagnose",
        help="convergence health findings from a recorded trace",
    )
    dgn.add_argument("tracefile", help="path to a JSONL trace")
    dgn.add_argument("--window", type=int, default=100,
                     help="tail window (iterations) the detectors inspect")
    dgn.add_argument("--workload",
                     help="serialized workload for exact feasibility "
                          "margins (optional)")
    dgn.add_argument("--json", action="store_true", dest="as_json",
                     help="emit findings as JSON instead of text")

    top = sub.add_parser(
        "top",
        help="live terminal dashboard over a distributed run",
    )
    top.add_argument("workload", help="path to a serialized workload")
    top.add_argument("--rounds", type=int, default=200,
                     help="protocol rounds to run")
    top.add_argument("--refresh", type=int, default=10,
                     help="rounds between frame redraws")
    top.add_argument("--plain", action="store_true",
                     help="print frames without ANSI screen clearing "
                          "(logs, tests)")
    top.add_argument("--delay", type=int, default=0,
                     help="bus delivery delay in rounds")
    top.add_argument("--loss", type=float, default=0.0,
                     help="bus message-loss probability")
    top.add_argument("--seed", type=int, default=0)

    bdf = sub.add_parser(
        "bench-diff",
        help="compare two benchmark artifacts for regressions",
    )
    bdf.add_argument("baseline", help="baseline BENCH report or scorecard")
    bdf.add_argument("current", help="current BENCH report or scorecard")
    bdf.add_argument("--threshold", type=float, default=0.25,
                     help="relative change beyond which a directional "
                          "metric counts as regressed (default 0.25)")
    bdf.add_argument("--ignore-timing", action="store_true",
                     help="never flag wall-time metrics or the rates "
                          "derived from them (noisy runners)")
    bdf.add_argument("--verbose", action="store_true",
                     help="also list non-regressed deltas")
    bdf.add_argument("-o", "--output",
                     help="write the diff report as JSON to this file")

    cha = sub.add_parser(
        "chaos",
        help="run a fault-injection scenario and report recovery",
    )
    cha.add_argument("--scenario", choices=sorted(_CHAOS_SCENARIOS),
                     default="all",
                     help="which fault scenario to run (default: all)")
    cha.add_argument("--rounds", type=int, default=1200,
                     help="protocol rounds per run")
    cha.add_argument("--fault-at", type=int, default=400,
                     help="round at which the fault starts")
    cha.add_argument("--outage", type=int, default=50,
                     help="fault duration in rounds")
    cha.add_argument("--agent", default="resource:r0",
                     help="agent to crash (crash scenarios)")
    cha.add_argument("--seed", type=int, default=0)
    cha.add_argument("--staleness-limit", type=int, default=10,
                     help="rounds before a controller degrades on stale "
                          "prices")
    cha.add_argument("--quick", action="store_true",
                     help="small-budget smoke configuration "
                          "(500 rounds, fault at 150 for 30)")
    cha.add_argument("--traces", action="store_true",
                     help="include per-round utility traces in the JSON "
                          "report")
    cha.add_argument("-o", "--output",
                     help="write the chaos report as JSON to this file")

    srv = sub.add_parser(
        "serve",
        help="drive the always-on allocation service through a scripted "
             "churn scenario",
    )
    srv.add_argument("workload", nargs="?",
                     help="serialized workload JSON (default: the scaled "
                          "paper workload)")
    srv.add_argument("--copies", type=int, default=4,
                     help="base-workload clones when no workload file is "
                          "given (default 4 = 12 tasks)")
    srv.add_argument("--epoch-iterations", type=int, default=1500,
                     help="optimizer iterations per churn epoch")
    srv.add_argument("--cycles", type=int, default=2,
                     help="deregister/re-register churn cycles")
    srv.add_argument("--queries", type=int, default=1000,
                     help="allocation queries timed after the last epoch")
    srv.add_argument("--cold", action="store_true",
                     help="disable churn warm starts (baseline mode)")
    srv.add_argument("--smoke", action="store_true",
                     help="small-budget smoke configuration (2 clones, "
                          "1 cycle, 400-iteration epochs)")
    srv.add_argument("--deadline", type=float, default=None,
                     help="overall wall-clock deadline in seconds for the "
                          "scripted scenario; exceeding it exits non-zero "
                          "(default: 120 with --smoke, unlimited "
                          "otherwise)")
    srv.add_argument("--harden", action="store_true",
                     help="wrap the service in the supervised hardening "
                          "layer and drive it through the scripted "
                          "overload fault schedule (storm, stall, "
                          "snapshot corruption, checkpoint outage)")
    srv.add_argument("--ticks", type=int, default=120,
                     help="supervisor ticks for --harden (>= 105 so the "
                          "fault schedule completes; default 120)")
    srv.add_argument("--trace",
                     help="write a JSONL telemetry trace to this file")
    srv.add_argument("-o", "--output",
                     help="write the service report as JSON to this file")

    lnt = sub.add_parser(
        "lint",
        help="run the statan invariant linter (text/JSON/SARIF reports)",
    )
    add_lint_arguments(lnt)

    return parser


def _load_taskset(path: str):
    try:
        with open(path) as handle:
            return taskset_from_json(handle.read())
    except OSError as exc:
        raise SystemExit(f"cannot read {path!r}: {exc}") from exc


def _parse_overrides(pairs: List[str]) -> dict:
    overrides = {}
    for pair in pairs:
        key, sep, value = pair.partition("=")
        if not sep or not key:
            raise SystemExit(
                f"bad --set {pair!r}: expected KEY=VALUE"
            )
        overrides[key] = value
    return overrides


def _cmd_experiment(args: argparse.Namespace) -> int:
    from repro import harness
    from repro.errors import HarnessError

    harness.load_all()

    modes = sum((args.list_specs, args.all_specs, args.name is not None))
    if modes != 1:
        raise SystemExit(
            "choose exactly one of: an experiment name, --list, --all"
        )

    if args.list_specs:
        specs = harness.all_specs()
        width = max(len(s.name) for s in specs)
        print(f"{len(specs)} registered experiments:")
        for spec in specs:
            print(f"  {spec.name:<{width}}  {len(spec.checks)} claims  "
                  f"[{spec.source}]  {spec.description}")
        return 0

    if (args.all_specs
            and (args.overrides or args.iterations)):
        raise SystemExit(
            "--set/--iterations apply to a single experiment, not --all"
        )

    telemetry = Telemetry.to_file(args.trace) if args.trace else None
    try:
        if args.all_specs:
            results = harness.run_all(
                quick=args.quick, seed=args.seed, telemetry=telemetry,
                progress=lambda run: print(run.summary()),
            )
            print()
            print(harness.render_scorecard(results))
            if args.output:
                card = harness.scorecard_dict(results, quick=args.quick)
                with open(args.output, "w") as handle:
                    json.dump(card, handle, indent=2,
                              default=harness.json_default)
                print(f"scorecard written to {args.output}")
            return 0 if all(r.passed for r in results) else 1

        try:
            run = harness.execute(
                args.name, _parse_overrides(args.overrides),
                seed=args.seed, iterations=args.iterations, quick=args.quick,
                telemetry=telemetry,
            )
        except HarnessError as exc:
            raise SystemExit(str(exc)) from exc
        print(run.summary())
        for check in run.checks:
            marker = {"pass": "PASS", "fail": "FAIL",
                      "skipped": "skip"}[check.status]
            print(f"  [{marker}] {check.name}")
            for key, value in check.measured.items():
                print(f"         {key} = {value:g}")
        if args.output:
            with open(args.output, "w") as handle:
                handle.write(run.to_json() + "\n")
            print(f"artifact written to {args.output}")
        return 0 if run.passed else 1
    finally:
        if telemetry is not None:
            telemetry.close()
            print(f"trace written to {args.trace}")


def _cmd_optimize(args: argparse.Namespace) -> int:
    taskset = _load_taskset(args.workload)
    config = LLAConfig(max_iterations=args.iterations,
                       warm_start=args.warm_start)
    telemetry = Telemetry.to_file(args.trace) if args.trace else None
    try:
        result = LLAOptimizer(taskset, config, telemetry=telemetry).run()
    finally:
        if telemetry is not None:
            telemetry.close()
    if args.trace:
        print(f"trace written to {args.trace}")
    print(f"converged: {result.converged} after {result.iterations} "
          f"iterations; utility {result.utility:.3f}")
    for task in taskset.tasks:
        _, crit = task.critical_path(result.latencies)
        print(f"  {task.name}: critical path {crit:.2f} / "
              f"{task.critical_time:.2f}")
    if args.output:
        allocation = {
            "latencies": result.latencies,
            "shares": {
                name: taskset.share_function(name).share(lat)
                for name, lat in result.latencies.items()
            },
            "utility": result.utility,
            "converged": result.converged,
        }
        with open(args.output, "w") as handle:
            json.dump(allocation, handle, indent=2)
        print(f"allocation written to {args.output}")
    return 0 if result.converged else 1


def _cmd_check(args: argparse.Namespace) -> int:
    taskset = _load_taskset(args.workload)
    report = SchedulabilityAnalyzer(iterations=args.iterations).analyze(
        taskset
    )
    print(report.summary())
    return 0 if report.schedulable else 1


def _cmd_export(args: argparse.Namespace) -> int:
    text = taskset_to_json(make_workload(args.name))
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(text + "\n")
        print(f"workload written to {args.output}")
    else:
        print(text)
    return 0


def _load_trace(path: str):
    try:
        return read_trace(path)
    except OSError as exc:
        raise SystemExit(f"cannot read {path!r}: {exc}") from exc
    except TelemetryError as exc:
        raise SystemExit(f"bad trace {path!r}: {exc}") from exc


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.analysis.trace import summarize_trace
    from repro.telemetry import records_from_trace
    from repro.telemetry.replay import (
        recorder_drops_from_trace,
        supported_events,
    )

    events = supported_events(_load_trace(args.tracefile))
    records = records_from_trace(events)
    if not records:
        raise SystemExit(
            f"no iteration events in {args.tracefile!r}; was the run traced?"
        )
    summary = summarize_trace(
        records, band=args.band,
        dropped_samples=recorder_drops_from_trace(events),
    )
    settling = "-" if summary.settling is None else str(summary.settling)
    print(f"iterations:          {summary.iterations}")
    print(f"final utility:       {summary.final_utility:.6f}")
    print(f"settling iteration:  {settling}")
    print(f"tail oscillation:    {summary.oscillation:.6f}")
    print(f"price drift:         {summary.price_drift:.6f}")
    print(f"violated iterations: {summary.violated_iterations}")
    print(f"dropped samples:     {summary.dropped_samples}")
    print(f"converged cleanly:   {summary.converged_cleanly()}")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import render_prometheus_snapshot
    from repro.telemetry.replay import recorder_drops_from_trace

    events = _load_trace(args.tracefile)
    if not events:
        raise SystemExit(f"empty trace {args.tracefile!r}")
    snapshots = [ev for ev in events if ev.kind == "metrics_snapshot"]
    if args.prometheus:
        if not snapshots:
            raise SystemExit(
                f"no metrics_snapshot events in {args.tracefile!r}"
            )
        sys.stdout.write(
            render_prometheus_snapshot(snapshots[-1].data["metrics"])
        )
        return 0
    print(f"{len(events)} events:")
    for kind, count in event_counts(events).items():
        print(f"  {kind:<20s} {count}")
    finished = [ev for ev in events if ev.kind == "run_finished"]
    if finished:
        data = finished[-1].data
        print(f"run: runtime={data.get('runtime')} "
              f"converged={data.get('converged')} "
              f"iterations={data.get('iterations')} "
              f"utility={data.get('utility')}")
    drops = recorder_drops_from_trace(events)
    if drops:
        print(f"recorder drops: {drops} samples lost to full ring buffers")
    if snapshots:
        print("metrics:")
        for name, snap in sorted(snapshots[-1].data["metrics"].items()):
            fields = ", ".join(
                f"{k}={v}" for k, v in snap.items() if k != "type"
            )
            print(f"  {name} ({snap['type']}): {fields}")
    return 0


def _cmd_diagnose(args: argparse.Namespace) -> int:
    from repro.diagnostics import diagnose_trace_file, findings_to_dicts
    from repro.errors import DiagnosticsError
    from repro.telemetry.replay import supported_events
    from repro.telemetry.spans import (
        critical_path,
        format_critical_path,
        spans_from_trace,
    )

    taskset = _load_taskset(args.workload) if args.workload else None
    try:
        findings = diagnose_trace_file(
            args.tracefile, window=args.window, taskset=taskset,
        )
    except (DiagnosticsError, TelemetryError, OSError) as exc:
        raise SystemExit(f"cannot diagnose {args.tracefile!r}: {exc}")
    spans = spans_from_trace(supported_events(_load_trace(args.tracefile)))
    path = critical_path(spans) if spans else []
    if args.as_json:
        print(json.dumps({
            "trace": args.tracefile,
            "window": args.window,
            "findings": findings_to_dicts(findings),
            "critical_path": [record.to_dict() for record in path],
        }, indent=2))
    else:
        if findings:
            for finding in findings:
                print(f"[{finding.severity.upper():<8}] {finding.detector}: "
                      f"{finding.summary}")
        else:
            print("no findings: trajectory looks healthy")
        if path:
            print()
            print("critical path:")
            print(format_critical_path(path))
    return 1 if any(f.severity == "critical" for f in findings) else 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.console import live_top
    from repro.diagnostics import DiagnosticsEngine
    from repro.distributed.runtime import (
        DistributedConfig,
        DistributedLLARuntime,
    )

    taskset = _load_taskset(args.workload)
    config = DistributedConfig(
        delay=args.delay, loss_probability=args.loss, seed=args.seed,
    )
    runtime = DistributedLLARuntime(taskset, config=config)
    engine = DiagnosticsEngine(taskset=taskset)
    state = live_top(
        runtime, rounds=args.rounds, refresh_every=args.refresh,
        engine=engine, plain=args.plain,
    )
    return 0 if state.feasible else 1


def _cmd_benchdiff(args: argparse.Namespace) -> int:
    from repro.console import diff_files, format_diff
    from repro.errors import DiagnosticsError

    try:
        diff = diff_files(
            args.baseline, args.current,
            threshold=args.threshold, ignore_timing=args.ignore_timing,
        )
    except DiagnosticsError as exc:
        raise SystemExit(str(exc))
    print(format_diff(diff, verbose=args.verbose))
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(diff.to_dict(), handle, indent=2)
        print(f"diff report written to {args.output}")
    return 0 if diff.ok else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.resilience import (
        run_blackout_recovery,
        run_crash_recovery,
    )

    rounds, fault_at, outage = args.rounds, args.fault_at, args.outage
    if args.quick:
        rounds, fault_at, outage = 500, 150, 30

    def crash(warm: bool):
        return run_crash_recovery(
            agent=args.agent, rounds=rounds, crash_at=fault_at,
            outage=outage, warm=warm, seed=args.seed,
            staleness_limit=args.staleness_limit,
        )

    def blackout():
        return run_blackout_recovery(
            rounds=rounds, start=fault_at, duration=outage, seed=args.seed,
            staleness_limit=args.staleness_limit,
        )

    runners = {
        "crash-restart": lambda: [crash(True)],
        "crash-cold": lambda: [crash(False)],
        "blackout": lambda: [blackout()],
        "all": lambda: [crash(True), crash(False), blackout()],
    }
    reports = runners[args.scenario]()
    for report in reports:
        print(report.summary())
    healthy = all(r.recovered() and r.degradation_safe() for r in reports)
    print(f"healthy: {healthy}")
    if args.output:
        payload = {
            "experiment": "resilience",
            "rounds": rounds,
            "seed": args.seed,
            "staleness_limit": args.staleness_limit,
            "healthy": healthy,
            "reports": [r.to_dict(include_traces=args.traces)
                        for r in reports],
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"chaos report written to {args.output}")
    return 0 if healthy else 1


def _run_with_deadline(coro: "Coroutine[Any, Any, None]",
                       deadline: Optional[float]) -> bool:
    """Run ``coro`` to completion, bounded by ``deadline`` seconds.

    Returns True on completion, False when the deadline fired (the
    scenario is cancelled).  A ``None`` deadline means unbounded.
    """
    import asyncio

    if deadline is None:
        asyncio.run(coro)
        return True
    try:
        asyncio.run(asyncio.wait_for(coro, timeout=deadline))
    except asyncio.TimeoutError:
        return False
    return True


def _close_service_trace(telemetry: Telemetry, path: str) -> None:
    """End a service trace with the registry's metrics, which ``repro
    stats`` and ``--prometheus`` read, then close it."""
    if telemetry.registry.enabled:
        telemetry.tracer.emit("metrics_snapshot",
                              metrics=telemetry.registry.snapshot())
    telemetry.close()
    print(f"trace written to {path}")


def _serve_hardened(args: argparse.Namespace, taskset: "TaskSet",
                    telemetry: Optional[Telemetry],
                    deadline: Optional[float]) -> int:
    """The --harden serve mode: a supervised service driven through the
    scripted overload fault schedule."""
    import tempfile

    from repro.distributed.faults import (
        CheckpointCorruption,
        CheckpointOutage,
        ChurnStorm,
        FaultPlan,
        LoopStall,
    )
    from repro.service import (
        BrownoutConfig,
        HardeningConfig,
        SupervisedService,
    )

    if args.ticks < 105:
        print("--ticks must be >= 105 so the fault schedule completes "
              "(checkpoint outage ends at tick 96, breaker recloses at "
              "100)", file=sys.stderr)
        return 2
    plan = FaultPlan(
        churn_storms=(ChurnStorm(at=30, events=36, kind="oscillate"),
                      ChurnStorm(at=64, events=6, kind="arrivals")),
        loop_stalls=(LoopStall(at=60, ticks=8),),
        checkpoint_corruptions=(CheckpointCorruption(at=62),),
        checkpoint_outages=(CheckpointOutage(start=90, end=96),),
    )
    tasks = list(taskset.tasks)
    with tempfile.TemporaryDirectory(prefix="serve-harden-") as snapdir:
        config = HardeningConfig(
            queue_capacity=8,
            stall_deadline=3,
            snapshot_interval=10,
            snapshot_dir=snapdir,
            brownout=BrownoutConfig(enter_after=2, exit_after=5),
            reconverge_patience=max(200, args.ticks),
            seed=0,
        )
        service = SupervisedService(
            list(taskset.resources.values()), tasks,
            config=config, telemetry=telemetry, fault_plan=plan,
        )
        if not _run_with_deadline(service.run(args.ticks), deadline):
            print(f"hardened serve scenario exceeded the "
                  f"{deadline:.0f}s deadline", file=sys.stderr)
            return 2
        answered = degraded_answers = 0
        for task in tasks:
            view = service.query(task.name)
            answered += 1
            if view.degraded:
                degraded_answers += 1
        stats = service.stats()
    print(f"hardened service survived the scripted fault schedule "
          f"({args.ticks} ticks)")
    print(f"  supervisor restarts {stats.supervisor_restarts} "
          f"(watchdog fires {stats.watchdog_fires}, "
          f"stalled ticks {stats.stall_ticks})")
    print(f"  churn queue: depth <= {stats.queue_max_depth}, "
          f"shed {stats.queue_shed}, coalesced {stats.queue_coalesced}, "
          f"degraded-shed {stats.degraded_shed}")
    print(f"  brownout: {stats.brownout_entries} entries / "
          f"{stats.brownout_exits} exits "
          f"(now {'degraded' if stats.degraded else 'healthy'})")
    print(f"  checkpoints: {stats.snapshots_taken} taken, "
          f"{stats.snapshot_corruptions} corrupt, "
          f"{stats.retries} retries, breaker {stats.breaker_state} "
          f"after {stats.breaker_opens} opens")
    print(f"  queries: {stats.live_served + stats.degraded_served + stats.stale_served} served "
          f"({stats.degraded_served + stats.stale_served} from the "
          f"last-good allocation), {stats.failed_queries} failed")
    healthy = (not stats.degraded
               and stats.failed_queries == 0
               and stats.breaker_state == "closed"
               and answered == len(tasks))
    if telemetry is not None:
        _close_service_trace(telemetry, args.trace)
    if args.output:
        payload = {
            "command": "serve",
            "mode": "hardened",
            "ticks": args.ticks,
            "healthy": healthy,
            "degraded_answers": degraded_answers,
            "stats": stats.to_dict(),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"service report written to {args.output}")
    return 0 if healthy else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import time

    from repro.service import AllocationService, ServiceConfig

    if args.smoke:
        copies, cycles, epoch_iters = 2, 1, 400
    else:
        copies, cycles, epoch_iters = (args.copies, args.cycles,
                                       args.epoch_iterations)
    deadline = args.deadline
    if deadline is None and args.smoke:
        deadline = 120.0
    if args.workload:
        taskset = _load_taskset(args.workload)
    else:
        taskset = scaled_workload(copies)

    telemetry = Telemetry.to_file(args.trace) if args.trace else None
    if args.harden:
        return _serve_hardened(args, taskset, telemetry, deadline)
    service = AllocationService(
        list(taskset.resources.values()),
        config=ServiceConfig(warm_start_churn=not args.cold),
        telemetry=telemetry,
    )
    tasks = list(taskset.tasks)
    for task in tasks:
        decision = service.register(task)
        if not decision.admitted:
            raise SystemExit(
                f"task {task.name!r} rejected: {decision.reason}"
            )

    async def scenario() -> None:
        await service.run(iterations=epoch_iters)
        for cycle in range(cycles):
            victim = tasks[(cycle * 5) % len(tasks)]
            service.deregister(victim.name)
            await service.run(iterations=epoch_iters)
            service.register(victim)
            await service.run(iterations=epoch_iters)

    if not _run_with_deadline(scenario(), deadline):
        print(f"serve scenario exceeded the {deadline:.0f}s deadline",
              file=sys.stderr)
        return 2

    started = time.perf_counter()
    infeasible_queries = 0
    for i in range(args.queries):
        view = service.query(tasks[i % len(tasks)].name)
        if not view.meets_critical_time:
            infeasible_queries += 1
    elapsed = time.perf_counter() - started
    qps = args.queries / elapsed if elapsed > 0.0 else 0.0

    stats = service.stats()
    mode = "cold" if args.cold else "warm"
    print(f"always-on service ({mode} churn restarts)")
    print(f"  tasks {stats.tasks}, epochs {stats.epoch}, "
          f"iterations {stats.iterations}")
    print(f"  re-convergence rounds per epoch: "
          f"{list(stats.reconvergence_rounds)}")
    print(f"  structure cache: {stats.cache_hits} hits / "
          f"{stats.cache_misses} misses "
          f"(hit rate {stats.cache_hit_rate:.2f})")
    print(f"  queries: {args.queries} in {elapsed * 1e3:.1f} ms "
          f"({qps:,.0f}/s), {infeasible_queries} infeasible")
    print(f"  converged: {stats.converged}")
    if telemetry is not None:
        _close_service_trace(telemetry, args.trace)

    healthy = stats.converged and infeasible_queries == 0
    if args.output:
        payload = {
            "command": "serve",
            "mode": mode,
            "epoch_iterations": epoch_iters,
            "cycles": cycles,
            "healthy": healthy,
            "query_count": args.queries,
            "queries_per_second": qps,
            "infeasible_queries": infeasible_queries,
            "stats": stats.to_dict(),
        }
        with open(args.output, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"service report written to {args.output}")
    return 0 if healthy else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "experiment": _cmd_experiment,
        "optimize": _cmd_optimize,
        "check": _cmd_check,
        "export-workload": _cmd_export,
        "trace": _cmd_trace,
        "stats": _cmd_stats,
        "diagnose": _cmd_diagnose,
        "top": _cmd_top,
        "bench-diff": _cmd_benchdiff,
        "chaos": _cmd_chaos,
        "serve": _cmd_serve,
        "lint": run_lint,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
