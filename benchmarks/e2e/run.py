#!/usr/bin/env python3
"""One repeatable end-to-end benchmark of the distributed windtunnel.

    python benchmarks/e2e/run.py                         # all four workloads
    python benchmarks/e2e/run.py --workload drag --seed 7
    python benchmarks/e2e/run.py --workload drag --trace 1   # per-layer table
    python benchmarks/e2e/run.py --aa                    # two interleaved sets
    python benchmarks/e2e/run.py --smoke                 # seconds-sized CI run

Each measurement runs in a fresh child process (so ``setup_s`` is process
start to first photon and no run inherits another's caches); this parent
only spawns, aggregates and prints.  With ``--workload`` the last stdout
line is the one-object JSON result the benchmark driver reads.  See
README.md for the metric definitions and the noise rules behind the design.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from harness import END_TO_END, PER_LAYER, QUIET_ENV, CheckFailed, HostSpeed, \
    Tracer, as_measured, at_reference, end_to_end, host_block, layer_metrics, \
    median, peak_rss_mb, ratio, run_window, self_times

REPO = Path(__file__).resolve().parents[2]
DEFAULT_SEED = 1992
DEFAULT_SECONDS = 12
#: Floor on latency samples per window (per workload, all sessions).
MIN_SAMPLES = 100
#: Seconds one run (its set-up repeats and its measuring child together) may
#: take before it is killed and reported as failed.
RUN_DEADLINE = 170
#: Tracing may slow the median cycle by at most this factor.
MAX_TRACE_OVERHEAD = 1.10


class RunFailed(RuntimeError):
    """A child timed out, crashed, or printed no result."""


# -- the child: one session in this process ------------------------------------------


def child_main(args) -> int:
    from workloads import WORKLOADS

    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]()
    script = workload.script(args.seed)
    try:
        workload.open(script, args.tmp)
        # Process start -> first photon, and the modeled sleep inside it.
        setup = {"seconds": time.monotonic() - args.spawned_at,
                 "slept": workload.modeled_sleep()}
        if args.phase == "setup":
            result = setup
        else:
            result = _measure(workload, args, setup)
            result["host"] = host_block(args.seed, load_start)
            result["workload"] = {
                "name": workload.name, "seed": args.seed, "cycles": args.cycles,
                "warmup": args.warmup, "clients": workload.clients,
                "sessions": workload.sessions, "closed_loop": True,
                "traced": bool(args.trace), "script": script,
            }
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


def _measure(workload, args, setup: dict) -> dict:
    host = workload.host = HostSpeed()
    warm = run_window(workload, range(args.warmup), host=host)
    if warm.failed:
        raise RuntimeError("warm-up cycle failed:\n" + warm.failures[0])
    if args.sabotage:
        _sabotage(workload, args.sabotage)
    ks = range(args.warmup, args.warmup + args.cycles)
    plain = run_window(workload, ks, host=host)
    windows = [plain]
    result: dict = {}
    traced_raw: dict = {}
    if args.trace:
        # Same session, same script, next cycles — now with every layer's
        # public entry points wrapped; the ratio of the two medians is the
        # tracing overhead.
        tracer = Tracer()
        traced_ks = range(ks.stop, ks.stop + args.cycles)
        before = workload.stats()
        for owner, attr, name in workload.trace_points():
            tracer.wrap(owner, attr, name)
        traced = run_window(workload, traced_ks, tracer, host=host)
        tracer.uninstall()
        after = workload.stats()
        windows.append(traced)
    checks = workload.finish()
    rss = peak_rss_mb(workload.worker_pids())
    if args.trace:
        probes = workload.probes(plain, ks, traced_ks.stop)
        result["layers"] = layer_metrics(
            tracer.spans, before, after, traced, plain, probes)
        checks["client_spans_cover_cycle"] = _coverage(tracer.spans) >= 0.95
        checks.update(workload.layer_checks(result["layers"], traced_ks))
        # obs.trace_overhead_ratio compares two windows' medians and scatters
        # by a tenth either way here (README), so the gate is on the cost the
        # spans account for: every span charged to the cycles, on any thread.
        accounted = 1.0 + ratio(len(tracer.spans) * Tracer.span_cost(),
                                sum(traced.all_latencies))
        checks["span_cost_within_10pct_of_cycles"] = accounted <= MAX_TRACE_OVERHEAD
        traced_raw = {
            "traced_latency_p50_ms": as_measured(traced)["latency_p50_ms"],
            "accounted_trace_overhead_ratio": accounted,
        }
        if args.spans:
            tracer.write_jsonl(args.spans)
    result["metrics"] = end_to_end(plain, setup["seconds"], rss)
    result["as_measured"] = {**as_measured(plain), "setups": [setup], **traced_raw}
    result["attempted"] = sum(w.attempted for w in windows)
    result["failed"] = sum(w.failed for w in windows)
    result["failures"] = [f for w in windows for f in w.failures][:5]
    checks["every_cycle_passed"] = result["failed"] == 0
    result["checks"] = checks
    return result


def _sabotage(workload, every: int) -> None:
    """Harness self-test: fail the output check of every ``every``-th cycle."""
    verify = workload.verify

    def broken(session: int, k: int, out) -> None:
        verify(session, k, out)
        if k % every == 0:
            raise CheckFailed(f"cycle {k} sabotaged (harness self-test)")

    workload.verify = broken


def _coverage(spans) -> float:
    """Median share of a cycle covered by the spans beneath it."""
    own = self_times(spans)
    shares = [1.0 - own[s[0]] / (s[3] - s[2]) for s in spans if s[1] == "cycle"]
    return median(shares)


# -- the parent: spawn, aggregate, print -----------------------------------------------


def _spawn(workload: str, seed: int, cycles: int, warmup: int, trace: int,
           phase: str, tmp: str, deadline: float, extra=()) -> dict:
    env = dict(os.environ, **QUIET_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", workload, "--seed", str(seed), "--cycles", str(cycles),
        "--warmup", str(warmup), "--trace", str(trace), "--phase", phase,
        "--tmp", tmp, "--spawned-at", repr(time.monotonic()),
    ] + list(extra)
    # Its own process group, so a timeout or crash takes the gateway's
    # worker processes down with the child instead of orphaning them.
    child = subprocess.Popen(command, env=env, stdout=subprocess.PIPE, text=True,
                             cwd=REPO, start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        stdout = None
    if stdout is None or child.returncode != 0:
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # it crashed alone: no workers left behind
        child.communicate()
        raise RunFailed(
            f"{workload} {phase} child "
            + (f"exceeded the {RUN_DEADLINE} s run deadline and was killed"
               if stdout is None else f"exited {child.returncode}"))
    return json.loads(stdout.strip().splitlines()[-1])


def _git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO, text=True,
                              capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def run_one(name: str, seed: int, seconds: float, trace: int, *,
            smoke: bool = False, extra=()) -> dict:
    """One fresh-process run of one workload; returns its result record."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    if smoke:
        cycles, warmup, repeats = workload.smoke_cycles, min(workload.warmup, 2), 0
    else:
        cycles = max(math.ceil(MIN_SAMPLES / workload.sessions),
                     round(workload.rate * seconds))
        warmup, repeats = workload.warmup, workload.setup_repeats
    if trace:
        cycles, repeats = math.ceil(cycles / 4), 0  # plain quarter + traced quarter
    deadline = time.monotonic() + RUN_DEADLINE
    # Datasets go to a directory of this run's own at the checkout root (the
    # driver confines the benchmark to its checkout); git-ignored, removed here.
    tmp = tempfile.mkdtemp(prefix=".e2e_tmp-", dir=REPO)
    try:
        setups = [_spawn(name, seed, 0, 0, 0, "setup", tmp, deadline)
                  for _ in range(repeats)]
        result = _spawn(name, seed, cycles, warmup, trace, "run", tmp, deadline, extra)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    # A set-up is over too soon to read the host's speed beside it (a quarter
    # second of the reference kernels scatters by a quarter), so every set-up
    # of the run is brought to reference speed by the window's reading.
    raw = result["as_measured"]
    raw["setups"] = setups + raw["setups"]
    result["metrics"]["setup_s"].update(
        value=median([at_reference(s["seconds"], raw["host_factor"], s["slept"],
                                   raw["host_share"]) for s in raw["setups"]]),
        n=len(raw["setups"]))
    result["host"]["git_sha"] = _git_sha()
    result["correct"] = all(result["checks"].values())
    return result


def _table(result: dict) -> dict:
    """The metric table a run reports: layers if traced, else end to end."""
    return result["layers" if result["workload"]["traced"] else "metrics"]


def print_result(result: dict) -> None:
    w = result["workload"]
    print(f"== {w['name']}  seed={w['seed']}  cycles={w['cycles']}x{w['sessions']} "
          f"(+{w['warmup']} warm-up)  clients={w['clients']}  closed-loop  "
          f"{'traced' if w['traced'] else 'untraced'}")
    for name, m in _table(result).items():
        print(f"  {name:36s} {m['value']:14.4f} {m['unit']:6s} n={m['n']}")
    raw = result["as_measured"]
    print(f"  as measured: p50 {raw['latency_p50_ms']:.4f} ms, {raw['fps']:.4f} fps, "
          f"{raw['cpu_ms_per_frame']:.4f} cpu ms/frame over {raw['window_seconds']:.1f} s, "
          f"set-up {median([s['seconds'] for s in raw['setups']]):.4f} s; "
          f"host factor {raw['host_factor']:.3f}")
    for name, ok in result["checks"].items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    for failure in result["failures"]:
        print(failure, file=sys.stderr)


def contract_line(result: dict) -> str:
    """The one-object JSON the benchmark driver reads off the last line."""
    names = PER_LAYER if result["workload"]["traced"] else END_TO_END
    table = _table(result)
    return json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": table[n]["value"], "unit": table[n]["unit"]}
                    for n in names},
    })


# -- A/A ------------------------------------------------------------------------------


def worsening(name: str, first: float, second: float) -> float:
    """Relative amount by which ``second`` is worse than ``first``."""
    delta = (second - first) / first
    return delta if END_TO_END[name][1] == "lower" else -delta


def spread(values) -> float:
    """Interquartile range over the median (0 for a constant or a lone value)."""
    if len(values) < 2 or not statistics.median(values):
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def bound_of(spec_bounds: dict, workload, metric: str) -> float:
    """The bound ``--aa`` holds one workload x metric to.  ``BENCHMARK.json``
    has one bound per metric; on a lock-step workload the wire bytes are a
    function of the script alone and are held to exactly 0 instead."""
    if metric == "wire_kb_per_frame" and workload.lock_step:
        return 0.0
    return spec_bounds[metric]


def run_aa(names, seed: int, seconds: float, runs: int, smoke: bool) -> dict:
    """Two interleaved sets of the same code, judged by the benchmark's bounds."""
    from workloads import WORKLOADS

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    scaled = ("latency_p50_ms", "fps", "cpu_ms_per_frame")  # have a raw reading
    values = {n: {m: ([], []) for m in [*END_TO_END, "failed_ratio"]} for n in names}
    raw = {n: {m: ([], []) for m in scaled} for n in names}
    for i in range(runs):
        for side in (0, 1):
            for name in names:  # round-robin, so drift hits both sets alike
                result = run_one(name, seed + i, seconds, 0, smoke=smoke)
                if not result["correct"]:
                    raise RunFailed(f"{name} failed its checks during --aa")
                for metric, sides in values[name].items():
                    sides[side].append(result["metrics"][metric]["value"])
                for metric, sides in raw[name].items():
                    sides[side].append(result["as_measured"][metric])
                print(f"aa run {i + 1}/{runs} set {'AB'[side]} {name}: "
                      f"p50 {result['metrics']['latency_p50_ms']['value']:.2f} ms "
                      f"(as measured {result['as_measured']['latency_p50_ms']:.2f}, "
                      f"host factor {result['as_measured']['host_factor']:.3f})",
                      flush=True)
    report = {"seed": seed, "runs_per_set": runs, "seconds": seconds,
              "git_sha": _git_sha(), "rows": [], "ok": True}
    for name in names:
        for metric, (a, b) in values[name].items():
            med_a, med_b = statistics.median(a), statistics.median(b)
            if metric == "failed_ratio":  # absolute: no cycle may fail
                unit, worse, bound = "ratio", max(a + b), 0.0
            else:
                unit = END_TO_END[metric][0]
                worse = max(worsening(metric, med_a, med_b),
                            worsening(metric, med_b, med_a))
                bound = bound_of(bounds, WORKLOADS[name], metric)
            row = {
                "workload": name, "metric": metric, "unit": unit,
                "median_a": med_a, "median_b": med_b, "rel_diff": worse,
                "spread_a": spread(a), "spread_b": spread(b),
                "bound": bound, "ok": worse <= bound,
                "values_a": a, "values_b": b,
            }
            if metric in scaled:  # the same comparison on the unscaled readings
                raw_a, raw_b = raw[name][metric]
                ra, rb = statistics.median(raw_a), statistics.median(raw_b)
                row["as_measured"] = {
                    "median_a": ra, "median_b": rb,
                    "rel_diff": max(worsening(metric, ra, rb), worsening(metric, rb, ra)),
                    "spread_a": spread(raw_a), "spread_b": spread(raw_b),
                    "values_a": raw_a, "values_b": raw_b,
                }
            report["rows"].append(row)
            report["ok"] &= row["ok"]
            print(f"{name:13s} {metric:18s} A {med_a:12.4f}  B {med_b:12.4f}  "
                  f"diff {worse:7.4f}  spread {row['spread_a']:.3f}/{row['spread_b']:.3f}  "
                  f"bound {bound:.2f}  {'ok' if row['ok'] else 'EXCEEDED'}")
    return report


# -- entry -----------------------------------------------------------------------------


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="run one workload (default: all four)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                    help="sizes the fixed cycle count (rate x seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None,
                    help="1: the traced per-layer run; default with no "
                         "--workload: both")
    ap.add_argument("--smoke", action="store_true", help="seconds-sized windows")
    ap.add_argument("--aa", action="store_true", help="two interleaved sets")
    ap.add_argument("--aa-runs", type=int, default=5)
    ap.add_argument("--out", help="write the full result records here (JSON)")
    ap.add_argument("--spans", help="write the traced run's spans here (JSONL)")
    for hidden in ("--cycles", "--warmup", "--sabotage"):
        ap.add_argument(hidden, type=int, help=argparse.SUPPRESS)
    ap.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--phase", help=argparse.SUPPRESS)
    ap.add_argument("--tmp", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child_main(args)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no windtunnel source under {REPO / 'src'}", file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    names = [args.workload] if args.workload else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        ap.error(f"unknown workload {unknown[0]!r}; choose from {list(WORKLOADS)}")
    try:
        return _run(args, names)
    except RunFailed as failure:  # a failed run: no result line, exit 1
        print(f"run failed: {failure}", file=sys.stderr)
        return 1


def _run(args, names) -> int:
    if args.aa:
        report = run_aa(names, args.seed, args.seconds, args.aa_runs, args.smoke)
        if args.out:
            Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
        return 0 if report["ok"] else 1
    traces = [args.trace] if args.trace is not None else (
        [0] if args.workload else [0, 1])
    extra = ["--sabotage", str(args.sabotage)] if args.sabotage else []
    results = [
        run_one(name, args.seed, args.seconds, trace, smoke=args.smoke,
                extra=extra + (["--spans", args.spans] if trace and args.spans else []))
        for name in names for trace in traces
    ]
    for result in results:
        print_result(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1) + "\n")
    if args.workload and len(results) == 1:
        print(contract_line(results[0]))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
