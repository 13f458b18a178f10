#!/usr/bin/env python
"""Docs CI: check links, names, paths and metric names, and run doctests.

Four classes of documentation rot, all caught mechanically:

* **Dead relative links** — every ``[text](target)`` whose target is not
  an URL or a pure anchor must resolve to a file (or directory) in the
  repository, relative to the document that links it.
* **Names of deleted things** — inside back-ticks, every dotted
  ``repro.<module>.<Name>`` must import and every repo-relative ``*.py``
  path (one with a directory part, from the repo root or from
  ``src/repro``) must exist.  ROADMAP.md is exempt: its Recent section
  names deleted things on purpose.
* **Metric names that no registry holds** — outside the top-level
  documents, a back-ticked ``<ns>.<name>`` in one of the metric
  namespaces (``cache.l1.hits``, ``net.*``, ``gateway.worker.<name>.
  saturation``) must be something a scripted smoke session really
  leaves behind: an instrument in one of its registries (trailing ``*``
  is a prefix, ``<placeholder>`` one segment), a procedure one of its
  servers registered (``wt.frame``), or a ``BENCHMARK.json`` metric.
* **Stale runnable examples** — a fenced code block opened with
  ```` ```python doctest ```` is executed as a doctest session against
  the real package.  Prose examples (plain ```` ```python ````) are not
  executed; opt a block in only when it is deterministic.

Usage::

    PYTHONPATH=src python tools/check_docs.py           # whole repo
    PYTHONPATH=src python tools/check_docs.py docs/network.md

Exits non-zero on any failure.  ``tests/test_docs.py`` wraps this for
the test suite, and the ``docs`` CI job runs it directly.
"""

from __future__ import annotations

import doctest
import functools
import json
import pkgutil
import re
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Documents checked when no arguments are given.
DEFAULT_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md")

#: ``[text](target)`` — excluding images' leading ``!`` is unnecessary:
#: image targets must resolve too.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
#: A fenced block opened with ```python doctest (any trailing ws).
_DOCTEST_FENCE = re.compile(
    r"^```python doctest\s*$(.*?)^```\s*$", re.MULTILINE | re.DOTALL
)
_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
_CODE_SPAN = re.compile(r"`([^`\n]+)`")
_DOTTED_NAME = re.compile(r"\brepro(?:\.\w+)+")
_PY_PATH = re.compile(r"[\w.-]+(?:/[\w.-]+)+\.py\b")
#: Where a back-ticked ``dir/file.py`` may be rooted.
_PATH_ROOTS = (REPO, REPO / "src" / "repro")
#: Documents whose prose may name things that no longer exist.
_NAME_CHECK_EXEMPT = ("ROADMAP.md",)
#: Namespaces in which a back-ticked dotted name is a metric (or RPC) name.
#: ``governor`` and ``block`` record nothing any more; they stay listed so
#: that a stale reference to one of their deleted metrics or procedures
#: fails like a typo does.
_METRIC_NAMESPACES = (
    "dlib", "wt", "pipeline", "engine", "framestore", "net", "cache", "loader",
    "governor", "block", "insitu", "gateway", "faults", "integrate",
    "transport",
)
_METRIC_NAME = re.compile(
    r"^(?:%s)\.[\w.<>*]+$" % "|".join(_METRIC_NAMESPACES)
)


def _rel(path: Path) -> str:
    try:
        return str(path.relative_to(REPO))
    except ValueError:
        return str(path)


def doc_files(args: list[str]) -> list[Path]:
    if args:
        return [Path(a).resolve() for a in args]
    files = [REPO / name for name in DEFAULT_DOCS if (REPO / name).exists()]
    files += sorted((REPO / "docs").glob("*.md"))
    return files


def strip_code_blocks(text: str) -> str:
    """Remove fenced code blocks so code snippets can't fake links."""
    return re.sub(r"^```.*?^```\s*$", "", text, flags=re.MULTILINE | re.DOTALL)


def check_links(path: Path, text: str) -> list[str]:
    errors = []
    for target in _LINK.findall(strip_code_blocks(text)):
        if target.startswith(_SKIP_PREFIXES):
            continue
        rel = target.split("#", 1)[0]
        if not rel:
            continue
        resolved = (path.parent / rel).resolve()
        if not resolved.exists():
            errors.append(f"{_rel(path)}: dead link -> {target}")
    return errors


def _resolves(dotted: str) -> bool:
    """Whether ``repro.a.b.C`` is an importable module or attribute chain."""
    try:
        pkgutil.resolve_name(dotted)
    except (ImportError, AttributeError):
        return False
    return True


def check_names(path: Path, text: str) -> list[str]:
    """Back-ticked ``repro.*`` names import and ``dir/*.py`` paths exist."""
    if path.name in _NAME_CHECK_EXEMPT:
        return []
    errors = []
    for span in _CODE_SPAN.findall(strip_code_blocks(text)):
        for dotted in _DOTTED_NAME.findall(span):
            if not _resolves(dotted):
                errors.append(f"{_rel(path)}: unresolved name -> {dotted}")
        for py in _PY_PATH.findall(span):
            if not any((root / py).exists() for root in _PATH_ROOTS):
                errors.append(f"{_rel(path)}: missing file -> {py}")
    return errors


@functools.lru_cache(maxsize=1)
def smoke_session_names() -> frozenset:
    """Every metric, procedure and benchmark-metric name that exists.

    Runs the scripted smoke session once per process: a replay server
    (loader over all three cache tiers, a q16 subscriber behind a
    fault-injecting, instrumented stream), a live
    server and a one-worker gateway — small enough for seconds, wide
    enough that every subsystem has registered what it records.
    """
    from repro import SessionGateway, WindtunnelClient, WindtunnelServer
    from repro.diskio import (
        CONVEX_DISK, SharedTimestepCache, TieredTimestepCache, TimestepLoader,
    )
    from repro.dlib import DlibClient
    from repro.dlib.transport import connect_tcp
    from repro.flow import tapered_cylinder_dataset
    from repro.flow.solver import SolverConfig
    from repro.gateway import default_worker_spec
    from repro.insitu import InsituWindtunnelServer
    from repro.netsim import FaultPlan, FaultyChannel, ProcessFaults
    from repro.obs import MetricsRegistry

    shape = (8, 8, 4)
    dataset = tapered_cylinder_dataset(shape=shape, n_timesteps=3, dt=0.25)
    names: set[str] = set()

    def collect(registry):
        for table in registry.snapshot().values():
            names.update(table)

    def drive(server, client_registry=None, **subscription):
        """One client session, then the names it made the server record."""

        def stream():
            raw = connect_tcp(*server.address, registry=client_registry)
            return FaultyChannel(raw, FaultPlan(), registry=client_registry)

        with WindtunnelClient(
            *server.address, stream_factory=stream, registry=client_registry
        ) as client:
            client.add_rake([-1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], n_seeds=2)
            if subscription:
                client.subscribe(**subscription)
            client.fetch_frame()
            collect(server.registry)
        with DlibClient(*server.address) as probe:
            names.update(probe.call("dlib.procedures"))

    client_registry = MetricsRegistry()
    ProcessFaults(registry=client_registry)
    replay_registry = MetricsRegistry()
    shared = SharedTimestepCache.for_dataset(
        dataset, name=f"wt-docs-{time.monotonic_ns()}", create="always",
        registry=replay_registry,
    )
    tiers = TieredTimestepCache(
        dataset, disk_model=CONVEX_DISK, l2=shared, sleep=lambda s: None,
        registry=replay_registry,
    )
    loader = TimestepLoader(dataset, cache=tiers)
    try:
        with WindtunnelServer(
            dataset, loader=loader, allow_chaos=True, registry=replay_registry
        ) as replay:
            drive(replay, client_registry, encoding="q16")
    finally:
        shared.close()
    collect(client_registry)
    with InsituWindtunnelServer(
        solver_config=SolverConfig(nx=24, ny=12), sim_period_seconds=0.01
    ) as live:
        drive(live)
    with SessionGateway(
        default_worker_spec(shape=shape, n_timesteps=3), n_workers=1,
        heartbeat_interval=0.05,
    ) as gateway:
        drive(gateway)
        deadline = time.monotonic() + 10.0
        while (  # the first health probe registers the per-worker gauges
            "gateway.worker.w0.saturation" not in gateway.registry.snapshot()["gauges"]
            and time.monotonic() < deadline
        ):
            time.sleep(0.02)
        collect(gateway.registry)

    bench = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    names.update(m["name"] for m in bench["end_to_end"] + bench["per_layer"])
    return frozenset(names)


def check_metric_names(path: Path, text: str) -> list[str]:
    """Back-ticked names in the metric namespaces exist in a live session."""
    if path.parent == REPO:  # README/DESIGN/EXPERIMENTS/ROADMAP: prose, history
        return []
    spans = {
        span
        for span in _CODE_SPAN.findall(strip_code_blocks(text))
        if _METRIC_NAME.match(span)
    }
    errors = []
    for span in sorted(spans):
        pattern = re.compile(
            "".join(
                ".*" if part == "*" else "[^.]+" if part.startswith("<") else re.escape(part)
                for part in re.split(r"(\*|<[^>]*>)", span)
            )
        )
        if not any(pattern.fullmatch(name) for name in smoke_session_names()):
            errors.append(f"{_rel(path)}: no such metric -> {span}")
    return errors


def run_doctests(path: Path, text: str) -> tuple[int, list[str]]:
    """Run every opted-in fenced block; returns (n_blocks, errors)."""
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    errors: list[str] = []
    blocks = _DOCTEST_FENCE.findall(text)
    for i, block in enumerate(blocks):
        name = f"{path.name}[block {i}]"
        test = parser.get_doctest(block, {}, name, str(path), 0)
        out: list[str] = []
        runner.run(test, out=out.append)
        if runner.failures:
            errors.append(f"{_rel(path)}: doctest block {i} failed:\n"
                          + "".join(out))
            runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    return len(blocks), errors


def main(argv: list[str] | None = None) -> int:
    files = doc_files(list(argv if argv is not None else sys.argv[1:]))
    errors: list[str] = []
    n_links = n_blocks = 0
    for path in files:
        text = path.read_text(encoding="utf-8")
        link_errors = check_links(path, text)
        n_links += len(_LINK.findall(strip_code_blocks(text)))
        errors += link_errors
        errors += check_names(path, text)
        errors += check_metric_names(path, text)
        blocks, dt_errors = run_doctests(path, text)
        n_blocks += blocks
        errors += dt_errors
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print(
        f"check_docs: {len(files)} files, {n_links} links, "
        f"{n_blocks} doctest blocks, {len(errors)} failures"
    )
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
