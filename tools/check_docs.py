#!/usr/bin/env python
"""Docs CI: check links, names and paths, and run fenced doctest blocks.

Three classes of documentation rot, all caught mechanically:

* **Dead relative links** — every ``[text](target)`` whose target is not
  an URL or a pure anchor must resolve to a file (or directory) in the
  repository, relative to the document that links it.
* **Names of deleted things** — inside back-ticks, every dotted
  ``repro.<module>.<Name>`` must import and every repo-relative ``*.py``
  path (one with a directory part, from the repo root or from
  ``src/repro``) must exist.  ROADMAP.md is exempt: its Recent section
  names deleted things on purpose.
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
import pkgutil
import re
import sys
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
