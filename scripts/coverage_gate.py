#!/usr/bin/env python
"""Coverage gate: the byte-identity-critical packages must stay tested.

Gates
-----
- ``src/repro/shard``: **>= 85%** line coverage, enforced always.  The
  shard package is the byte-identity-critical code path; the differential
  suite must keep touching essentially all of it.
- ``src/repro/tables``: **>= 85%**, enforced always.  The lazy query
  engine (plans, fused kernels, dictionary columns) underpins every
  analysis table; its property suites must keep touching all of it.
- ``src/repro/obs``: **>= 85%**, enforced always.  The observability
  stack (tracing, metrics, sampler, ledger, drift, dashboard) is what
  every perf/fidelity/RSS guard trusts; untested telemetry lies.
- ``src/repro/html``: **>= 85%**, enforced always.  The task-HTML
  parser and the one-walk design-feature extractor feed every §2.4
  design parameter; the differential suites pin them to their reference
  versions.
- ``src/repro/parallel.py``: **>= 85%**, enforced always.  The
  as-completed chunk dispatcher carries the deadline-from-dispatch and
  fold-only-on-success invariants every pooled build relies on (a gate
  may name a single module as well as a package).
- ``src/repro/cache.py``: **>= 85%**, enforced always.  It owns the
  on-disk entry protocol (atomic write, checksums, quarantine) that study
  entries and shard spills share.
- ``src/repro/ml``: **>= 85%**, enforced always.  The CART split search
  scores every candidate boundary in one array pass; its differential
  tests pin it to the per-candidate loop it replaced.
- ``src/repro/enrichment``: **>= 85%**, enforced always.  Clustering,
  design extraction, metrics and labels produce every enriched byte; their
  one-pass-per-interface paths are pinned to per-document references.
- repo-wide ``src/repro``: **>= 80%**, enforced when the ``coverage``
  package (the engine behind ``pytest-cov``, declared in the ``dev``
  extra) is importable, and *visibly skipped* otherwise — measuring the
  whole package with the fallback tracer would slow the suite severely.

Fallback
--------
Environments without ``coverage`` still get the per-package gates: line
events are collected with :func:`sys.settrace`, scoped so that only
frames whose code lives under a gated package are line-traced (every
other frame returns ``None`` from the trace function, so the rest of the
suite runs at near-native speed).  Executable lines are derived from the
compiled code objects (``co_lines``), minus ``pragma: no cover``
exclusions.

Usage::

    python scripts/coverage_gate.py [pytest args...]

Default pytest targets are the shard- and tables-focused suites; pass
explicit paths to widen the run (with ``coverage`` installed, the
repo-wide gate wants the full ``tests/`` directory).
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Per-package (or per-module) minimum line coverage, enforced in every
#: environment.  A key names either a package directory under src/repro/
#: or a single module (resolved as <key>.py).
PACKAGE_GATES: dict[str, float] = {
    "shard": 85.0,
    "tables": 85.0,
    "obs": 85.0,
    "parallel": 85.0,
    "service": 85.0,
    "html": 85.0,
    "cache": 85.0,
    "ml": 85.0,
    "enrichment": 85.0,
}
MIN_REPO_PCT = 80.0

#: Suites that exercise the gated packages end to end.
DEFAULT_TESTS = [
    "tests/test_cache.py",
    "tests/test_shard_equivalence.py",
    "tests/test_shard_scheduler.py",
    "tests/test_parallel.py",
    "tests/test_faults.py",
    "tests/test_tables_table.py",
    "tests/test_tables_expr.py",
    "tests/test_tables_groupby.py",
    "tests/test_tables_join_io.py",
    "tests/test_tables_properties.py",
    "tests/test_tables_plan.py",
    "tests/test_tables_dict.py",
    "tests/test_obs.py",
    "tests/test_sampler.py",
    "tests/test_ledger.py",
    "tests/test_live.py",
    "tests/test_cli_smoke.py",
    "tests/test_service_equivalence.py",
    "tests/test_service_properties.py",
    "tests/test_service_faults.py",
    "tests/test_html_parser.py",
    "tests/test_html_fuzz.py",
    "tests/test_html_differential.py",
    "tests/test_shingle_dedupe.py",
    "tests/test_interface_key.py",
    "tests/test_batch_metrics.py",
    "tests/test_dict_strings.py",
    "tests/test_ml.py",
    "tests/test_interface_pass.py",
    "tests/test_enrichment.py",
    "tests/test_service_parts.py",
    "tests/test_groupby_kernels.py",
]


def package_files(package: str) -> list[Path]:
    """Gated files for one key: a package's modules, or the single module
    ``<key>.py`` when the key names a file rather than a directory."""
    root = SRC / "repro" / package
    if root.is_dir():
        return sorted(root.glob("*.py"))
    module = root.with_suffix(".py")
    return [module] if module.is_file() else []


def executable_lines(path: Path) -> set[int]:
    """Line numbers that can execute, from the compiled code objects.

    ``pragma: no cover`` excludes its line; when that line opens a block
    (ends with ``:``), the whole indented block is excluded with it.
    """
    source = path.read_text()
    lines: set[int] = set()

    def walk(code) -> None:
        for _, _, lineno in code.co_lines():
            if lineno is not None:
                lines.add(lineno)
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const)

    walk(compile(source, str(path), "exec"))

    raw = source.splitlines()
    excluded: set[int] = set()
    for i, text in enumerate(raw, start=1):
        if "pragma: no cover" not in text:
            continue
        excluded.add(i)
        if text.rstrip().rstrip("#").strip().endswith(":") or text.split("#")[0].rstrip().endswith(":"):
            indent = len(text) - len(text.lstrip())
            for j in range(i + 1, len(raw) + 1):
                body = raw[j - 1]
                if body.strip() and (len(body) - len(body.lstrip())) <= indent:
                    break
                excluded.add(j)
    return lines - excluded


def render(rows: list[tuple[str, int, int]]) -> float:
    """Print a per-file table; returns the aggregate percentage."""
    total_exec = total_hit = 0
    print(f"  {'file':<44} {'lines':>6} {'hit':>6} {'cover':>7}")
    for name, n_exec, n_hit in rows:
        total_exec += n_exec
        total_hit += n_hit
        pct = 100.0 * n_hit / n_exec if n_exec else 100.0
        print(f"  {name:<44} {n_exec:>6} {n_hit:>6} {pct:>6.1f}%")
    aggregate = 100.0 * total_hit / total_exec if total_exec else 100.0
    print(f"  {'TOTAL':<44} {total_exec:>6} {total_hit:>6} {aggregate:>6.1f}%")
    return aggregate


def run_with_coverage_package(test_args: list[str]) -> int:
    import coverage
    import pytest

    cov = coverage.Coverage(source=[str(SRC / "repro")])
    cov.start()
    rc = pytest.main(["-q", *test_args])
    cov.stop()
    if rc != 0:
        print(f"coverage gate: pytest failed (rc={rc})", file=sys.stderr)
        return rc

    gate_of = {
        str(p): name for name in PACKAGE_GATES for p in package_files(name)
    }
    package_rows: dict[str, list] = {name: [] for name in PACKAGE_GATES}
    repo_rows = []
    for filename in cov.get_data().measured_files():
        path = Path(filename)
        try:
            _, executable, _, missing, _ = cov.analysis2(filename)
        except Exception:
            continue
        row = (
            str(path.relative_to(SRC)),
            len(executable),
            len(executable) - len(missing),
        )
        repo_rows.append(row)
        gate = gate_of.get(str(path))
        if gate is not None:
            package_rows[gate].append(row)

    package_pcts = {}
    for name in PACKAGE_GATES:
        print(f"\ncoverage (src/repro/{name}):")
        package_pcts[name] = render(sorted(package_rows[name]))
    print("\ncoverage (src/repro, repo-wide):")
    repo_pct = render(sorted(repo_rows))

    ok = True
    for name, minimum in PACKAGE_GATES.items():
        if package_pcts[name] < minimum:
            print(
                f"coverage gate: FAIL — src/repro/{name} at "
                f"{package_pcts[name]:.1f}% < {minimum:.0f}%",
                file=sys.stderr,
            )
            ok = False
    if repo_pct < MIN_REPO_PCT:
        print(
            f"coverage gate: FAIL — src/repro at {repo_pct:.1f}% "
            f"< {MIN_REPO_PCT:.0f}%",
            file=sys.stderr,
        )
        ok = False
    if ok:
        summary = ", ".join(
            f"{name} {package_pcts[name]:.1f}% (>= {minimum:.0f}%)"
            for name, minimum in PACKAGE_GATES.items()
        )
        print(
            f"coverage gate: OK — {summary}, repo {repo_pct:.1f}% "
            f"(>= {MIN_REPO_PCT:.0f}%)"
        )
    return 0 if ok else 1


def run_with_settrace(test_args: list[str]) -> int:
    package_of = {
        str(p): name for name in PACKAGE_GATES for p in package_files(name)
    }
    targets = {path: Path(path) for path in package_of}
    executed: dict[str, set[int]] = {name: set() for name in targets}

    def local_trace(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local_trace

    def global_trace(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in targets:
            return local_trace
        return None

    import pytest

    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        rc = pytest.main(["-q", *test_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    if rc != 0:
        print(f"coverage gate: pytest failed (rc={rc})", file=sys.stderr)
        return rc

    rows_by_package: dict[str, list] = {name: [] for name in PACKAGE_GATES}
    for filename, path in sorted(targets.items()):
        lines = executable_lines(path)
        hit = executed[filename] & lines
        rows_by_package[package_of[filename]].append(
            (str(path.relative_to(SRC)), len(lines), len(hit))
        )
    package_pcts = {}
    for name in PACKAGE_GATES:
        print(f"\ncoverage (src/repro/{name}, settrace fallback):")
        package_pcts[name] = render(rows_by_package[name])
    gated = ", ".join(f"src/repro/{name}" for name in PACKAGE_GATES)
    print(
        f"coverage gate: repo-wide {MIN_REPO_PCT:.0f}% gate SKIPPED — "
        f"the 'coverage' package (pytest-cov) is not installed; the "
        f"settrace fallback scopes line collection to {gated}"
    )
    failed = False
    for name, minimum in PACKAGE_GATES.items():
        if package_pcts[name] < minimum:
            print(
                f"coverage gate: FAIL — src/repro/{name} at "
                f"{package_pcts[name]:.1f}% < {minimum:.0f}%",
                file=sys.stderr,
            )
            failed = True
    if failed:
        return 1
    summary = ", ".join(
        f"{name} {package_pcts[name]:.1f}% (>= {minimum:.0f}%)"
        for name, minimum in PACKAGE_GATES.items()
    )
    print(f"coverage gate: OK — {summary}")
    return 0


def main(argv: list[str]) -> int:
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in list(sys.modules):
        if name == "repro" or name.startswith("repro."):
            # The gate must observe these modules' import-time lines too.
            del sys.modules[name]
    test_args = argv or DEFAULT_TESTS
    try:
        import coverage  # noqa: F401 - availability probe
    except ImportError:
        return run_with_settrace(test_args)
    return run_with_coverage_package(test_args)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
