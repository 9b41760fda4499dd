"""``python -m repro analyze`` — the static-analysis CLI and CI gate.

Exit status is the contract: 0 when the tree is clean (after pragmas),
1 when any finding or parse error remains, 2 on a missing path — so the
CI job is just the command itself. ``--json`` writes the full report
for the artifact upload. Every rule runs on every file; the only way to
accept a finding is a justified pragma next to the code.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.checkers import CHECKERS, RULES
from repro.analysis.engine import analyze_paths

__all__ = ["run_analyze_command", "build_parser"]

DEFAULT_PATHS = ("src/repro",)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro analyze",
        description=(
            "AST-based invariant checks: bitwise-parity hazards, shm "
            "lifecycle, payload concurrency, repo contracts, and the "
            "frozen-reference pin. Exits non-zero on any finding."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=list(DEFAULT_PATHS),
        help=f"files or directories to analyse (default: {DEFAULT_PATHS[0]})",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        help="write the full JSON report to PATH ('-' for stdout)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    parser.add_argument(
        "--root",
        metavar="DIR",
        default=".",
        help="root that finding paths are reported relative to",
    )
    return parser


def _print_rule_catalogue(out) -> None:
    print("rules:", file=out)
    for rule_id, (checker_name, spec) in sorted(RULES.items()):
        print(f"  {rule_id:24s} [{checker_name}] {spec.summary}", file=out)
    print("\ncheckers:", file=out)
    for checker in sorted(CHECKERS, key=lambda c: c.name):
        print(f"  {checker.name:24s} {checker.description}", file=out)


def _render_table(report, out) -> None:
    if not report.findings and not report.parse_errors:
        n = len(report.suppressed)
        suffix = f" ({n} pragma-suppressed)" if n else ""
        print(
            f"analyze: {report.files_scanned} files clean{suffix}", file=out
        )
        return
    width = max(
        (len(f.location) for f in report.findings), default=0
    )
    for finding in report.findings:
        tag = f"{finding.severity}[{finding.rule}]"
        print(f"{finding.location:<{width}}  {tag}", file=out)
        print(f"{'':<{width}}  {finding.message}", file=out)
        if finding.hint:
            print(f"{'':<{width}}  fix: {finding.hint}", file=out)
    for path, error in report.parse_errors:
        print(f"{path}  parse-error: {error}", file=out)
    n = len(report.findings)
    print(
        f"\nanalyze: {n} finding{'s' if n != 1 else ''} in "
        f"{report.files_scanned} files",
        file=out,
    )


def run_analyze_command(argv=None, out=None) -> int:
    out = out if out is not None else sys.stdout
    args = build_parser().parse_args(argv)
    if args.list_rules:
        _print_rule_catalogue(out)
        return 0

    root = Path(args.root).resolve()
    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # Silently scanning 0 files would report "clean" for a typo'd
        # path — operator error is exit 2, distinct from findings (1).
        print(
            "analyze: no such file or directory: " + ", ".join(missing),
            file=sys.stderr,
        )
        return 2
    report = analyze_paths(args.paths, root=root)
    if args.json:
        payload = json.dumps(report.to_dict(), indent=2)
        if args.json == "-":
            print(payload, file=out)
        else:
            Path(args.json).write_text(payload + "\n", encoding="utf-8")
    if args.json != "-":
        _render_table(report, out)
    return report.exit_code
