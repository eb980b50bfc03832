"""Command line of :mod:`repro.lint` (``python -m repro.lint``)."""

from __future__ import annotations

import json
import sys
from typing import Sequence

from ..errors import ConfigurationError
from .framework import ProjectRule, load_baseline, write_baseline
from .metric_registry import write_metric_names
from .rules import RULE_REGISTRY, lint_paths


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the exit code (0 clean / 1 findings / 2 error)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Project-specific static analysis: determinism, config "
            "serializability, stage and metric-name contracts."
        ),
    )
    parser.add_argument("paths", nargs="*", help="files or directories to lint")
    parser.add_argument(
        "--select",
        help="comma-separated rule codes to run (default: all registered)",
    )
    parser.add_argument(
        "--baseline", help="baseline JSON filtering known findings"
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        help="write current findings as a baseline and exit 0",
    )
    parser.add_argument(
        "--write-metric-names",
        action="store_true",
        help="regenerate repro/obs/metric_names.py from the scanned tree",
    )
    parser.add_argument(
        "--registry-path",
        help="override the metric registry output path (with --write-metric-names)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    parser.add_argument(
        "--force-library",
        action="store_true",
        help="treat every scanned file as library code (fixture testing)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code.
        return int(exc.code or 0)

    if args.list_rules:
        for code in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[code]
            kind = "project" if isinstance(rule, ProjectRule) else "file"
            print(f"{code}  {rule.name:<26} [{kind}]  {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(file=sys.stderr)
        print("error: no paths given (try: python -m repro.lint src/)")
        return 2

    try:
        if args.write_metric_names:
            target, changed = write_metric_names(
                args.paths, registry_path=args.registry_path
            )
            print(f"{target}: {'updated' if changed else 'unchanged'}")
            return 0

        select = args.select.split(",") if args.select else None
        baseline = load_baseline(args.baseline) if args.baseline else None
        report = lint_paths(
            args.paths,
            select=select,
            baseline=baseline,
            force_library=args.force_library,
        )

        if args.write_baseline:
            write_baseline(args.write_baseline, report.findings)
            print(
                f"{args.write_baseline}: baselined "
                f"{len(report.findings)} finding(s)"
            )
            return 0
    except (ConfigurationError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}")
        return 2

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        for finding in report.findings:
            print(finding.render())
        tail = (
            f"{report.files} file(s), {len(report.rules)} rule(s): "
            f"{len(report.findings)} finding(s)"
        )
        if report.suppressed:
            tail += f", {len(report.suppressed)} suppressed"
        if report.baselined:
            tail += f", {len(report.baselined)} baselined"
        print(tail)
    return 0 if report.clean else 1
