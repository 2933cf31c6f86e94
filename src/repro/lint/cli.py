"""``repro-lint``: the command-line front end and CI gate.

Usage::

    repro-lint src/repro                       # text findings, exit 0/1
    repro-lint src/repro --format json         # machine-readable
    repro-lint --list-rules                    # what is enforced
    repro-lint src/repro --disable float-equality

Exit code is 0 iff no blocking findings.  The dynamic checks (same-seed
replay, tie replay, fault invariants) run through ``repro-sim verify``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import lint_paths
from repro.lint.findings import Finding, Severity
from repro.lint.rules import RULE_REGISTRY, default_rules


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="Determinism & simulation-correctness static analysis "
                    "for the repro codebase.",
    )
    parser.add_argument("paths", nargs="*", default=["src/repro"],
                        help="files or directories to lint (default: src/repro)")
    parser.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format")
    parser.add_argument("--select", default=None, metavar="RULES",
                        help="comma-separated rule ids to run exclusively")
    parser.add_argument("--disable", default=None, metavar="RULES",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule registry and exit")
    parser.add_argument("--warnings-ok", action="store_true",
                        help="exit 0 when only warning-severity findings remain")
    return parser


def _csv(value: Optional[str]) -> Optional[List[str]]:
    if value is None:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def _render_text(findings: List[Finding]) -> str:
    lines = [finding.render() for finding in findings]
    errors = sum(1 for f in findings if f.severity is Severity.ERROR)
    warnings = len(findings) - errors
    if findings:
        lines.append("")
    lines.append(f"{len(findings)} finding(s): {errors} error(s), {warnings} warning(s)")
    return "\n".join(lines)


def _render_json(findings: List[Finding]) -> str:
    payload = {
        "version": 1,
        "findings": [finding.to_dict() for finding in findings],
        "counts": {
            "total": len(findings),
            "error": sum(1 for f in findings if f.severity is Severity.ERROR),
            "warning": sum(1 for f in findings if f.severity is Severity.WARNING),
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id, rule_cls in sorted(RULE_REGISTRY.items()):
            print(f"{rule_id:<16} [{rule_cls.severity.value}] {rule_cls.description}")
        return 0

    missing = [p for p in args.paths if not Path(p).exists()]
    if missing:
        # A typo'd path must not report "0 findings" and pass the CI gate.
        print(f"repro-lint: no such file or directory: {', '.join(missing)}",
              file=sys.stderr)
        return 2

    try:
        rules = default_rules(select=_csv(args.select), disable=_csv(args.disable))
    except KeyError as exc:
        print(f"repro-lint: {exc.args[0]}", file=sys.stderr)
        return 2

    findings = lint_paths(args.paths, rules=rules)
    if args.format == "json":
        print(_render_json(findings))
    else:
        print(_render_text(findings))

    blocking = [
        f for f in findings
        if f.severity is Severity.ERROR or not args.warnings_ok
    ]
    return 0 if not blocking else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
