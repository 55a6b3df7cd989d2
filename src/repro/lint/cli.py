"""``python -m repro lint``: static determinism/protocol lint.

Walks the given files and directories (default: ``src/repro`` and
``examples`` when run from a checkout, else the current directory),
reports findings as ``file:line:col severity[rule] message`` lines and
exits non-zero when any *error* finding survives — or, with
``--strict``, when anything at all does::

    python -m repro lint                       # lint the checkout
    python -m repro lint --strict src/repro examples
    python -m repro lint --format json my_app.py
    python -m repro lint --list-rules

``--proto`` additionally runs the interprocedural protocol analyzer
(:mod:`repro.lint.proto`) over every registered app/variant: static
deadlock cycles, unmatched symbolic channels, whole-program determinism
taint, plus the order-stability classification table.  ``--graph
out.dot``/``out.json`` exports the static channel graphs (also
available as ``python -m repro protograph``).

``--baseline known.json`` subtracts a recorded snapshot and fails only
on findings not in it; ``--write-baseline known.json`` records the
current findings as that snapshot.

``--format json`` emits a machine-readable array (one object per
finding: file, line, col, rule, severity, message) for CI annotation;
``--format github`` emits GitHub Actions ``::error``/``::warning``
workflow commands directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .baseline import filter_new, load_baseline, write_baseline
from .rules import PROTO_RULES, RULES, STATIC_RULES, Finding
from .static import lint_paths


def _default_paths() -> List[str]:
    paths = [p for p in ("src/repro", "examples") if os.path.isdir(p)]
    return paths or ["."]


def _proto_findings_and_table():
    """Run the protocol analyzer over every registered app/variant."""
    from .proto import classification_table, classify_all, proto_findings
    from .proto.report import analyze_all
    skeletons = analyze_all()
    return proto_findings(skeletons), classification_table(classify_all())


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("paths", nargs="*",
                        help="files or directories to lint "
                             "(default: src/repro + examples)")
    parser.add_argument("--strict", action="store_true",
                        help="fail on warnings too, not just errors")
    parser.add_argument("--format", choices=["text", "json", "github"],
                        default="text")
    parser.add_argument("--proto", action="store_true",
                        help="also run the interprocedural protocol "
                             "analyzer over all registered apps")
    parser.add_argument("--graph", metavar="FILE",
                        help="with --proto: write the static channel "
                             "graphs to FILE (.dot or .json)")
    parser.add_argument("--baseline", metavar="FILE",
                        help="subtract the findings recorded in FILE; "
                             "fail only on new findings")
    parser.add_argument("--write-baseline", metavar="FILE",
                        help="record the current findings to FILE and "
                             "exit 0")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in STATIC_RULES:
            print(f"{rule.id:18s} {rule.severity:8s} {rule.summary}")
        runtime = [r for r in RULES.values() if r.kind == "runtime"]
        print("\nruntime (sanitizer) rules:")
        for rule in runtime:
            print(f"{rule.id:18s} {rule.severity:8s} {rule.summary}")
        print("\nwhole-program (proto analyzer) rules:")
        for rule in PROTO_RULES:
            print(f"{rule.id:18s} {rule.severity:8s} {rule.summary}")
        return 0

    paths = args.paths or _default_paths()
    try:
        findings: List[Finding] = lint_paths(paths)
    except FileNotFoundError as err:
        print(f"repro lint: {err}", file=sys.stderr)
        return 2

    table = None
    if args.proto:
        proto_found, table = _proto_findings_and_table()
        findings = findings + proto_found
        if args.graph:
            _write_graphs(args.graph)

    if args.write_baseline:
        write_baseline(args.write_baseline, findings)
        print(f"repro lint: wrote baseline with {len(findings)} "
              f"finding(s) to {args.write_baseline}", file=sys.stderr)
        return 0

    if args.baseline:
        try:
            known = load_baseline(args.baseline)
        except (OSError, ValueError, json.JSONDecodeError) as err:
            print(f"repro lint: {err}", file=sys.stderr)
            return 2
        findings = filter_new(findings, known)

    if args.format == "json":
        print(json.dumps([f.as_dict() for f in findings], indent=2,
                         default=repr))
    elif args.format == "github":
        for f in findings:
            print(f.render_github())
    else:
        for f in findings:
            print(f.render())
        if table is not None:
            print("\norder-stability classification:")
            print(table)

    errors = sum(1 for f in findings if f.severity == "error")
    warnings = len(findings) - errors
    if args.format == "text":
        suffix = " (after baseline)" if args.baseline else ""
        print(f"repro lint: {errors} error(s), {warnings} warning(s) in "
              f"{len(paths)} path(s){suffix}", file=sys.stderr)
    failed = errors > 0 or (args.strict and warnings > 0)
    return 1 if failed else 0


def _write_graphs(path: str) -> None:
    from .proto import graphs_dot, graphs_json
    from .proto.report import analyze_all
    skeletons = analyze_all()
    if path.endswith(".json"):
        payload = json.dumps(graphs_json(skeletons), indent=2)
    else:
        payload = graphs_dot(skeletons)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)
        if not payload.endswith("\n"):
            fh.write("\n")


def protograph_main(argv: Optional[list] = None) -> int:
    """``python -m repro protograph``: export static channel graphs."""
    parser = argparse.ArgumentParser(
        prog="repro protograph",
        description="Export the static communication graphs extracted "
                    "by the protocol analyzer, with each app/variant's "
                    "order-stability label.")
    parser.add_argument("--format", choices=["json", "dot", "table"],
                        default="table")
    parser.add_argument("--app", help="only this app")
    parser.add_argument("--variant", help="only this variant")
    parser.add_argument("-o", "--output", metavar="FILE",
                        help="write to FILE instead of stdout")
    args = parser.parse_args(argv)

    from .proto import (classification_table, classify, graphs_dot,
                        graphs_json)
    from .proto.report import analyze_all
    skeletons = analyze_all()
    if args.app:
        skeletons = [s for s in skeletons if s.app == args.app]
    if args.variant:
        skeletons = [s for s in skeletons if s.variant == args.variant]
    if not skeletons:
        print("repro protograph: no matching app/variant",
              file=sys.stderr)
        return 2

    if args.format == "json":
        text = json.dumps(graphs_json(skeletons), indent=2)
    elif args.format == "dot":
        text = graphs_dot(skeletons)
    else:
        text = classification_table([classify(s) for s in skeletons])
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0
