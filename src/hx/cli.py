"""Command dispatch: one JSON object on stdout, diagnostics on stderr.

Exit codes: 0 success (or all checks passed), 1 verification failure,
2 input error (bad usage, unreadable file, malformed document, invalid
instance), 3 internal error (a failed invariant or an unexpected
exception). Rationals are emitted as exact strings in lowest terms.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .complexes import complex_from_boundaries, homology_group
from .documents import build_graph, build_unicyclization, parse_document, unicyclizer_columns
from .errors import DocumentError, EnumerationCapError, NotConnectedError, UnicyclizerAxiomError
from .graphs import corank, incidence_matrix, require_connected
from .spanning import check_enumeration_cap, cycletrees, spanning_trees, tree_number
from .verify import (
    DEFAULT_SEED,
    verify_counts,
    verify_energy_min,
    verify_harmonicity,
    verify_inner_product,
)
from .winding import (
    check_axioms,
    cycletree_windings,
    sign_normalized,
    split_standard_cycle,
    standard_harmonic_cycle,
    winding_report,
)

VERIFY_CHECKS = ("inner_product", "harmonicity", "counts", "energy")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hx",
        description="Exact harmonic cycles of unicyclized graphs via cycletrees and winding numbers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str) -> argparse.ArgumentParser:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("file", help="JSON instance document")
        return cmd

    add("validate", "check the unicyclizer axioms")
    trees = add("trees", "tree count, optionally the tree list")
    trees.add_argument("--list", action="store_true", dest="list_trees")
    trees.add_argument("--cap", type=int, default=None)
    ct = add("cycletrees", "all cycletrees with oriented cycles and winding numbers")
    ct.add_argument("--cap", type=int, default=None)
    hom = add("homology", "rank and torsion of a homology group")
    hom.add_argument("--dim", type=int, default=1)
    lam = add("lambda", "the standard harmonic cycle with tree count and torsion")
    lam.add_argument("--raw-sign", action="store_true", dest="raw_sign")
    wind = add("winding", "winding number of a chain (rational for non-cycles)")
    wind.add_argument("--chain", required=True, help="comma-separated integer coefficients in edge order")
    split = add("split", "standard harmonic cycle split at an edge")
    split.add_argument("--edge", type=int, required=True)
    split.add_argument("--raw-sign", action="store_true", dest="raw_sign")
    split.add_argument("--cap", type=int, default=None)
    verify = add("verify", "run brute-force verifiers")
    verify.add_argument("checks", nargs="*", help=f"subset of {', '.join(VERIFY_CHECKS)}")
    verify.add_argument("--all", action="store_true", dest="run_all")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify.add_argument("--cap", type=int, default=None)
    return parser


def _rational(value) -> str:
    return str(Fraction(value))


def _cmd_validate(doc) -> tuple[dict, int]:
    g = build_graph(doc)
    require_connected(g)
    axioms = check_axioms(g, unicyclizer_columns(doc))
    valid = all(ok for _, ok, _ in axioms)
    payload = {
        "valid": valid,
        "axioms": [{"axiom": n, "ok": ok, "detail": detail} for n, ok, detail in axioms],
        "corank": corank(g),
    }
    if valid:
        a = build_unicyclization(doc)
        payload["k"] = a.tree_count
        payload["tau"] = a.torsion_order
    return payload, 0 if valid else 1


def _cmd_trees(doc, args) -> tuple[dict, int]:
    g = build_graph(doc)
    payload: dict = {"k": tree_number(g)}
    if args.list_trees:
        payload["trees"] = [sorted(t) for t in spanning_trees(g, args.cap)]
    return payload, 0


def _cmd_cycletrees(doc, args) -> tuple[dict, int]:
    g = build_graph(doc)
    require_connected(g)
    if corank(g) == 0 and doc.unicyclizer is None and doc.faces is None:
        return {"count": 0, "cycletrees": []}, 0
    check_enumeration_cap(g, args.cap)
    a = build_unicyclization(doc)
    items = [
        {"edges": sorted(ct.edge_ids), "cycle": list(ct.cycle), "winding": w}
        for ct, w in zip(cycletrees(g, args.cap), cycletree_windings(a, args.cap))
    ]
    return {"count": len(items), "cycletrees": items}, 0


def _cmd_homology(doc, args) -> tuple[dict, int]:
    g = build_graph(doc)
    boundary = incidence_matrix(g)
    if doc.faces is not None:
        x = complex_from_boundaries(boundary, doc.faces)
    elif doc.unicyclizer is not None:
        x = complex_from_boundaries(boundary, doc.unicyclizer)
    else:
        x = complex_from_boundaries(boundary)
    x.check_dim(args.dim)
    group = homology_group(x, args.dim)
    return {"dim": args.dim, "rank": group.rank, "torsion": list(group.torsion)}, 0


def _cmd_lambda(doc, args) -> tuple[dict, int]:
    a = build_unicyclization(doc)
    lam = standard_harmonic_cycle(a)
    if not args.raw_sign:
        lam = sign_normalized(lam)
    return {"lambda": list(lam), "k": a.tree_count, "tau": a.torsion_order}, 0


def _cmd_winding(doc, args) -> tuple[dict, int]:
    a = build_unicyclization(doc)
    try:
        chain = tuple(int(part.strip()) for part in args.chain.split(","))
    except ValueError as exc:
        raise DocumentError(f"--chain: expected comma-separated integers: {exc}") from exc
    if len(chain) != len(doc.edges):
        raise DocumentError(f"--chain: expected {len(doc.edges)} coefficients, got {len(chain)}")
    report = winding_report(a, chain)
    return {"value": _rational(report.value), "cycle": report.is_cycle}, 0


def _cmd_split(doc, args) -> tuple[dict, int]:
    check_enumeration_cap(build_graph(doc), args.cap)
    a = build_unicyclization(doc)
    with_edge, without_edge = split_standard_cycle(a, args.edge, args.cap)
    if not args.raw_sign:
        # Flip both parts together so they still sum to the reported lambda.
        total = tuple(x + y for x, y in zip(with_edge, without_edge))
        if next((c for c in total if c != 0), 0) < 0:
            with_edge = tuple(-c for c in with_edge)
            without_edge = tuple(-c for c in without_edge)
    return {"edge": args.edge, "with_edge": list(with_edge), "without_edge": list(without_edge)}, 0


def _cmd_verify(doc, args) -> tuple[dict, int]:
    names = list(args.checks)
    unknown = [n for n in names if n not in VERIFY_CHECKS]
    if unknown:
        raise DocumentError(f"unknown checks {unknown}; available: {', '.join(VERIFY_CHECKS)}")
    if args.run_all or not names:
        names = list(VERIFY_CHECKS)
    g = build_graph(doc)
    instance = None
    if set(names) - {"counts"}:
        check_enumeration_cap(g, args.cap)
        instance = build_unicyclization(doc)
    reports = []
    for name in names:
        if name == "counts":
            reports.append(verify_counts(g, args.cap))
        elif name == "inner_product":
            reports.append(verify_inner_product(instance, seed=args.seed, cap=args.cap))
        elif name == "harmonicity":
            reports.append(verify_harmonicity(instance))
        elif name == "energy":
            reports.append(verify_energy_min(instance, seed=args.seed))
    overall = all(r.overall for r in reports)
    payload = {
        "overall": overall,
        "seed": args.seed,
        "reports": [r.to_json() for r in reports],
    }
    return payload, 0 if overall else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as handle:
            doc = parse_document(handle.read())
        if args.command == "validate":
            payload, code = _cmd_validate(doc)
        elif args.command == "trees":
            payload, code = _cmd_trees(doc, args)
        elif args.command == "cycletrees":
            payload, code = _cmd_cycletrees(doc, args)
        elif args.command == "homology":
            payload, code = _cmd_homology(doc, args)
        elif args.command == "lambda":
            payload, code = _cmd_lambda(doc, args)
        elif args.command == "winding":
            payload, code = _cmd_winding(doc, args)
        elif args.command == "split":
            payload, code = _cmd_split(doc, args)
        else:
            payload, code = _cmd_verify(doc, args)
    except (DocumentError, UnicyclizerAxiomError, NotConnectedError, EnumerationCapError) as exc:
        print(f"hx: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"hx: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError or a bug: neither the input nor a failed check
        import traceback  # only here: importing it costs every hx process start-up time and memory

        print(f"hx: internal error: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    print(json.dumps(payload))
    return code


if __name__ == "__main__":
    sys.exit(main())
