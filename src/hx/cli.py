"""Command dispatch: one JSON object on stdout, diagnostics on stderr.

Exit codes: 0 success (or all checks passed), 1 verification failure,
2 input error (bad usage, unreadable file, malformed document, invalid
instance) or a closed stdout, 3 internal error (a failed invariant or an
unexpected exception). Rationals are emitted as exact strings in lowest terms.

The long lists, cycletrees, trees and verification checks, are written
one record at a time (see ``_write``), so their output is never held
whole; the bytes are those of ``json.dumps`` on the whole object.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from types import GeneratorType

from .errors import DimensionError, DocumentError, EnumerationCapError, NotConnectedError, UnicyclizerAxiomError

# Each command handler imports the library functions it calls, so a process
# loads only the modules its command runs.

VERIFY_CHECKS = ("inner_product", "harmonicity", "counts", "energy")
# Characters of output collected before one write to stdout: each write is a
# system call when Python runs unbuffered.
WRITE_CHUNK = 1 << 16


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
    verify = add("verify", "run brute-force verifiers")
    verify.add_argument("checks", nargs="*", help=f"subset of {', '.join(VERIFY_CHECKS)}")
    verify.add_argument("--all", action="store_true", dest="run_all")
    verify.add_argument("--seed", type=int, default=None)
    verify.add_argument("--cap", type=int, default=None)
    return parser


def _rational(value) -> str:
    if type(value) is int:
        return str(value)
    from fractions import Fraction  # only a rational value loads fractions, and decimal behind it

    return str(Fraction(value))


def _cmd_validate(doc, args) -> tuple[dict, int]:
    from .documents import unicyclizer_columns
    from .graphs import corank
    from .winding import AXIOMS_HOLD, new_unicyclization

    g = doc.graph
    cycle_rank = corank(g)  # refuses a disconnected graph before the faces are reduced
    partial = unicyclizer_columns(doc)
    try:  # a successful build proves all three axioms; only a failed one has them evaluated, once
        a, axioms = new_unicyclization(g, partial, basis_tree=doc.basis_tree), AXIOMS_HOLD
    except UnicyclizerAxiomError as exc:
        a, axioms = None, exc.axioms
    payload = {
        "valid": a is not None,
        "axioms": [{"axiom": n, "ok": ok, "detail": detail} for n, ok, detail in axioms],
        "corank": cycle_rank,
    }
    if a is None:
        return payload, 1
    return payload | {"k": a.tree_count, "tau": a.torsion_order}, 0


def _cmd_trees(doc, args) -> tuple[dict, int]:
    from .spanning import spanning_trees, tree_number

    payload: dict = {"k": tree_number(doc.graph)}
    if args.list_trees:
        payload["trees"] = (tree for tree in spanning_trees(doc.graph, args.cap))
    return payload, 0


def _cmd_cycletrees(doc, args) -> tuple[dict, int]:
    from .documents import build_unicyclization, unicyclizer_columns
    from .graphs import corank
    from .spanning import check_enumeration_cap, cycletrees
    from .winding import cycletree_windings

    g = doc.graph
    # A tree has no cycletrees: with the empty unicyclizer, however the document writes it, the list is empty.
    if corank(g) == 0 and unicyclizer_columns(doc).cols == 0:
        return {"count": 0, "cycletrees": []}, 0
    check_enumeration_cap(g, args.cap)
    a = build_unicyclization(doc)
    found = cycletrees(g, args.cap)
    items = (
        {"edges": ct.edge_ids, "cycle": ct.cycle, "winding": w}
        for ct, w in zip(found, cycletree_windings(a, args.cap))
    )
    return {"count": len(found), "cycletrees": items}, 0


def _cmd_homology(doc, args) -> tuple[dict, int]:
    from .complexes import graph_homology

    faces = doc.faces if doc.faces is not None else doc.unicyclizer
    try:
        group = graph_homology(doc.graph, faces, args.dim)
    except DimensionError as exc:  # the document's faces are not cycles, or --dim is out of range
        raise DocumentError(str(exc)) from exc
    return {"dim": args.dim, "rank": group.rank, "torsion": list(group.torsion)}, 0


def _cmd_lambda(doc, args) -> tuple[dict, int]:
    from .documents import build_unicyclization
    from .winding import sign_normalized, standard_harmonic_cycle

    a = build_unicyclization(doc)
    lam = standard_harmonic_cycle(a)
    if not args.raw_sign:
        lam = sign_normalized(lam)
    return {"lambda": list(lam), "k": a.tree_count, "tau": a.torsion_order}, 0


def _cmd_winding(doc, args) -> tuple[dict, int]:
    from .documents import build_unicyclization
    from .winding import winding_report

    try:
        chain = tuple(int(part.strip()) for part in args.chain.split(","))
    except ValueError as exc:
        raise DocumentError(f"--chain: expected comma-separated integers: {exc}") from exc
    if len(chain) != doc.graph.edge_count:
        raise DocumentError(f"--chain: expected {doc.graph.edge_count} coefficients, got {len(chain)}")
    report = winding_report(build_unicyclization(doc), chain)
    return {"value": _rational(report.value), "cycle": report.is_cycle}, 0


def _cmd_split(doc, args) -> tuple[dict, int]:
    from .documents import build_unicyclization
    from .winding import split_standard_cycle

    if not 0 <= args.edge < doc.graph.edge_count:
        raise DocumentError(f"invalid edge id {args.edge} (graph has {doc.graph.edge_count} edges)")
    with_edge, without_edge = split_standard_cycle(build_unicyclization(doc), args.edge)
    if not args.raw_sign:
        # Flip both parts together so they still sum to the reported lambda.
        total = tuple(x + y for x, y in zip(with_edge, without_edge))
        if next((c for c in total if c != 0), 0) < 0:
            with_edge = tuple(-c for c in with_edge)
            without_edge = tuple(-c for c in without_edge)
    return {"edge": args.edge, "with_edge": list(with_edge), "without_edge": list(without_edge)}, 0


def _cmd_verify(doc, args) -> tuple[dict, int]:
    from .documents import build_unicyclization
    from .spanning import check_enumeration_cap
    from .verify import DEFAULT_SEED, verify_counts, verify_energy_min, verify_harmonicity, verify_inner_product

    names = list(args.checks)
    unknown = [n for n in names if n not in VERIFY_CHECKS]
    if unknown:
        raise DocumentError(f"unknown checks {unknown}; available: {', '.join(VERIFY_CHECKS)}")
    if args.run_all or not names:
        names = list(VERIFY_CHECKS)
    seed = DEFAULT_SEED if args.seed is None else args.seed
    instance = None
    if set(names) - {"counts"}:
        check_enumeration_cap(doc.graph, args.cap)
        instance = build_unicyclization(doc)
    reports = []
    for name in names:
        if name == "counts":
            reports.append(verify_counts(doc.graph, args.cap))
        elif name == "inner_product":
            reports.append(verify_inner_product(instance, seed=seed, cap=args.cap))
        elif name == "harmonicity":
            reports.append(verify_harmonicity(instance))
        elif name == "energy":
            reports.append(verify_energy_min(instance, seed=seed))
    overall = all(r.overall for r in reports)
    payload = {
        "overall": overall,
        "seed": seed,
        "reports": (r.to_json() for r in reports),
    }
    return payload, 0 if overall else 1


_COMMANDS = {
    "validate": _cmd_validate,
    "trees": _cmd_trees,
    "cycletrees": _cmd_cycletrees,
    "homology": _cmd_homology,
    "lambda": _cmd_lambda,
    "winding": _cmd_winding,
    "split": _cmd_split,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse matches verify's checks together with the file, as empty when an option
    # follows it, and leaves the check names after that option over.
    if args.command == "verify" and not any(token.startswith("-") for token in extra):
        args.checks, extra = args.checks + extra, []
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        from .documents import read_document

        doc = read_document(args.file)
        payload, code = _COMMANDS[args.command](doc, args)
        _write(payload)
        sys.stdout.flush()  # so that a closed stdout fails here, not at exit
    except (DocumentError, UnicyclizerAxiomError, NotConnectedError, EnumerationCapError, OSError) as exc:
        if isinstance(exc, BrokenPipeError):
            # Python flushes stdout again at exit: send what is left to devnull, as its docs on SIGPIPE advise.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"hx: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # InternalError or a bug: neither the input nor a failed check
        import traceback  # only here: importing it costs every hx process start-up time and memory

        print(f"hx: internal error: {exc}", file=sys.stderr)
        traceback.print_exc(file=sys.stderr)
        return 3
    return code


def _pieces(value):
    """The text of ``json.dumps(value)`` in pieces: a generator is encoded as
    a list, record by record, and so is a dict that holds one."""
    if isinstance(value, GeneratorType):
        yield "["
        separator = ""
        for record in value:
            yield separator
            yield from _pieces(record)
            separator = ", "
        yield "]"
    elif isinstance(value, dict) and any(isinstance(v, GeneratorType) for v in value.values()):
        separator = "{"
        for key, item in value.items():
            yield f"{separator}{json.dumps(key)}: "
            yield from _pieces(item)
            separator = ", "
        yield "}"
    else:
        yield json.dumps(value)


def _write(payload: dict) -> None:
    """Print ``json.dumps(payload)`` and a newline, in writes of about
    ``WRITE_CHUNK`` characters, encoding each record of a generator whole."""
    chunk: list[str] = []
    size = 0
    for piece in _pieces(payload):
        chunk.append(piece)
        size += len(piece)
        if size >= WRITE_CHUNK:
            sys.stdout.write("".join(chunk))
            chunk, size = [], 0
    chunk.append("\n")
    sys.stdout.write("".join(chunk))


if __name__ == "__main__":
    sys.exit(main())
