#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery, run from the root of a source checkout.

    python3 bench/selftest.py

It shows that the generator is deterministic (same seed, byte-identical
documents), that every check accepts hx's real outputs, and that every
check rejects a deliberately corrupted output: one lambda entry changed,
tau doubled, or the analogous change to the other outputs. Exits 1 on
any miss.
"""

from __future__ import annotations

import contextlib
import copy
import filecmp
import io
import json
import shutil
import sys
from fractions import Fraction

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import family  # noqa: E402
import workloads  # noqa: E402
from hx.cli import main as hx_main  # noqa: E402

SEED = 1


def hx_output(args) -> dict:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = hx_main(list(args))
    if code != 0:
        raise RuntimeError(f"hx {' '.join(args)} exited {code}")
    return json.loads(out.getvalue())


def corruptions(command: str, out: dict) -> dict:
    """Named corrupted copies of one output."""

    def changed(edit):
        bad = copy.deepcopy(out)
        edit(bad)
        return bad

    def bump(values, i=-1):
        values[i] += 1

    if command == "lambda":
        return {
            "one lambda entry changed": changed(lambda o: bump(o["lambda"])),
            "tau doubled": changed(lambda o: o.update(tau=2 * o["tau"])),
        }
    if command == "cycletrees":
        return {
            "one cycletree winding changed": changed(lambda o: o["cycletrees"][0].update(winding=o["cycletrees"][0]["winding"] + 1)),
            "one cycletree dropped": changed(lambda o: o["cycletrees"].pop()),
        }
    if command == "split":
        return {"one split entry changed": changed(lambda o: bump(o["with_edge"], 0))}
    if command == "winding":
        return {"winding value doubled": changed(lambda o: o.update(value=str(2 * Fraction(o["value"]) or 1)))}
    if command == "verify":
        return {"verify overall false": changed(lambda o: o.update(overall=False))}
    if command == "validate":
        return {"tau doubled": changed(lambda o: o.update(tau=2 * o["tau"]))}
    if command == "homology":
        return {"tau doubled": changed(lambda o: o.update(torsion=sorted(o["torsion"] + [2])))}
    if command == "trees":
        return {"k changed": changed(lambda o: o.update(k=o["k"] + 1))}
    raise ValueError(command)


def main() -> int:
    misses = []

    def report(ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}")
        if not ok:
            misses.append(what)

    scratch = run.OUT / "selftest"
    shutil.rmtree(scratch, ignore_errors=True)
    for workload, build in (("cli-enum", workloads.cli_enum_ops), ("cli-poly", workloads.cli_poly_ops)):
        first, second = scratch / workload / "a", scratch / workload / "b"
        ops = build(SEED, first)
        again = build(SEED, second)
        names = sorted(p.name for p in first.iterdir())
        _, mismatch, errors = filecmp.cmpfiles(first, second, names, shallow=False)
        same_args = [op.args for op in ops] == [tuple(str(a).replace(str(second), str(first)) for a in op.args) for op in again]
        report(not mismatch and not errors and same_args, f"{workload}: seed {SEED} gives byte-identical documents and calls")

        for op in ops:
            if op.name.split("/")[0] in ("circulant-16", "circulant-50", "circulant-50b"):
                continue  # the largest instances only cost time here
            command = op.args[0]
            out = hx_output(op.args)
            problems = op.check(out)
            report(not problems, f"{op.name}: accepts hx's output {problems or ''}")
            for what, bad in corruptions(command, out).items():
                report(bool(op.check(bad)), f"{op.name}: rejects output with {what}")

    instances = family.make_family(SEED)
    for slot in (0, len(instances) // 2, len(instances) - 1):
        g, partial = instances[slot]
        columns = [partial.column(j) for j in range(partial.cols)]
        rec = family.family_instance(g, partial)
        report(not checks.check_family(g.vertex_count, g.edges, columns, rec), f"family graph {slot}: accepts the record")
        bad = dict(rec, lam=tuple(x + (i == 0) for i, x in enumerate(rec["lam"])))
        report(bool(checks.check_family(g.vertex_count, g.edges, columns, bad)), f"family graph {slot}: rejects one lambda entry changed")
        bad = dict(rec, tau=2 * rec["tau"])
        report(bool(checks.check_family(g.vertex_count, g.edges, columns, bad)), f"family graph {slot}: rejects tau doubled")

    shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(misses)} misses")
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
