"""One family-sweep pass in a fresh process, so every pass starts from cold caches.

Usage: python3 bench/family.py <seed>

It generates the acceptance family (timed: that is the set-up), then runs
one fixed instance of every graph through the library's public functions,
timing each instance. The result is pickled to the file that the
environment variable HXB_STATS names: set-up time, each instance's inputs,
latency and record, and the process's own peak resident set. With
HXB_TRACE set, the public hx functions are wrapped, and the span summary
goes into the result too. The result holds plain Python values only, so
the parent does not need hx to read it.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
import traceback

FAMILY = dict(max_vertices=4, max_edges=6, max_entry=2, per_graph=20)


def make_family(seed: int) -> list[tuple]:
    """One (graph, unicyclizer) per graph: the graph's first instance in the family's order."""
    from hx import verify

    first: dict = {}
    for g, partial in verify.exhaustive_family(seed=seed, **FAMILY):
        first.setdefault(g, (g, partial))
    return list(first.values())


def family_instance(g, partial) -> dict:
    """One instance's full acceptance check set, through the library's public functions.

    ``verify_counts`` of the graph runs here too, since a pass visits each
    graph once. Functions are looked up on their modules at call time, so
    the tracing wrappers apply whenever they are installed.
    """
    from hx import complexes, verify, winding

    a = winding.new_unicyclization(g, partial)
    lam = winding.standard_harmonic_cycle(a)
    rec = {
        "lam": lam,
        "k": a.tree_count,
        "tau": a.torsion_order,
        "grouped": winding.standard_harmonic_cycle_grouped(a),
        "split": [],
        "contract": {},
        "delete": {},
    }
    for sigma in range(g.edge_count):
        rec["split"].append(winding.split_standard_cycle(a, sigma))
        if not g.is_loop(sigma):
            rec["contract"][sigma] = winding.standard_harmonic_cycle(winding.contract_unicyclization(a, sigma))
        if winding.winding_difference(a, sigma) != 0:
            smaller, n = winding.delete_unicyclization(a, sigma)
            rec["delete"][sigma] = (n, winding.standard_harmonic_cycle(smaller))
    rec["verifiers"] = (
        verify.verify_inner_product(a).overall,
        verify.verify_harmonicity(a).overall,
        verify.verify_energy_min(a).overall,
        verify.verify_counts(g).overall,
    )
    rebuilt, scale = winding.harmonic_to_unicyclizer(g, lam, a.partial)
    rec["round_trip"] = (scale, winding.standard_harmonic_cycle(winding.new_unicyclization(g, rebuilt)))
    group = complexes.homology_group(a.complex(), 1)
    rec["homology"] = (group.rank, tuple(group.torsion))
    return rec


def main(seed: int) -> None:
    import spans
    from launch import peak_rss_kb

    traced = bool(os.environ.get("HXB_TRACE"))
    if traced:
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
    start = time.perf_counter()
    instances = make_family(seed)
    setup_s = time.perf_counter() - start
    if traced:
        # The generation gets a recorder of its own, so that its time shows only in verify.exhaustive_family.s.
        uninstall()
        family_s = recorder.inclusive_s["verify.exhaustive_family"]
        recorder = spans.Recorder()
        uninstall = spans.install(recorder)
    slots = []
    for g, partial in instances:
        start = time.perf_counter()
        try:
            rec, failure = family_instance(g, partial), None
        except Exception:  # an instance that raises is a failed operation
            rec, failure = None, traceback.format_exc()
        latency = time.perf_counter() - start
        columns = tuple(partial.column(j) for j in range(partial.cols))
        slots.append({"vertices": g.vertex_count, "edges": g.edges, "columns": columns, "latency_s": latency, "rec": rec, "failure": failure})
    result = {"setup_s": setup_s, "slots": slots, "trace": None, "peak_rss_kb": peak_rss_kb()}
    if traced:
        uninstall()
        result["trace"] = recorder.summary()
        result["trace"]["inclusive_s"]["verify.exhaustive_family"] = family_s
    with open(os.environ["HXB_STATS"], "wb") as handle:
        pickle.dump(result, handle)


if __name__ == "__main__":
    main(int(sys.argv[1]))
