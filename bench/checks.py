"""Correctness checks for every benchmark output.

Expected values come from computations made apart from hx: sympy for
determinants, nullspaces and Smith invariant factors, and the graph
routines in ``gen``. Each check returns a list of failure messages; an
empty list means the output is right. They run outside the timed region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import sympy
from sympy import ZZ
from sympy.matrices.normalforms import invariant_factors
from sympy.polys.matrices import DomainMatrix

import gen


def det(rows: list[list[int]]) -> int:
    """Exact integer determinant (sympy); 1 for the empty matrix."""
    return int(DomainMatrix.from_list(rows, ZZ).det()) if rows else 1


def dot(u, v) -> int:
    return sum(a * b for a, b in zip(u, v))


def sign_normalized(chain) -> list:
    first = next((c for c in chain if c != 0), 0)
    return [-c for c in chain] if first < 0 else list(chain)


def reduced_laplacian(vertices: int, edges) -> list[list[int]]:
    lap = [[0] * vertices for _ in range(vertices)]
    for t, h in edges:
        if t != h:
            lap[t][t] += 1
            lap[h][h] += 1
            lap[t][h] -= 1
            lap[h][t] -= 1
    return [row[1:] for row in lap[1:]]


def basis_windings(coords, m: int) -> tuple[int, ...]:
    """w(z_j) = det[e_j | M] for the fundamental cycles, M the unicyclizer's coordinates."""
    windings = []
    for j in range(m):
        unit = [1 if i == j else 0 for i in range(m)]
        windings.append(det([[unit[i]] + [col[i] for col in coords] for i in range(m)]))
    return tuple(windings)


@dataclass(frozen=True)
class Expected:
    k: int  # spanning trees: reduced-Laplacian determinant
    windings: tuple[int, ...]  # winding numbers of the fundamental cycles
    tau: int  # gcd of those windings
    torsion: tuple[int, ...]  # Smith invariant factors > 1 of the coordinates (sympy)
    lam: tuple[int, ...] | None  # raw-sign standard harmonic cycle, when asked for
    cycletrees: int | None  # connected |V|-edge subsets, when asked for


def expected(inst: gen.Instance, with_lambda: bool) -> Expected:
    k = det(reduced_laplacian(inst.vertices, inst.edges))
    m = len(inst.cycles)
    windings = basis_windings(inst.coords, m)
    tau = math.gcd(*windings)
    factors = ()
    if inst.coords:
        coords = sympy.Matrix([[col[i] for col in inst.coords] for i in range(m)])
        factors = tuple(int(d) for d in invariant_factors(coords, domain=ZZ))
    if math.prod(factors) != tau:
        raise RuntimeError(f"{inst.name}: invariant factors {factors} disagree with tau {tau}")
    lam = cycletrees = None
    if with_lambda:
        lam = closed_form_lambda(inst, k, windings)
        cycletrees = gen.connected_subsets(inst.vertices, inst.edges, inst.vertices)
    return Expected(k, windings, tau, tuple(d for d in factors if d > 1), lam, cycletrees)


def closed_form_lambda(inst: gen.Instance, k: int, windings) -> tuple[int, ...]:
    """The harmonic cycle h (a cycle orthogonal to the unicyclizer), scaled so z.lam = w(z) k."""
    rows = [[0] * len(inst.edges) for _ in range(inst.vertices)]
    for e, (t, h) in enumerate(inst.edges):
        rows[t][e] -= 1
        rows[h][e] += 1
    rows += [list(col) for col in inst.columns]
    space = sympy.Matrix(rows).nullspace()
    if len(space) != 1:
        raise RuntimeError(f"{inst.name}: harmonic space has dimension {len(space)}")
    h = list(space[0])
    j = next(j for j, z in enumerate(inst.cycles) if dot(z, h) != 0)
    scale = sympy.Rational(windings[j] * k) / dot(inst.cycles[j], h)
    lam = [scale * x for x in h]
    if any(not x.is_integer for x in lam):
        raise RuntimeError(f"{inst.name}: closed-form lambda is not integral")
    return tuple(int(x) for x in lam)


def _is_cycle(inst: gen.Instance, chain) -> bool:
    return gen.chain_is_cycle(inst.vertices, inst.edges, chain)


def check_lambda(out: dict, inst: gen.Instance, exp: Expected) -> list[str]:
    lam, errors = out["lambda"], []
    if out["k"] != exp.k:
        errors.append(f"k {out['k']} != {exp.k}")
    if out["tau"] != exp.tau:
        errors.append(f"tau {out['tau']} != {exp.tau}")
    if not _is_cycle(inst, lam):
        errors.append("lambda is not a cycle")
    if any(dot(col, lam) for col in inst.columns):
        errors.append("lambda is not a cocycle")
    if not any(lam):
        errors.append("lambda is zero")
    elif lam != sign_normalized(lam):
        errors.append("lambda is not sign-normalized")
    products = [dot(z, lam) for z in inst.cycles]
    if any(p % exp.k for p in products):
        errors.append("a fundamental cycle's z.lambda is not divisible by k")
        return errors
    quotients = [p // exp.k for p in products]
    if math.gcd(*quotients) != out["tau"]:
        errors.append(f"gcd of z.lambda/k is {math.gcd(*quotients)}, tau is {out['tau']}")
    if quotients not in (list(exp.windings), [-w for w in exp.windings]):
        errors.append("z.lambda/k differs from the fundamental cycles' winding numbers")
    return errors


def check_cycletrees(out: dict, inst: gen.Instance, exp: Expected) -> list[str]:
    errors, count = [], exp.cycletrees
    if out["count"] != count or len(out["cycletrees"]) != count:
        errors.append(f"count {out['count']} ({len(out['cycletrees'])} listed) != {count}")
    seen = set()
    for item in out["cycletrees"]:
        edges, cycle = tuple(item["edges"]), item["cycle"]
        seen.add(edges)
        if len(edges) != inst.vertices or not _is_cycle(inst, cycle) or not any(cycle):
            errors.append(f"cycletree {edges}: not a cycle on |V| edges")
        elif any(c and e not in edges for e, c in enumerate(cycle)):
            errors.append(f"cycletree {edges}: cycle leaves the edge set")
        elif Fraction(dot(cycle, exp.lam), exp.k) != item["winding"]:
            errors.append(f"cycletree {edges}: winding {item['winding']} != cycle.lambda/k")
    if len(seen) != len(out["cycletrees"]):
        errors.append("cycletrees listed twice")
    return errors


def check_split(out: dict, inst: gen.Instance, exp: Expected, edge: int) -> list[str]:
    total = [a + b for a, b in zip(out["with_edge"], out["without_edge"])]
    if out["edge"] != edge or total != sign_normalized(exp.lam):
        return ["split parts do not sum to lambda"]
    return []


def check_winding(out: dict, inst: gen.Instance, exp: Expected, chain) -> list[str]:
    if _is_cycle(inst, chain):
        j = next(j for j, z in enumerate(inst.cycles) if tuple(chain) == z)
        want, errors = exp.windings[j], []
        if int(out["value"]) % exp.tau:
            errors.append(f"winding {out['value']} is not a multiple of tau {exp.tau}")
    else:
        want, errors = Fraction(dot(chain, exp.lam), exp.k), []
    if out["value"] != str(want) or out["cycle"] != _is_cycle(inst, chain):
        errors.append(f"winding {out} != {want}")
    return errors


def check_verify(out: dict) -> list[str]:
    if out["overall"] and all(r["overall"] for r in out["reports"]):
        return []
    return ["verify reports a failed check"]


def check_validate(out: dict, exp: Expected) -> list[str]:
    if out["valid"] and out["k"] == exp.k and out["tau"] == exp.tau:
        return []
    return [f"validate k={out.get('k')} tau={out.get('tau')}, expected k={exp.k} tau={exp.tau}"]


def check_homology(out: dict, exp: Expected) -> list[str]:
    torsion = out["torsion"]
    if out["rank"] == 1 and torsion == list(exp.torsion) and math.prod(torsion) == exp.tau:
        return []
    return [f"homology rank={out['rank']} torsion={torsion}, expected 1 and {list(exp.torsion)}"]


def check_trees(out: dict, exp: Expected) -> list[str]:
    return [] if out["k"] == exp.k else [f"trees k {out['k']} != {exp.k}"]


def check_family(vertices: int, edges, columns, rec: dict) -> list[str]:
    """The acceptance identities for one family instance, recomputed without hx."""
    errors = []
    lam, k = list(rec["lam"]), rec["k"]
    if k != det(reduced_laplacian(vertices, edges)):
        errors.append("k is not the reduced-Laplacian determinant")
    if not gen.chain_is_cycle(vertices, edges, lam) or any(dot(col, lam) for col in columns) or not any(lam):
        errors.append("lambda is not a nonzero harmonic cycle")
    tree = gen.lexmin_tree(vertices, edges)
    non_tree = [e for e in range(len(edges)) if e not in tree]
    cycles = gen.fundamental_cycles(vertices, edges, tree)
    windings = basis_windings([[col[e] for e in non_tree] for col in columns], len(cycles))
    if [dot(z, lam) for z in cycles] != [w * k for w in windings]:
        errors.append("C.lambda != w(C) k on a fundamental cycle")
    tau = math.gcd(*windings)
    rank, torsion = rec["homology"]
    if rec["tau"] != tau or rank != 1 or math.prod(torsion) != tau:
        errors.append(f"tau {rec['tau']}, homology rank {rank} torsion {torsion}; expected tau {tau}")
    if list(rec["grouped"]) != lam:
        errors.append("grouped lambda differs from lambda")
    if not all(rec["verifiers"]):
        errors.append("a verifier reports a failed check")
    scale, rebuilt = rec["round_trip"]
    if scale == 0 or [Fraction(c) for c in lam] != [scale * c for c in rebuilt]:
        errors.append("round trip is not proportional")
    for sigma, (with_edge, without_edge) in enumerate(rec["split"]):
        if [a + b for a, b in zip(with_edge, without_edge)] != lam:
            errors.append(f"split at {sigma} does not sum to lambda")
        tree = gen.lexmin_tree(vertices, edges, skip=sigma)
        if len(tree) != vertices - 1:
            tree = None  # sigma is a bridge, so no cycle uses it
        avoid = [z for z in gen.fundamental_cycles(vertices, edges, tree) if z[sigma] == 0]
        drop = [e for e in range(len(edges)) if e != sigma]
        t, h = edges[sigma]
        if t == h:
            if any(dot(c, with_edge) for c in avoid):
                errors.append(f"loop {sigma}: lambda through it meets a cycle avoiding it")
        elif any(dot(c, with_edge) != dot([c[e] for e in drop], rec["contract"][sigma]) for c in avoid):
            errors.append(f"contraction relation fails at {sigma}")
        row_gcd = math.gcd(*(col[sigma] for col in columns))
        if row_gcd == 0:
            if any(without_edge):
                errors.append(f"lambda without {sigma} is nonzero on a zero row")
        else:
            n, lam_d = rec["delete"][sigma]
            if n != row_gcd or any(dot(c, without_edge) != n * dot([c[e] for e in drop], lam_d) for c in avoid):
                errors.append(f"deletion relation fails at {sigma}")
    return errors
