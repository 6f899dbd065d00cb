"""The CLI workloads' seeded operation lists.

A CLI operation is one fresh ``hx`` process on a generated document, and
carries the check for its output. family-sweep's operations are in
``family.py``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

ENUM_CALLS = ("lambda", "cycletrees", "split", "winding", "verify")
POLY_CALLS = ("validate", "homology", "trees", "winding")
POLY_WINDINGS = 2  # fundamental cycles per instance given to `hx winding`


@dataclass(frozen=True)
class Op:
    name: str
    args: tuple[str, ...]
    check: Callable[[dict], list[str]]


def enum_instances(rng: random.Random) -> list[tuple[gen.Instance, tuple[str, ...]]]:
    """Theta, torsion theta, C_6 and circulants with E = 8, 12, 16 (entries in +-2)."""
    return [
        (gen.theta_instance(rng, "theta", 1), ENUM_CALLS),
        (gen.theta_instance(rng, "theta-torsion", 2), ENUM_CALLS),
        (gen.make_instance("cycle-6", *gen.cycle_graph(6), ()), ENUM_CALLS),
        (gen.random_instance(rng, "circulant-8", gen.circulant(4), 2), ENUM_CALLS),
        (gen.random_instance(rng, "circulant-12", gen.circulant(6), 2), ENUM_CALLS),
        (gen.random_instance(rng, "circulant-16", gen.circulant(8), 2), ("lambda",)),
    ]


def poly_instances(rng: random.Random) -> list[tuple[gen.Instance, tuple[str, ...]]]:
    """Circulants with E = 20, 30, 40, 50 whose unicyclizer coordinates have entries in +-9.

    The Smith form behind `validate`, `winding` and `homology` costs from
    0.3 s to 1.3 s at E = 50 depending on the seed. E = 40 and E = 50
    therefore get a second instance, and E = 50 skips `winding`, so that a
    pass's time depends less on which matrices the seed drew.
    """
    ladder = [
        ("circulant-20", 10, POLY_CALLS),
        ("circulant-30", 15, POLY_CALLS),
        ("circulant-40", 20, POLY_CALLS),
        ("circulant-40b", 20, ("validate", "homology")),
        ("circulant-50", 25, ("validate", "homology", "trees")),
        ("circulant-50b", 25, ("validate", "homology")),
    ]
    return [(gen.random_instance(rng, name, gen.circulant(n), 9), calls) for name, n, calls in ladder]


def write_documents(instances: list[gen.Instance], directory: Path) -> dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for inst in instances:
        path = directory / f"{inst.name}.json"
        path.write_text(inst.document() + "\n", encoding="utf-8")
        paths[inst.name] = str(path)
    return paths


def _chain_arg(chain) -> str:
    return "--chain=" + ",".join(map(str, chain))


def cli_enum_ops(seed: int, directory: Path) -> list[Op]:
    rng = random.Random(seed)
    ladder = enum_instances(rng)
    paths = write_documents([inst for inst, _ in ladder], directory)
    ops = []
    for inst, calls in ladder:
        exp = checks.expected(inst, with_lambda=True)
        path = paths[inst.name]
        edge = rng.randrange(len(inst.edges))
        chain = gen.random_non_cycle(rng, inst)
        table = {
            "lambda": (("lambda", path), lambda out, i=inst, x=exp: checks.check_lambda(out, i, x)),
            "cycletrees": (("cycletrees", path), lambda out, i=inst, x=exp: checks.check_cycletrees(out, i, x)),
            "split": (("split", path, "--edge", str(edge)), lambda out, i=inst, x=exp, e=edge: checks.check_split(out, i, x, e)),
            "winding": (("winding", path, _chain_arg(chain)), lambda out, i=inst, x=exp, c=chain: checks.check_winding(out, i, x, c)),
            "verify": (("verify", path, "--all"), checks.check_verify),
        }
        for call in calls:
            args, check = table[call]
            ops.append(Op(f"{inst.name}/{call}", args, check))
    return ops


def cli_poly_ops(seed: int, directory: Path) -> list[Op]:
    rng = random.Random(seed)
    ladder = poly_instances(rng)
    paths = write_documents([inst for inst, _ in ladder], directory)
    ops = []
    for inst, calls in ladder:
        exp = checks.expected(inst, with_lambda=False)
        path = paths[inst.name]
        cycles = sorted(rng.sample(range(len(inst.cycles)), POLY_WINDINGS))
        table = {
            "validate": [("validate", ("validate", path), lambda out, x=exp: checks.check_validate(out, x))],
            "homology": [("homology", ("homology", path, "--dim", "1"), lambda out, x=exp: checks.check_homology(out, x))],
            "trees": [("trees", ("trees", path), lambda out, x=exp: checks.check_trees(out, x))],
            "winding": [
                (f"winding-z{j}", ("winding", path, _chain_arg(inst.cycles[j])), lambda out, i=inst, x=exp, c=inst.cycles[j]: checks.check_winding(out, i, x, c))
                for j in cycles
            ],
        }
        for call in calls:
            ops += [Op(f"{inst.name}/{name}", args, check) for name, args, check in table[call]]
    return ops
