"""Exact harmonic cycles of unicyclized graphs.

The pieces: exact integer/rational linear algebra (`intlinalg`), multigraphs
(`graphs`), chain complexes and Laplacians (`complexes`), spanning tree and
cycletree enumeration (`spanning`), winding numbers and the standard
harmonic cycle (`winding`), brute-force verifiers (`verify`), and the JSON
document format plus CLI (`documents`, `cli`).

The names below are resolved on first access (PEP 562), so importing the
package, or one submodule such as `hx.cli`, loads no module it does not use.
"""

import importlib

_EXPORTS = {
    "complexes": (
        "ChainComplex",
        "HomologyGroup",
        "check_mean_value",
        "complex_from_boundaries",
        "energy",
        "graph_homology",
        "harmonic_basis",
        "homology_group",
        "laplacian",
        "new_complex",
    ),
    "errors": (
        "DimensionError",
        "DocumentError",
        "EnumerationCapError",
        "InternalError",
        "NotConnectedError",
        "UnicyclizerAxiomError",
    ),
    "graphs": (
        "EdgeRelabeling",
        "Multigraph",
        "contract",
        "contract_edges",
        "corank",
        "delete",
        "incidence_matrix",
        "is_connected",
    ),
    "intlinalg": (
        "IntMatrix",
        "det",
        "gcd_of_vector",
        "kernel_basis",
        "rank",
    ),
    "spanning": (
        "CycleBasis",
        "Cycletree",
        "cycletrees",
        "fundamental_basis",
        "lexmin_spanning_tree",
        "spanning_trees",
        "tree_number",
        "unique_cycle",
    ),
    "verify": (
        "VerificationReport",
        "connected_multigraphs",
        "cycletree_sum",
        "exhaustive_family",
        "verify_counts",
        "verify_energy_min",
        "verify_harmonicity",
        "verify_inner_product",
    ),
    "winding": (
        "Unicyclization",
        "WindingReport",
        "check_axioms",
        "contract_unicyclization",
        "cycle_coordinates",
        "cycletree_windings",
        "delete_unicyclization",
        "extended_winding",
        "face_lattice_basis",
        "from_cw",
        "harmonic_to_unicyclizer",
        "new_unicyclization",
        "sign_normalized",
        "split_standard_cycle",
        "standard_harmonic_cycle",
        "standard_harmonic_cycle_grouped",
        "torsion",
        "winding_difference",
        "winding_number",
        "winding_report",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    # An unknown name must raise AttributeError, so that `from hx import verify`
    # falls through to importing the submodule.
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
