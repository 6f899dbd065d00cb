"""Exact harmonic cycles of unicyclized graphs.

The pieces: exact integer/rational linear algebra (`intlinalg`), multigraphs
(`graphs`), chain complexes and Laplacians (`complexes`), spanning tree and
cycletree enumeration (`spanning`), winding numbers and the standard
harmonic cycle (`winding`), brute-force verifiers (`verify`), and the JSON
document format plus CLI (`documents`, `cli`).
"""

from .complexes import (
    ChainComplex,
    HomologyGroup,
    check_mean_value,
    complex_from_boundaries,
    energy,
    harmonic_basis,
    homology_group,
    laplacian,
    new_complex,
)
from .errors import (
    DimensionError,
    DocumentError,
    EnumerationCapError,
    InternalError,
    NotConnectedError,
    UnicyclizerAxiomError,
)
from .graphs import (
    EdgeKind,
    EdgeRelabeling,
    Multigraph,
    classify_edge,
    contract,
    contract_edges,
    corank,
    delete,
    incidence_matrix,
    is_connected,
)
from .intlinalg import (
    IntMatrix,
    SmithDecomposition,
    det,
    gcd_of_vector,
    kernel_basis,
    kernel_lattice_basis,
    rank,
    smith_normal_form,
)
from .spanning import (
    CycleBasis,
    Cycletree,
    cycletrees,
    express_in_basis,
    fundamental_basis,
    lexmin_spanning_tree,
    spanning_trees,
    tree_number,
    unique_cycle,
)
from .verify import (
    VerificationReport,
    connected_multigraphs,
    cycletree_sum,
    exhaustive_family,
    verify_counts,
    verify_energy_min,
    verify_harmonicity,
    verify_inner_product,
)
from .winding import (
    Unicyclization,
    WindingReport,
    check_axioms,
    contract_unicyclization,
    cycle_coordinates,
    cycletree_windings,
    delete_unicyclization,
    extended_winding,
    face_lattice_basis,
    from_cw,
    harmonic_to_unicyclizer,
    new_unicyclization,
    select_independent_columns,
    sign_normalized,
    split_standard_cycle,
    standard_harmonic_cycle,
    standard_harmonic_cycle_grouped,
    torsion,
    winding_difference,
    winding_number,
    winding_report,
)

__version__ = "0.1.0"
