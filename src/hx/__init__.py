"""Exact harmonic cycles of unicyclized graphs.

The pieces: exact integer/rational linear algebra (`intlinalg`), multigraphs
(`graphs`), chain complexes and Laplacians (`complexes`), spanning tree and
cycletree enumeration (`spanning`), winding numbers and the standard
harmonic cycle (`winding`), brute-force verifiers (`verify`), the JSON
document format plus CLI (`documents`, `cli`), and the shared exception
types (`errors`).

Library names are imported from these submodules, for example
``from hx.winding import new_unicyclization``; the package itself imports
none of them, so importing it, or one submodule such as `hx.cli`, loads no
module it does not use.
"""

__version__ = "0.1.0"
