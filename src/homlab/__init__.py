"""Exact desk-scale computations with graph homomorphism posets and poset topology.

The package builds finite graphs, posets, and simplicial complexes; enumerates
Hom posets of multihomomorphisms exactly; computes reduced simplicial homology
over Z and GF(2); constructs the spherical, twisted toroidal, Mycielski, and
universality graph families together with their group actions and colorings;
and verifies a registry of deterministic experiments with content-addressed
caching.  Every enumeration is guarded: results are exact or a
:class:`GuardExceeded` is raised, never silently truncated.
"""

from .graphs import complete_graph
from .homology import poset_homology
from .homposets import hom_poset
from .limits import DEFAULT_GUARDS

__all__ = ["complete_graph", "hom_poset", "poset_homology", "DEFAULT_GUARDS"]
