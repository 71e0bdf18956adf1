"""Size guards for exact enumerations.

Every potentially explosive enumeration takes a ``Guards`` value and raises
``GuardExceeded`` instead of grinding.  Callers that want soft behaviour
(the experiment harness) catch the exception and report a skip; nothing in
this package ever silently truncates a result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace


class GuardExceeded(RuntimeError):
    """An enumeration would exceed a configured size guard."""

    def __init__(self, guard: str, limit: int, attempted: int | None = None):
        self.guard = guard
        self.limit = limit
        self.attempted = attempted
        extra = f", needed > {attempted}" if attempted is not None else ""
        super().__init__(f"guard '{guard}' exceeded (limit {limit}{extra})")


@dataclass(frozen=True)
class Guards:
    """Hard ceilings for exact enumerations (element counts unless noted)."""

    hom_elements: int = 1_000_000          # multihomomorphisms per Hom poset
    search_nodes: int = 20_000_000         # values tried per search call (work)
    poset_relation: int = 4_000            # elements before an order relation is materialized
    chain_elements: int = 500_000          # chains of a poset (order-complex faces)
    exponential_vertices: int = 250_000    # vertex maps in an exponential graph
    poset_map_elements: int = 400_000      # monotone maps enumerated
    group_order: int = 5_040               # closure of a generated permutation group
    fine_vertices: int = 20                # vertices for the 2^n fineness sweep
    snf_nonzeros: int = 20_000             # nonzeros of a Morse boundary, dense Smith form
    complex_faces: int = 2_000_000         # faces of a simplicial complex

    def scaled(self, **kw: int) -> "Guards":
        return replace(self, **kw)


DEFAULT_GUARDS = Guards()


GRAPH_VERTICES = 10_000  # vertices of K n, C n, R n, L n, T(k,m), M^k_m(G)


def check_graph_vertices(n: int) -> None:
    """Refuse a graph on more than GRAPH_VERTICES vertices before it is
    built: its adjacency rows hold up to n^2 bits, 12.5 MB at the bound."""
    if n > GRAPH_VERTICES:
        raise GuardExceeded("graph_vertices", GRAPH_VERTICES, n)
