"""Hom(K2,G) against an independent model: the Lovász lattice.

L°(G) is the set of nonempty intersections of neighbourhoods of G, the
closure of the nonempty neighbourhood masks under nonempty intersection,
ordered by inclusion.  It needs no Hom enumeration.  The map
(A,B) -> CN(CN(A)) from Hom(K2,G) to L°(G) is monotone, and each fibre
{(A,B) : A ⊆ C} below C is contractible: (A,B) <= (A, B ∪ CN(C)) >=
(A, CN(C)) <= (C, CN(C)).  So Quillen's fibre lemma makes the two order
complexes homotopy equivalent, the poset form of Lovász's N(G) ≃ Hom(K2,G)
(Babson–Kozlov, *Complexes of graph homomorphisms*, Israel J. Math 2006),
and their homology must agree over every field.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from homlab.cli import parse_graph_id
from homlab.families import csorba_graph
from homlab.graphs import Graph
from homlab.homology import hom_homology, poset_homology
from homlab.homposets import hom_poset
from homlab.posets import Poset, make_complex


def lovasz_lattice(g: Graph) -> Poset:
    """L°(G): each element is a vertex mask, and i <= j is inclusion."""
    gens = {mask for mask in g.adj if mask}
    sets, frontier = set(gens), set(gens)
    while frontier:
        frontier = {a & b for a in frontier for b in gens} - sets - {0}
        sets |= frontier
    masks = sorted(sets, key=lambda m: (bin(m).count("1"), m))
    above = tuple(sum(1 << j for j, b in enumerate(masks) if not a & ~b)
                  for a in masks)
    return Poset(len(masks), above, tuple(masks))


def assert_lattice_model(g: Graph) -> None:
    hp = hom_poset(parse_graph_id("K2"), g)
    lattice = lovasz_lattice(g)
    for field_name in ("Z", "GF2"):
        assert poset_homology(lattice, field_name) == \
            hom_homology(hp, field_name)


@st.composite
def loopless_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return Graph.from_edges(n, draw(st.lists(st.sampled_from(pairs),
                                             unique=True))
                            if pairs else [])


def _csorba_square() -> Graph:
    square = make_complex(4, [[0, 1], [1, 2], [2, 3], [3, 0]])
    return csorba_graph(square, (2, 3, 0, 1))


# T(2,3) agrees too, but takes about 2 s per field
@pytest.mark.parametrize("ident", [
    "K3", "K4", "K5", "K6", "C5", "C7", "T(1,3)", "T(1,5)", "T(1,6)",
    "S(1,1)", "S(1,2)", "S(2,1)", "csorba-square"])
def test_lovasz_lattice_has_the_homology_of_hom_k2(ident):
    g = _csorba_square() if ident == "csorba-square" \
        else parse_graph_id(ident)
    assert_lattice_model(g)


def test_lovasz_lattice_carries_the_torsion_of_hom_k2_t25():
    """Hom(K2,T(2,5)) has H~1 = Z + Z/2, so the lattice side, 450
    elements, must find the Z/2 torsion too."""
    g = parse_graph_id("T(2,5)")
    lattice = lovasz_lattice(g)
    assert lattice.m == 450
    z = poset_homology(lattice, "Z")
    assert z == hom_homology(hom_poset(parse_graph_id("K2"), g), "Z")
    assert str(z) == "H~1=Z+Z/2"


@settings(deadline=None, max_examples=80)
@given(loopless_graphs())
@example(Graph(1, (0,)))                      # no edge: both are empty
@example(parse_graph_id("C5"))
@example(Graph(3, (0b010, 0b101, 0b010)))     # a path: two points
def test_lovasz_lattice_model_on_small_loopless_graphs(g):
    assert_lattice_model(g)
