import pytest
from fractions import Fraction

from edspin.lattice import (Graph, LatticeFamily, bipartition, cycle_graph,
                            grid_graph, normal_spanning_tree, path_graph,
                            read_edge_list, relabel, spin_density_sequence,
                            star_graph, sublattice_imbalance, write_edge_list)

from oracles import reference_config_graph


def test_graph_rejects_self_loops_and_duplicates():
    with pytest.raises(ValueError):
        Graph(2, ((0, 0),))
    with pytest.raises(ValueError):
        Graph(2, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_bipartition_examples():
    bp = bipartition(path_graph(4))
    assert bp.part_a == frozenset({0, 2})
    assert bp.part_b == frozenset({1, 3})
    assert bipartition(cycle_graph(3)) is None
    bp = bipartition(star_graph(3))
    assert bp.part_a == frozenset({0})
    assert bp.part_b == frozenset({1, 2, 3})


def test_bipartition_requires_connected():
    with pytest.raises(ValueError, match="not connected"):
        bipartition(Graph(4, ((0, 1),)))


def test_spanning_tree_examples():
    chain = path_graph(4)
    assert normal_spanning_tree(chain, 0).edges == chain.edges
    # DFS with ascending neighbors on the 4-cycle gives the path 0-1-2-3
    tree = normal_spanning_tree(cycle_graph(4), 0)
    assert tree.edges == ((0, 1), (1, 2), (2, 3))
    star = star_graph(3)
    assert normal_spanning_tree(star, 0).edges == star.edges
    with pytest.raises(ValueError):
        normal_spanning_tree(chain, 9)


def test_family_members():
    star = LatticeFamily("star")
    g = star.member(2)          # S_3
    assert g.vertex_count == 4 and len(g.edges) == 3
    bethe = LatticeFamily("bethe_ball", 3)
    assert bethe.member(1).vertex_count == 4
    assert bethe.member(2).vertex_count == 10
    with pytest.raises(ValueError):
        LatticeFamily("bethe_ball", 4)
    with pytest.raises(ValueError):
        LatticeFamily("nope")
    assert LatticeFamily("square").member(1).vertex_count == 4
    assert LatticeFamily("lieb").member(1).vertex_count == 12
    assert LatticeFamily("decorated_chain").member(2).vertex_count == 8


@pytest.mark.parametrize("family", [
    LatticeFamily("chain"), LatticeFamily("star"), LatticeFamily("bethe_ball", 3),
    LatticeFamily("square"), LatticeFamily("decorated_chain"), LatticeFamily("lieb"),
])
def test_family_nesting(family):
    for n in (1, 2):
        small, big = family.member(n), family.member(n + 1)
        assert small.vertex_count < big.vertex_count
        big_edges = set(big.edges)
        assert set(small.edges) <= big_edges
        # induced: no big edge inside the small vertex range is missing
        for u, v in big.edges:
            if u < small.vertex_count and v < small.vertex_count:
                assert (u, v) in set(small.edges)


def test_sublattice_imbalance_examples():
    assert sublattice_imbalance(LatticeFamily("star").member(3)) == 4
    assert sublattice_imbalance(grid_graph(2, 2)) == 0
    for n in (1, 2):
        g = LatticeFamily("lieb").member(n)
        assert Fraction(sublattice_imbalance(g), g.vertex_count) == Fraction(1, 3)
    for n in (1, 2, 3):
        g = LatticeFamily("decorated_chain").member(n)
        assert Fraction(sublattice_imbalance(g), g.vertex_count) == Fraction(1, 2)
    with pytest.raises(ValueError, match="bipartite"):
        sublattice_imbalance(cycle_graph(3))


def test_spin_density_sequences():
    rows = spin_density_sequence(LatticeFamily("star"), 4)
    assert [r[3] for r in rows[1:]] == [Fraction(1, 4), Fraction(1, 3), Fraction(3, 8)]
    rows = spin_density_sequence(LatticeFamily("bethe_ball", 3), 5)
    ratios = [Fraction(imb, size) for _, size, imb, _ in rows]
    deltas = [abs(r - Fraction(1, 3)) for r in ratios]
    assert all(a > b for a, b in zip(deltas, deltas[1:]))
    rows = spin_density_sequence(LatticeFamily("decorated_chain"), 3)
    assert all(Fraction(imb, size) == Fraction(1, 2) for _, size, imb, _ in rows)


def test_config_graph_examples():
    cg = reference_config_graph(grid_graph(2, 2), 1.5)
    assert len(cg.nodes) == 4 and cg.is_connected()
    cg = reference_config_graph(path_graph(2), 0.5)
    assert len(cg.nodes) == 2 and len(cg.edges) == 1 and cg.is_connected()
    cg = reference_config_graph(path_graph(4), 0.5)
    assert not cg.is_connected()
    with pytest.raises(ValueError, match="empty sector"):
        reference_config_graph(path_graph(3), 1.5)


def test_config_graph_counts():
    from math import comb
    for g in (path_graph(3), grid_graph(2, 2), star_graph(3)):
        n = g.vertex_count
        for twice_m in range(-(n - 1), n, 2):
            cg = reference_config_graph(g, twice_m / 2)
            assert len(cg.nodes) == n * comb(n - 1, (twice_m + n - 1) // 2)


def test_square_connected_every_sector_but_star_not():
    g = grid_graph(2, 2)
    assert all(reference_config_graph(g, tm / 2).is_connected() for tm in (-3, -1, 1, 3))
    # trees conserve the spin arrangement: the star fails in mixed sectors
    star = star_graph(3)
    assert reference_config_graph(star, 1.5).is_connected()
    assert not reference_config_graph(star, 0.5).is_connected()


def test_relabel():
    g = path_graph(4)
    assert relabel(g, (0, 1, 2, 3)).edges == g.edges
    rev = relabel(g, (3, 2, 1, 0))
    assert set(rev.edges) == set(g.edges)
    star = star_graph(3)
    swapped = relabel(star, (0, 2, 1, 3))
    assert set(swapped.edges) == set(star.edges)
    with pytest.raises(ValueError):
        relabel(g, (0, 0, 1, 2))


def test_bipartition_stable_under_relabel():
    g = path_graph(4)
    perm = (2, 1, 0, 3)
    bp = bipartition(g)
    bp2 = bipartition(relabel(g, perm))
    image_a = {perm[v] for v in bp.part_a}
    assert bp2.part_a == image_a or bp2.part_b == image_a


def test_edge_list_round_trip():
    g = grid_graph(2, 2)
    assert read_edge_list(write_edge_list(g)) == g
    with pytest.raises(ValueError):
        read_edge_list("0 1\n")
    with pytest.raises(ValueError):
        read_edge_list("vertices x\n")
    with pytest.raises(ValueError):
        read_edge_list("vertices 2\n0 1 2\n")
