import numpy as np
import pytest
from fractions import Fraction
from math import comb

from edspin.fock import (BasisState, SubspaceKind, apply_annihilation,
                         apply_creation, enumerate_sector, hubbard_labels,
                         hubbard_sign_table, kondo_sign_table, magnetization,
                         mlm_basis_vector, mlm_sign_table, nt_basis_vector,
                         sector_dimension, sector_twice_m_values)
from edspin.lattice import bipartition, grid_graph, path_graph, star_graph

from oracles import interleaved_cons, one_hole_vector, reference_mlm_sign_table


def state_tuple(s: BasisState, n: int) -> tuple:
    orbs = []
    for x in range(n):
        if (s.up >> x) & 1:
            orbs.append(2 * x)
        if (s.dn >> x) & 1:
            orbs.append(2 * x + 1)
    return tuple(orbs)


def test_enumerate_small_sectors():
    g = path_graph(2)
    assert enumerate_sector(g, SubspaceKind.single_occupancy(), m=0).dim == 2
    assert enumerate_sector(g, SubspaceKind.full(2), m=0).dim == 4
    assert enumerate_sector(g, SubspaceKind.one_hole(), m=0.5).dim == 2
    with pytest.raises(ValueError, match="empty sector"):
        enumerate_sector(g, SubspaceKind.single_occupancy(), m=0.5)


@pytest.mark.parametrize("g", [path_graph(3), star_graph(3), grid_graph(2, 2)])
def test_sector_dimensions_match_binomials(g):
    n = g.vertex_count
    for kind in (SubspaceKind.full(n), SubspaceKind.full(n - 1),
                 SubspaceKind.single_occupancy(), SubspaceKind.one_hole()):
        total = 0
        for tm in sector_twice_m_values(g, kind):
            basis = enumerate_sector(g, kind, m=tm / 2)
            assert basis.dim == sector_dimension(g, kind, tm / 2)
            assert len({s.sort_key() for s in basis.states}) == basis.dim
            assert list(basis.states) == sorted(basis.states, key=BasisState.sort_key)
            total += basis.dim
        ne = kind.electron_count(n)
        if kind.kind == "full":
            assert total == comb(2 * n, ne)


def test_one_hole_dimension_formula():
    g = grid_graph(2, 2)
    for tm in (-3, -1, 1, 3):
        dim = enumerate_sector(g, SubspaceKind.one_hole(), m=tm / 2).dim
        assert dim == 4 * comb(3, (tm + 3) // 2)


def test_kondo_sector_counts():
    g = path_graph(2)
    kind = SubspaceKind.kondo()
    total = 0
    for tm in sector_twice_m_values(g, kind):
        basis = enumerate_sector(g, kind, m=tm / 2)
        for s in basis.states:
            assert (s.fup | s.fdn) == 0b11 and (s.fup & s.fdn) == 0
        total += basis.dim
    assert total == comb(4, 2) * 4   # conduction half filled times free f spins


def test_apply_annihilation_examples():
    n = 2
    s = BasisState(0b01, 0)          # one up electron at site 0
    out = apply_annihilation(s, 0, 0, n)
    assert out == (BasisState(0, 0), 1)
    assert apply_annihilation(BasisState(0, 0), 0, 0, n) is None
    s = BasisState(0b11, 0)          # up at 0 and 1
    out = apply_annihilation(s, 1, 0, n)
    assert out == (BasisState(0b01, 0), -1)


def test_annihilation_creation_round_trip():
    rng = np.random.default_rng(3)
    n = 4
    for _ in range(200):
        up = int(rng.integers(0, 1 << n))
        dn = int(rng.integers(0, 1 << n))
        x = int(rng.integers(0, n))
        spin = int(rng.integers(0, 2))
        s = BasisState(up, dn)
        created = apply_creation(s, x, spin, n)
        if created is None:
            continue
        t, sign1 = created
        back, sign2 = apply_annihilation(t, x, spin, n)
        assert back == s and sign1 * sign2 == 1


def test_magnetization_examples():
    assert magnetization(BasisState(0b11, 0)) == 1
    assert magnetization(BasisState(0b01, 0b10)) == 0
    kondo = BasisState(up=0b01, dn=0, fup=0b10, fdn=0b01)
    assert magnetization(kondo) == Fraction(1, 2)


@pytest.mark.parametrize("g", [path_graph(2), star_graph(3), path_graph(4)])
def test_mlm_vectors_match_symbolic_oracle(g):
    n = g.vertex_count
    bp = bipartition(g)
    b_set = set(bp.part_b)
    for x_mask in range(1 << n):
        x_set = {x for x in range(n) if (x_mask >> x) & 1}
        oracle = interleaved_cons(n, b_set, x_set, x_set)
        state, sign = mlm_basis_vector(g, x_mask)
        [(occ, coeff)] = oracle.items()
        assert coeff == sign
        assert state_tuple(state, n) == occ


def test_mlm_vector_examples():
    g = path_graph(2)
    state, sign = mlm_basis_vector(g, 0b01)
    assert (state.up, state.dn) == (0b01, 0b10) and sign == -1
    state, sign = mlm_basis_vector(g, 0)        # all-down reference state
    assert (state.up, state.dn) == (0, 0b11) and sign == -1
    state, sign = mlm_basis_vector(g, 0b11)     # all-up state
    assert (state.up, state.dn) == (0b11, 0) and sign == 1
    basis = enumerate_sector(g, SubspaceKind.single_occupancy(), m=0)
    idx, sign = mlm_basis_vector(g, 0b01, basis)
    assert basis.states[idx].up == 0b01 and sign == -1


@pytest.mark.parametrize("g", [path_graph(2), path_graph(3), star_graph(3)])
def test_nt_vectors_match_symbolic_oracle(g):
    n = g.vertex_count
    basis = enumerate_sector(g, SubspaceKind.one_hole())
    seen = set()
    for s in basis.states:
        sigma = []
        for x in range(n):
            if (s.up >> x) & 1:
                sigma.append(1)
            elif (s.dn >> x) & 1:
                sigma.append(-1)
            else:
                sigma.append(0)
        sigma = tuple(sigma)
        if sigma in seen:
            continue
        seen.add(sigma)
        state, sign = nt_basis_vector(g, sigma)
        oracle = one_hole_vector(n, sigma)
        [(occ, coeff)] = oracle.items()
        assert coeff == sign and state_tuple(state, n) == occ


def test_hubbard_table_restricts_to_mlm_on_diagonal():
    for g in (path_graph(2), star_graph(3), path_graph(4)):
        full = (1 << g.vertex_count) - 1
        basis = enumerate_sector(g, SubspaceKind.full(g.vertex_count))
        signs = hubbard_sign_table(basis)
        labels = hubbard_labels(basis)
        so = enumerate_sector(g, SubspaceKind.single_occupancy())
        mlm = dict(zip([s.up for s in so.states], mlm_sign_table(so)))
        for s, sign, (x, y) in zip(basis.states, signs, labels):
            if x == y and (s.up | s.dn) == full and not (s.up & s.dn):
                assert sign == mlm[x]


@pytest.mark.parametrize("g", [path_graph(12), path_graph(14), star_graph(3),
                               grid_graph(2, 3)],
                         ids=["path:12", "path:14", "star:3", "grid:2x3"])
def test_mlm_sign_table_matches_per_state_reference(g):
    kind = SubspaceKind.single_occupancy()
    for tm in sector_twice_m_values(g, kind):
        basis = enumerate_sector(g, kind, m=tm / 2)
        assert mlm_sign_table(basis).tolist() == reference_mlm_sign_table(basis)


def test_mlm_sign_table_with_an_explicit_part_b_mask():
    """Any site mask, bipartition or not, gives the construction's signs."""
    for g in (star_graph(3), path_graph(12)):
        basis = enumerate_sector(g, SubspaceKind.single_occupancy())
        n = g.vertex_count
        for mask in (0, 1, (1 << n) - 1, 0b100110010101 & ((1 << n) - 1)):
            assert (mlm_sign_table(basis, mask).tolist()
                    == reference_mlm_sign_table(basis, mask))


def test_mlm_sign_table_refuses_states_that_are_not_its_words():
    g = path_graph(4)
    for kind in (SubspaceKind.full(4), SubspaceKind.one_hole()):
        with pytest.raises(ValueError, match="singly occupied"):
            mlm_sign_table(enumerate_sector(g, kind))


def test_kondo_table_restricts_to_doubled_mlm():
    from edspin.fock import kondo_doubled_sets, kondo_part2_mask, cons_vector
    g = path_graph(2)
    n = g.vertex_count
    basis = enumerate_sector(g, SubspaceKind.kondo(), m=0)
    for sign_kind in ("af", "f"):
        part2 = kondo_part2_mask(g, sign_kind)
        table = kondo_sign_table(basis, sign_kind)
        for s, sign in zip(basis.states, table):
            u, v = kondo_doubled_sets(s, n)
            if u == v:   # singly occupied doubled sites
                _, expected = cons_vector(n, part2, u, u, species_count=2)
                assert sign == expected


def test_enumeration_refuses_states_wider_than_a_word():
    with pytest.raises(ValueError, match="68 bits"):
        enumerate_sector(path_graph(17), SubspaceKind.kondo())
    with pytest.raises(ValueError, match="66 bits"):
        enumerate_sector(path_graph(33), SubspaceKind.single_occupancy(), m=16.5)
    # 32 sites of one species fill the word; a small sector stays small
    kind = SubspaceKind.single_occupancy()
    assert enumerate_sector(path_graph(32), kind, m=16).dim == 1
    top = enumerate_sector(path_graph(32), kind, m=15)
    assert top.dim == 32 and top.index_of(top.states[-1]) == 31


def test_non_half_integer_m_is_refused():
    kind = SubspaceKind.single_occupancy()
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        enumerate_sector(path_graph(3), kind, m=0.3)
    assert enumerate_sector(path_graph(3), kind, m=0.5).twice_m == 1
