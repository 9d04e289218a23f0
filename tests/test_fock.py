import ast
from math import comb
from pathlib import Path

import numpy as np
import pytest

import edspin
from edspin.cones import hubbard_cone, kondo_cone
from edspin.fock import (SubspaceKind, enumerate_sector, hubbard_labels,
                         hubbard_sign_table, kondo_labels, kondo_part2_mask,
                         kondo_sign_table, mlm_sign_table, nt_sign_table, pack,
                         sector_dimension, sector_twice_m_values)
from edspin.lattice import grid_graph, path_graph, star_graph
from edspin.operators import (annihilation_matrix, creation_matrix,
                              full_fock_basis, magnetization_values)

from oracles import (interleaved_cons, reference_hubbard_sign_table,
                     reference_kondo_sign_table, reference_mlm_sign_table,
                     reference_nt_sign_table)


def _sectors(g, kind):
    for tm in sector_twice_m_values(g, kind):
        yield enumerate_sector(g, kind, m=tm / 2)


def _row(basis, *fields) -> int:
    """Row of the electron state with the given site masks."""
    return int(basis.lookup(np.uint64(pack(fields, basis.n_sites))))


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
            assert len(basis.words) == basis.dim
            assert np.all(basis.words[1:] > basis.words[:-1])
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
        _, _, fup, fdn = basis.fields()
        assert np.all((fup | fdn) == 0b11) and np.all((fup & fdn) == 0)
        total += basis.dim
    assert total == comb(4, 2) * 4   # conduction half filled times free f spins


def test_apply_annihilation_examples():
    fb = full_fock_basis(path_graph(2))
    c0 = annihilation_matrix(fb, fb, 0, 0).matrix.toarray()
    # one up electron at site 0 goes to the vacuum with sign +1
    assert c0[_row(fb, 0, 0), _row(fb, 0b01, 0)] == 1
    assert not c0[:, _row(fb, 0, 0)].any()
    # with up electrons at 0 and 1, c_(1 up) crosses the one at 0
    c1 = annihilation_matrix(fb, fb, 1, 0).matrix.toarray()
    assert c1[_row(fb, 0b01, 0), _row(fb, 0b11, 0)] == -1


def test_annihilation_creation_round_trip():
    """c_o c*_o is 1 - n_o: creating and then annihilating an orbital gives
    back the state with sign +1, and c_o is the transpose of c*_o."""
    fb = full_fock_basis(path_graph(4))
    up, dn = fb.fields()
    for x in range(4):
        for spin, mask in enumerate((up, dn)):
            c = annihilation_matrix(fb, fb, x, spin).matrix
            cdag = creation_matrix(fb, fb, x, spin).matrix
            empty = 1.0 - ((mask >> x) & 1)
            assert np.array_equal((c @ cdag).toarray(), np.diag(empty))
            assert (c - cdag.T).nnz == 0


def test_magnetization_examples():
    fb = full_fock_basis(path_graph(2))
    m = magnetization_values(fb)
    assert m[_row(fb, 0b11, 0)] == 1 and m[_row(fb, 0b01, 0b10)] == 0
    hole = enumerate_sector(path_graph(2), SubspaceKind.one_hole())
    assert magnetization_values(hole)[_row(hole, 0b01, 0)] == 0.5
    kondo = enumerate_sector(path_graph(2), SubspaceKind.kondo())
    assert magnetization_values(kondo)[_row(kondo, 0b01, 0b01, 0b11, 0)] == 1


@pytest.mark.parametrize("g", [path_graph(2), star_graph(3), path_graph(4)])
def test_mlm_vectors_match_symbolic_oracle(g):
    basis = enumerate_sector(g, SubspaceKind.single_occupancy())
    assert mlm_sign_table(basis).tolist() == reference_mlm_sign_table(basis)


def test_mlm_vector_examples():
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    signs = mlm_sign_table(basis)
    assert signs[_row(basis, 0b01, 0b10)] == -1
    assert signs[_row(basis, 0, 0b11)] == -1       # all-down reference state
    assert signs[_row(basis, 0b11, 0)] == 1        # all-up state


@pytest.mark.parametrize("g", [path_graph(2), path_graph(3), star_graph(3),
                               grid_graph(2, 3), grid_graph(3, 3)])
def test_nt_vectors_match_symbolic_oracle(g):
    for basis in _sectors(g, SubspaceKind.one_hole()):
        assert nt_sign_table(basis).tolist() == reference_nt_sign_table(basis)


@pytest.mark.parametrize("g", [path_graph(2), path_graph(4), path_graph(6),
                               star_graph(3), grid_graph(2, 3)],
                         ids=["path:2", "path:4", "path:6", "star:3", "grid:2x3"])
def test_hubbard_sign_table_matches_symbolic_reference(g):
    for basis in _sectors(g, SubspaceKind.full(g.vertex_count)):
        assert (hubbard_sign_table(basis).tolist()
                == reference_hubbard_sign_table(basis))


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("coupling_sign", ["af", "f"])
def test_kondo_sign_table_matches_symbolic_reference(n, coupling_sign):
    for basis in _sectors(path_graph(n), SubspaceKind.kondo()):
        assert (kondo_sign_table(basis, coupling_sign).tolist()
                == reference_kondo_sign_table(basis, coupling_sign))


def test_psd_sign_tables_refuse_other_bases():
    g = path_graph(4)
    for kind in (SubspaceKind.full(3), SubspaceKind.one_hole(),
                 SubspaceKind.single_occupancy(), SubspaceKind.kondo()):
        basis = enumerate_sector(g, kind)
        with pytest.raises(ValueError, match="half-filled full basis"):
            hubbard_sign_table(basis)
        with pytest.raises(ValueError, match="half-filled full basis"):
            hubbard_cone(basis)
    for kind in (SubspaceKind.single_occupancy(), SubspaceKind.full(4)):
        basis = enumerate_sector(g, kind)
        with pytest.raises(ValueError, match="kondo basis"):
            kondo_sign_table(basis, "af")
        with pytest.raises(ValueError, match="kondo basis"):
            kondo_cone(basis, "f")


def test_kondo_tables_refuse_unknown_coupling_signs():
    basis = enumerate_sector(path_graph(2), SubspaceKind.kondo(), m=0)
    for sign in ("xyz", "AF", "F", ""):
        with pytest.raises(ValueError, match="neither 'af' nor 'f'"):
            kondo_sign_table(basis, sign)
        with pytest.raises(ValueError, match="neither 'af' nor 'f'"):
            kondo_cone(basis, sign)


def test_hubbard_table_restricts_to_mlm_on_diagonal():
    for g in (path_graph(2), star_graph(3), path_graph(4)):
        basis = enumerate_sector(g, SubspaceKind.full(g.vertex_count))
        x, y = hubbard_labels(basis)
        diagonal = x == y
        so = enumerate_sector(g, SubspaceKind.single_occupancy())
        mlm = dict(zip(so.fields()[0].tolist(), mlm_sign_table(so).tolist()))
        assert diagonal.sum() == so.dim
        assert (hubbard_sign_table(basis)[diagonal].tolist()
                == [mlm[u] for u in x[diagonal].tolist()])


@pytest.mark.parametrize("g", [path_graph(12), path_graph(14), star_graph(3),
                               grid_graph(2, 3)],
                         ids=["path:12", "path:14", "star:3", "grid:2x3"])
def test_mlm_sign_table_matches_per_state_reference(g):
    for basis in _sectors(g, SubspaceKind.single_occupancy()):
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
    g = path_graph(2)
    n = g.vertex_count
    basis = enumerate_sector(g, SubspaceKind.kondo(), m=0)
    u, v = kondo_labels(basis)
    for sign_kind in ("af", "f"):
        part2 = kondo_part2_mask(g, sign_kind)
        p_set = {d for d in range(2 * n) if (part2 >> d) & 1}
        table = kondo_sign_table(basis, sign_kind)
        for uu, vv, sign in zip(u.tolist(), v.tolist(), table.tolist()):
            if uu == vv:   # singly occupied doubled sites
                u_set = {d for d in range(2 * n) if (uu >> d) & 1}
                [expected] = interleaved_cons(2 * n, p_set, u_set, u_set).values()
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
    up, dn = top.fields()
    assert top.dim == 32 and _row(top, int(up[-1]), int(dn[-1])) == 31


def test_non_half_integer_m_is_refused():
    kind = SubspaceKind.single_occupancy()
    with pytest.raises(ValueError, match="not a multiple of 1/2"):
        enumerate_sector(path_graph(3), kind, m=0.3)
    assert enumerate_sector(path_graph(3), kind, m=0.5).twice_m == 1


def test_oracles_take_only_enumeration_from_fock():
    """The references check the sign tables and assembly of ``edspin.fock``;
    they may enumerate sectors and read packed words, nothing more."""
    allowed = {"enumerate_sector", "SubspaceKind", "pack", "unpack",
               "sector_twice_m_values"}
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    taken = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert all(a.name != "edspin.fock" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "edspin.fock":
            taken |= {a.name for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "edspin":
            names = {a.name for a in node.names}
            assert "fock" not in names
            taken |= {a for a in names
                      if getattr(getattr(edspin, a, None), "__module__", "") == "edspin.fock"}
    assert taken <= allowed, taken - allowed
