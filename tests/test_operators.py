import numpy as np
import pytest
import scipy.sparse as sp

from edspin.fock import (SubspaceKind, enumerate_sector, pack,
                         sector_twice_m_values)
from edspin.hamiltonians import ModelSpec, build
from edspin.lattice import bipartition, grid_graph, path_graph, star_graph
from edspin.operators import (SparseOperator, annihilation_matrix, coulomb,
                              creation_matrix, electron_basis, embed_isometry,
                              embed_state, full_fock_basis, gutzwiller,
                              heisenberg_bond, hole_particle, hopping,
                              ladder_ops, magnetization_values,
                              nesting_projection, phonon_ops, spin_dot,
                              spin_op, total_spin_squared)

from oracles import basis_rows


def single_site_basis():
    from edspin.lattice import Graph
    return enumerate_sector(Graph(1, ()), SubspaceKind.single_occupancy())


def test_spin_op_single_site():
    basis = single_site_basis()
    s3 = spin_op(basis, 0, 3).dense()
    # states sorted by (up, dn): (0, 1) = down first, then (1, 0) = up
    assert np.allclose(np.diag(s3), [-0.5, 0.5])
    s1 = spin_op(basis, 0, 1).dense()
    down = np.array([1.0, 0.0])
    up = np.array([0.0, 1.0])
    assert np.allclose(s1 @ up, 0.5 * down)


def test_spin_commutation_relations():
    for basis in (single_site_basis(),
                  enumerate_sector(path_graph(2), SubspaceKind.full(2))):
        for x in range(basis.n_sites):
            s1 = spin_op(basis, x, 1).dense().astype(complex)
            s2 = spin_op(basis, x, 2).dense()
            s3 = spin_op(basis, x, 3).dense().astype(complex)
            assert np.allclose(s1 @ s2 - s2 @ s1, 1j * s3, atol=1e-12)


def test_total_spin_squared_two_site():
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    s2 = total_spin_squared(basis).dense()
    vals = np.sort(np.linalg.eigvalsh(s2))
    assert np.allclose(vals, [0.0, 2.0, 2.0, 2.0], atol=1e-12)
    # singlet expectation
    m0 = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy(), m=0)
    s2m = total_spin_squared(m0).dense()
    up_dn, dn_up = m0.lookup(pack((np.uint64([0b01, 0b10]), np.uint64([0b10, 0b01])), 2))
    singlet = np.zeros(2)
    singlet[up_dn], singlet[dn_up] = 1, -1
    singlet /= np.sqrt(2)
    assert abs(singlet @ s2m @ singlet) < 1e-12


def pairwise_spin_squared(basis) -> np.ndarray:
    """sum_ab S_a . S_b over ordered pairs of spin carriers, from spin_dot."""
    carriers = [(x, species) for species in range(basis.species_count)
                for x in range(basis.n_sites)]
    total = sp.csr_matrix((basis.dim, basis.dim))
    for a in carriers:
        for b in carriers:
            total = total + spin_dot(basis, a, b).matrix
    return total.toarray()


def _s2_bases():
    p3, g22 = path_graph(3), grid_graph(2, 2)
    yield enumerate_sector(p3, SubspaceKind.single_occupancy())       # whole space
    for kind, g in ((SubspaceKind.single_occupancy(), p3),
                    (SubspaceKind.full(3), p3),
                    (SubspaceKind.full(2), p3),
                    (SubspaceKind.one_hole(), g22),
                    (SubspaceKind.kondo(), path_graph(2)),
                    (SubspaceKind.one_hole(n_max=1), g22),
                    (SubspaceKind.full(2, n_max=2), path_graph(2))):
        for tm in sector_twice_m_values(g, kind):
            yield enumerate_sector(g, kind, m=tm / 2)
    yield full_fock_basis(path_graph(2))


def test_ladder_form_s2_equals_pairwise_sum():
    for basis in _s2_bases():
        ladder = total_spin_squared(basis).matrix.toarray()
        assert np.array_equal(ladder, pairwise_spin_squared(basis)), basis.subspace


def test_electron_basis_drops_phonon_occupancies():
    g = grid_graph(2, 2)
    basis = enumerate_sector(g, SubspaceKind.one_hole(n_max=2), m=0.5)
    elec = electron_basis(basis)
    bare = enumerate_sector(g, SubspaceKind.one_hole(), m=0.5)
    assert all(r[4] == () for r in basis_rows(elec))
    assert basis_rows(elec) == basis_rows(bare)
    # so a freshly enumerated electron sector finds every one of its states
    assert np.array_equal(bare.lookup(elec.words), np.arange(elec.dim))


def test_ladder_examples():
    g = path_graph(2)
    kind = SubspaceKind.single_occupancy()
    b_m1 = enumerate_sector(g, kind, m=-1)
    b_0 = enumerate_sector(g, kind, m=0)
    b_1 = enumerate_sector(g, kind, m=1)
    splus_top = ladder_ops(b_1, b_0)
    with pytest.raises(ValueError):
        ladder_ops(b_m1, b_1)
    # S+ on the highest-weight state vanishes
    sp_up = ladder_ops(b_0, b_1).matrix
    assert sp_up.shape == (1, 2)
    # S+ |down down> = |up down> + |down up>
    raise_from_bottom = ladder_ops(b_m1, b_0).matrix.toarray()
    assert np.allclose(np.sort(raise_from_bottom.ravel()), [1.0, 1.0])
    # S- S+ + S3^2 + S3 = S^2 on the M=0 sector
    sminus = ladder_ops(b_1, b_0).matrix
    s2 = total_spin_squared(b_0).dense()
    lhs = (sminus @ sp_up).toarray()
    assert np.allclose(lhs, s2, atol=1e-12)
    # adjointness
    assert np.allclose(ladder_ops(b_0, b_1).matrix.toarray(),
                       ladder_ops(b_1, b_0).matrix.toarray().T, atol=1e-14)


def test_hopping_examples():
    g = path_graph(2)
    t = np.array([[0.0, 1.0], [1.0, 0.0]])
    basis = enumerate_sector(g, SubspaceKind.full(1), m=0.5)
    h = hopping(basis, t).dense()
    assert np.allclose(h, [[0, 1], [1, 0]])
    assert hopping(basis, np.zeros((2, 2))).matrix.nnz == 0
    with pytest.raises(ValueError):
        hopping(basis, np.array([[0.0, 1.0], [2.0, 0.0]]))
    # half-filled M=0: hopping connects doubly occupied and singly occupied states
    b4 = enumerate_sector(g, SubspaceKind.full(2), m=0)
    h4 = hopping(b4, t).dense()
    up, dn = b4.fields()
    doubles = np.flatnonzero(up & dn)
    singles = np.flatnonzero((up & dn) == 0)
    assert np.allclose(h4[np.ix_(singles, singles)], 0)
    assert np.allclose(h4[np.ix_(doubles, doubles)], 0)
    assert np.abs(h4[np.ix_(doubles, singles)]).max() == 1.0


def test_coulomb_examples():
    from edspin.lattice import Graph
    g1 = Graph(1, ())
    doubly = enumerate_sector(g1, SubspaceKind.full(2), m=0)
    u = np.array([[4.0]])
    assert np.allclose(coulomb(doubly, u).dense(), [[2.0]])
    half = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy(), m=0)
    assert coulomb(half, 4.0 * np.eye(2)).matrix.nnz == 0
    vacuum = enumerate_sector(path_graph(2), SubspaceKind.full(0), m=0)
    assert np.allclose(coulomb(vacuum, 4.0 * np.eye(2)).dense(), [[4.0]])


def test_heisenberg_bond_spectrum():
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    bond = heisenberg_bond(basis, 0, 1).dense()
    vals = np.sort(np.linalg.eigvalsh(bond))
    assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25], atol=1e-12)
    s2 = total_spin_squared(basis).dense()
    assert np.abs(bond @ s2 - s2 @ bond).max() < 1e-12


def test_gutzwiller():
    g = path_graph(2)
    basis = enumerate_sector(g, SubspaceKind.full(2))
    p = gutzwiller(basis).dense()
    assert np.allclose(p @ p, p)
    assert int(round(np.trace(p))) == 4 and basis.dim == 6
    up, dn = basis.fields()
    assert np.array_equal(np.diag(p), np.where(up & dn, 0.0, 1.0))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_hole_particle_identities(k):
    g = path_graph(k)
    fb = full_fock_basis(g)
    w = hole_particle(fb).matrix.toarray()
    assert np.abs(w @ w.T - np.eye(fb.dim)).max() < 1e-14
    bp = bipartition(g)
    for x in range(k):
        gamma = 1.0 if x in bp.part_a else -1.0
        cdn = annihilation_matrix(fb, fb, x, 1).dense()
        cdn_dag = creation_matrix(fb, fb, x, 1).dense()
        assert np.abs(w @ cdn @ w.T - gamma * cdn_dag).max() < 1e-14
        cup = annihilation_matrix(fb, fb, x, 0).dense()
        assert np.abs(w @ cup @ w.T - cup).max() < 1e-14
    s3 = np.diag(magnetization_values(fb))
    up, dn = fb.fields()
    n_el = np.bitwise_count(up).astype(int) + np.bitwise_count(dn)
    half_n = np.diag((n_el - k) / 2)
    assert np.abs(w @ s3 @ w.T - half_n).max() < 1e-14


def test_hole_particle_image_of_single_occupancy():
    g = path_graph(2)
    fb = full_fock_basis(g)
    w = hole_particle(fb).matrix
    fb_up, fb_dn = fb.fields()
    for j in fb.lookup(enumerate_sector(g, SubspaceKind.single_occupancy()).words):
        image = w[:, [j]].toarray().ravel()
        i = int(np.nonzero(image)[0][0])
        for x in range(2):
            n_x = ((fb_up[i] >> x) & 1) + ((fb_dn[i] >> x) & 1)
            assert n_x in (0, 2)


def test_phonon_ops():
    b, bdag = phonon_ops(3)
    e0 = np.zeros(4)
    e0[0] = 1.0
    e1 = np.zeros(4)
    e1[1] = 1.0
    assert np.allclose(b @ e1, e0)
    comm = b @ bdag - bdag @ b
    assert np.allclose(comm[:3, :3], np.eye(3))
    assert np.allclose(np.sort(np.linalg.eigvalsh(bdag @ b)), [0, 1, 2, 3])
    assert np.allclose(bdag @ np.eye(4)[:, 3], 0)
    with pytest.raises(ValueError):
        phonon_ops(0)


def _whole_bases(kind, g_small, g_big):
    return (enumerate_sector(g_small, kind), enumerate_sector(g_big, kind))


@pytest.mark.parametrize("kind", [SubspaceKind.single_occupancy(),
                                  SubspaceKind.one_hole()])
def test_embed_is_isometric(kind):
    small, big = _whole_bases(kind, path_graph(2), path_graph(4))
    iso = embed_isometry(small, big)
    k = iso.matrix
    assert np.abs((k.T @ k - sp.identity(small.dim)).toarray()).max() < 1e-12
    psi = np.zeros(small.dim)
    psi[0] = 1.0
    assert abs(np.linalg.norm(embed_state(psi, iso)) - 1.0) < 1e-12
    proj = nesting_projection(iso)
    assert np.abs((proj @ k - sp.identity(small.dim)).toarray()).max() < 1e-12


def test_projected_uniform_vector_is_positive_multiple():
    from edspin.cones import mlm_cone
    small, big = _whole_bases(SubspaceKind.single_occupancy(),
                              path_graph(2), path_graph(4))
    iso = embed_isometry(small, big)
    cone_small, cone_big = mlm_cone(small), mlm_cone(big)
    projected = nesting_projection(iso) @ cone_big.order_unit()
    ratio = projected / cone_small.order_unit()
    assert ratio.std() < 1e-12 and ratio.mean() > 0


def test_embed_requires_induced_subgraph():
    from edspin.lattice import Graph
    small = enumerate_sector(Graph(2, ()), SubspaceKind.single_occupancy())
    big = enumerate_sector(path_graph(4), SubspaceKind.single_occupancy())
    with pytest.raises(ValueError, match="induced"):
        embed_isometry(small, big)


def test_coo_export():
    basis = enumerate_sector(path_graph(2), SubspaceKind.full(1), m=0.5)
    h = hopping(basis, np.array([[0.0, 1.0], [1.0, 0.0]]))
    text = h.to_coo_text()
    lines = text.strip().splitlines()
    assert lines[0] == "shape 2 2"
    assert len(lines) == 3


def test_hermitian_flag_verified():
    basis = enumerate_sector(path_graph(2), SubspaceKind.full(1), m=0.5)
    bad = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="hermitian"):
        SparseOperator(bad, basis, basis, hermitian=True)


def _edge_couplings(g, rng):
    """Symmetric couplings with random values on the edges; their sums round,
    so a changed order of summation shows in the bits."""
    m = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.edges:
        m[u, v] = m[v, u] = rng.uniform(0.2, 1.7)
    return m


def _assembly_cases():
    """(id, spec, m): every model on a small sector of each basis kind;
    spec None takes the whole one-species Fock space over path:3."""
    rng = np.random.default_rng(11)
    p2, p3, p4, g22 = path_graph(2), path_graph(3), path_graph(4), grid_graph(2, 2)

    def couplings(g, **extra):
        return dict(t=_edge_couplings(g, rng),
                    u=np.diag(rng.uniform(1.0, 5.0, g.vertex_count)), **extra)

    def phonons(g, n_max):
        return dict(g_ep=np.diag(rng.uniform(0.1, 0.6, g.vertex_count)),
                    omega=1.3, n_max=n_max)

    yield "mlm-single_occupancy", ModelSpec("mlm", star_graph(3)), 1
    yield "heisenberg-single_occupancy", ModelSpec(
        "heisenberg", p4, j=_edge_couplings(p4, rng)), 0
    # rows longer than 16 entries: the sparse format's index sort is not
    # stable there, so only the order of the input sets the summation order
    star = star_graph(17)
    yield "heisenberg-long_rows", ModelSpec(
        "heisenberg", star, j=_edge_couplings(star, rng)), 7
    yield "heisenberg-whole_space", ModelSpec(
        "heisenberg", p4, j=_edge_couplings(p4, rng)), None
    yield "hubbard-full", ModelSpec("hubbard", p3, **couplings(p3)), 0.5
    yield "hubbard-whole_space", ModelSpec("hubbard", p2, **couplings(p2)), None
    yield "hubbard_nt-one_hole", ModelSpec("hubbard_nt", g22, **couplings(g22)), 0.5
    yield "kondo", ModelSpec("kondo", p2, j_kondo=0.7, **couplings(p2)), 0
    yield "holstein_hubbard-phonon", ModelSpec(
        "holstein_hubbard", p2, **couplings(p2), **phonons(p2, 2)), 0
    yield "holstein_nt-phonon", ModelSpec(
        "holstein_nt", g22, **couplings(g22), **phonons(g22, 1)), 1.5
    yield "kondo_holstein-phonon", ModelSpec(
        "kondo_holstein", p2, j_kondo=-0.8, **couplings(p2), **phonons(p2, 1)), 1
    yield "full_fock_basis", None, None


def _assert_same_csr(new, ref, what):
    assert new.shape == ref.shape, what
    for part in ("indptr", "indices", "data"):
        a, b = getattr(new, part), getattr(ref, part)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (what, part)


@pytest.mark.parametrize("case", list(_assembly_cases()), ids=lambda c: c[0])
def test_whole_basis_assembly_matches_per_state_reference(case, monkeypatch):
    import oracles
    from edspin import operators

    _, spec, m = case
    basis = full_fock_basis(path_graph(3)) if spec is None else spec.basis(m)
    neighbours = []
    if basis.twice_m is not None:
        kind = basis.subspace
        neighbours = [enumerate_sector(basis.graph, kind, m=t / 2)
                      for t in (basis.twice_m - 2, basis.twice_m + 2)
                      if t in sector_twice_m_values(basis.graph, kind)]

    def composed():
        out = {"S2": total_spin_squared(basis).matrix}
        if spec is not None:
            out["H"] = build(spec, m).matrix
        for other in neighbours:
            out[f"ladder to M={other.twice_m}/2"] = ladder_ops(basis, other).matrix
        return out

    new = composed()
    with monkeypatch.context() as patch:
        patch.setattr(operators, "assemble", oracles.reference_assemble)
        patch.setattr(operators, "number_values", oracles.reference_number_values)
        patch.setattr(operators, "magnetization_values",
                      oracles.reference_magnetization_values)
        ref = composed()
    for name in new:
        _assert_same_csr(new[name], ref[name], name)
    for x in range(basis.n_sites):
        for species in range(basis.species_count):
            for i in (1, 2, 3):
                op = spin_op(basis, x, i, species).matrix
                # the second component is complex, on phonon products too
                assert op.dtype == (np.complex128 if i == 2 else np.float64)
                _assert_same_csr(op, oracles.reference_spin_op(basis, x, i, species),
                                 f"S{i} at ({x}, {species})")
    if spec is None:
        bp = bipartition(basis.graph)
        _assert_same_csr(hole_particle(basis).matrix,
                         oracles.reference_hole_particle(basis, bp.part_a, bp.part_b),
                         "hole_particle")
