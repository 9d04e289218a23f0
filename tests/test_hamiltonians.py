import numpy as np
import pytest
import scipy.sparse as sp

from edspin.fock import SubspaceKind, enumerate_sector
from edspin.hamiltonians import (ModelSpec, build, coupling_matrix,
                                 kondo_graphs, u_effective, validate)
from edspin.lattice import (bipartition, grid_graph, nt_config_graph,
                            path_graph, star_graph, sublattice_imbalance)
from edspin.operators import ladder_ops, spin_op, total_spin_squared
from edspin.cones import mlm_cone, nt_cone

from oracles import coupled_spins_ground, heisenberg_kron


def nn(g, v=1.0):
    return coupling_matrix(g, v, "nn")


def test_mlm_star_ground_energy():
    g = star_graph(3)
    h = build(ModelSpec("mlm", g), 0)
    assert h.domain.dim == 6
    e0 = np.linalg.eigvalsh(h.dense())[0]
    # oracle 1: two coupled collective spins 1/2 and 3/2
    assert abs(e0 - coupled_spins_ground(0.5, 1.5)) < 1e-12
    assert abs(e0 - (-1.25)) < 1e-12
    # oracle 2: dense diagonalization of the kron-built spin model
    j = coupling_matrix(g, 1.0, "complete_bipartite")
    oracle = np.linalg.eigvalsh(heisenberg_kron(4, j)).min()
    assert abs(e0 - oracle) < 1e-12


def test_heisenberg_matches_kron_oracle():
    g = path_graph(4)
    spec = ModelSpec("heisenberg", g, j=nn(g))
    e0 = min(np.linalg.eigvalsh(build(spec, tm / 2).dense()).min()
             for tm in spec.sector_values())
    oracle = np.linalg.eigvalsh(heisenberg_kron(4, nn(g))).min()
    assert abs(e0 - oracle) < 1e-9


def test_mlm_equals_complete_bipartite_heisenberg():
    g = star_graph(3)
    spec_m = ModelSpec("mlm", g)
    spec_h = ModelSpec("heisenberg", g, j=coupling_matrix(g, 1.0, "complete_bipartite"))
    for tm in spec_m.sector_values():
        d = (build(spec_m, tm / 2).matrix - build(spec_h, tm / 2).matrix)
        assert d.nnz == 0 or abs(d).max() == 0.0


def test_hubbard_two_site_ground_energy():
    g = path_graph(2)
    spec = ModelSpec("hubbard", g, t=nn(g), u=4.0 * np.eye(2))
    h = build(spec, 0)
    vals = np.linalg.eigvalsh(h.dense())
    assert abs(vals[0] - (2.0 - 2.0 * np.sqrt(2.0))) < 1e-12
    # hand-built 4x4 oracle in the basis {up-dn, dn-up, double0, double1}
    oracle = np.array([[0, 0, 1, 1], [0, 0, -1, -1],
                       [1, -1, 4, 0], [1, -1, 0, 4]], dtype=float)
    assert abs(np.linalg.eigvalsh(oracle)[0] - vals[0]) < 1e-12


def test_nt_block_matches_config_graph():
    g = grid_graph(2, 2)
    spec = ModelSpec("hubbard_nt", g, t=nn(g))
    for tm in (3, 1):
        basis = spec.basis(tm / 2)
        h = build(spec, tm / 2).dense()
        b = nt_cone(basis).conjugate_matrix(h)
        cg = nt_config_graph(g, tm / 2)

        def sigma_of(up, dn):
            return tuple(1 if (up >> x) & 1 else (-1 if (dn >> x) & 1 else 0)
                         for x in range(g.vertex_count))

        perm = [cg.index[sigma_of(up, dn)]
                for up, dn in zip(*(f.tolist() for f in basis.fields()))]
        adj = np.zeros_like(b)
        for i, j in cg.edges:
            adj[i, j] = adj[j, i] = 1.0
        reordered = adj[np.ix_(perm, perm)]
        assert np.allclose(b, -reordered, atol=1e-12)


def test_u_effective():
    g = path_graph(2)
    base = dict(t=nn(g), omega=1.0, n_max=2)
    spec = ModelSpec("holstein_hubbard", g, u=4.0 * np.eye(2),
                     g_ep=0.5 * np.eye(2), **base)
    ueff, lo = u_effective(spec)
    assert np.allclose(ueff, 3.5 * np.eye(2)) and abs(lo - 3.5) < 1e-12
    spec0 = ModelSpec("holstein_hubbard", g, u=4.0 * np.eye(2),
                      g_ep=np.zeros((2, 2)), **base)
    assert np.allclose(u_effective(spec0)[0], 4.0 * np.eye(2))
    boundary = ModelSpec("holstein_hubbard", g, u=4.0 * np.eye(2),
                         g_ep=np.sqrt(2.0) * np.eye(2), **base)
    assert abs(u_effective(boundary)[1]) < 1e-12


def test_validate_examples():
    g = path_graph(4)
    j = nn(g)
    j[0, 1] = j[1, 0] = -1.0
    report = validate(ModelSpec("heisenberg", g, j=j))
    assert not report.ok
    assert any("exchange-nonnegative" == c.name and c.witness for c in report.failed())

    report = validate(ModelSpec("hubbard", path_graph(2), t=nn(path_graph(2)),
                                u=4.0 * np.eye(2)))
    assert report.ok

    report = validate(ModelSpec("hubbard_nt", g, t=nn(g)))
    assert not report.ok
    fail = [c for c in report.failed() if c.name == "configuration-graph-connected"]
    assert fail and "components" in fail[0].witness

    # exchange coupling within one sublattice violates the support condition
    j2 = nn(g)
    j2[0, 2] = j2[2, 0] = 0.5
    report = validate(ModelSpec("heisenberg", g, j=j2))
    assert any(c.name == "exchange-respects-bipartition" for c in report.failed())

    # spanning-tree containment: drop an interior tree edge
    j3 = coupling_matrix(g, 1.0, "complete_bipartite")
    j3[1, 2] = j3[2, 1] = 0.0
    report = validate(ModelSpec("heisenberg", g, j=j3))
    assert any(c.name == "exchange-contains-spanning-tree" for c in report.failed())


def test_validate_phonon_conditions():
    g = path_graph(2)
    bad_g = np.array([[0.5, 0.0], [0.0, 0.7]])
    spec = ModelSpec("holstein_hubbard", g, t=nn(g), u=4.0 * np.eye(2),
                     g_ep=bad_g, omega=1.0, n_max=2)
    report = validate(spec)
    assert any(c.name == "phonon-coupling-row-sums-uniform" for c in report.failed())
    strong = ModelSpec("holstein_hubbard", g, t=nn(g), u=4.0 * np.eye(2),
                       g_ep=2.0 * np.eye(2), omega=1.0, n_max=2)
    report = validate(strong)
    assert any(c.name == "effective-interaction-positive-definite"
               for c in report.failed())


def test_validate_odd_size_warns():
    g = path_graph(3)
    report = validate(ModelSpec("heisenberg", g, j=nn(g)))
    assert report.ok and any("odd" in w for w in report.warnings)


def test_kondo_graphs_examples():
    g = path_graph(2)
    g_af, g_f = kondo_graphs(g)
    assert set(g_af.edges) == {(0, 2), (0, 1), (2, 3)}
    assert set(g_f.edges) == {(0, 2), (0, 3), (1, 2)}
    assert g_af.is_connected and g_f.is_connected
    star = star_graph(3)
    s_af, s_f = kondo_graphs(star)
    assert sublattice_imbalance(s_f) == 2 * sublattice_imbalance(star)
    assert sublattice_imbalance(s_af) == 0
    bp = bipartition(s_af)
    # antiferromagnetic pairing: conduction copy of part A with localized of part B
    assert 0 in bp.part_a and 1 in bp.part_b


def test_kondo_psd_boundary_u_zero_passes():
    g = path_graph(2)
    report = validate(ModelSpec("kondo", g, t=nn(g), j_kondo=1.0))
    assert report.ok


@pytest.mark.parametrize("model,kwargs", [
    ("mlm", {}),
    ("heisenberg", {"j": "nn"}),
    ("hubbard", {"t": "nn", "u": "diag"}),
    ("hubbard_nt", {"t": "nn"}),
    ("kondo", {"t": "nn", "j_kondo": 1.0}),
])
def test_hamiltonians_commute_with_spin(model, kwargs):
    g = star_graph(3) if model != "hubbard_nt" else grid_graph(2, 2)
    kw = {}
    if kwargs.get("j") == "nn":
        kw["j"] = nn(g)
    if kwargs.get("t") == "nn":
        kw["t"] = nn(g)
    if kwargs.get("u") == "diag":
        kw["u"] = 4.0 * np.eye(g.vertex_count)
    if "j_kondo" in kwargs:
        kw["j_kondo"] = kwargs["j_kondo"]
    spec = ModelSpec(model, g, **kw)
    tms = spec.sector_values()
    for tm in tms[len(tms) // 2:len(tms) // 2 + 2]:
        basis = spec.basis(tm / 2)
        h = build(spec, tm / 2).dense().astype(complex)
        for i in (1, 2, 3):
            s_i = sum(spin_op(basis, x, i, species).dense()
                      for x in range(g.vertex_count)
                      for species in range(basis.species_count))
            assert np.abs(h @ s_i - s_i @ h).max() < 1e-10
        # intertwining with the raising operator
        if tm + 2 in tms:
            basis_up = spec.basis(tm / 2 + 1)
            h_up = build(spec, tm / 2 + 1).matrix
            splus = ladder_ops(basis, basis_up).matrix
            assert abs(h_up @ splus - splus @ h.real).max() < 1e-10


def _schedule_specs():
    star, p2, p3, p4, g22 = (star_graph(3), path_graph(2), path_graph(3),
                             path_graph(4), grid_graph(2, 2))

    def phonons(g, n_max):
        return dict(g_ep=0.5 * np.eye(g.vertex_count), omega=1.0, n_max=n_max)

    yield "mlm star:3", ModelSpec("mlm", star)
    yield "heisenberg path:4", ModelSpec("heisenberg", p4, j=nn(p4))
    yield "hubbard path:4", ModelSpec("hubbard", p4, t=nn(p4), u=4.0 * np.eye(4))
    yield "hubbard_nt grid:2x2", ModelSpec("hubbard_nt", g22, t=nn(g22))
    for j_kondo in (1.0, -1.0):
        yield f"kondo path:2 J={j_kondo:+g}", ModelSpec("kondo", p2, t=nn(p2),
                                                      j_kondo=j_kondo)
    yield "holstein_hubbard path:2", ModelSpec(
        "holstein_hubbard", p2, t=nn(p2), u=4.0 * np.eye(2), **phonons(p2, 3))
    yield "holstein_nt path:3", ModelSpec("holstein_nt", p3, t=nn(p3), **phonons(p3, 2))
    yield "kondo_holstein path:2", ModelSpec(
        "kondo_holstein", p2, t=nn(p2), j_kondo=1.0, **phonons(p2, 1))


def _intertwining_excess(spec, extra=None):
    """Largest |H_{M+1} S+ - S+ H_M| over every adjacent sector pair, relative
    to the largest column sum of the sector Hamiltonians; ``extra(basis)``
    adds a diagonal term to every H."""
    tms = spec.sector_values()
    worst = 0.0
    for tm, tm_up in zip(tms, tms[1:]):
        h, h_up = build(spec, tm / 2), build(spec, tm_up / 2)
        mats = [op.matrix if extra is None else op.matrix + sp.diags(extra(op.domain))
                for op in (h, h_up)]
        splus = ladder_ops(h.domain, h_up.domain).matrix
        diff = mats[1] @ splus - splus @ mats[0]
        scale = max(abs(m).sum(axis=0).max() for m in mats)
        worst = max(worst, abs(diff).max() / scale)
    return worst


@pytest.mark.parametrize("spec", [s for _, s in _schedule_specs()],
                         ids=[name for name, _ in _schedule_specs()])
def test_every_sector_pair_intertwines_with_s_plus(spec):
    """H_{M+1} S+ = S+ H_M on every adjacent pair of sectors: the premise of
    the SU(2) sector schedule of ``verify``."""
    assert _intertwining_excess(spec) <= 1e-12


def test_intertwining_check_sees_a_spin_dependent_term():
    """A staggered field, sum_x (-1)^x S3_x, breaks SU(2); the check above
    must see it."""
    g = path_graph(4)

    def staggered(basis):
        up, dn = basis.fields()[:2]
        return sum((-1) ** x * 0.5 * (((up >> x) & 1).astype(float)
                                      - ((dn >> x) & 1).astype(float))
                   for x in range(g.vertex_count))

    assert _intertwining_excess(ModelSpec("heisenberg", g, j=nn(g)), staggered) > 1e-3


def test_metzler_structure_heisenberg_and_nt():
    g = path_graph(4)
    spec = ModelSpec("heisenberg", g, j=nn(g))
    for tm in spec.sector_values():
        basis = spec.basis(tm / 2)
        b = mlm_cone(basis).conjugate_matrix(build(spec, tm / 2).matrix)
        off = b - np.diag(np.diag(b))
        assert off.size == 0 or off.max() <= 1e-12
    gsq = grid_graph(2, 2)
    spec = ModelSpec("hubbard_nt", gsq, t=nn(gsq))
    for tm in spec.sector_values():
        basis = spec.basis(tm / 2)
        b = nt_cone(basis).conjugate_matrix(build(spec, tm / 2).matrix)
        off = b - np.diag(np.diag(b))
        assert off.size == 0 or off.max() <= 1e-12


def test_u_to_infinity_limit():
    from edspin.verify import u_limit_comparison
    g = path_graph(2)
    u_val = 1.0e4
    assert u_limit_comparison(g, nn(g), u_val) <= 10.0 / u_val


def test_holstein_decoupled_limit():
    g = path_graph(2)
    spec = ModelSpec("holstein_hubbard", g, t=nn(g), u=4.0 * np.eye(2),
                     g_ep=np.zeros((2, 2)), omega=1.0, n_max=3)
    h = build(spec, 0).dense()
    bare = ModelSpec("hubbard", g, t=nn(g), u=4.0 * np.eye(2))
    evals_bare = np.linalg.eigvalsh(build(bare, 0).dense())
    evals = np.linalg.eigvalsh(h)
    # with g = 0 the spectrum is the electronic one plus phonon multiples
    expect = np.sort(np.concatenate([evals_bare + k
                                     for k in range(7)
                                     for _ in range(1)]))
    assert abs(evals[0] - evals_bare[0]) < 1e-12
    assert abs(evals[-1] - (evals_bare[-1] + 6.0)) < 1e-12


def test_model_spec_errors():
    g = path_graph(2)
    with pytest.raises(ValueError, match="symmetric"):
        ModelSpec("hubbard", g, t=np.array([[0.0, 1.0], [2.0, 0.0]]),
                  u=np.eye(2))
    with pytest.raises(ValueError, match="omega"):
        ModelSpec("holstein_hubbard", g, t=nn(g), u=np.eye(2),
                  g_ep=np.eye(2), omega=-1.0)
    with pytest.raises(ValueError, match="electron-phonon"):
        ModelSpec("holstein_hubbard", g, t=nn(g), u=np.eye(2), omega=1.0)
    with pytest.raises(ValueError, match="unknown model"):
        ModelSpec("xy", g)
    with pytest.raises(ValueError, match="empty sector"):
        build(ModelSpec("mlm", g), 7)
