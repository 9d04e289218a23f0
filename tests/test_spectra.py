import numpy as np
import pytest
import scipy.sparse as sp

from edspin.fock import SubspaceKind, enumerate_sector
from edspin.hamiltonians import ModelSpec, build, coupling_matrix
from edspin.lattice import grid_graph, path_graph, star_graph
from edspin.operators import heisenberg_bond, ladder_ops, total_spin_squared
from edspin import spectra
from edspin.spectra import (MixedMultipletError, SolverError, dense_eigensolve,
                            ground_space, lanczos_ground, total_spin_of)


def test_dense_examples():
    vals, _ = dense_eigensolve(np.eye(3))
    assert np.allclose(vals, [1, 1, 1])
    vals, _ = dense_eigensolve(np.array([[0.0, -1.0], [-1.0, 0.0]]))
    assert np.allclose(vals, [-1.0, 1.0])
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    vals, _ = dense_eigensolve(heisenberg_bond(basis, 0, 1))
    assert np.allclose(vals, [-0.75, 0.25, 0.25, 0.25])
    with pytest.raises(SolverError):
        dense_eigensolve(np.eye(10), threshold=5)


@pytest.mark.parametrize("dtype", [float, complex])
def test_partial_dense_solve_matches_the_full_spectrum(dtype):
    rng = np.random.default_rng(3)
    n = 60
    a = rng.standard_normal((n, n))
    if dtype is complex:
        a = a + 1j * rng.standard_normal((n, n))
    h = (a + a.conj().T) / 2
    full_vals, full_vecs = dense_eigensolve(h)
    for k in (1, 2, 7, n - 1):
        vals, vecs = dense_eigensolve(h, k=k)
        assert vals.shape == (k,) and vecs.shape == (n, k)
        assert np.abs(vals - full_vals[:k]).max() < 1e-12
        # each column equals the full solve's up to a phase
        overlaps = np.abs(np.sum(full_vecs[:, :k].conj() * vecs, axis=0))
        assert np.abs(overlaps - 1.0).max() < 1e-10
    with pytest.raises(ValueError):
        dense_eigensolve(h, k=0)


def test_lanczos_examples():
    d = sp.diags(np.arange(12.0))
    vals, vecs = lanczos_ground(d, k=1, seed=1)
    assert abs(vals[0]) < 1e-10
    h = build(ModelSpec("mlm", star_graph(3)), 0)
    dense_vals, _ = dense_eigensolve(h)
    lan_vals, lan_vecs = lanczos_ground(h, k=2, seed=5)
    assert abs(lan_vals[0] - dense_vals[0]) < 1e-8
    # residual bound honored
    r = np.linalg.norm(h.matrix @ lan_vecs[:, 0] - lan_vals[0] * lan_vecs[:, 0])
    assert r < 1e-7


def test_lanczos_seed_invariance():
    h = build(ModelSpec("mlm", star_graph(3)), 0)
    v1, _ = lanczos_ground(h, k=1, seed=11)
    v2, _ = lanczos_ground(h, k=1, seed=99)
    assert abs(v1[0] - v2[0]) < 1e-9


def test_lanczos_deflation_finds_multiplicity():
    d = sp.diags(np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))
    vals, vecs = lanczos_ground(d, k=4, seed=2)
    assert np.allclose(vals[:3], 0.0, atol=1e-9)
    assert vals[3] > 0.5
    gram = vecs.T @ vecs
    assert np.abs(gram - np.eye(4)).max() < 1e-8


def test_lanczos_agrees_with_dense_on_random_matrices():
    rng = np.random.default_rng(7)
    for n in (30, 100, 300):
        a = rng.standard_normal((n, n))
        h = sp.csr_matrix((a + a.T) / 2)
        dvals = np.linalg.eigvalsh(h.toarray())
        lvals, _ = lanczos_ground(h, k=1, seed=3)
        assert abs(lvals[0] - dvals[0]) < 1e-8


def test_lanczos_nonconvergence_reports_residual():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((200, 200))
    h = sp.csr_matrix((a + a.T) / 2)
    with pytest.raises(SolverError) as err:
        lanczos_ground(h, k=1, seed=1, max_iter=3, max_restarts=1)
    assert err.value.residual is not None and err.value.residual > 0


def _spy_orthogonalize(monkeypatch):
    """Record each ``_orthogonalize`` call's blocks and returned norm."""
    calls = []

    def spy(w, *blocks):
        nrm = orthogonalize(w, *blocks)
        calls.append((blocks, nrm))
        return nrm

    orthogonalize = spectra._orthogonalize
    monkeypatch.setattr(spectra, "_orthogonalize", spy)
    return calls


def test_krylov_basis_stays_orthonormal_on_clustered_spectrum(monkeypatch):
    # a tight cluster at the bottom makes Lanczos run long, where a basis
    # without reorthogonalization loses orthogonality
    rng = np.random.default_rng(4)
    n = 300
    vals = np.concatenate([1e-4 * rng.random(6), 1.0 + rng.random(n - 6)])
    rot, _ = np.linalg.qr(rng.standard_normal((n, n)))
    h = sp.csr_matrix(rot @ np.diag(vals) @ rot.T)
    calls = _spy_orthogonalize(monkeypatch)
    lvals, _ = lanczos_ground(h, k=3, seed=8)
    assert np.allclose(lvals, np.sort(vals)[:3], atol=1e-9)
    checked = 0
    for blocks, _ in calls:
        if len(blocks) == 2 and len(blocks[1]) >= 40:
            rows = np.vstack(blocks)
            assert np.abs(rows @ rows.T - np.eye(len(rows))).max() < 1e-12
            checked += 1
    assert checked


def test_orthogonalize_second_pass_after_a_large_norm_drop():
    # w lies within 1e-8 of the span: one classical Gram-Schmidt pass leaves
    # components of relative size ~1e-8 along the rows, the second removes them
    rng = np.random.default_rng(2)
    rows, _ = np.linalg.qr(rng.standard_normal((500, 20)))
    rows = rows.T.copy()
    w = rng.standard_normal(20) @ rows + 1e-8 * rng.standard_normal(500)
    nrm = spectra._orthogonalize(w, rows)
    assert nrm == np.linalg.norm(w) and 1e-9 < nrm < 1e-6
    assert np.abs(rows @ w).max() < 1e-14 * nrm
    # a small drop keeps the first pass alone: w is then already orthogonal
    w = rng.standard_normal(500)
    nrm = spectra._orthogonalize(w, rows)
    assert np.abs(rows @ w).max() < 1e-14 * nrm


def test_lanczos_injects_a_fresh_direction_in_an_invariant_subspace(monkeypatch):
    # 13 distinct values, -5 twice: the first sweep converges before its
    # Krylov space is exhausted; the second, deflated, exhausts it while its
    # residual still points along the first vector, so the projected
    # direction vanishes and a fresh one is injected
    d = sp.diags(np.resize(np.concatenate([[-5.0], np.arange(12.0)]), 24))
    calls = _spy_orthogonalize(monkeypatch)
    vals, vecs = lanczos_ground(d, k=3, seed=1)
    assert any(nrm < 1e-12 for _, nrm in calls)
    assert np.allclose(vals, [-5.0, -5.0, 0.0], atol=1e-9)
    assert np.abs(vecs.T @ vecs - np.eye(3)).max() < 1e-12
    assert np.linalg.norm(d @ vecs - vecs * vals, axis=0).max() < 1e-8


def test_ground_space_records_its_solver():
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    assert ground_space(heisenberg_bond(basis, 0, 1)).solver == spectra.SolverStats("dense")
    d = sp.diags(np.arange(spectra.DENSE_PREFERENCE + 1.0))
    solver = ground_space(d).solver
    assert solver.route == "lanczos" and solver.steps > 0 and solver.restarts == 0


def _degenerate_bottom(n: int, mult: int):
    return sp.diags(np.r_[np.zeros(mult), np.linspace(1.0, 2.0, n - mult)])


def test_krylov_route_hands_a_large_cluster_to_the_dense_route():
    """A diagonal matrix above DENSE_PREFERENCE with a degenerate bottom: the
    Krylov route resolves a 16-fold cluster; a 17- or 20-fold one, which it
    would have reported as 16-fold with an infinite gap, is solved densely."""
    n = spectra.DENSE_PREFERENCE + 1
    for mult, route in ((16, "lanczos"), (17, "dense"), (20, "dense")):
        gs = ground_space(_degenerate_bottom(n, mult))
        assert gs.solver.route == route and gs.multiplicity == mult
        assert abs(gs.gap - 1.0) < 1e-9


@pytest.mark.parametrize("mult", [2, 5])
def test_krylov_route_runs_one_sweep_per_vector(mult):
    """The cluster and the level above it cost one deflated sweep each: the
    same steps as one ``lanczos_ground`` call for exactly that many vectors,
    not a fresh call at each doubling of the block."""
    d = _degenerate_bottom(spectra.DENSE_PREFERENCE + 1, mult)
    gs = ground_space(d)
    counts = {"steps": 0, "restarts": 0}
    lanczos_ground(d, k=mult + 1, counts=counts)
    assert gs.solver == spectra.SolverStats("lanczos", **counts)
    assert gs.multiplicity == mult and abs(gs.gap - 1.0) < 1e-9


@pytest.mark.parametrize("mult", [1, 2, 3, 17])
def test_dense_route_doubles_its_block_until_the_cluster_ends(mult):
    """Below DENSE_PREFERENCE a cluster of up to 17 vectors fills the blocks
    of 2, 4, 8 and 16 lowest pairs before one reaches past it."""
    gs = ground_space(_degenerate_bottom(300, mult))
    assert gs.solver.route == "dense" and gs.multiplicity == mult
    assert abs(gs.gap - 1.0) < 1e-9


def test_dense_route_solves_two_pairs_for_a_simple_ground(monkeypatch):
    """A nondegenerate sector of DENSE_PREFERENCE states (Hubbard path:6,
    M=0) needs only E0 and the next level."""
    asked = []

    def spy(h, threshold=spectra.DENSE_THRESHOLD, k=None):
        asked.append(k)
        return dense_eigensolve(h, threshold, k)

    monkeypatch.setattr(spectra, "dense_eigensolve", spy)
    p6 = path_graph(6)
    h = build(ModelSpec("hubbard", p6, t=coupling_matrix(p6, 1.0, "nn"),
                        u=4.0 * np.eye(6)), 0)
    assert h.domain.dim == spectra.DENSE_PREFERENCE
    gs = ground_space(h)
    assert gs.multiplicity == 1 and asked == [2]


def test_krylov_route_refuses_a_cluster_it_cannot_resolve():
    """Above DENSE_THRESHOLD no dense route is left: a 17-fold cluster raises
    instead of being reported as 16-fold."""
    with pytest.raises(SolverError, match="unresolved"):
        ground_space(_degenerate_bottom(spectra.DENSE_THRESHOLD + 1, 17))



def test_ground_space_on_a_diagonal_phonon_sector():
    """The all-down sector of Holstein-Hubbard on path:4 (M=-2, dim 2401):
    no electron can move, so H is the diagonal phonon energy and the phonon
    vacuum is the unique ground state, E0 = 0, gap omega = 1.  The Krylov
    route takes it (dim > DENSE_PREFERENCE).  scipy 1.17.1's
    ``eigsh(h, k=2, which="SA")`` returns [1, 1] here, with no error: a
    Krylov solver can miss a level its start vector barely touches."""
    p4 = path_graph(4)
    spec = ModelSpec("holstein_hubbard", p4, t=coupling_matrix(p4, 1.0, "nn"),
                     u=4.0 * np.eye(4), g_ep=0.5 * np.eye(4), omega=1.0, n_max=6)
    h = build(spec, -2)
    assert h.domain.dim == 2401
    gs = ground_space(h)
    assert gs.solver.route == "lanczos"
    assert abs(gs.energy) < 1e-12 and gs.multiplicity == 1
    assert abs(gs.gap - 1.0) < 1e-9


@pytest.mark.parametrize("twice_m", [-4, -2, 0, 2, 4])
def test_krylov_sectors_agree_with_dense(twice_m):
    p14 = path_graph(14)
    h = build(ModelSpec("heisenberg", p14, j=coupling_matrix(p14, 1.0, "nn")),
              twice_m / 2)
    assert h.domain.dim > spectra.DENSE_PREFERENCE
    gs = ground_space(h)
    dense = np.linalg.eigvalsh(h.matrix.toarray())
    assert gs.solver.route == "lanczos" and gs.multiplicity == 1
    assert abs(gs.energy - dense[0]) <= 1e-12 * abs(dense[0])
    assert abs(gs.gap - (dense[1] - dense[0])) <= 1e-9


def test_ground_space_examples():
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    gs = ground_space(heisenberg_bond(basis, 0, 1))
    assert gs.multiplicity == 1 and abs(gs.energy + 0.75) < 1e-12
    assert gs.gap > 0.9
    # whole-space runs count the full multiplet
    spec = ModelSpec("mlm", star_graph(3))
    gs = ground_space(build(spec, None))
    assert gs.multiplicity == 3 and abs(gs.energy + 1.25) < 1e-10
    gsq = grid_graph(2, 2)
    nt = ModelSpec("hubbard_nt", gsq, t=coupling_matrix(gsq, 1.0, "nn"))
    gs = ground_space(build(nt, None))
    assert gs.multiplicity == 4
    assert all(r < 1e-8 for r in gs.residuals)
    q = gs.vectors
    assert np.abs(q.T @ q - np.eye(4)).max() < 1e-10


def test_total_spin_of():
    basis = enumerate_sector(path_graph(2), SubspaceKind.single_occupancy())
    s2 = total_spin_squared(basis)
    vals, vecs = dense_eigensolve(heisenberg_bond(basis, 0, 1))
    twice_s, res = total_spin_of(vecs[:, 0], s2)
    assert twice_s == 0 and res < 1e-10
    twice_s, _ = total_spin_of(vecs[:, -1], s2)
    assert twice_s == 2
    mixed = (vecs[:, 0] + vecs[:, -1]) / np.sqrt(2)
    with pytest.raises(MixedMultipletError):
        total_spin_of(mixed, s2)


def test_cross_sector_energy_equality_and_ladder_closure():
    spec = ModelSpec("mlm", star_graph(3))
    solved = {}
    for tm in spec.sector_values():
        h = build(spec, tm / 2)
        gs = ground_space(h)
        solved[tm] = (spec.basis(tm / 2), h, gs)
    e0 = min(v[2].energy for v in solved.values())
    ground_tms = [tm for tm, v in solved.items()
                  if abs(v[2].energy - e0) < 1e-8 * max(1, abs(e0))]
    assert ground_tms == [-2, 0, 2]
    spread = max(solved[tm][2].energy for tm in ground_tms) - e0
    assert spread <= 1e-8 * max(1.0, abs(e0))
    for tm in ground_tms:
        if tm + 2 not in ground_tms:
            continue
        basis, h, gs = solved[tm]
        basis_up, h_up, _ = solved[tm + 2]
        splus = ladder_ops(basis, basis_up).matrix
        image = splus @ gs.vectors[:, 0]
        resid = np.linalg.norm(h_up.matrix @ image - e0 * image)
        assert resid <= 1e-7 * np.linalg.norm(image)
