import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from edspin.cones import (PERRON_MAX_STEPS, STRICT_TOL, DiagonalCone,
                          PSDMatrixCone, StrictnessVerdict,
                          _sample_psd_members, ergodicity,
                          gauge_fix, hubbard_cone, kondo_cone,
                          kondo_diagonal_restriction, membership, mlm_cone,
                          modular_conjugation, monotonicity_check,
                          nesting_consistency, nt_cone, positivity_preserving,
                          strict_positivity, trivial_diagonal_cone)
from edspin.fock import SubspaceKind, enumerate_sector, kondo_sign_table
from edspin.hamiltonians import ModelSpec, build, coupling_matrix
from edspin.lattice import grid_graph, path_graph, star_graph
from edspin.spectra import (DEGENERACY_TOL, DENSE_PREFERENCE, DENSE_THRESHOLD,
                            GroundSpace, SolverStats, dense_eigensolve,
                            ground_space, lanczos_ground)

from oracles import dense_diagonal_ergodicity


def nn(g):
    return coupling_matrix(g, 1.0, "nn")


@pytest.fixture
def mlm_star_m0():
    spec = ModelSpec("mlm", star_graph(3))
    basis = spec.basis(0)
    return build(spec, 0), mlm_cone(basis)


def test_membership_and_strictness(mlm_star_m0):
    h, cone = mlm_star_m0
    xi = cone.order_unit()
    strict = strict_positivity(xi, cone)
    assert strict.ok and abs(strict.margin - 1.0) < 1e-12
    e0 = np.zeros(cone.dim)
    e0[0] = cone.signs[0]
    member, margin = membership(e0, cone)
    strict = strict_positivity(e0, cone)
    assert member and not strict.ok and abs(margin) < 1e-15
    member, _ = membership(-xi, cone)
    assert not member
    with pytest.raises(ValueError, match="dimension"):
        membership(np.ones(3), cone)


def test_ground_vector_strict_positivity(mlm_star_m0):
    h, cone = mlm_star_m0
    gs = ground_space(h)
    psi = gauge_fix(gs.vectors[:, 0], cone)
    strict = strict_positivity(psi, cone)
    assert strict.ok and strict.margin > 0.1


def test_gauge_fix(mlm_star_m0):
    _, cone = mlm_star_m0
    xi = cone.order_unit()
    assert np.allclose(gauge_fix(-xi, cone), xi)
    assert np.allclose(gauge_fix(1j * xi.astype(complex), cone), xi)
    assert np.allclose(gauge_fix(xi, cone), xi)
    perp = np.zeros(cone.dim)
    perp[0], perp[1] = cone.signs[0], -cone.signs[1]
    with pytest.raises(ValueError, match="gauge undefined"):
        gauge_fix(perp - perp @ xi * xi / (xi @ xi), cone)


def test_modular_conjugation(mlm_star_m0):
    h, cone = mlm_star_m0
    rng = np.random.default_rng(0)
    real = rng.standard_normal(cone.dim)
    assert np.allclose(modular_conjugation(real, cone), real)
    cplx = real + 1j * rng.standard_normal(cone.dim)
    assert np.allclose(modular_conjugation(modular_conjugation(cplx, cone), cone), cplx)
    gs = ground_space(h)
    psi = gauge_fix(gs.vectors[:, 0], cone)
    assert np.linalg.norm(modular_conjugation(psi, cone) - psi) < 1e-8


def test_positivity_preserving_diagonal():
    cone = trivial_diagonal_cone(3)
    good = np.array([[0.5, 1.0, 0.0], [0.0, 0.2, 0.3], [0.1, 0.0, 0.0]])
    assert positivity_preserving(good, cone).preserving
    bad = good.copy()
    bad[2, 1] = -1.0
    verdict = positivity_preserving(bad, cone)
    assert not verdict.preserving and "(2, 1)" in verdict.witness


def test_semigroup_preserves_mlm_cone():
    g = path_graph(4)
    spec = ModelSpec("heisenberg", g, j=nn(g))
    basis = spec.basis(0)
    cone = mlm_cone(basis)
    h = build(spec, 0).dense()
    verdict = positivity_preserving(scipy.linalg.expm(-1.0 * h), cone)
    assert verdict.preserving and verdict.mode == "exact"


def test_semigroup_preserves_hubbard_cone_sampled():
    g = path_graph(2)
    spec = ModelSpec("hubbard", g, t=nn(g), u=4.0 * np.eye(2))
    basis = spec.basis(0)
    cone = hubbard_cone(basis)
    h = build(spec, 0).dense()
    verdict = positivity_preserving(scipy.linalg.expm(-1.0 * h), cone, samples=100)
    assert verdict.preserving and verdict.mode == "sampled"


def test_sampled_check_matches_pairwise_loop():
    g = path_graph(2)
    cone = hubbard_cone(enumerate_sector(g, SubspaceKind.full(2), m=0))
    a = np.random.default_rng(3).standard_normal((cone.dim, cone.dim))
    verdict = positivity_preserving(a, cone, samples=20, seed=4)
    # reference: every (rho, sigma) pair in turn; the first least pair wins
    members = _sample_psd_members(cone, 20, 4)
    worst, witness = np.inf, None
    for k in range(members.shape[1]):
        image = a @ members[:, k]
        for k2 in range(members.shape[1]):
            val = float(np.vdot(members[:, k2], image).real)
            if val < worst:
                worst = val
                witness = f"sampled pair ({k}, {k2}) gives overlap {val:.3e}"
    assert not verdict.preserving
    assert abs(verdict.margin - worst) <= 1e-12 and verdict.witness == witness


def test_ergodicity_examples():
    cone = trivial_diagonal_cone(2)
    v = ergodicity(np.array([[0.0, -1.0], [-1.0, 0.0]]), cone)
    assert v.verdict == "ergodic"
    v = ergodicity(np.diag([0.0, 1.0]), cone)
    assert v.verdict == "not-ergodic" and "components" in v.witness
    v = ergodicity(np.array([[0.0, 0.5], [0.5, 0.0]]), cone)
    assert v.verdict == "not-ergodic" and "off-diagonal" in v.witness
    gsq = grid_graph(2, 2)
    spec = ModelSpec("hubbard_nt", gsq, t=nn(gsq))
    for tm in spec.sector_values():
        basis = spec.basis(tm / 2)
        v = ergodicity(build(spec, tm / 2).matrix, nt_cone(basis))
        assert v.verdict == "ergodic"


def test_ergodicity_consequence_for_psd_cone():
    g = star_graph(3)
    spec = ModelSpec("hubbard", g, t=nn(g), u=4.0 * np.eye(4))
    basis = spec.basis(0)
    v = ergodicity(build(spec, 0).matrix, hubbard_cone(basis), samples=30)
    assert v.verdict == "consequence-verified"
    assert v.multiplicity == 1 and v.strict_margin > 0


def test_perron_frobenius_consequence():
    # every ergodic sector verdict comes with a unique strictly positive ground state
    spec = ModelSpec("mlm", star_graph(3))
    for tm in spec.sector_values():
        basis = spec.basis(tm / 2)
        h = build(spec, tm / 2)
        cone = mlm_cone(basis)
        if ergodicity(h.matrix, cone).verdict == "ergodic":
            gs = ground_space(h)
            assert gs.multiplicity == 1
            assert strict_positivity(gauge_fix(gs.vectors[:, 0], cone), cone).ok


def test_monotonicity():
    cone = trivial_diagonal_cone(4)
    rng = np.random.default_rng(5)
    a = -np.abs(rng.standard_normal((4, 4)))
    np.fill_diagonal(a, rng.standard_normal(4))
    holds, margin = monotonicity_check(a, np.zeros((4, 4)), cone)
    assert holds and abs(margin) < 1e-12
    c = np.abs(rng.standard_normal((4, 4)))
    holds, _ = monotonicity_check(np.zeros((4, 4)), c, cone)
    assert holds
    holds, _ = monotonicity_check(a, c, cone, betas=(0.5,))
    assert holds
    bad = a.copy()
    bad[0, 1] = 1.0
    with pytest.raises(ValueError, match="precondition"):
        monotonicity_check(bad, c, cone)
    with pytest.raises(ValueError, match="precondition"):
        monotonicity_check(a, -c, cone)


def test_psd_self_duality_sampled():
    g = path_graph(2)
    basis = enumerate_sector(g, SubspaceKind.full(2), m=0)
    cone = hubbard_cone(basis)
    rng = np.random.default_rng(9)
    nr = len(cone.row_labels)
    members = []
    for _ in range(40):
        gmat = rng.standard_normal((nr, 2))
        members.append(cone.vector_of_matrix(gmat @ gmat.T))
    for i in range(0, 40, 7):
        for j in range(0, 40, 7):
            assert np.vdot(members[i], members[j]).real >= -1e-10
    v = rng.standard_normal(nr)
    u = rng.standard_normal(nr)
    u -= u @ v * v / (v @ v)
    non_member = cone.vector_of_matrix(np.outer(v, v) - 2.0 * np.outer(u, u))
    witness = cone.vector_of_matrix(np.outer(u, u))
    assert np.vdot(witness, non_member).real < 0
    assert not membership(non_member, cone)[0]


def test_product_rule_diagonal():
    rng = np.random.default_rng(11)
    cone = trivial_diagonal_cone(6)
    for _ in range(25):
        a = np.abs(rng.standard_normal((6, 6)))
        b = np.abs(rng.standard_normal((6, 6)))
        assert positivity_preserving(a, cone).preserving
        assert positivity_preserving(b, cone).preserving
        assert positivity_preserving(a @ b, cone).preserving


@pytest.mark.parametrize("model", ["mlm", "hubbard", "hubbard_nt"])
def test_nesting_consistency(model):
    small, big = path_graph(2), path_graph(4)
    if model == "hubbard":
        bs = enumerate_sector(small, SubspaceKind.full(2))
        bb = enumerate_sector(big, SubspaceKind.full(4))
        cones = hubbard_cone(bs), hubbard_cone(bb)
    elif model == "mlm":
        bs = enumerate_sector(small, SubspaceKind.single_occupancy())
        bb = enumerate_sector(big, SubspaceKind.single_occupancy())
        cones = mlm_cone(bs), mlm_cone(bb)
    else:
        bs = enumerate_sector(small, SubspaceKind.one_hole())
        bb = enumerate_sector(big, SubspaceKind.one_hole())
        cones = nt_cone(bs), nt_cone(bb)
    verdict = nesting_consistency(*cones)
    assert verdict.ok
    assert verdict.rays_embed and verdict.rays_project and verdict.order_unit_strict


def test_kondo_diagonal_restriction_cone():
    g = path_graph(2)
    spec = ModelSpec("kondo", g, t=nn(g), j_kondo=1.0)
    basis = spec.basis(0)
    h = build(spec, 0)
    gs = ground_space(h)
    idx, cone = kondo_diagonal_restriction(basis, "af")
    projected = gauge_fix(gs.vectors[:, 0][idx], cone)
    strict = strict_positivity(projected, cone)
    assert strict.ok and strict.margin > 0
    full_cone = kondo_cone(basis, "af")
    psi = gauge_fix(gs.vectors[:, 0], full_cone)
    strict = strict_positivity(psi, full_cone)
    assert strict.ok and strict.margin > 0


def _diagonal_cases():
    """(label, h, cone) for every sector of three models, with the kondo
    sectors seen through two diagonal cones: the signed whole basis and the
    singly-occupied-conduction restriction."""
    p6, g23, p2 = path_graph(6), grid_graph(2, 3), path_graph(2)
    heis = ModelSpec("heisenberg", p6, j=nn(p6))
    for tm in heis.sector_values():
        yield f"heisenberg M={tm}/2", build(heis, tm / 2).matrix, mlm_cone(heis.basis(tm / 2))
    nt = ModelSpec("hubbard_nt", g23, t=nn(g23))
    for tm in nt.sector_values():
        yield f"hubbard_nt M={tm}/2", build(nt, tm / 2).matrix, nt_cone(nt.basis(tm / 2))
    kondo = ModelSpec("kondo", p2, t=nn(p2), j_kondo=1.0)
    for tm in kondo.sector_values():
        basis = kondo.basis(tm / 2)
        h = build(kondo, tm / 2).matrix
        signs = np.array(kondo_sign_table(basis, "af"), dtype=float)
        yield f"kondo M={tm}/2", h, DiagonalCone(signs, basis)
        idx, cone = kondo_diagonal_restriction(basis, "af")
        yield f"kondo restricted M={tm}/2", h[idx][:, idx], cone


def test_sparse_ergodicity_matches_dense_reference():
    verdicts = set()
    for label, h, cone in _diagonal_cases():
        got = ergodicity(h, cone).to_dict()
        assert got == dense_diagonal_ergodicity(h, cone.signs), label
        verdicts.add(got["verdict"])
    assert verdicts == {"ergodic", "not-ergodic"}


def test_ergodicity_witnesses_hand_built():
    cone = trivial_diagonal_cone(4)
    # two largest off-diagonal entries tie; the row-major first one is named
    not_metzler = np.array([[0.0, -1.0, 0.0, 0.0],
                            [0.25, 0.0, -1.0, 0.0],
                            [0.0, -1.0, 0.0, 0.25],
                            [0.0, 0.0, -1.0, 0.0]])
    v = ergodicity(sp.csr_matrix(not_metzler), cone)
    assert v.verdict == "not-ergodic" and v.connected
    assert v.metzler_margin == -0.25
    assert v.witness == "positive off-diagonal at (1, 0)"
    disconnected = np.array([[1.0, -1.0, 0.0, 0.0],
                             [-1.0, 0.0, 0.0, 0.0],
                             [0.0, 0.0, 2.0, 1e-13],
                             [0.0, 0.0, 1e-13, 0.0]])
    v = ergodicity(disconnected, cone)
    assert v.verdict == "not-ergodic" and not v.connected
    assert v.witness == "off-diagonal support splits into 3 components"
    # a Metzler matrix has margin -0.0: the zeroed diagonal caps the maximum
    v = ergodicity(np.array([[0.0, -1.0], [-1.0, 3.0]]), trivial_diagonal_cone(2))
    assert v.verdict == "ergodic" and math.copysign(1.0, v.metzler_margin) == -1.0
    both = np.array([[0.0, 0.5, 0.0], [0.5, 0.0, 0.0], [0.0, 0.0, 1.0]])
    v = ergodicity(both, trivial_diagonal_cone(3))
    assert v.witness == ("positive off-diagonal at (0, 1); "
                         "off-diagonal support splits into 2 components")
    # only an imaginary part breaks the Metzler form
    cplx = np.array([[0.0, -1.0 + 1.0j], [-1.0 - 1.0j, 0.0]])
    v = ergodicity(cplx, trivial_diagonal_cone(2))
    assert v.to_dict() == dense_diagonal_ergodicity(cplx, np.ones(2))
    assert v.witness == "positive off-diagonal at (0, 0)"
    for h in (not_metzler, disconnected, both):
        signs = np.ones(h.shape[0])
        assert ergodicity(h, DiagonalCone(signs)).to_dict() == \
            dense_diagonal_ergodicity(h, signs)


def test_consequence_margins_match_dense_expm():
    g = path_graph(4)
    spec = ModelSpec("hubbard", g, t=nn(g), u=4.0 * np.eye(4))
    for tm in spec.sector_values():
        h = build(spec, tm / 2).matrix
        cone = hubbard_cone(spec.basis(tm / 2))
        v = ergodicity(h, cone)
        dense = [positivity_preserving(scipy.linalg.expm(-beta * h.toarray()), cone,
                                       tol=1e-8, samples=40).margin
                 for beta in (0.1, 1.0)]
        assert v.verdict == "consequence-verified"
        assert abs(v.semigroup_margin - min(dense)) <= 1e-10
        gs = ground_space(h)
        assert ergodicity(h, cone, ground=gs).to_dict() == v.to_dict()


def test_dense_checks_refuse_oversized_sectors():
    n = DENSE_THRESHOLD + 1
    big = sp.identity(n, format="csr")
    cone = trivial_diagonal_cone(n)
    with pytest.raises(ValueError, match="limit"):
        cone.conjugate_matrix(big)
    with pytest.raises(ValueError, match="limit"):
        positivity_preserving(big, cone)
    with pytest.raises(ValueError, match="limit"):
        monotonicity_check(big, big, cone)
    psd = PSDMatrixCone(np.ones(n), (0,), (0,), ((0, 0),) * n)
    with pytest.raises(ValueError, match="limit"):
        positivity_preserving(big, psd)
    # the sparse structural test has no such limit
    assert ergodicity(-sp.eye(n, k=1) - sp.eye(n, k=-1), cone).verdict == "ergodic"


# certified strictness -------------------------------------------------------

def _heisenberg_path(n: int, flipped_bond: bool = False) -> ModelSpec:
    g = path_graph(n)
    j = coupling_matrix(g, 1.0, "nn")
    if flipped_bond:
        j[0, 1] = j[1, 0] = -1.0
    return ModelSpec("heisenberg", g, j=j)


def _ground_of(mat, vals, vecs, route: str) -> GroundSpace:
    """The ground space of one solver's eigenpairs, clustered as
    ``ground_space`` clusters them."""
    e0 = float(vals[0])
    mult = int(np.sum(vals <= e0 + DEGENERACY_TOL * max(1.0, abs(e0))))
    q = vecs[:, :mult]
    residuals = tuple(float(np.linalg.norm(mat @ v - e0 * v)) for v in q.T)
    return GroundSpace(e0, mult, q, residuals, float(vals[mult] - e0),
                       SolverStats(route))


def _certified(h, cone, gs, ergodic=None):
    return strict_positivity(gauge_fix(gs.vectors[:, 0], cone), cone,
                             h=h.matrix, ground=gs, ergodic=ergodic)


_NT_GRID = grid_graph(3, 3)
_MID_SIZE_SECTORS = [
    pytest.param(spec, make_cone, tm, id=f"{label} M={tm}/2")
    for label, spec, make_cone, twice_ms in (
        ("heisenberg path:12", _heisenberg_path(12), mlm_cone, (-4, -2, 0, 2, 4)),
        ("heisenberg path:14", _heisenberg_path(14), mlm_cone, (-6, 6)),
        ("hubbard_nt grid:3x3",
         ModelSpec("hubbard_nt", _NT_GRID, t=coupling_matrix(_NT_GRID, 1.0, "nn")),
         nt_cone, (-2, 0, 2)))
    for tm in twice_ms]


@pytest.mark.parametrize("spec,make_cone,twice_m", _MID_SIZE_SECTORS)
def test_dense_and_krylov_solves_agree_on_mid_size_sectors(spec, make_cone, twice_m):
    """Every sector of 401-1200 states of the diag_cone models now takes the
    Krylov route; solved both ways it gives the same E0, multiplicity, gap
    and certified strictness verdict; the refinement converges well within
    its step cap, the one-hole sectors (zero diagonal, bipartite hopping)
    included."""
    h = build(spec, twice_m / 2)
    assert DENSE_PREFERENCE < h.domain.dim <= 1200
    assert ground_space(h).solver.route == "lanczos"
    cone = make_cone(h.domain)
    dense = _ground_of(h.matrix, *dense_eigensolve(h), "dense")
    krylov = _ground_of(h.matrix, *lanczos_ground(h, k=2), "lanczos")
    assert abs(krylov.energy - dense.energy) <= 1e-12 * abs(dense.energy)
    assert krylov.multiplicity == dense.multiplicity == 1
    assert abs(krylov.gap - dense.gap) <= 1e-9
    s_dense, s_krylov = (_certified(h, cone, gs) for gs in (dense, krylov))
    assert s_dense.ok and s_krylov.ok
    assert abs(s_krylov.margin - s_dense.margin) <= 1e-6 * s_dense.margin
    assert 0 < s_dense.steps < PERRON_MAX_STEPS
    assert 0 < s_krylov.steps < PERRON_MAX_STEPS


def test_certified_rule_damps_the_bipartite_partner_of_a_one_hole_ground():
    """A one-hole sector has a zero diagonal and a bipartite configuration
    graph, so B = S H S also has the eigenvalue -E0.  Unshifted, sigma I - B
    would keep a solved vector's admixture of that eigenvector forever; the
    shift above max diag(B) damps it, and the margin is the exact one."""
    g = grid_graph(2, 3)
    h = build(ModelSpec("hubbard_nt", g, t=coupling_matrix(g, 1.0, "nn")), 0.5)
    assert not h.matrix.diagonal().any()
    cone = nt_cone(h.domain)
    vals, vecs = dense_eigensolve(h)
    assert abs(vals[0] + vals[-1]) < 1e-12
    exact = cone.to_distinguished(gauge_fix(vecs[:, 0], cone)).min()
    mixed = vecs[:, 0] + 1e-6 * vecs[:, -1]
    mixed /= np.linalg.norm(mixed)
    residual = float(np.linalg.norm(h.matrix @ mixed - vals[0] * mixed))
    gs = GroundSpace(float(vals[0]), 1, mixed[:, None], (residual,),
                     float(vals[1] - vals[0]), SolverStats("dense"))
    strict = _certified(h, cone, gs)
    assert strict.ok and strict.steps < PERRON_MAX_STEPS
    assert abs(strict.margin - exact) <= 1e-9 * exact


def test_sign_mutated_hamiltonian_fails_strictness_and_ergodicity():
    """One bond of the 12-site chain made ferromagnetic: S H S is no longer
    Metzler, so neither the ergodicity test nor the certified rule passes."""
    h = build(_heisenberg_path(12, flipped_bond=True), 0)
    cone = mlm_cone(h.domain)
    gs = ground_space(h)
    assert gs.solver.route == "lanczos"
    erg = ergodicity(h.matrix, cone, ground=gs)
    assert erg.verdict == "not-ergodic"
    for ergodic in (erg, None):     # the verdict passed in, or made here
        strict = _certified(h, cone, gs, ergodic)
        assert not strict.ok and strict.steps == 0


def test_excited_vector_fails_the_agreement_bound():
    """An excited eigenvector passed off as the ground vector: the refinement
    turns it into a positive vector far from it, so the rule refuses it on
    the agreement bound, not on the margin."""
    h = build(_heisenberg_path(8), 0)
    cone = mlm_cone(h.domain)
    vals, vecs = dense_eigensolve(h)
    xi = cone.order_unit()
    k = next(k for k in range(1, len(vals)) if abs(xi @ vecs[:, k]) > 1e-6)
    fake = _ground_of(h.matrix, vals[k:], vecs[:, k:], "dense")
    assert fake.multiplicity == 1 and max(fake.residuals) < 1e-12
    strict = _certified(h, cone, fake)
    assert not strict.ok and strict.margin > 0
    assert 0 < strict.bound < 1e-9
    assert _certified(h, cone, _ground_of(h.matrix, vals, vecs, "dense")).ok


def test_certified_rule_records_its_steps_and_bound(mlm_star_m0):
    h, cone = mlm_star_m0
    gs = ground_space(h)
    strict = _certified(h, cone, gs, ergodicity(h.matrix, cone))
    raw = cone.to_distinguished(gauge_fix(gs.vectors[:, 0], cone)).min()
    assert strict.ok and abs(strict.margin - raw) <= 1e-12
    assert 1 <= strict.steps < PERRON_MAX_STEPS
    assert 2 * max(gs.residuals) / gs.gap <= strict.bound < 1e-12
    # without the ground space, on a vector of no sector, the raw test decides
    assert strict_positivity(cone.order_unit(), cone) == StrictnessVerdict(
        True, 1.0, 0, STRICT_TOL)
