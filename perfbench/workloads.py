"""The benchmark's workloads: the `verify` calls each one makes, in order, and
what the theorems say each call must return.

All couplings are nearest-neighbour.  The inputs are fixed; the run's seed
reaches the program only as the ``seed=`` of the ``verify_*`` calls, where it
sets the Lanczos start vectors.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from edspin import (ModelSpec, coupling_matrix, grid_graph, path_graph,
                    verify_kondo, verify_mlm_class, verify_nt_class)


@dataclass(frozen=True)
class Expected:
    """The theorem's verdict and 2S (degeneracy 2S+1), plus the reference E0.

    The reference energies were computed with seed 0 on the code this
    benchmark was written against; a call must reproduce them to
    ``run.E0_RTOL``.
    """

    verdict: str
    twice_s: int
    e0: float


@dataclass(frozen=True)
class Call:
    label: str
    entry: Callable
    spec: ModelSpec
    expected: Expected


def _nn(g, value: float) -> np.ndarray:
    return coupling_matrix(g, value, "nn")


def _diag(g, value: float) -> np.ndarray:
    return value * np.eye(g.vertex_count)


def _heisenberg(n: int, e0: float) -> Call:
    g = path_graph(n)
    return Call(f"heisenberg path:{n}", verify_mlm_class,
                ModelSpec("heisenberg", g, j=_nn(g, 1.0)),
                Expected("pass", 0, e0))


def _hubbard(label: str, g, e0: float) -> Call:
    return Call(f"hubbard {label}", verify_mlm_class,
                ModelSpec("hubbard", g, t=_nn(g, 1.0), u=_diag(g, 4.0)),
                Expected("consequence-verified-pass", 0, e0))


def _kondo(j_kondo: float, e0: float) -> Call:
    g = path_graph(4)
    return Call(f"kondo path:4 J_K={j_kondo:+g}", verify_kondo,
                ModelSpec("kondo", g, t=_nn(g, 1.0), j_kondo=j_kondo),
                Expected("consequence-verified-pass", 0, e0))


def diag_cone() -> list[Call]:
    g = grid_graph(3, 3)
    return [
        _heisenberg(12, -5.1420906328405325),
        # The theorem holds here; the seed reports a false `fail` because the
        # smallest Marshall-sign amplitude (7.4e-13) is below the fixed
        # strictness tolerance.  It stays in as a wrong verdict.
        _heisenberg(14, -6.026724661862167),
        Call("hubbard_nt grid:3x3", verify_nt_class,
             ModelSpec("hubbard_nt", g, t=_nn(g, 1.0)),
             Expected("pass", 8, -2.828427124746192)),
    ]


def psd_cone() -> list[Call]:
    return [
        _hubbard("path:6", path_graph(6), -3.0925653195053906),
        _hubbard("grid:2x3", grid_graph(2, 3), -3.6193213239575552),
        _kondo(+1.0, -5.068569612643405),
        _kondo(-1.0, -4.7044224536922625),
    ]


def krylov_phonon() -> list[Call]:
    p4, g22 = path_graph(4), grid_graph(2, 2)
    return [
        Call("holstein_hubbard path:4", verify_mlm_class,
             ModelSpec("holstein_hubbard", p4, t=_nn(p4, 1.0), u=_diag(p4, 4.0),
                       g_ep=_diag(p4, 0.5), omega=1.0, n_max=6),
             Expected("pass", 0, -1.9839227113378703)),
        Call("holstein_nt grid:2x2", verify_nt_class,
             ModelSpec("holstein_nt", g22, t=_nn(g22, 1.0), g_ep=_diag(g22, 0.3),
                       omega=1.0, n_max=8),
             Expected("pass", 3, -2.0421287170646383)),
    ]


WORKLOADS = {"diag_cone": diag_cone, "psd_cone": psd_cone,
             "krylov_phonon": krylov_phonon}

# The host resource whose speed sets each workload's time, as the traced run
# shows: diag_cone and psd_cone spend it in Python loops and small dense
# matrices, krylov_phonon in streaming its Lanczos basis (up to 86k states
# times the Krylov dimension) through memory.  Its wall_s is taken to the
# reference speed of that resource (see probe.py).
BOUND_BY = {"diag_cone": "python", "psd_cone": "python", "krylov_phonon": "memory"}
