"""The benchmark's traced run wraps the names `edspin.verify` and the layers
below it call through (perfbench/tracing.py).  A refactor that stops calling
through one of them would silently zero that layer's time; this test keeps
every wrapped name present and every layer reached by `verify`."""

from pathlib import Path

from edspin.hamiltonians import ModelSpec, coupling_matrix
from edspin.lattice import path_graph
from edspin.verify import verify_kondo, verify_mlm_class

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

LAYERS = ("hamiltonians.validate", "hamiltonians.build", "spectra.ground_space",
          "spectra.total_spin_of", "fock.enumerate_sector",
          "operators.total_spin_squared", "operators.ladder_ops", "cones.build",
          "cones.ergodicity", "cones.strict")


def test_traced_verify_reaches_every_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    g2, g4 = path_graph(2), path_graph(4)
    tracer, missing = tracing.Tracer(), []
    with tracing.installed(tracer, missing):
        heisenberg = verify_mlm_class(
            ModelSpec("heisenberg", g4, j=coupling_matrix(g4, 1.0, "nn")))
        kondo = verify_kondo(
            ModelSpec("kondo", g2, t=coupling_matrix(g2, 1.0, "nn"), j_kondo=1.0))
    assert heisenberg.ok and kondo.ok
    assert missing == []
    spans = {s.name for s in tracer.spans}
    assert set(LAYERS) <= spans, sorted(set(LAYERS) - spans)
