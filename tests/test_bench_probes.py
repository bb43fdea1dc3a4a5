"""The traced benchmark patches hyperx names in place (``perfbench/probes.py``);
every one of them must still exist, so a refactor that drops one fails here."""

from hyperx import tensor
from hyperx.model import H2Model
from perfbench.probes import Probes
from perfbench.spans import Tracer

from tests.conftest import tiny_model_config


def test_benchmark_probes_install_and_restore():
    backward = tensor.backward
    model = H2Model(tiny_model_config(), seed=0)
    forward_segments = model.forward_segments
    probes = Probes(Tracer())
    try:
        probes.install()
        probes.instrument_model(model)
        assert tensor.backward is not backward
    finally:
        probes.patches.restore()
    assert tensor.backward is backward
    assert model.forward_segments == forward_segments
