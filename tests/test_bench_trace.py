"""The benchmark's traced run (``perfbench/run.py --trace 1``) installs its
layer wrappers on this tree: it imports every module named in
``perfbench.layers.LAYERS``, so deleting one of them breaks it."""

import maghardy as mh
from perfbench import layers
from perfbench.tracer import Tracer


def test_trace_installs_on_every_layer_and_undoes():
    original = mh.spectral.prufer_count
    tracer = Tracer()
    undo = layers.install(tracer)
    try:
        missing = layers.absent()
        mh.prufer_count(mh.ZeroField(), mh.StepWell(1.0, 1.0), 0, (-4.0, 0.5), 20.0)
    finally:
        undo()
    assert set(missing) <= set(layers.EXPECTED)
    assert "spectral.prufer_count" not in missing and "counting.count_total" not in missing
    assert "spectral.prufer_count" in [s.name for s in tracer.spans]
    assert mh.spectral.prufer_count is original and mh.prufer_count is original
