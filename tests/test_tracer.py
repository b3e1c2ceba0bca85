"""The benchmark's span tracer still reaches the package.

``perfbench/spans.install`` rebinds names in the magheat modules from
outside them; a package change that stops looking those names up at call
time leaves the traced benchmark counting nothing.  These runs are the
benchmark's workloads on small grids.
"""

from pathlib import Path

import pytest

from magheat import evolve, field, harness, spectral

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    """``spans`` and ``workloads`` from perfbench; every name that ``install``
    rebinds in the package is restored afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans
    import workloads

    saved = {mod: dict(vars(mod)) for mod in (evolve, field, harness, spectral)}
    yield spans, workloads
    for mod, names in saved.items():
        for name, value in names.items():
            if getattr(mod, name) is not value:
                setattr(mod, name, value)


@pytest.mark.parametrize("workload, small", [
    ("selfsimilar-offset", {}),
    # s = 3 is beyond the resolution cap at n = 48
    ("lambda-halfflux", {"s_values": [0.0, 1.0]}),
])
def test_traced_run_counts_every_layer(tracing, tmp_path, workload, small):
    spans, workloads = tracing
    config = {**workloads.config_dict(workload, 0), **small}
    config["grid"] = {**config["grid"], "n": 48}
    tracer = spans.Tracer()
    traced_run = spans.install(tracer)
    traced_run(harness.ExperimentConfig(**config), out_dir=tmp_path)
    metrics = spans.layer_metrics(tracer, 0)
    if config["kind"] == "evolve":
        assert metrics["evolve.cg_iters"] > 0
    assert metrics["discretize.assemble_magnetic.calls"] == 1
    assert metrics["discretize.nnz"] > 0
    assert metrics["field.alpha_batch.points"] > 0
