"""The benchmark's workloads: fixed experiment configs for ``magheat.harness.run``.

Each workload is one config, sized so that one run of it takes 2-4 s on a
2-core machine and a benchmark run can time several of them.  The fields are
the harness presets of acceptance criteria 3 and 6 and the offset bump.
Step counts and s values are cut down from the criterion runs.  Only
evolve-physical keeps the criterion's mesh width and time step (h = 0.125,
dt = 0.1) on a smaller domain; the other workloads are coarsened as well
(lambda-halfflux from n = 300 to 128, selfsimilar-offset from 256 to 160).
``BENCHMARK.json`` gives the reason for each workload and the per-layer
metric it is meant to move.
"""

from __future__ import annotations


def _radial_step(flux, radius):
    """Centred step field of the given total flux (harness ``_field_step``)."""
    return {"kind": "radial-step", "params": {"b0": 2.0 * flux / radius**2, "r": radius}}


WORKLOADS = {
    "lambda-halfflux": {
        "kind": "lambda-curve",
        "field": _radial_step(0.5, 3.0),
        "grid": {"r_dom": 7.0, "n": 128},
        # no s = 2: at n = 128-176 it sits on an eigsh restart threshold where
        # half of all start vectors (seeds) need 25 LU solves and half 46,
        # which alone spread wall_s by ~15% between seeds
        "s_values": [0.0, 1.0, 3.0],
        "tolerances": {"monotone_approach": True, "floor": 1e-3},
    },
    "evolve-physical": {
        "kind": "evolve",
        "field": _radial_step(0.5, 1.0),
        "grid": {"r_dom": 16.0, "n": 255},
        "evolve": {"frame": "physical", "t_final": 2.0, "dt": 0.1, "width": 1.5},
    },
    "selfsimilar-halfflux": {
        "kind": "evolve",
        "field": _radial_step(0.5, 2.6),
        "grid": {"r_dom": 7.0, "n": 448},
        "evolve": {"frame": "self-similar", "s_final": 0.1, "ds": 0.05,
                   "width": 1.1547},
    },
    "selfsimilar-offset": {
        "kind": "evolve",
        "field": {"kind": "offset-bump",
                  "params": {"b0": 1.0, "r": 1.0, "center": [0.7, 0.3]}},
        "grid": {"r_dom": 7.0, "n": 160},
        "evolve": {"frame": "self-similar", "s_final": 0.1, "ds": 0.05,
                   "width": 1.1547},
    },
}


def config_dict(name, seed):
    """The workload's ``ExperimentConfig`` fields, labelled and seeded."""
    return {**WORKLOADS[name], "label": name, "seed": int(seed)}
