"""Property tests of input validation: every input ends in a typed error or a valid object.

They fuzz config parsing and field/grid construction only and never run a
solver.  Examples are derandomized, so every run checks the same inputs.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

import magheat as mh
from magheat.discretize import Grid2D
from magheat.errors import ConfigError, PresetError
from magheat.field import PRESET_KINDS, MagneticField
from magheat.harness import EXPERIMENT_KINDS, ExperimentConfig

FUZZ = settings(max_examples=150, deadline=None, database=None, derandomize=True)

scalars = st.one_of(st.none(), st.booleans(), st.integers(-10**400, 10**400),
                    st.floats(), st.text(max_size=4))
junk = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3), max_leaves=6)
reals = st.one_of(st.floats(-1e3, 1e3), st.integers(-100, 100), st.floats())


def _maybe(valid):
    """Mostly ``valid``, sometimes any JSON-like value."""
    return st.one_of(valid, valid, valid, junk)


def _params(kind):
    values = {"b0": reals, "r": st.floats(-0.5, 3.0) | reals, "target": reals, "bogus": reals,
              "center": st.lists(reals, min_size=2, max_size=2) | st.lists(reals, max_size=3)}
    keys = {"scaled-to-flux": ("target", "r")}.get(kind, ("b0", "r", "center"))
    return st.fixed_dictionaries({}, optional={k: _maybe(values[k]) for k in keys}) \
        | st.fixed_dictionaries({"bogus": values["bogus"]})


params = st.sampled_from(PRESET_KINDS).flatmap(_params) | junk
descriptors = _maybe(st.sampled_from(PRESET_KINDS).flatmap(
    lambda k: st.fixed_dictionaries({"kind": st.just(k), "params": _maybe(_params(k))})))
grids = _maybe(st.fixed_dictionaries({"r_dom": _maybe(st.floats(-1.0, 20.0) | reals),
                                      "n": _maybe(st.integers(-4, 400) | reals)}))
BASES = [
    {"kind": "flux", "label": "run", "field": mh.harness.OFFSET_FIELD},
    {"kind": "lambda-curve", "label": "run", "field": mh.harness.ZERO_FIELD,
     "grid": {"r_dom": 8.0, "n": 64}, "s_values": [0.0, 1.0]},
    {"kind": "hardy", "label": "run", "field": mh.harness.ZERO_FIELD,
     "sweep": [8.0, 16.0], "h": 0.5},
    {"kind": "evolve", "label": "run", "field": mh.harness.ZERO_FIELD,
     "grid": {"r_dom": 8.0, "n": 64}, "evolve": {"frame": "self-similar", "s_final": 1.0}},
    {"kind": "spectrum-numeric", "label": "run", "fluxes": [0.5], "count": 3,
     "radial": {"r_max": 15.0, "m_points": 800}, "tolerances": {"level_rel": 1e-3}},
    {"kind": "decay-report", "label": "run", "field": mh.harness.ZERO_FIELD,
     "report": {"ss_n": 64}, "seed": 3},
]
overrides = {
    "kind": st.sampled_from(EXPERIMENT_KINDS) | junk,
    "label": st.sampled_from(["run", ".", "..", "", "a/b"]) | junk,
    "field": descriptors,
    "grid": grids,
    "s_values": _maybe(st.lists(reals, max_size=3)),
    "count": _maybe(st.integers(-2, 20)),
    "fluxes": _maybe(st.lists(reals, max_size=3)),
    "radial": _maybe(st.fixed_dictionaries(
        {}, optional={"r_max": reals, "m_points": reals, "bogus": reals})),
    "sweep": _maybe(st.lists(st.floats(0.0, 40.0) | reals, max_size=3)),
    "h": _maybe(st.floats(0.0, 10.0) | reals),
    "evolve": _maybe(st.dictionaries(
        st.sampled_from(["frame", "dt", "s_final", "fit_window", "oracle", "bogus"]),
        st.sampled_from(["physical", "self-similar", "sideways", "free-gaussian"])
        | reals | st.lists(reals, max_size=3), max_size=3)),
    "report": _maybe(st.dictionaries(
        st.sampled_from(["ss_n", "phys_n", "ss_r_dom", "dt", "ds", "bogus"]), reals,
        max_size=2)),
    "tolerances": _maybe(st.dictionaries(
        st.sampled_from(["floor", "limit_abs", "monotone_approach", "bogus"]),
        reals | st.booleans(), max_size=2)),
    "seed": _maybe(st.integers(-3, 2**70)),
}
# a valid base config with up to two entries replaced, and sometimes one dropped
one_change = st.sampled_from(sorted(overrides)).flatmap(
    lambda key: overrides[key].map(lambda value: {key: value}))
configs = _maybe(st.builds(
    lambda base, changes, drop: {k: v for k, v in base.items() if k != drop}
    | {k: v for change in changes for k, v in change.items()},
    st.sampled_from(BASES), st.lists(one_change, max_size=2),
    st.sampled_from([None] * 8 + ["kind", "label", "field", "grid"])))


def _check_field(fld):
    assert isinstance(fld, MagneticField)
    assert math.isfinite(fld.support_radius) and fld.support_radius > 0.0
    for comp in fld.components:
        assert math.isfinite(comp.amplitude) and 0.0 < comp.radius ** 2 < math.inf
        assert all(math.isfinite(c) for c in comp.center)


def _check_grid(grid):
    assert isinstance(grid, Grid2D)
    assert math.isfinite(grid.r_dom) and grid.r_dom > 0.0
    assert isinstance(grid.n, int) and grid.n >= 16


@FUZZ
@given(st.sampled_from(PRESET_KINDS) | junk, params)
def test_make_field_typed_error_or_field(kind, prm):
    try:
        fld = mh.make_field(kind, prm)
    except PresetError:
        return
    _check_field(fld)


@FUZZ
@given(descriptors)
def test_build_field_typed_error_or_field(desc):
    try:
        fld = ExperimentConfig(kind="flux", label="run", field=desc).build_field()
    except (ConfigError, PresetError):
        return
    _check_field(fld)


@FUZZ
@given(_maybe(reals), _maybe(st.integers(-4, 400) | reals))
def test_build_grid_typed_error_or_grid(r_dom, n):
    try:
        grid = mh.build_grid(r_dom, n)
    except ValueError:
        return
    _check_grid(grid)


@FUZZ
@given(grids)
def test_config_build_grid_typed_error_or_grid(grid):
    try:
        built = ExperimentConfig(kind="flux", label="run", grid=grid).build_grid()
    except ConfigError:
        return
    _check_grid(built)


@FUZZ
@given(configs)
def test_config_from_dict_typed_error_or_config(data):
    try:
        cfg = ExperimentConfig.from_dict(data)
    except ConfigError:
        return
    assert cfg.kind in EXPERIMENT_KINDS
    if cfg.field is not None:
        _check_field(cfg.build_field())
    if cfg.grid is not None:
        _check_grid(cfg.build_grid())
    if cfg.report is not None:
        report = mh.ReportConfig(**cfg.report)
        _check_grid(mh.build_grid(report.ss_r_dom, report.ss_n))
        _check_grid(mh.build_grid(report.phys_r_dom, report.phys_n))
