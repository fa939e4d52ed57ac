"""Key-value config parsing: defaults, typed values, exhaustive violations."""

import itertools
import math
import re

import pytest

import ehd
from ehd import ConfigError, CriterionKind, RunConfig, StepControl, parse_config
from ehd.checkpoint import _HEADER, FORMAT_VERSION, MAGIC

MINIMAL = """
grid_n = 32
t_end = 0.5
initial_condition = taylor_green
"""


class TestParsing:
    def test_minimal_config_fills_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid_n == 32
        assert cfg.t_end == 0.5
        assert cfg.initial_condition.name == "taylor_green"
        assert cfg.cfl == 0.4
        assert cfg.dt == 5e-4
        assert cfg.dt_min == 1e-10
        assert [c.kind for c in cfg.criteria] == ["BKM", "PS_u", "PS_grad_u", "BESOV_ANISO"]
        assert cfg.series_csv == "series.csv"
        assert cfg.report_json == "report.json"

    def test_minimal_config_defaults_are_the_dataclass_defaults(self):
        cfg = parse_config("t_end = 0.5\ninitial_condition = taylor_green\n")
        assert cfg == RunConfig(t_end=0.5, initial_condition=cfg.initial_condition)
        control = StepControl()
        assert (cfg.dt, cfg.cfl, cfg.dt_min) == (control.dt, control.cfl, control.dt_min)

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# leading comment\n\nt_end = 1.0  # trailing\n"
                           "initial_condition = charged_shear\n")
        assert cfg.t_end == 1.0

    def test_preset_with_arguments(self):
        cfg = parse_config(
            "t_end = 0.1\ninitial_condition = random_smooth(seed=7, energy=2.0, peak_wavenumber=3)\n"
        )
        assert cfg.initial_condition.params == {"seed": 7, "energy": 2.0, "peak_wavenumber": 3.0}

    def test_checkpoint_preset_requires_path(self):
        with pytest.raises(ConfigError, match="requires parameter 'path'"):
            parse_config("t_end = 0.1\ninitial_condition = from_checkpoint\n")

    def test_criterion_triples(self):
        cfg = parse_config(
            "t_end = 0.1\ninitial_condition = taylor_green\n"
            "criterion = PS_u, 6, 100.0\ncriterion = BKM, inf, auto\n"
        )
        assert len(cfg.criteria) == 2
        assert cfg.criteria[0].kind == "PS_u"
        assert cfg.criteria[0].threshold == 100.0
        assert cfg.criteria[1].p == math.inf
        assert cfg.criteria[1].threshold is None

    @pytest.mark.parametrize("kind", [k.value for k in CriterionKind])
    def test_every_criterion_kind_parses_in_either_case(self, kind):
        p = "inf" if kind == "BKM" else "6"
        for spelled in (kind.lower(), kind.upper()):
            cfg = parse_config("t_end = 0.1\ninitial_condition = taylor_green\n"
                               f"criterion = {spelled}, {p}\n")
            assert [c.kind for c in cfg.criteria] == [kind]


class TestViolations:
    def test_unknown_criterion_kind_lists_the_kinds(self):
        with pytest.raises(
            ConfigError, match=re.escape("(expected BKM, PS_u, PS_grad_u, BESOV_ANISO)")
        ):
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\n"
                         "criterion = PS_v, 6\n")

    def test_out_of_range_criterion_exponent_cites_bound(self):
        with pytest.raises(ConfigError, match="3 < p"):
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\n"
                         "criterion = PS_u, 3\n")

    def test_duplicate_key_reports_both_lines(self):
        text = "t_end = 0.1\ninitial_condition = taylor_green\nt_end = 0.2\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        message = str(err.value)
        assert "line 3" in message and "line 1" in message and "duplicate" in message

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="unknown key 'viscosity'"):
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\nviscosity = 2\n")

    def test_all_violations_reported_not_just_first(self):
        text = ("grid_n = 12\n"  # not a power of two
                "t_end = -1\n"  # not positive
                "bogus = 3\n"  # unknown key
                "initial_condition = taylor_green\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert len(err.value.violations) == 3

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("cfl = 0.3\n")
        joined = str(err.value)
        assert "t_end" in joined and "initial_condition" in joined

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config("t_end = 0.1\ninitial_condition = vortex_sheet\n")

    def test_unknown_preset_parameter(self):
        with pytest.raises(ConfigError, match="no parameter 'colour'"):
            parse_config("t_end = 0.1\ninitial_condition = random_smooth(seed=1, colour=3)\n")

    def test_step_bounds(self):
        with pytest.raises(ConfigError, match="dt_min"):
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\n"
                         "dt = 1e-4\ndt_min = 1e-3\n")
        with pytest.raises(ConfigError, match="cfl"):
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\ncfl = 1.0\n")

    def test_configs_that_cannot_run_each_reported(self):
        text = ("t_end = inf\n"
                "initial_condition = taylor_green\n"
                "criterion = BKM, inf, -5\n"
                "criterion = BKM, inf, nan\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        violations = err.value.violations
        assert len(violations) == 3
        assert "t_end" in violations[2] and "finite" in violations[2]
        assert violations[0].startswith("line 3:") and "'-5'" in violations[0]
        assert violations[1].startswith("line 4:") and "'nan'" in violations[1]

    def test_infinite_threshold_accepted(self):
        cfg = parse_config("t_end = 0.1\ninitial_condition = taylor_green\n"
                           "criterion = BKM, inf, inf\n")
        assert cfg.criteria[0].threshold == math.inf

    def test_grid_that_cannot_fit_in_memory_rejected(self):
        with pytest.raises(ConfigError, match="grid_n = 4096 needs about .* GiB") as err:
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\ngrid_n = 4096\n")
        assert "physical memory" in str(err.value)
        cfg = parse_config("t_end = 0.1\ninitial_condition = taylor_green\ngrid_n = 64\n")
        assert cfg.grid_n == 64

    def test_restart_memory_is_checked_at_the_checkpoint_grid(self, tmp_path):
        path = tmp_path / "huge_header.ehds"
        path.write_bytes(MAGIC + _HEADER.pack(FORMAT_VERSION, 4096, 0.0, 0))
        with pytest.raises(ConfigError, match="grid_n = 4096 needs about .* GiB"):
            parse_config(f"t_end = 0.1\ninitial_condition = from_checkpoint(path={path})\n")

    def test_restart_takes_the_checkpoint_grid(self, tmp_path):
        path = tmp_path / "tg16.ehds"
        ehd.write_checkpoint(path, ehd.taylor_green(ehd.Grid(16)))
        cfg = parse_config(f"t_end = 0.1\ninitial_condition = from_checkpoint(path={path})\n")
        assert cfg.grid_n == 16

    def test_bad_scalar_type(self):
        with pytest.raises(ConfigError, match="expected int"):
            parse_config("t_end = 0.1\ninitial_condition = taylor_green\ngrid_n = many\n")


# Inputs that each break one rule, beside a valid t_end and initial_condition:
# the extra config text, and a substring of the one violation it reports.
ONE_VIOLATION = [
    ("criterion = BKM\n", "criterion needs 'kind, p[, threshold]'"),
    ("criterion = PS_u, six\n", "criterion exponent 'six' is not a number"),
    ("criterion = BKM, inf, lots\n", "criterion threshold 'lots' is not 'auto'"),
    ("nonsense\n", "expected 'key = value', got 'nonsense'"),
    ("dt = 0\n", "dt must be positive"),
    ("dt = -1e-3\n", "dt must be positive"),
    ("checkpoint_every = -1\n", "checkpoint_every must be >= 0"),
]


class TestEachRule:
    @pytest.mark.parametrize("extra, message", ONE_VIOLATION)
    def test_rule_reports_one_violation(self, extra, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"t_end = 0.1\ninitial_condition = taylor_green\n{extra}")
        assert len(err.value.violations) == 1
        assert message in err.value.violations[0]

    @pytest.mark.parametrize("ic, message", [
        ("random_smooth(seed=1", "malformed initial_condition"),
        ("random_smooth(seed=1, 3)", "preset argument '3' must be name=value"),
        ("random_smooth(seed=1, energy=lots)", "bad value 'lots' for random_smooth.energy"),
    ])
    def test_bad_initial_condition_reports_one_violation(self, ic, message):
        with pytest.raises(ConfigError) as err:
            parse_config(f"t_end = 0.1\ninitial_condition = {ic}\n")
        assert len(err.value.violations) == 1
        assert message in err.value.violations[0]

    def test_unreadable_checkpoint_with_grid_n_reported(self, tmp_path):
        path = tmp_path / "none.ehds"
        with pytest.raises(ConfigError) as err:
            parse_config(f"t_end = 0.1\ngrid_n = 16\n"
                         f"initial_condition = from_checkpoint(path={path})\n")
        assert len(err.value.violations) == 1
        assert f"cannot read the grid size of checkpoint {path}" in err.value.violations[0]

    def test_missing_t_end_reported_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config("initial_condition = taylor_green\n")
        assert err.value.violations == ["missing required key 't_end'"]

    def test_infinite_t_end_reported_once(self):
        with pytest.raises(ConfigError) as err:
            parse_config("t_end = inf\ninitial_condition = taylor_green\n")
        [violation] = err.value.violations
        assert "t_end" in violation and "finite" in violation


STEP_VALUES = {
    "dt": [-1e-3, 0.0, 1e-10, 1e-3, math.nan, math.inf],
    "cfl": [-0.1, 0.0, 0.4, 1.0, math.nan],
    "t_end": [-1.0, 0.0, 0.5, math.inf, math.nan],
    "dt_min": [-1.0, 0.0, 1e-10, 1e-3, math.nan],
}


def test_config_and_step_control_agree_on_the_step_rules():
    """parse_config accepts a dt, cfl, t_end, dt_min exactly when StepControl
    does, except t_end = 0, which a run config rejects and the library
    accepts.  The grid includes 0, negative, nan, inf and the boundaries
    dt_min = dt and cfl = 1."""
    for values in itertools.product(*STEP_VALUES.values()):
        keys = dict(zip(STEP_VALUES, values))
        try:
            StepControl(**keys)
            library_ok = True
        except ValueError:
            library_ok = False
        text = "".join(f"{k} = {v}\n" for k, v in keys.items())
        try:
            parse_config(text + "initial_condition = taylor_green\n")
            config_ok = True
        except ConfigError:
            config_ok = False
        assert config_ok == (library_ok and keys["t_end"] != 0.0), keys


class TestEcho:
    def test_as_dict_round_trips_infinities(self):
        cfg = parse_config("t_end = 0.1\ninitial_condition = taylor_green\n"
                           "criterion = BKM, inf\n")
        echo = cfg.as_dict()
        assert echo["criteria"][0]["p"] == "inf"
        import json

        json.dumps(echo)
