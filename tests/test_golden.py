"""Frozen run reports and per-step CSVs per preset at fixed seed (single-threaded)."""

import hashlib
import json
import pathlib

import pytest

from ehd.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

PRESETS = {
    "taylor_green": "initial_condition = taylor_green\n",
    "charged_shear": "initial_condition = charged_shear\n",
    "random_smooth": "initial_condition = random_smooth(seed=11, energy=1.0, peak_wavenumber=2)\n",
}

# SHA-256 of series.csv, audit.csv and energy.csv per preset.
CSV_DIGESTS = json.loads((GOLDEN_DIR / "csv_sha256.json").read_text())


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of `ehd run` on each preset, run once per module."""
    runs = {}

    def run(preset):
        if preset not in runs:
            out = tmp_path_factory.mktemp(preset)
            config = out / "run.cfg"
            config.write_text(f"grid_n = 16\nt_end = 0.02\n{PRESETS[preset]}")
            with pytest.MonkeyPatch.context() as mp:
                mp.chdir(out)
                assert main(["run", str(config)]) == 0
            runs[preset] = out
        return runs[preset]

    return run


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_report_matches_golden(preset, golden_run):
    produced = json.loads((golden_run(preset) / "report.json").read_text())
    produced.pop("wall_clock")
    golden = json.loads((GOLDEN_DIR / f"{preset}.json").read_text())
    assert produced == golden


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_csvs_match_golden_digests(preset, golden_run):
    out = golden_run(preset)
    produced = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in CSV_DIGESTS[preset]
    }
    assert produced == CSV_DIGESTS[preset]


def test_schema_is_versioned():
    for preset in PRESETS:
        golden = json.loads((GOLDEN_DIR / f"{preset}.json").read_text())
        assert golden["format_version"] == 1
        assert set(golden) >= {
            "status", "steps", "t_final", "state_checksum", "criteria",
            "criteria_ranking", "criteria_series", "audit", "linf", "config",
        }
