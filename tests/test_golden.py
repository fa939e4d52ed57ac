"""Frozen run reports and per-step CSVs per preset at fixed seed (single-threaded)."""

import hashlib
import json
import pathlib

import pytest

import ehd
from ehd.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

PRESETS = {
    "taylor_green": "initial_condition = taylor_green\n",
    "charged_shear": "initial_condition = charged_shear\n",
    "random_smooth": "initial_condition = random_smooth(seed=11, energy=1.0, peak_wavenumber=2)\n",
}

# SHA-256 of series.csv, audit.csv and energy.csv per preset.
CSV_DIGESTS = json.loads((GOLDEN_DIR / "csv_sha256.json").read_text())


def ehd_run(out, preset, mp):
    """Run `ehd run` on a preset's golden config inside out."""
    config = out / "run.cfg"
    config.write_text(f"grid_n = 16\nt_end = 0.02\n{PRESETS[preset]}")
    mp.chdir(out)
    assert main(["run", str(config)]) == 0


def report_without_clock(out):
    produced = json.loads((out / "report.json").read_text())
    produced.pop("wall_clock")
    return produced


def csv_digests(out, preset):
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in CSV_DIGESTS[preset]
    }


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """The output directory of `ehd run` on each preset, run once per module."""
    runs = {}

    def run(preset):
        if preset not in runs:
            out = tmp_path_factory.mktemp(preset)
            with pytest.MonkeyPatch.context() as mp:
                ehd_run(out, preset, mp)
            runs[preset] = out
        return runs[preset]

    return run


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_report_matches_golden(preset, golden_run):
    golden = json.loads((GOLDEN_DIR / f"{preset}.json").read_text())
    assert report_without_clock(golden_run(preset)) == golden


@pytest.mark.parametrize("preset", sorted(PRESETS))
def test_csvs_match_golden_digests(preset, golden_run):
    assert csv_digests(golden_run(preset), preset) == CSV_DIGESTS[preset]


def test_public_call_gives_the_golden_bytes(tmp_path, monkeypatch):
    """If pocketfft's binding does not import, the seam takes scipy's public
    call (the full transform, the block gathered or scattered), and a golden
    preset's report and CSVs stay the same bytes."""
    for name in ("_r2c", "_c2c", "_c2r"):
        monkeypatch.setattr(ehd.spectral, name, None)
    ehd_run(tmp_path, "charged_shear", monkeypatch)
    golden = json.loads((GOLDEN_DIR / "charged_shear.json").read_text())
    assert report_without_clock(tmp_path) == golden
    assert csv_digests(tmp_path, "charged_shear") == CSV_DIGESTS["charged_shear"]


def test_public_call_gives_the_golden_bytes_of_random_smooth(tmp_path, monkeypatch):
    """The same for random_smooth, whose preset shapes its noise on the
    block: its set-up takes the public call too, and its run's report and
    CSVs stay the golden bytes."""
    for name in ("_r2c", "_c2c", "_c2r"):
        monkeypatch.setattr(ehd.spectral, name, None)
    ehd_run(tmp_path, "random_smooth", monkeypatch)
    golden = json.loads((GOLDEN_DIR / "random_smooth.json").read_text())
    assert report_without_clock(tmp_path) == golden
    assert csv_digests(tmp_path, "random_smooth") == CSV_DIGESTS["random_smooth"]


def test_schema_is_versioned():
    for preset in PRESETS:
        golden = json.loads((GOLDEN_DIR / f"{preset}.json").read_text())
        assert golden["format_version"] == 1
        assert set(golden) >= {
            "status", "steps", "t_final", "state_checksum", "criteria",
            "criteria_ranking", "criteria_series", "audit", "linf", "config",
        }


# State checksums after k steps of dt = 5e-4 with no hooks, at the grid sizes
# above the goldens' 16^3: the dealiased block and its tables depend on n.
CHECKSUMS = {
    (32, 6): {"random_smooth": "ba7e8188", "taylor_green": "8f8ce990", "charged_shear": "eaa328f8"},
    (64, 2): {"random_smooth": "e4c70d63", "taylor_green": "a5b4e980", "charged_shear": "34821f15"},
}
BUILD = {
    "random_smooth": lambda g: ehd.random_smooth(g, seed=7),
    "taylor_green": ehd.taylor_green,
    "charged_shear": ehd.charged_shear,
}


@pytest.mark.parametrize("n, k", sorted(CHECKSUMS))
@pytest.mark.parametrize("preset", sorted(BUILD))
def test_state_checksum_above_golden_size(n, k, preset):
    report = ehd.run(BUILD[preset](ehd.Grid(n)), ehd.StepControl(dt=5e-4, t_end=k * 5e-4))
    assert (report.steps, report.state_checksum) == (k, CHECKSUMS[n, k][preset])
