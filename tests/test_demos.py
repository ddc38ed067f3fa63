"""The narrative demos run end to end against the current API."""

import csv
import runpy
from pathlib import Path

import pytest

from kronlev.config import load_json, parse_experiment
from kronlev.configs import packaged_config_path
from kronlev.experiments import emit_cdf, run_trials, write_report_csv
from helpers import readme_python_block

DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.mark.parametrize("name", ["01_index_sets", "02_exact_sampling", "03_sketched_solve"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / f"{name}.py"), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_quickstart_runs(capsys):
    namespace = {"__name__": "__main__"}
    exec(compile(readme_python_block(), str(DEMOS.parent / "README.md"), "exec"), namespace)
    assert capsys.readouterr().out
    # the trial's fit from Q rows is the assembled sketch's fit
    assert not namespace["rank_flag"]
    assert namespace["err_q"] == pytest.approx(namespace["err"], rel=1e-10)
    assert namespace["err"] >= namespace["reduction"].optimal_error


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def test_demo_04_study_reproduces_its_committed_tables(tmp_path):
    # demo 04's study, written to tmp_path instead of demos/output; the float
    # columns allow for BLAS kernels that round differently on other CPUs
    config = load_json(packaged_config_path("ishigami-g7"))
    config["trials"] = 20
    report = run_trials(parse_experiment(config), threads=4)
    write_report_csv(report, tmp_path / "report.csv")
    emit_cdf(report, tmp_path / "cdf.csv")
    tables = [
        ("report.csv", "ishigami-g7-report.csv", ["method", "trial", "N", "K", "rank_flag"],
         ["relative_error", "optimal_relative_error"]),
        ("cdf.csv", "ishigami-g7-cdf.csv", ["method"], ["sorted_error", "cdf_level"]),
    ]
    for fresh, committed, exact, floats in tables:
        got, expected = read_rows(tmp_path / fresh), read_rows(DEMOS / "output" / committed)
        assert len(got) == len(expected) == 60
        assert list(got[0]) == list(expected[0])
        assert sorted(expected[0]) == sorted(exact + floats)
        for row, want in zip(got, expected):
            assert [row[c] for c in exact] == [want[c] for c in exact]
            for c in floats:
                assert float(row[c]) == pytest.approx(float(want[c]), rel=1e-12, abs=0.0)
