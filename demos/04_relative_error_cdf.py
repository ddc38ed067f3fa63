"""Repeated-trial error distributions and CDF export.

Runs a reduced-trial version of the packaged Ishigami study (the shipped
configs use 100 trials; here 20 keeps the demo quick), then writes the
per-trial report, the CDF table, and an SVG staircase plot next to this
script.  The full study is one CLI call:

    kronlev experiment --config $(python -c "from kronlev.configs import \
packaged_config_path; print(packaged_config_path('ishigami-g7'))") \
        --out report.csv --cdf cdf.csv --svg cdf.svg
"""

from pathlib import Path

import numpy as np

from kronlev.config import load_json, parse_experiment
from kronlev.configs import packaged_config_path
from kronlev.experiments import emit_cdf, emit_cdf_svg, run_trials, write_report_csv

out_dir = Path(__file__).parent / "output"
out_dir.mkdir(exist_ok=True)

config = load_json(packaged_config_path("ishigami-g7"))
config["trials"] = 20
experiment = parse_experiment(config)
print(f"N = {len(experiment.problem.index_set)}, "
      f"K = {experiment.sample_count}, trials = {experiment.trials}")

report = run_trials(experiment, threads=4)
print(f"optimal relative error: {report.optimal_error:.4e}")
for tag in report.methods:
    errors = np.asarray(report.errors[tag])
    print(f"  {tag:16s} median {np.median(errors):.4e}   "
          f"90th pct {np.quantile(errors, 0.9):.4e}")

write_report_csv(report, out_dir / "ishigami-g7-report.csv")
emit_cdf(report, out_dir / "ishigami-g7-cdf.csv")
emit_cdf_svg(report, out_dir / "ishigami-g7-cdf.svg")
print("wrote", ", ".join(p.name for p in sorted(out_dir.iterdir())))
