"""The byte-identity gate: outputs that must not move with the worker or BLAS thread count.

    python tests/outputs.py OUTDIR

writes ``gated_configs`` into OUTDIR and runs each command of ``commands`` in a
fresh ``python -m kronlev.cli`` process there, then ``NO_OPENBLAS``' trials in
a process of its own. It exits non-zero, naming the first pair of files that
should match and does not. Every path it writes is relative to OUTDIR, so the
directories written with two versions of kronlev (``PYTHONPATH=<checkout>/src``)
compare with ``diff -r``.
"""

import filecmp
import json
import os
import subprocess
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path

import kronlev
import kronlev.factor
from kronlev.config import load_json, parse_experiment, parse_index_set
from kronlev.configs import list_packaged_configs, packaged_config_path
from kronlev.experiments import run_trials, write_report_csv

# (config, method, K, seed), each run at OPENBLAS_NUM_THREADS 1 and 2; K = 4N on duffing-g9
# (N = 220) and the gapped config (N = 119). duffing-g9's pair differs when a trial is unpinned
SOLVES = [
    ("ishigami-g7", "leverage-lower", 480, 1),
    ("ishigami-g7", "uniform", 480, 1),
    ("ishigami-g7", "tensor-product", 480, 1),
    ("ishigami-g7", "leverage-lower", 5000, 1),  # its point mass runs in many row blocks
    ("duffing-g9", "leverage-lower", 880, 3),
    ("mixed", "leverage-lower", 480, 1),
    ("gapped", "orthogonal-columns", 476, 3),
    ("ishigami-m101", "leverage-lower", 480, 1),
]
# `experiment` of each, with its report and CDF, at OPENBLAS_NUM_THREADS 1 and 2 and --threads 1:
# duffing-g9's trials (N = 220) differ when they run unpinned
EXPERIMENTS = ["duffing-g9-t3"]
# `oracle --dump` of each, at OPENBLAS_NUM_THREADS 1 and 2: the scores are read from J's record
# on one BLAS thread, and the gapped config's non-lower J takes their gather's product with U
ORACLES = ["ishigami-g7", "duffing-g9", "gapped"]
# with no OpenBLAS found, trials run unpinned and solve takes np.linalg.cholesky and
# back substitution; the gapped config's trials also take the product with J's basis U
NO_OPENBLAS = ["ishigami-g7", "duffing-g7", "gapped"]


def gated_configs() -> dict:
    """The packaged configs and the variants, by the stem of their file in OUTDIR."""
    configs = {name: load_json(packaged_config_path(name)) for name in list_packaged_configs()}
    members = parse_index_set(configs["ishigami-g7"]["index_set"])
    three, gl12 = ["uniform", "tensor-product", "leverage-lower"], {"grid": "gauss-legendre", "M": 12}

    def variant(base, **changes):
        return {**configs[base], **changes}

    def explicit(keep):
        return {"family": "explicit-list", "indices": [list(alpha) for alpha in members if keep(alpha)]}

    return {
        **configs,
        # ishigami-g7 without (1, 2, 1), on a rule whose Legendre columns are orthogonal:
        # J is not lower (N = 119, |L| = 120), so J's record keeps the basis U of range(R_{L,J})
        "gapped": variant("ishigami-g7", index_set=explicit(lambda alpha: alpha != (1, 2, 1)),
                          grid=gl12, methods=["uniform", "tensor-product", "orthogonal-columns"]),
        # (1, 1, 1) and the members with |alpha - 1| = 7 (N = 37): the walk down from J adds 83 to L
        "shell": variant("ishigami-g7", index_set=explicit(lambda alpha: sum(alpha) in (3, 10)),
                         grid=gl12, methods=["uniform", "orthogonal-columns"], trials=10),
        # monomial factors on a weighted Gauss-Legendre rule, which no packaged config uses
        "monomial": variant("ishigami-g7", basis={"kind": "monomial"}, grid=gl12, methods=three, trials=10),
        # the first and last dimensions share one grid and one factor, the middle one has its own
        "mixed": variant("ishigami-g7", grid={"grid": "gauss-legendre", "M": [12, 20, 12]},
                         methods=three, trials=10),
        # 101^3 rows, above the 10^6-row dense guard; Ishigami is reduced by its terms
        "ishigami-m101": variant("ishigami-g7", grid={"grid": "gauss-legendre-uniform", "M": 101},
                                 methods=["leverage-lower"], trials=2),
        # at --threads 2 the 8000-point grid, then the trials, are shared with a forked process
        # (duffing-g9's two 4000-row pieces need no padding points); --threads 3 is capped at the CPUs
        "duffing-g7-t3": variant("duffing-g7", trials=3),
        "duffing-g9-t3": variant("duffing-g9", trials=3),
    }


def commands(names: list) -> tuple[list, list]:
    """(stdout file, OPENBLAS_NUM_THREADS or None, arguments) of each command, and the pairs
    of files that must match."""
    runs, pairs = [], []
    for name in names:
        threads = [1, 2, 3] if name == "duffing-g7-t3" else [1, 2]
        for t in threads:
            runs.append((f"{name}-t{t}.json", None, ["experiment", "--config", f"{name}.json", "--out",
                         f"{name}-t{t}.csv", "--cdf", f"{name}-cdf-t{t}.csv", "--threads", str(t)]))
        pairs += [(f"{name}{kind}-t1.csv", f"{name}{kind}-t{t}.csv")
                  for t in threads[1:] for kind in ("", "-cdf")]
    for name, method, K, seed in SOLVES:
        stem = f"{name}-solve-{method}-K{K}"
        runs += [(f"{stem}-b{blas}.json", blas, ["solve", "--config", f"{name}.json", "--method", method,
                  "--K", str(K), "--seed", str(seed)]) for blas in (1, 2)]
        pairs.append((f"{stem}-b1.json", f"{stem}-b2.json"))
    for name in EXPERIMENTS:
        runs += [(f"{name}-b{blas}.json", blas, ["experiment", "--config", f"{name}.json", "--out",
                  f"{name}-b{blas}.csv", "--cdf", f"{name}-cdf-b{blas}.csv"]) for blas in (1, 2)]
        pairs += [(f"{name}{kind}-b1.csv", f"{name}{kind}-b2.csv") for kind in ("", "-cdf")]
    for name in ORACLES:
        runs += [(f"{name}-oracle-b{blas}.json", blas, ["oracle", "--config", f"{name}.json", "--dump",
                  f"{name}-oracle-b{blas}.csv"]) for blas in (1, 2)]
        pairs.append((f"{name}-oracle-b1.csv", f"{name}-oracle-b2.csv"))
    for method in ("leverage-lower", "uniform", "tensor-product"):
        stem = f"ishigami-g7-sample-{method}"
        runs.append((f"{stem}.json", None, ["sample", "--config", "ishigami-g7.json", "--method", method,
                     "--count", "5000", "--seed", "1", "--out", f"{stem}.csv"]))
    runs.append(("gapped-indexset.json", None, ["indexset", "--config", "gapped.json"]))
    pairs += [(f"{name}-no-openblas-t1.csv", f"{name}-no-openblas-t2.csv") for name in NO_OPENBLAS]
    return runs, pairs


def no_openblas_trials(outdir: Path, configs: dict) -> None:
    """Each NO_OPENBLAS config's report at 10 trials and 1 and 2 workers, with no OpenBLAS found."""
    kronlev.factor._openblas = lambda: None
    for name in NO_OPENBLAS:
        experiment = parse_experiment({**configs[name], "trials": 10})
        for threads in (1, 2):
            path = outdir / f"{name}-no-openblas-t{threads}.csv"
            write_report_csv(run_trials(experiment, threads=threads), path)


def main(outdir: Path) -> str:
    """Write every output into ``outdir``; the first pair that differs, or ''."""
    outdir.mkdir(parents=True, exist_ok=True)
    configs = gated_configs()
    for name, config in configs.items():
        (outdir / f"{name}.json").write_text(json.dumps(config))
    # the children import the kronlev this process imported, whatever their working directory
    path = [str(Path(kronlev.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    runs, pairs = commands(list(configs))
    for stdout, blas, args in runs:
        run_env = env if blas is None else dict(env, OPENBLAS_NUM_THREADS=str(blas))
        with open(outdir / stdout, "w") as handle:
            subprocess.run([sys.executable, "-m", "kronlev.cli", *args], cwd=outdir, env=run_env,
                           stdout=handle, check=True)
    indexset = json.loads((outdir / "gapped-indexset.json").read_text())
    if (indexset["N"], indexset["monotone_lower"]) != (119, False):
        return f"gapped-indexset.json reads {indexset}, not N = 119 and monotone_lower false"
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        pool.submit(no_openblas_trials, outdir, configs).result()
    for first, second in pairs:
        if not filecmp.cmp(outdir / first, outdir / second, shallow=False):
            return f"{first} and {second} differ"
    print(f"{len(runs)} commands and the no-OpenBLAS trials; {len(pairs)} pairs match")
    return ""


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} OUTDIR")
    sys.exit(main(Path(sys.argv[1]).resolve()) or None)
