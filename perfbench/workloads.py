"""The benchmark's workloads: configs derived from the packaged ones, and commands.

Each workload is a group of ``kronlev`` commands that the benchmark repeats.
The seed argument reaches the program only as the ``--seed`` of each
command, so one seed always gives the same inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict             # the config the commands read
    commands: tuple          # (kind, kronlev arguments) per command of a group
    sample_count: int        # K of every sketch or sample
    threads: int = 1


def subspace_size(config: dict) -> int:
    """N of a total-degree index set: binomial(order + D, D)."""
    return math.comb(int(config["index_set"]["order"]) + config["dimension"], config["dimension"])


def _packaged(root: Path, name: str) -> dict:
    with open(root / "src" / "kronlev" / "configs" / f"{name}.json") as handle:
        return json.load(handle)


def _duffing_g9_t2(root: Path, seed: int) -> Workload:
    config = _packaged(root, "duffing-g9")
    # 40 of the packaged 100 trials per method, so that two repeats of the
    # 10 s RK4 set-up and the trial phase fit in one run
    config["trials"] = 40
    k = int(round(config["sample_multiplier"] * subspace_size(config)))
    return Workload(
        "duffing-g9-t2",
        config,
        (("experiment", ["--threads", "2", "--seed", str(seed)]),),
        k,
        threads=2,
    )


def _ishigami_g7_m101(root: Path, seed: int) -> Workload:
    config = _packaged(root, "ishigami-g7")
    # 101^3 rows: just above the 10^6-row dense guard.  One leverage-lower
    # trial already streams the whole grid once.
    config["grid"]["M"] = 101
    config["methods"] = ["leverage-lower"]
    config["trials"] = 1
    k = int(round(config["sample_multiplier"] * subspace_size(config)))
    return Workload(
        "ishigami-g7-m101",
        config,
        (
            ("experiment", ["--threads", "1", "--seed", str(seed)]),
            ("solve", ["--method", "leverage-lower", "--K", str(k), "--seed", str(seed)]),
        ),
        k,
    )


def _sample_td7(root: Path, seed: int) -> Workload:
    base = _packaged(root, "ishigami-g7")
    config = {
        "dimension": 7,
        "grid": {"grid": "gauss-legendre", "M": 8},
        "basis": base["basis"],
        "index_set": {"dimension": 7, "family": "wlp-ball", "p": 1.0, "order": 4},
    }
    k = 20000
    return Workload(
        "sample-td7",
        config,
        (("sample", ["--method", "leverage-lower", "--count", str(k), "--seed", str(seed)]),),
        k,
    )


WORKLOADS = {
    "duffing-g9-t2": _duffing_g9_t2,
    "ishigami-g7-m101": _ishigami_g7_m101,
    "sample-td7": _sample_td7,
}


def prepare(name: str, root: Path, seed: int) -> Workload:
    return WORKLOADS[name](root, seed)
