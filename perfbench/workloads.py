"""Seeded `langevin-kl run` configs, one per benchmark workload.

The benchmark seed picks each workload's `[run] seed` (the chain noise).
Nothing else varies with the seed, so the oracle CSVs of a workload are the
same for every seed, and can be checked against one stored reference.
"""

from __future__ import annotations

import numpy as np


# Why each workload was chosen, and the layers it exposes, is recorded in
# BENCHMARK.json.
WORKLOADS = ("strong-d2", "huber-weak-grid")


def _seeds(seed: int, name: str) -> np.random.Generator:
    # one independent stream per (benchmark seed, workload)
    return np.random.default_rng([seed, sum(name.encode())])


def config_text(name: str, seed: int) -> str:
    """The INI config of workload `name` for benchmark seed `seed`."""
    rng = _seeds(seed, name)
    run_seed = int(rng.integers(0, 2**31 - 1))
    if name == "strong-d2":
        body = f"""\
[run]
regime = strong
epsilon = 0.75
n_chains = 20000
seed = {run_seed}
record_every = 100
out_dir = out

[potential]
kind = quadratic-diagonal
diag = 1.0, 2.0

[init]
kind = gaussian_1_over_m

[oracles]
gaussian = true
"""
    elif name == "huber-weak-grid":
        body = f"""\
[run]
regime = weak
epsilon = 0.15
n_chains = 200
seed = {run_seed}
record_every = 100
out_dir = out

[potential]
kind = huber
delta = 1.0

[init]
kind = gaussian
mean = 0.0
cov_diag = 4.0

[oracles]
grid = true

[weak]
c1 = estimate
c2 = estimate
h_prime = estimate
kl0 = estimate
"""
    else:
        raise KeyError(name)
    return body
