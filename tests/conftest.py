"""Test-wide settings: Hypothesis runs a fixed, bounded set of examples, so
property tests are deterministic and cheap.  Also the reference particle
noise and the W1 assignment oracle that several test modules compare with,
and the fresh-interpreter probe of the start-up tests."""

import ast
import itertools
import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
from hypothesis import settings

from rankflow.randomness import STREAM_PARTICLES, _to_uniform, ndtri

settings.register_profile("rankflow", derandomize=True, deadline=None, max_examples=40)
settings.load_profile("rankflow")


def particle_words(seed, n: int, steps: int) -> np.ndarray:
    """Words 0 .. steps-1 of particles 0 .. n-1 of a run keyed `seed`, shaped
    (n, steps): block c of particle i is `np.random.Philox(key=[seed,
    STREAM_PARTICLES], counter=[c 2^32 + i, 0, 0, 0]).random_raw(4)`, one
    generator per (particle, block)."""
    key = np.array([seed, STREAM_PARTICLES], dtype=np.uint64)
    blocks = [[np.random.Philox(key=key, counter=np.array([(c << 32) + i, 0, 0, 0], dtype=np.uint64))
               .random_raw(4) for c in range(-(-steps // 4))] for i in range(n)]
    return np.array(blocks, dtype=np.uint64).reshape(n, -1)[:, :steps]


def particle_increments(seed, n: int, T: float, steps: int) -> np.ndarray:
    """The (n, steps) Brownian increments of those particles over [0, T]:
    sqrt(T/steps) times the normal of each word."""
    return np.sqrt(T / steps) * ndtri(_to_uniform(particle_words(seed, n, steps)))


@lru_cache(maxsize=None)
def _permutations(n: int) -> np.ndarray:
    """Every permutation of range(n), one per row, in itertools order."""
    return np.array(list(itertools.permutations(range(n))), dtype=np.intp).reshape(-1, n)


def assignment_oracle(xs: np.ndarray, ys: np.ndarray) -> float:
    """min over permutations p of mean |xs - ys[p]|: W1 between two equal-size
    point clouds by enumerating every assignment, all at once."""
    return float(np.abs(xs - ys[_permutations(xs.size)]).mean(axis=1).min())


def fresh_interpreter(statement: str, expression: str):
    """The value of `expression` after `statement` runs in a fresh
    interpreter with this checkout's `src` first on its path and `sys`
    imported, read back from its repr."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = f"import sys\n{statement}\nprint(repr({expression}))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return ast.literal_eval(out.stdout.strip())
