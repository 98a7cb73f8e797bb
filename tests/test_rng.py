"""rbns.rng draws numpy's default_rng(seed).standard_normal bit for bit.

A run's initial perturbation comes from rbns.rng, so a draw that differs
from numpy's in one bit changes every trajectory and every reference.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import rbns
from rbns.rng import standard_normals

# the bench's seeds 0-7, 300 others, and seeds of 2, 3, 4, 6 and 7 32-bit
# words (more than the pool of 4 takes the late-entropy mixing)
SEEDS = [*range(8), *range(1000, 1300), 2**32 + 5, 2**63 + 11, 2**64 + 3,
         2**96 + 7, 2**127 + 1, 3**101, 2**200 - 1]


def test_standard_normals_match_numpy_bit_for_bit():
    # 64 draws of each seed plus 20,000 of seed 0: 39,848 fast-path draws,
    # 577 wedge tests (304 accepted) and 9 tail tries (8 accepted)
    for seed, n in [*((s, 64) for s in SEEDS), (0, 20000)]:
        expected = np.random.default_rng(seed).standard_normal(n).tolist()
        assert standard_normals(seed, n) == expected, seed


def test_simulate_leaves_numpy_random_unloaded(tmp_path):
    # a fresh interpreter: the test session itself has imported numpy.random
    config = tmp_path / "tiny.cfg"
    config.write_text("[physical]\nra = 2000\n\n[grid]\nn1 = 16\nn2 = 17\n\n"
                      "[time]\nt_end = 0.01\n\n[initial]\ntemp_perturbation = 0.01\nseed = 5\n")
    script = ("import sys\nfrom rbns.cli import main\n"
              "code = main(['simulate', '--config', sys.argv[1], '--output', sys.argv[2]])\n"
              "print(code, sorted(m for m in sys.modules if m.startswith('numpy.random')))\n")
    src = str(Path(rbns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run([sys.executable, "-c", script, str(config), str(tmp_path / "run")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"
