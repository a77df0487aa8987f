"""Seeded results do not depend on the BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

# digests of seeded T at bin counts whose draws span two or three chunks,
# then CLI output whose last digits went through bin sums, all in one
# Python process
SCRIPT = """
import hashlib
from statres.binning import SourceConfig, bin_probabilities
from statres.cli import main
from statres.models import (MODEL_KINDS, NoiseModel, RngState,
                            sample_observations)
from statres.psf import PsfModel

psf = PsfModel.gaussian(0.0849, background=0.5)
for n, reps in ((100, 20000), (333, 9000), (1000, 2500)):
    probs = bin_probabilities(psf, SourceConfig(x0=0.5, d=0.1), n)
    for kind in MODEL_KINDS:
        stats = sample_observations(NoiseModel(kind), probs, 1000.0, 1,
                                    reps, RngState(seed=1))
        print(n, kind, hashlib.sha256(stats.tobytes()).hexdigest())
commands = [["power", "--model", kind, "--n", "200000", "--t", "1000",
             "--d", "0.05"] for kind in MODEL_KINDS]
commands += [["resolve", "--method", "finite-n", "--model", "hg",
              "--n", "100000", "--t", "1000", "--psf", "gaussian:0.05"],
             ["check", "--clt", "--seed", "1"],
             ["resolve", "--method", "mc", "--seed", "1"]]
for argv in commands:
    if main(argv) != 0:
        raise SystemExit(f"{argv} failed")
"""


def _start(threads):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=SRC)
    return subprocess.Popen([sys.executable, "-c", SCRIPT], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def test_seeded_output_does_not_depend_on_the_blas_thread_count():
    runs = [_start(1), _start(2)]
    outputs = [run.communicate(timeout=300) for run in runs]
    for run, (_, err) in zip(runs, outputs):
        assert run.returncode == 0, err
    one, two = (out for out, _ in outputs)
    assert one == two
