"""Artifact manifest: run a fixed list of seeded CLI commands and print the
sha256 of every file they write and of every stdout, one ``sha256  name``
line each.

Run it on two trees and compare the outputs to check that a change keeps
every artifact byte-identical:

    PYTHONPATH=src python tests/artifacts.py OUT_DIR > manifest.txt

The commands run in ``OUT_DIR`` with relative paths, so the ``# command=``
lines of the artifacts do not depend on where the directory lies.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
from pathlib import Path

import numpy as np

from homogenlab.cli import run
from homogenlab.experiments import gaussian_matrix, write_matrix_csv
from homogenlab.network import ActivationSpec, LayerSpec, NetworkSpec, serialize

#: Commands that train nets; the rest run in well under a second together.
FITTING = ("recovery-experiment", "impossibility-experiment")

_Y = "0.3,-1.2,0.7,0.05,-0.4,1.1"
_ON_A = f"--in a.csv --y {_Y}"

#: (name, command line); a command's stdout is hashed as ``<name>.stdout``.
COMMANDS = [
    *(
        (f"recovery-{seed}", f"recovery-experiment --n 6 --m 4 --s 1 --seed {seed} "
         f"--save-net rec-{seed}.json --save-curves rec-{seed}-curves.csv --out rec-{seed}.csv")
        for seed in (31, 552, 977)
    ),
    ("recovery-48", "recovery-experiment --n 6 --m 5 --s 2 --steps 300 --seed 48 --save-net rec-48.json --out rec-48.csv"),
    *(
        (f"impossibility-{seed}",
         f"impossibility-experiment --m 2 --n 4 --widths 4,8,16,32,64,128 --seed {seed} --out imp-{seed}.csv")
        for seed in (31, 552, 977)
    ),
    ("impossibility-7", "impossibility-experiment --m 2 --n 4 --widths 4,8 --restarts 1 --seed 7 --out imp-7.csv"),
    ("rip", "rip --in a.csv --order 3 --out rip.csv"),
    ("brute-force", f"brute-force {_ON_A} --s 3"),
    ("ista", f"ista {_ON_A} --lam 0.1 --iters 30 --out ista.csv"),
    ("ista-stdout", f"ista {_ON_A} --lam 0.1 --iters 30"),
    ("lista-30", f"lista {_ON_A} --lam 0.1 --depth 30 --out lista-30.csv"),
    ("lista-30-stdout", f"lista {_ON_A} --lam 0.1 --depth 30"),
    ("lista-0", f"lista {_ON_A} --lam 0.1 --depth 0 --out lista-0.csv"),
    ("solve-qcbp", f"solve --variant qcbp {_ON_A} --eta 0.05 --out solve-qcbp.csv"),
    ("solve-bpdn", f"solve --variant bpdn {_ON_A} --lam 0.1 --out solve-bpdn.csv"),
    ("solve-lasso", f"solve --variant lasso {_ON_A} --tau 1 --out solve-lasso.csv"),
    ("solve-dantzig", f"solve --variant dantzig {_ON_A} --eta 0.05 --out solve-dantzig.csv"),
    ("homogenize", "homogenize --in g.json --out f.json"),
    ("probe-g", "probe-homogeneity --in g.json --seed 3 --points 200 --out probe-g.csv"),
    ("probe-f", "probe-homogeneity --in f.json --seed 3 --points 200 --out probe-f.csv"),
    ("probe-f-scales", "probe-homogeneity --in f.json --seed 3 --scales 0.5,2 --out probe-f-scales.csv"),
    ("convert-activation", "convert-activation --in f.json --alpha 2 --beta 0.5 --out converted.json"),
    ("pad", "pad --in f.json --depth 4 --out padded.json"),
    ("robustness", "robustness --net f.json --in b.csv --x 1,0,-1,0.5,0,0,0,2,0,0,0,0 "
     "--levels 0.01,0.1,1 --trials 50 --seed 9 --out robustness.csv"),
    ("conditioning", "conditioning --in a.csv --seed 4 --sparsity 2 --pairs 200 --out conditioning.csv"),
    ("conditioning-l2", "conditioning --in a.csv --seed 4 --sparsity 2 --pairs 200 --norm-ii l2 "
     "--out conditioning-l2.csv"),
    ("conditioning-nuclear", "conditioning --gaussian-m 4 --gaussian-n 9 --seed 3 --sparsity 2 --pairs 200 "
     "--norm-ii nuclear --out conditioning-nuclear.csv"),
    ("lowrank-rip", "lowrank-rip --m 12 --n 4 --rank 1 --samples 200 --seed 5 --out lowrank-rip.csv"),
    ("lowrank-rip-in", "lowrank-rip --in a.csv --rank 1 --samples 200 --seed 5 --out lowrank-rip-in.csv"),
    ("lower-bound-in", "lower-bound --m 1 --in eye3.csv"),
    ("lower-bound-identity", "lower-bound --m 2 --identity-n 4"),
    ("rip-gaussian", "rip --gaussian-m 4 --gaussian-n 6 --seed 552 --order 2 "
     "--save-matrix rip-gaussian-matrix.csv --out rip-gaussian.csv"),
    ("uat-negative-n", "uat-negative --n 6"),
    ("uat-negative-w", "uat-negative --w 0.5,-1,2"),
    ("uat-negative-w-out", "uat-negative --w 0.5,-1,2 --out uat-negative.csv"),
    ("counterexample-half", "counterexample --y2 0.5"),
    ("counterexample-one", "counterexample --y2 1"),
]


def write_inputs(out_dir: Path) -> None:
    """Seeded inputs: 6 x 12 and 8 x 12 Gaussian matrices, the 3 x 3
    identity and a biased 8-64-8 relu net."""
    write_matrix_csv(out_dir / "a.csv", gaussian_matrix(np.random.default_rng([11, 0]), 6, 12), "input", {})
    write_matrix_csv(out_dir / "b.csv", gaussian_matrix(np.random.default_rng([12, 0]), 8, 12), "input", {})
    write_matrix_csv(out_dir / "eye3.csv", np.eye(3), "input", {})
    rng = np.random.default_rng(5)
    layers = (
        LayerSpec(rng.standard_normal((64, 8)), rng.standard_normal(64)),
        LayerSpec(rng.standard_normal((8, 64)), rng.standard_normal(8)),
    )
    (out_dir / "g.json").write_text(serialize(NetworkSpec(layers, ActivationSpec.relu(), unbiased=False)))


def main(out_dir, commands=COMMANDS) -> dict[str, str]:
    """Write the inputs into ``out_dir``, run ``commands`` there, print
    ``sha256  name`` for every stdout and file, and return the same as a
    name -> digest dict. A command that exits non-zero stops the run."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_inputs(out_dir)
    digests = {}
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, argv in commands:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = run(argv.split())
            if code != 0:
                raise SystemExit(f"{name} exited {code}")
            digests[f"{name}.stdout"] = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
    finally:
        os.chdir(cwd)
    for path in sorted(out_dir.iterdir()):
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    for name, digest in digests.items():
        print(f"{digest}  {name}")
    return digests


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/artifacts.py OUT_DIR")
    main(sys.argv[1])
