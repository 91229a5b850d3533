"""homogenlab benchmark: four CLI workloads driven in-process through
``homogenlab.cli.run``.

    python3 perfbench/run.py --workload {recovery,solve,certify,impossibility} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One caller sends commands in a closed loop:
each command starts when the previous one returns.  A pass is the
workload's command list once; passes repeat while they fit in ``--seconds``
(at least one).  Outputs are checked after timing stops.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
several fresh-interpreter set-ups: import homogenlab, write the inputs),
``wall_s`` (median pass time) and ``peak_rss_mb``.  Both times are scaled to
a nominal host speed by a reference timed next to them (hostspeed.py),
because the shared host's own speed drifts more than the bounds allow.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics from the traced ones, plus ``trace.overhead_frac``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with its
unit and the environment.  See NOTES.md for what each workload and metric
means.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("recovery", "solve", "certify", "impossibility")
SETUP_REPS = 7
#: Host-speed reference in untraced passes: one repetition every
#: ``REF_PERIOD_S`` during the pass.  For workloads on the worker pool, the
#: reference runs on as many threads as the pool, ``REF_MIN_S`` before the
#: pass and after each command ``REF_SHARE`` of its time.
REF_PERIOD_S = 0.1
REF_MIN_S = 0.03
REF_SHARE = 0.1
ENV_VARS = ("HOMOGENLAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def setup_probe(args) -> None:
    """One set-up in a fresh interpreter: import homogenlab, write the inputs.
    Prints its time and, as the host-speed reference, the part of it spent
    importing numpy."""
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (first, to time it on its own)

    t1 = time.perf_counter()
    import homogenlab  # noqa: F401  (the import is what is timed)
    from workloads import WORKLOADS

    WORKLOADS[args.workload].prepare(args.seed, Path(args.setup_probe))
    print(repr(time.perf_counter() - t0), repr(t1 - t0))


def measure_setup(args, work: Path) -> tuple[float, float]:
    """Median of ``SETUP_REPS`` set-ups, each in a fresh interpreter and
    scaled by its own numpy import time; also the unscaled median."""
    from hostspeed import NOMINAL_IMPORT_S

    times, scaled = [], []
    for rep in range(SETUP_REPS):
        target = work / f"setup{rep}"
        target.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "1", "--setup-probe", str(target)],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        total, numpy_import = (float(v) for v in proc.stdout.split()[-2:])
        times.append(total)
        scaled.append(total * NOMINAL_IMPORT_S / numpy_import)
    return statistics.median(scaled), statistics.median(times)


@contextlib.contextmanager
def solve_capture(captured: list):
    """Pass-through on ``solvers.solve`` that keeps (problem, report); times nothing."""
    from homogenlab import solvers

    inner = solvers.solve

    def solve(problem, *args, **kwargs):
        report = inner(problem, *args, **kwargs)
        captured.append((problem, report))
        return report

    solvers.solve = solve
    try:
        yield
    finally:
        solvers.solve = inner


def run_commands(commands, tracer=None, first_command: int = 0, speed=None, after=False):
    """Run CLI commands one after another; one CommandResult each.  With a
    ``speed`` reference, the time its interleaved samples took is taken out
    of each command's time, and with ``after`` it is also sampled after each
    command, outside the timing."""
    from homogenlab import cli
    from workloads import CommandResult

    results = []
    captured: list = []
    with solve_capture(captured):
        for k, argv in enumerate(commands):
            stdout, stderr = io.StringIO(), io.StringIO()
            before = len(captured)
            span = tracer.command(first_command + k) if tracer else contextlib.nullcontext()
            stolen = speed.stolen if speed else 0.0
            t0 = time.perf_counter()
            with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(argv)
            seconds = time.perf_counter() - t0 - ((speed.stolen if speed else 0.0) - stolen)
            results.append(CommandResult(argv, code, stdout.getvalue(), stderr.getvalue(),
                                         seconds, captured[before:]))
            if after:
                speed.sample(REF_SHARE * seconds)
    return results


@dataclass
class Pass:
    out: Path
    results: list
    speed: object = None  # HostSpeed sampled during an untraced pass

    @property
    def wall(self) -> float:
        """Seconds spent in the pass's commands."""
        return sum(r.seconds for r in self.results)

    @property
    def scaled(self) -> float:
        """``wall`` at the nominal host speed."""
        return self.speed.scale(self.wall)


def timed_passes(workload, work: Path, seconds: float, tracer=None):
    """Untraced passes, or with a tracer untraced/traced pairs, while they
    fit in ``seconds``.  Returns the untraced and the traced passes."""
    from hostspeed import HostSpeed

    plain, traced = [], []

    def timed(tracer=None, first_command=0):
        out = work / f"pass{len(plain) + len(traced)}"
        out.mkdir()
        if tracer is None:
            if workload.pool:
                speed = HostSpeed(int(os.environ["HOMOGENLAB_THREADS"]))
                speed.sample(REF_MIN_S)
                return Pass(out, run_commands(workload.commands(out), speed=speed, after=True), speed)
            speed = HostSpeed()
            with speed.interleaved(REF_PERIOD_S):
                return Pass(out, run_commands(workload.commands(out), speed=speed), speed)
        with tracer.installed():
            return Pass(out, run_commands(workload.commands(out), tracer, first_command))

    begin = time.perf_counter()
    commands = 0
    while True:
        start = time.perf_counter()
        plain.append(timed())
        if tracer is not None:
            traced.append(timed(tracer, commands))
            commands += len(traced[-1].results)
        now = time.perf_counter()
        if now - begin + (now - start) > seconds:
            return plain, traced


def environment(args, found: dict) -> dict:
    import numpy as np

    blas = None
    with contextlib.suppress(Exception):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": nproc(),
        "found": found,
        "HOMOGENLAB_THREADS": os.environ["HOMOGENLAB_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "git_commit": commit,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "homogenlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/homogenlab under {ROOT}; run from a repository checkout")
    sys.path.insert(0, str(ROOT / "src"))
    found = {name: os.environ.get(name) for name in ENV_VARS}
    os.environ["HOMOGENLAB_THREADS"] = str(nproc())
    if args.setup_probe:
        setup_probe(args)
        return 0

    work = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    setup_s, setup_raw_s = measure_setup(args, work)

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = work / "inputs"
    inputs.mkdir()
    workload.prepare(args.seed, inputs)
    tracer = notes = None
    if args.trace:
        from layers import make_hooks
        from spans import Tracer

        tracer, notes = Tracer(), {}
        tracer.hooks = make_hooks(tracer, notes)
    plain, traced = timed_passes(workload, work, args.seconds, tracer)
    walls = [p.wall for p in plain]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Outcome figures come from untraced passes; traced passes are checked too.
    check = workload.check([(p.out, p.results) for p in plain])
    if traced:
        check.absorb(workload.check([(p.out, p.results) for p in traced]))
    figures = dict(check.quality, fail_frac=(check.failed / check.attempted, "ratio"))
    if args.trace:
        from layers import SpanTable, per_layer

        overhead = statistics.median(p.wall for p in traced) / statistics.median(walls) - 1.0
        table = SpanTable(tracer.names, tracer.arrays())
        metrics = per_layer(table, notes, len(traced), sum(len(p.results) for p in traced),
                            overhead, figures)
        tracer.save(work / "spans.npz")
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (statistics.median(p.scaled for p in plain), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }

    env = environment(args, found)
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "environment": env,
        "passes": walls,
        "passes_scaled": [p.scaled for p in plain],
        "reference_rep_s": [p.speed.rep_s for p in plain],
        "setup_raw_s": setup_raw_s,
        "traced_passes": [p.wall for p in traced],
        "attempted": check.attempted,
        "failed": check.failed,
        "failures": check.failures,
        "peak_rss_mb": peak_rss_mb,
        "metrics": reported,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    print(f"environment {json.dumps(env)}")
    print(f"passes {len(walls)} untraced, {len(traced)} traced")
    print(f"unscaled: wall {statistics.median(walls):.6g} s, set-up {setup_raw_s:.6g} s; "
          f"reference rep {statistics.median(p.speed.rep_s for p in plain) * 1e3:.4g} ms")
    for kind, count in sorted(check.failures.items()):
        print(f"failed {kind}: {count}, e.g. {check.examples[kind]}")
    print(f"operations: {check.attempted} attempted, {check.failed} failed")
    shown = dict(figures, **metrics)
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": check.correct,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
