"""Self-tests for the benchmark's helpers.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import importlib
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from hostspeed import NOMINAL_REP_S, HostSpeed  # noqa: E402
from spans import MODULES, Tracer, self_times  # noqa: E402
from stats import percentile  # noqa: E402


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(100), 90) == 89.0
    assert percentile(range(99), 90) is None
    assert percentile(range(1000), 99) == 989.0
    assert percentile(range(999), 99) is None
    assert percentile([], 90) is None


def test_interleaved_reference_is_counted_as_stolen_and_disarmed():
    handler = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    with speed.interleaved(0.01):
        begin = time.perf_counter()
        while time.perf_counter() - begin < 0.2:
            pass
    assert speed.reps >= 2
    assert speed.stolen == speed.seconds > 0.0
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert speed.scale(speed.rep_s) == pytest.approx(NOMINAL_REP_S[1])


def _self(spans):
    sid, parent, start, end, thread = (list(col) for col in zip(*spans))
    return dict(zip(sid, self_times(sid, parent, start, end, thread)))


def test_self_time_subtracts_nested_children():
    # (sid, parent, start, end, thread), deliberately not in id order
    got = _self([
        (3, 1, 2.0, 3.0, 0),
        (0, -1, 0.0, 10.0, 0),
        (2, 0, 5.0, 6.0, 0),
        (1, 0, 1.0, 4.0, 0),
    ])
    assert got == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_takes_union_of_overlapping_pool_children():
    got = _self([
        (0, -1, 0.0, 10.0, 0),   # command
        (1, 0, 1.0, 9.0, 0),     # experiment on the main thread
        (2, 0, 2.0, 5.0, 1),     # pool spans parented to the command
        (3, 0, 3.0, 8.0, 2),
        (4, 0, 9.5, 11.0, 1),    # clipped to the command's interval
    ])
    assert got[0] == pytest.approx(10.0 - 8.0 - 0.5)
    assert got[1] == pytest.approx(8.0)


def _attributes():
    for name in MODULES:
        importlib.import_module(name)
    return {
        (name, attr): value
        for name in MODULES
        for attr, value in vars(importlib.import_module(name)).items()
    }


def test_uninstall_restores_every_module_attribute():
    from homogenlab import network

    before = _attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert network.evaluate is not before[("homogenlab.network", "evaluate")]
            assert network.evaluate.__wrapped__ is before[("homogenlab.network", "evaluate")]
            with tracer.command(0):
                network.evaluate(network.unbiased_relu_net([[[1.0]], [[2.0]]]), [3.0])
            raise RuntimeError("leave the context by an exception")
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    names = [tracer.names[i] for i in tracer.arrays()["name"]]
    assert "network.evaluate" in names and "numerics.as_vector" in names


def test_spans_hang_off_their_caller_and_command():
    from homogenlab import network

    tracer = Tracer()
    with tracer.installed(), tracer.command(7):
        network.evaluate(network.unbiased_relu_net([[[1.0]], [[2.0]]]), [3.0])
    cols = tracer.arrays()
    by_name = {tracer.names[n]: i for i, n in enumerate(cols["name"])}
    command, evaluate, as_vector = (
        by_name["bench.command"], by_name["network.evaluate"], by_name["numerics.as_vector"]
    )
    assert cols["parent"][evaluate] == cols["sid"][command]
    assert cols["parent"][as_vector] == cols["sid"][evaluate]
    assert set(cols["cmd"].tolist()) == {7}


def _last_json(trace: int) -> dict:
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "certify", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_reports_exactly_the_declared_metrics(trace, key):
    spec = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    result = _last_json(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 5 * (1 + trace)  # one pass, or one untraced + one traced
    declared = {m["name"]: m["unit"] for m in spec[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
