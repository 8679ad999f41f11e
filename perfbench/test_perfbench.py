"""Self-checks of the benchmark; run with

    python3 -m pytest perfbench/test_perfbench.py

from the root of a checkout (about a minute).  The repository's own test
suite does not collect this file.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import heckealg.cli  # noqa: E402,F401

import run as bench  # noqa: E402
from harness import (  # noqa: E402
    Runner, _identity_holds, _parse_poly, cold_caches, op_key, run_in_child, run_op,
)
from spans import SPANS, Tracer, install  # noqa: E402
from workloads import WORKLOADS, make_ops  # noqa: E402


def _runner(tmp_path, ops, mode="none"):
    return Runner(ops, str(tmp_path), mode)


# ops that between them reach every span
SMALL_OPS = [
    ["table", "omega", "--p", "2", "--n", "1", "--max-order-exp", "3"],
    ["bcoeff", "--p", "2", "--n", "2", "--B", "[2,1]", "--A", "[1]"],
    ["mul", "--p", "2", "--n", "2", "1*[1] + 2*[1,1]", "3*[2]"],
    ["decompose", "--p", "2", "--n", "2", "1*[2,1] - 4*[1]"],
    ["verify", "oracle", "--p", "2", "--n", "1", "--max-order-exp", "2"],
]


def test_counts_repeat_exactly_across_traced_runs(tmp_path):
    first = bench._pass_layers(_runner(tmp_path, SMALL_OPS, "fresh").run_pass(traced=True))
    second = bench._pass_layers(_runner(tmp_path, SMALL_OPS, "fresh").run_pass(traced=True))
    assert first[0] == second[0]
    assert not first[2], f"spans absent: {first[2]}"
    names = {name for name, unit in bench.per_layer_metrics() if unit == "count"}
    assert {"modmat.howell.calls", "subgroups.enumerate.yielded", "omega.transversal.cosets",
            "hecke.hall_table.sweeps", "cache.lines_appended", "subgroups.intersect.calls",
            "subgroups.m_count.calls", "hecke.multiply.calls"} <= names
    for name in ("modmat.howell.calls", "subgroups.enumerate.yielded", "omega.transversal.cosets",
                 "hecke.hall_table.sweeps", "subgroups.m_count.calls", "cache.lines_appended"):
        assert first[0][name] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_counts_repeat_for_one_seed(tmp_path, workload):
    if workload == "cache_replay":
        runner, _, _ = bench.setup(workload, 3, str(tmp_path))
        again = runner
    else:
        mode = "fresh" if workload == "transfer" else "none"
        runner = _runner(tmp_path / "a", make_ops(workload, 3), mode)
        again = _runner(tmp_path / "b", make_ops(workload, 3), mode)
    a = bench._pass_layers(runner.run_pass(traced=True))[0]
    b = bench._pass_layers(again.run_pass(traced=True))[0]
    assert a == b


def test_self_times_add_up_to_main():
    def traced_op():
        tracer = Tracer()
        install(tracer)
        import heckealg.cli as cli
        import io
        import time

        sys.stdout = io.StringIO()
        t0 = time.perf_counter_ns()
        cli.main(SMALL_OPS[2])
        total = time.perf_counter_ns() - t0
        return [sum(tracer.self_ns.values()), total]

    spans_ns, total_ns = run_in_child(traced_op)[0]
    assert 0 < spans_ns <= total_ns
    assert spans_ns > 0.95 * total_ns


def test_wrappers_reach_copied_bindings():
    def check():
        tracer = Tracer()
        install(tracer)
        # the package's own "omega" is the function, so look the modules up
        modmat, omega, subgroups = (sys.modules[f"heckealg.{m}"]
                                    for m in ("modmat", "omega", "subgroups"))
        return [omega._howell_rows is subgroups._howell_rows is modmat._howell_rows,
                omega._howell_rows.__name__ == "wrapper"]

    assert run_in_child(check)[0] == [True, True]


def test_absent_span_is_reported_and_op_still_runs():
    def check():
        tracer = Tracer()
        install(tracer, SPANS + (("hecke.gone", "heckealg.hecke", "_no_such_function"),))
        import io

        import heckealg.cli as cli

        sys.stdout = io.StringIO()
        rc = cli.main(SMALL_OPS[3])
        return [tracer.absent, rc, tracer.calls["hecke.decompose"]]

    assert run_in_child(check)[0] == [["hecke.gone"], 0, 1]


def test_driver_stays_cold(tmp_path):
    _runner(tmp_path, SMALL_OPS).run_pass(traced=False)
    sizes = cold_caches()
    assert "heckealg.subgroups._type_of_rows" in sizes
    assert all(size == 0 for size in sizes.values())


def test_runaway_op_is_killed():
    import time

    result, wall, (status, _) = run_in_child(time.sleep, 30, ceiling_s=1)
    assert result is None and os.WIFSIGNALED(status) and wall < 10


def test_wrong_exit_code_is_reported():
    res = run_op(["acoeff", "--p", "4", "--n", "1", "--M", "[1]", "--N", "[]"])
    assert res.rc == 2


def test_identities_hold_and_catch_a_wrong_output():
    decompose = ["decompose", "--p", "2", "--n", "2", "1*[2] + 3*[1]"]
    assert _identity_holds(decompose, "1*T1^2 - 3*T2 + 3*T1\n")
    assert not _identity_holds(decompose, "1*T1^2 - 2*T2 + 3*T1\n")
    assert _parse_poly("-2*T1*T2^3 + 5", 2).coeffs == {(1, 3): -2, (0, 0): 5}
    mul = ["mul", "--p", "2", "--n", "2", "1*[1]", "2*[1,1]"]
    assert _identity_holds(mul, run_op(mul, keep_stdout=True).stdout)
    assert not _identity_holds(mul, "0\n")
    omega = ["omega", "--p", "2", "--n", "1", "1*[1,1] + 2*[2]"]
    assert _identity_holds(omega, run_op(omega, keep_stdout=True).stdout)


def test_ops_depend_only_on_seed():
    for workload in WORKLOADS:
        assert make_ops(workload, 5) == make_ops(workload, 5)
        assert make_ops(workload, 5) != make_ops(workload, 6)
        keys = [op_key(op) for op in make_ops(workload, 5)]
        assert all("--cache" not in k for k in keys)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in bench.per_layer_metrics()]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in bench.per_layer_metrics()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
