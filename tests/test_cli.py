"""End-to-end checks of the command-line surface."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckealg
from heckealg.cache import CACHE_ENV, CACHE_FILENAME, CacheStore
from heckealg.cli import _COMMANDS, _build_parser, _read_argv, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ccoeff_text(capsys):
    code, out, _ = run(
        capsys, "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[1,1]"
    )
    assert code == 0
    assert out.strip() == "3"


def test_ccoeff_json(capsys):
    code, out, _ = run(
        capsys,
        "ccoeff", "--p", "2", "--n", "2",
        "--M", "[1]", "--N", "[1]", "--L", "[1,1]",
        "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "p": 2, "n": 2, "M": [1], "N": [1], "L": [1, 1], "value": "3"
    }


def test_acoeff_and_bcoeff(capsys):
    code, out, _ = run(capsys, "acoeff", "--p", "2", "--n", "1", "--M", "[2,1]", "--N", "[1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "bcoeff", "--p", "2", "--n", "1", "--B", "[2]", "--A", "[]")
    assert code == 0 and out.strip() == "-2"


def test_mul_text_and_json(capsys):
    code, out, _ = run(capsys, "mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]")
    assert code == 0
    assert out.strip() == "1*[2] + 3*[1,1]"
    code, out, _ = run(
        capsys, "mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]", "--output", "json"
    )
    payload = json.loads(out)
    assert payload["p"] == 2 and payload["n"] == 2
    assert {"lambda": [1, 1], "coeff": "3"} in payload["terms"]
    assert all(isinstance(t["coeff"], str) for t in payload["terms"])


def test_mul_csv(capsys):
    code, out, _ = run(
        capsys, "mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]", "--output", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "lambda,coeff"
    assert lines[1] == "[2],1"
    assert lines[2] == '"[1,1]",3'


def test_omega_command(capsys):
    code, out, _ = run(capsys, "omega", "--p", "2", "--n", "1", "1*[1,1]")
    assert code == 0
    assert out.strip() == "1*[1]"


def test_decompose_command(capsys):
    code, out, _ = run(capsys, "decompose", "--p", "2", "--n", "2", "1*[2]")
    assert code == 0
    assert out.strip() == "1*T1^2 - 3*T2"
    code, out, _ = run(
        capsys, "decompose", "--p", "2", "--n", "2", "1*[2]", "--output", "json"
    )
    payload = json.loads(out)
    assert {"exponents": [0, 1], "coeff": "-3"} in payload["terms"]


def test_count_subgroups(capsys):
    code, out, _ = run(capsys, "count-subgroups", "--p", "2", "--n", "2", "--trunc", "2")
    assert code == 0 and out.strip() == "15"
    code, out, _ = run(
        capsys,
        "count-subgroups", "--p", "2", "--n", "2", "--trunc", "2",
        "--output", "json",
    )
    payload = json.loads(out)
    assert payload["total"] == 15
    assert {"type": [1], "count": 3} in payload["by_type"]


def test_table_omega_json_schema(capsys):
    code, out, _ = run(
        capsys,
        "table", "omega", "--p", "2", "--n", "1",
        "--max-order-exp", "2", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["p"] == 2 and payload["n"] == 1
    by_m = {tuple(e["M"]): e["image"] for e in payload["entries"]}
    assert by_m[(1,)] == [
        {"lambda": [], "coeff": "2"},
        {"lambda": [1], "coeff": "1"},
    ]


def test_table_c_csv(capsys):
    code, out, _ = run(
        capsys, "table", "c", "--p", "2", "--n", "1", "--max-order-exp", "2"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "M,N,L,value"
    assert "[1],[1],[2],1" in lines


def test_verify_all_passes(capsys):
    code, out, _ = run(
        capsys, "verify", "all", "--p", "2", "--n", "1", "--max-order-exp", "2"
    )
    assert code == 0
    assert "0 failed" in out
    assert "FAIL" not in out


def test_verify_json_payload(capsys):
    code, out, _ = run(
        capsys,
        "verify", "tp", "--p", "2", "--n", "1",
        "--max-order-exp", "2", "--output", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "tp" and payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_selftest(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "0 failed" in out


def test_parse_error_exit_code(capsys):
    code, _, err = run(
        capsys, "ccoeff", "--p", "2", "--n", "2", "--M", "[1", "--N", "[]", "--L", "[1]"
    )
    assert code == 2
    assert "error:" in err


def test_bad_element_exit_code(capsys):
    code, _, err = run(capsys, "mul", "--p", "2", "--n", "2", "1*[1] junk", "1*[]")
    assert code == 2


def test_nonprime_exit_code(capsys):
    code, _, err = run(
        capsys, "ccoeff", "--p", "6", "--n", "2", "--M", "[]", "--N", "[]", "--L", "[]"
    )
    assert code == 2
    assert "prime" in err


def test_a_large_prime_is_decided_at_once(capsys):
    # trial division up to sqrt(p) took about 30 s for this p
    t0 = time.process_time()
    code, out, _ = run(capsys, "mul", "--p", "1000000000000000003", "--n", "1", "1*[1]", "1*[1]")
    assert (code, out) == (0, "1*[2]\n")
    assert time.process_time() - t0 < 1


def test_a_prime_past_the_primality_limit_is_a_usage_error(capsys):
    code, out, err = run(
        capsys, "mul", "--p", "318665857834031151167463", "--n", "1", "1*[1]", "1*[1]"
    )
    assert (code, out) == (2, "")
    assert "318665857834031151167461" in err


def test_budget_exit_code(capsys):
    code, _, err = run(
        capsys, "count-subgroups", "--p", "2", "--n", "3", "--trunc", "3",
        "--budget", "50",
    )
    assert code == 3
    assert "budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "all", "--p", "2", "--n", "2", "--max-order-exp", "3", "--budget", "20"],
        ["verify", "oracle", "--p", "2", "--n", "2", "--max-order-exp", "3", "--budget", "20"],
    ],
)
def test_budget_overrun_in_sweeps(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "budget" in err


def test_budget_trips_before_the_pivot_structures_are_listed(capsys):
    # (Z/2^10)^6 has 11^6 pivot structures; the budget stops the listing early
    code, _, err = run(
        capsys, "count-subgroups", "--p", "2", "--n", "6", "--trunc", "10",
        "--budget", "10",
    )
    assert code == 3
    assert "needs at least" in err and "budget is 10" in err


# four sweeping command lines at budgets from 1 to 10^5: exit code, stdout
# digest and stderr, recorded while each oracle cell still swept on its
# own.  A memoised sweep must not move the point where a budget trips.
BUDGET_GRID = json.loads((Path(__file__).parent / "data" / "budget_grid.json").read_text())


@pytest.mark.parametrize("case", BUDGET_GRID, ids=lambda c: " ".join(c["argv"]))
def test_budget_grid_keeps_its_recorded_outputs(capsys, cold_tables, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


def test_a_census_at_the_default_budget_does_not_serve_a_smaller_one(capsys):
    argv = ["count-subgroups", "--p", "2", "--n", "2", "--trunc", "2"]
    assert run(capsys, *argv)[:2] == (0, "15\n")
    code, out, err = run(capsys, *argv, "--budget", "1")
    assert (code, out) == (3, "") and "budget is 1" in err


def test_oracle_rejects_bad_trunc_before_enumerating(capsys, monkeypatch, cold_tables):
    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before --trunc was checked")

    # cold tables: a remembered sweep would hide one made too early
    monkeypatch.setattr(sys.modules["heckealg.subgroups"], "enumerate_subgroups", refuse)
    code, _, err = run(
        capsys, "verify", "oracle", "--p", "2", "--n", "2", "--max-order-exp", "3",
        "--trunc", "0",
    )
    assert code == 2
    assert "truncation" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "c", "--p", "2", "--n", "1"],
        ["verify", "hom", "--p", "2", "--n", "1"],
        ["acoeff", "--p", "2", "--n", "1", "--M", "[1]", "--N", "[]"],
    ],
)
def test_jobs_is_not_an_option(capsys, argv):
    code, _, err = run(capsys, *argv, "--jobs", "2")
    assert code == 2
    assert "--jobs" in err


# each command accepts only the options it reads
_CELL_ARGV = {
    "ccoeff": ["--M", "[1]", "--N", "[1]", "--L", "[1,1]"],
    "mul": ["1*[1]", "1*[1]"],
    "decompose": ["1*[2]"],
    "acoeff": ["--M", "[2,1]", "--N", "[1]"],
    "bcoeff": ["--B", "[2]", "--A", "[]"],
    "omega": ["1*[1,1]"],
    "count-subgroups": [],
}
_FOREIGN_OPTIONS = [
    ("ccoeff", "--split", "last"),
    ("ccoeff", "--trunc", "2"),
    ("ccoeff", "--max-order-exp", "2"),
    ("mul", "--split", "last"),
    ("mul", "--trunc", "2"),
    ("mul", "--max-order-exp", "2"),
    ("decompose", "--split", "last"),
    ("decompose", "--trunc", "2"),
    ("decompose", "--max-order-exp", "2"),
    ("count-subgroups", "--cache", "unused-dir"),
    ("count-subgroups", "--split", "last"),
    ("count-subgroups", "--max-order-exp", "2"),
    ("acoeff", "--max-order-exp", "2"),
    ("bcoeff", "--max-order-exp", "2"),
    ("omega", "--max-order-exp", "2"),
    # truncation depth only matters to the enumeration oracle
    ("acoeff", "--trunc", "2"),
    ("bcoeff", "--trunc", "2"),
    ("omega", "--trunc", "2"),
    # the transfer has a closed form: nothing there for a budget to bound
    ("acoeff", "--budget", "5"),
    ("bcoeff", "--budget", "5"),
    ("omega", "--budget", "5"),
    # structure constants take the Pieri rule: no enumeration
    ("ccoeff", "--budget", "5"),
    # so do products and decompositions, which memoise nothing: no cache either
    ("mul", "--budget", "5"),
    ("mul", "--cache", "unused-dir"),
    ("decompose", "--budget", "5"),
    ("decompose", "--cache", "unused-dir"),
]


@pytest.mark.parametrize("command,option,value", _FOREIGN_OPTIONS)
def test_foreign_option_is_a_usage_error(capsys, command, option, value):
    argv = [command, "--p", "2", "--n", "1", *_CELL_ARGV[command], option, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert option in err
    assert out == ""


# table kinds and verify suites take only the options they read as well
_KIND_FOREIGN_OPTIONS = [
    ("table c", "--split", "last"),
    ("table c", "--trunc", "4"),
    ("verify shimura", "--split", "last"),
    ("verify shimura", "--trunc", "4"),
    ("table a", "--trunc", "4"),
    ("table b", "--trunc", "4"),
    ("table omega", "--trunc", "4"),
    ("verify hom", "--trunc", "4"),
    ("verify tp", "--trunc", "4"),
    ("verify inverse", "--trunc", "4"),
    ("table a", "--budget", "5"),
    ("table b", "--budget", "5"),
    ("table omega", "--budget", "5"),
    ("verify tp", "--budget", "5"),
    ("verify inverse", "--budget", "5"),
    ("verify hom", "--budget", "5"),
    ("verify shimura", "--budget", "5"),
    ("table c", "--budget", "5"),
    ("verify shimura", "--cache", "unused-dir"),
]


@pytest.mark.parametrize("command,option,value", _KIND_FOREIGN_OPTIONS)
def test_foreign_option_of_a_kind_is_a_usage_error(capsys, command, option, value):
    argv = [*command.split(), "--p", "2", "--n", "1", "--max-order-exp", "2", option, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert option in err
    assert out == ""


def test_large_prime_needs_no_residue_sized_memory(capsys):
    # valuations come from the Howell form, never from a table of p^r entries
    tracemalloc.start()
    try:
        code, out, _ = run(
            capsys, "ccoeff", "--p", "1009", "--n", "1", "--M", "[1]", "--N", "[1]", "--L", "[2]"
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and out.strip() == "1"
    assert peak < 1 << 20


def test_missing_required_option_returns_2(capsys):
    code, _, err = run(capsys, "ccoeff", "--p", "2", "--n", "2", "--N", "[1]", "--L", "[1]")
    assert code == 2
    assert "--M" in err


def test_help_returns_0(capsys):
    code, out, _ = run(capsys, "table", "--help")
    assert code == 0
    assert "--max-order-exp" in out


def test_mismatched_rank_element_is_usage_error(capsys):
    code, _, err = run(capsys, "mul", "--p", "2", "--n", "1", "1*[1,1]", "1*[]")
    assert code == 2


def test_cache_round_trip(tmp_path, capsys):
    cache_dir = str(tmp_path / "store")
    args = [
        "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[1,1]",
        "--cache", cache_dir,
    ]
    code, cold, _ = run(capsys, *args)
    assert code == 0
    cache_file = tmp_path / "store" / CACHE_FILENAME
    assert cache_file.exists()
    first_size = cache_file.stat().st_size
    records = [json.loads(line) for line in cache_file.read_text().splitlines()]
    assert {"version": "1", "key": "c:p=2:n=2:M=[1]:N=[1]:L=[1,1]", "value": "3"} in records
    code, warm, _ = run(capsys, *args)
    assert code == 0
    assert warm == cold
    # warm run adds nothing
    assert cache_file.stat().st_size == first_size


def test_flush_appends_only_entries_added_after_load(tmp_path):
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(
        '{"version": "1", "key": "k1", "value": "1"}\n'
        '{"version": "1", "key": "k2", "value": "2"}\n'
        '{"version": "1", "key": "k1", "value": "1"}\n'
    )
    store = CacheStore(str(tmp_path))
    memo = store.load()
    assert memo == {"k1": 1, "k2": 2}
    memo["k3"] = 3
    memo["k0"] = 0
    assert store.flush(memo) == 2
    assert store.flush(memo) == 0
    memo["k4"] = 4
    assert store.flush(memo) == 1
    assert CacheStore(str(tmp_path)).load() == {"k1": 1, "k2": 2, "k3": 3, "k0": 0, "k4": 4}
    assert len(cache_file.read_text().splitlines()) == 6


def test_flush_lines_are_json_dumps(tmp_path):
    # one write of all new lines, each byte-identical to json.dumps of its record
    store = CacheStore(str(tmp_path))
    memo = store.load()
    memo.update({'quo"te': 7, "back\\slash": -12, "caf\u00e9:\u2211": 0, "tab\tnl\n": 10**30})
    assert store.flush(memo) == 4
    want = "".join(
        json.dumps({"version": "1", "key": key, "value": str(memo[key])}) + "\n"
        for key in sorted(memo)
    )
    assert (tmp_path / CACHE_FILENAME).read_text(encoding="utf-8") == want
    assert CacheStore(str(tmp_path)).load() == memo


def test_flush_makes_missing_parent_directories(tmp_path):
    store = CacheStore(str(tmp_path / "a" / "b"))
    memo = store.load()
    memo["k"] = 1
    assert store.flush(memo) == 1
    memo["j"] = 2
    assert store.flush(memo) == 1
    assert CacheStore(str(tmp_path / "a" / "b")).load() == {"k": 1, "j": 2}


def test_cache_env_variable(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    code, out, _ = run(
        capsys, "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[2]"
    )
    assert code == 0
    assert (tmp_path / CACHE_FILENAME).exists()


def test_corrupt_cache_lines_warn_and_continue(tmp_path, capsys):
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(
        'garbage\n'
        '{"version": "1", "key": "c:p=2:n=2:M=[1]:N=[1]:L=[1,1]", "value": "3"}\n'
        '{"version": "99", "key": "x", "value": "5"}\n'
    )
    code, out, err = run(
        capsys,
        "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[1,1]",
        "--cache", str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "3"
    assert err.count("skipping bad cache line") == 2


def test_poisoned_cache_value_is_used_verbatim(tmp_path, capsys):
    # the cache is trusted storage: a planted value comes straight back,
    # which is what makes the verify suites meaningful against it
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(
        '{"version": "1", "key": "c:p=2:n=2:M=[1]:N=[1]:L=[1,1]", "value": "77"}\n'
    )
    code, out, _ = run(
        capsys,
        "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[1,1]",
        "--cache", str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "77"


def _tree(root):
    return sorted(
        (str(path.relative_to(root)), path.is_dir() or path.read_bytes())
        for path in root.rglob("*")
    )


@pytest.mark.parametrize("layout", ["file", "cache file is a directory"])
def test_unusable_cache_is_a_usage_error(tmp_path, capsys, layout):
    # a regular file fails in flush (FileExistsError), a directory in place
    # of the cache file in load (IsADirectoryError)
    if layout == "file":
        cache = tmp_path / "F"
        cache.write_text("not a directory\n")
    else:
        cache = tmp_path / "store"
        (cache / CACHE_FILENAME).mkdir(parents=True)
    before = _tree(tmp_path)
    code, out, err = run(
        capsys,
        "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[1,1]",
        "--cache", str(cache),
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cache {cache}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert _tree(tmp_path) == before


def test_poisoned_b_value_fails_verify_inverse(tmp_path, capsys):
    # b(B, A) is read off the lift of B, so a planted b value feeds no other
    # lift, but verify inverse still reads it through b_coeff
    (tmp_path / CACHE_FILENAME).write_text(
        '{"version": "1", "key": "b:p=2:n=1:B=[1]:A=[]", "value": "5"}\n'
    )
    argv = ["--p", "2", "--n", "1", "--cache", str(tmp_path)]
    code, out, _ = run(capsys, "bcoeff", "--B", "[2]", "--A", "[]", *argv)
    assert code == 0 and out.strip() == "-2"
    code, out, _ = run(capsys, "verify", "inverse", "--max-order-exp", "2", *argv)
    assert code == 4
    assert "FAIL inverse B=[1] A=[]: a.b = 7, b.a = 7, expected 0" in out


def test_split_and_trunc_flags_change_nothing(capsys):
    base = run(capsys, "acoeff", "--p", "2", "--n", "1", "--M", "[2]", "--N", "[]")
    alt = run(
        capsys,
        "acoeff", "--p", "2", "--n", "1", "--M", "[2]", "--N", "[]",
        "--split", "last",
    )
    assert base[0] == alt[0] == 0
    assert base[1] == alt[1]


# stdout of every command in every output format, recorded once and
# compared byte for byte; a case with a "cache" entry runs against a cache
# directory that holds "before" (no file if null) and must leave "after"
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", [c for c in GOLDEN if "cache" not in c], ids=lambda c: " ".join(c["argv"])
)
def test_golden_stdout(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]


@pytest.mark.parametrize(
    "case", [c for c in GOLDEN if "cache" in c], ids=lambda c: " ".join(c["argv"])
)
def test_golden_cache_lifecycle(tmp_path, capsys, case):
    # success and failed checks (exit 4) flush the cache; a usage error or
    # a budget overrun (exit 2 or 3) writes nothing
    cache_file = tmp_path / CACHE_FILENAME
    if case["cache"]["before"] is not None:
        cache_file.write_text(case["cache"]["before"])
    code, out, _ = run(capsys, *case["argv"], "--cache", str(tmp_path))
    assert (code, out) == (case["exit"], case["stdout"])
    after = cache_file.read_text() if cache_file.exists() else None
    assert after == case["cache"]["after"]


# a negative --max-order-exp or a --budget below 1 is a usage error
# wherever the option is taken; --max-order-exp 0 sweeps the trivial class
_BOUNDED_OPTIONS = [
    *((f"{command} {kind}", "--max-order-exp", "-1")
      for command, kinds in (("table", "c a b omega"),
                             ("verify", "hom tp inverse shimura oracle all"))
      for kind in kinds.split()),
    *((command, "--budget", value)
      for command in ("verify oracle", "verify all", "count-subgroups", "selftest")
      for value in ("0", "-5")),
]


@pytest.mark.parametrize("command,option,value", _BOUNDED_OPTIONS)
def test_out_of_range_bound_is_a_usage_error(capsys, command, option, value):
    argv = command.split()
    if command != "selftest":
        argv += ["--p", "2", "--n", "1"]
    code, out, err = run(capsys, *argv, option, value)
    assert code == 2
    assert option in err
    assert out == ""


@pytest.mark.parametrize(
    "argv",
    [["table", "c", "--p", "2", "--n", "1"], ["verify", "tp", "--p", "2", "--n", "1"]],
)
def test_max_order_exp_zero_is_valid(capsys, argv):
    code, out, _ = run(capsys, *argv, "--max-order-exp", "0")
    assert code == 0
    assert out


# stdout, stderr and exit code of help and usage-error command lines at
# COLUMNS=80; argparse words its messages differently in other versions
SURFACE = json.loads((Path(__file__).parent / "data" / "cli_surface_golden.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11")
@pytest.mark.parametrize("case", SURFACE, ids=lambda c: " ".join(c["argv"]) or "(none)")
def test_help_and_usage_errors(capsys, monkeypatch, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *case["argv"]) == (case["exit"], case["stdout"], case["stderr"])


# a well-formed argv of every command, table kind and verify suite
_CANONICAL = [
    *([command, "--p", "2", "--n", "2", *cell] for command, cell in _CELL_ARGV.items()),
    *([command, kind, "--p", "2", "--n", "2", "--max-order-exp", "1"]
      for command in ("table", "verify") for kind in _COMMANDS[command].kinds),
    ["selftest"],
]


def test_canonical_argv_cover_every_command():
    assert {argv[0] for argv in _CANONICAL} == set(_COMMANDS)


@pytest.mark.parametrize("argv", _CANONICAL, ids=" ".join)
def test_canonical_argv_build_no_parser(capsys, monkeypatch, argv):
    built = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(capsys, *argv)[0] == 0
    assert built == []


# spellings the direct reader leaves to argparse
@pytest.mark.parametrize(
    "argv",
    [
        ["mul", "--p=2", "--n", "2", "1*[1]", "1*[1]"],
        ["table", "omega", "--p", "2", "--n", "1", "--max-order-exp", "2", "--out", "text"],
    ],
)
def test_only_the_named_parser_gets_arguments(capsys, monkeypatch, argv):
    calls = []
    real = argparse.ArgumentParser.add_argument

    def counting(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting)
    assert _read_argv(argv) is None
    assert run(capsys, *argv)[0] == 0
    assert 0 < len(calls) <= 20


def _argparse_namespace(argv):
    """What argparse makes of argv, or None where it exits (help or error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _build_parser(argv).parse_args(argv)
        except SystemExit:
            return None


def _read_as_argparse_does(argv):
    read = _read_argv(argv)
    parsed = _argparse_namespace(argv)
    if parsed is None:
        assert read is None
    elif read is not None:
        assert vars(read) == vars(parsed)
    return read


_ODD_TOKENS = [
    "-h", "--help", "--", "--p=2", "--out", "--max", "--p", "--n", "--output",
    "--budget", "--cache", "--split", "--trunc", "--max-order-exp", "--M", "--B",
    "-1", "", "x", "yaml", "last", "json", "0", "2", "1*[1]", "[1]", "c", "all",
]


# options appended before the perturbation: taken or foreign, good or bad values
_OPTIONAL = [
    ("--output", "json"), ("--output", "csv"), ("--output", "yaml"),
    ("--split", "last"), ("--split", "middle"), ("--trunc", "2"), ("--trunc", "x"),
    ("--budget", "5"), ("--budget", "0"), ("--cache", "store"),
    ("--max-order-exp", "2"), ("--max-order-exp", "-1"),
]


@st.composite
def _perturbed_argv(draw):
    """A canonical argv with up to two options appended, then up to two
    perturbations: a token inserted, deleted or replaced, the value after
    an option replaced, or two tokens repeated or moved elsewhere.  They
    mostly fall after the command and kind (the surface golden file
    covers odd names)."""
    argv = list(draw(st.sampled_from(_CANONICAL)))
    for pair in draw(st.lists(st.sampled_from(_OPTIONAL), max_size=2, unique=True)):
        argv += pair
    head = draw(st.sampled_from((0, 1, 2, 2, 2)))
    for _ in range(draw(st.integers(0, 2))):
        start = min(head, len(argv))
        i, j = sorted(draw(st.lists(st.integers(start, len(argv)), min_size=2, max_size=2)))
        how = draw(st.sampled_from(("insert", "delete", "replace", "value", "repeat", "move")))
        odd = draw(st.sampled_from(_ODD_TOKENS))
        flags = [k for k, token in enumerate(argv[:-1]) if token.startswith("--")]
        if how == "insert":
            argv.insert(i, odd)
        elif how == "value" and flags:
            argv[draw(st.sampled_from(flags)) + 1] = odd
        elif how == "delete" and i < len(argv):
            del argv[i]
        elif how == "replace" and i < len(argv):
            argv[i] = odd
        elif how == "repeat":
            argv[j:j] = argv[i : i + 2]
        elif how == "move":
            argv[j:j] = argv[i : i + 2]
            del argv[i : i + 2]
    return argv


_MUL = ["mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]"]


@settings(derandomize=True, max_examples=600, deadline=None)
@given(_perturbed_argv())
@example(_MUL[:-1])  # a missing positional
@example(_MUL[:-1] + ["--output", "json"])
@example(["decompose", "--p", "2", "--n", "2"])
@example(_MUL + ["1*[1]"])  # an extra one
@example(_MUL + ["-h"])
@example(["mul", "--"] + _MUL[1:])
@example(["mul", "--p=2"] + _MUL[3:])
@example(_MUL + ["--out", "json"])  # an abbreviation
@example(_MUL + ["--p", "3"])  # a repeated option
@example(["mul", "--p", "-1"] + _MUL[3:])  # a negative number
@example(_MUL[:-1] + [""])  # an empty string
@example(["mul", "--p", "x"] + _MUL[3:])  # a bad int
@example(_MUL + ["--output", "yaml"])  # a bad choice
@example(["ccoeff", "--p", "2", "--n", "2", *_CELL_ARGV["ccoeff"], "--cache", "-h"])
def test_reader_agrees_with_argparse(argv):
    _read_as_argparse_does(argv)


@pytest.mark.parametrize(
    "argv",
    [
        *_CANONICAL,
        *([*case["argv"], "--cache", "store"] if "cache" in case else case["argv"]
          for case in GOLDEN),
    ],
    ids=" ".join,
)
def test_reader_reads_every_argv_argparse_accepts(argv):
    if _argparse_namespace(argv) is not None:
        assert _read_as_argparse_does(argv) is not None


def test_main_reads_sys_argv(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["heckealg", "mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]"])
    assert main() == 0
    assert capsys.readouterr().out == "1*[2] + 3*[1,1]\n"


# every functools cache bound in a loaded heckealg module, by name, with its size
_CACHE_SIZES = """
import json, sys
import heckealg.cli
sizes = {}
for name, mod in list(sys.modules.items()):
    if name == "heckealg" or name.startswith("heckealg."):
        for value in vars(mod).values():
            if callable(getattr(value, "cache_info", None)):
                sizes[value.__module__ + "." + value.__qualname__] = value.cache_info().currsize
print(json.dumps(sizes))
"""


def test_importing_the_cli_computes_nothing():
    src = str(Path(heckealg.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    out = subprocess.run(
        [sys.executable, "-c", _CACHE_SIZES], env=env, capture_output=True, text=True, check=True
    ).stdout
    sizes = json.loads(out)
    assert sizes and all(size == 0 for size in sizes.values()), sizes


# the modules a fresh interpreter adds by importing one module, as a sorted list
_ADDED_BY_IMPORT = """
import importlib, json, sys
before = set(sys.modules)
importlib.import_module(sys.argv[1])
print(json.dumps(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("module", ["heckealg.cli", "heckealg"])
def test_start_up_loads_no_dataclasses_inspect_or_typing(module):
    # -S: a site hook (a .pth file) may import typing before the package does
    src = str(Path(heckealg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    added = json.loads(
        subprocess.run(
            [sys.executable, "-S", "-c", _ADDED_BY_IMPORT, module],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
    )
    assert module in added
    assert not {"dataclasses", "inspect", "typing"} & set(added), added
