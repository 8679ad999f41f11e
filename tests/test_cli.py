"""End-to-end checks of the command-line surface."""

import json
import tracemalloc
from pathlib import Path

import pytest

from heckealg.cache import CACHE_ENV, CACHE_FILENAME, CacheStore
from heckealg.cli import main


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
        ["table", "c", "--p", "2", "--n", "2", "--max-order-exp", "3", "--budget", "5"],
        ["verify", "hom", "--p", "2", "--n", "1", "--max-order-exp", "3", "--budget", "20"],
    ],
)
def test_budget_overrun_in_sweeps(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 3
    assert "budget" in err


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
    # the transfer has a closed form: nothing there for a budget to bound
    ("acoeff", "--budget", "5"),
    ("bcoeff", "--budget", "5"),
    ("omega", "--budget", "5"),
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
    ("table a", "--budget", "5"),
    ("table b", "--budget", "5"),
    ("table omega", "--budget", "5"),
    ("verify tp", "--budget", "5"),
    ("verify inverse", "--budget", "5"),
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
    args = ["mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]", "--cache", cache_dir]
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
        "mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]", "--cache", str(tmp_path),
    )
    assert code == 0
    assert out.strip() == "1*[2] + 3*[1,1]"
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


def test_split_and_trunc_flags_change_nothing(capsys):
    base = run(capsys, "acoeff", "--p", "2", "--n", "1", "--M", "[2]", "--N", "[]")
    alt = run(
        capsys,
        "acoeff", "--p", "2", "--n", "1", "--M", "[2]", "--N", "[]",
        "--split", "last", "--trunc", "4",
    )
    assert base[0] == alt[0] == 0
    assert base[1] == alt[1]


# stdout of the table and single-coefficient commands in every output
# format, recorded once and compared byte for byte
GOLDEN = json.loads((Path(__file__).parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize("case", GOLDEN, ids=lambda c: " ".join(c["argv"]))
def test_golden_stdout(capsys, case):
    code, out, _ = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
