"""End-to-end checks of the command-line surface."""

import argparse
import builtins
import contextlib
import errno
import hashlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from conftest import delsarte
from hypothesis import example, given, settings
from hypothesis import strategies as st

import heckealg
from heckealg.cache import CACHE_FILENAME, CacheStore, _make_directories
from heckealg.cli import _COMMANDS, _build_parser, _parse, _read_argv, main
from heckealg.errors import BudgetExceededError, VerificationError
from heckealg.partitions import partitions_between
from heckealg.subgroups import DEFAULT_BUDGET, _hall_census, enumerate_subgroups


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_acoeff_and_bcoeff(capsys):
    code, out, _ = run(capsys, "acoeff", "--p", "2", "--n", "1", "--M", "[2,1]", "--N", "[1]")
    assert code == 0 and out.strip() == "2"
    code, out, _ = run(capsys, "bcoeff", "--p", "2", "--n", "1", "--B", "[2]", "--A", "[]")
    assert code == 0 and out.strip() == "-2"


def test_coefficient_commands_call_the_module_bindings(capsys, monkeypatch):
    # a wrapper bound over the module attribute (as a trace installs one)
    # sees every call of the *coeff commands and of their tables
    cli = sys.modules["heckealg.cli"]
    calls = []
    for name in ("a_coeff", "b_coeff", "c_coeff"):
        real = getattr(cli, name)
        monkeypatch.setattr(
            cli, name, lambda *a, _name=name, _real=real: calls.append(_name) or _real(*a)
        )
    assert run(capsys, "acoeff", "--p", "2", "--n", "1", "--M", "[2,1]", "--N", "[1]")[:2] == (
        0, "2\n")
    assert calls == ["a_coeff"]
    code, out, _ = run(capsys, "table", "b", "--p", "2", "--n", "1", "--max-order-exp", "2")
    assert code == 0
    assert calls[1:] == ["b_coeff"] * (len(out.splitlines()) - 1)
    assert len(calls) > 2
    del calls[:]
    assert run(capsys, "ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]",
               "--L", "[1,1]")[:2] == (0, "3\n")
    assert calls == ["c_coeff"]


def test_table_a_reads_the_images_not_the_cells(capsys, monkeypatch):
    # row M of `table a` is the image omega(M): no cell goes through a_coeff
    argv = ("table", "a", "--p", "3", "--n", "2", "--max-order-exp", "5", "--output", "json")
    code, want, _ = run(capsys, *argv)
    assert code == 0 and json.loads(want)["rows"]

    def refuse(*args):
        raise AssertionError(f"a_coeff{args[:2]}")

    monkeypatch.setattr(sys.modules["heckealg.cli"], "a_coeff", refuse)
    assert run(capsys, *argv) == (0, want, "")


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


def test_count_subgroups_beyond_enumeration(capsys):
    # enumeration would need 1,036,488,922,562 candidates; Delsarte's formula needs none
    want = sum(delsarte((2, 2, 2), mu, 1009) for mu in partitions_between((), (2, 2, 2)))
    assert want == 3113583892299
    t0 = time.process_time()
    assert run(capsys, "count-subgroups", "--p", "1009", "--n", "3", "--trunc", "2") == (
        0, f"{want}\n", "")
    assert time.process_time() - t0 < 1


def test_count_subgroups_builds_the_gaussian_rows_once(capsys, monkeypatch):
    # rebuilt for each type, the rows make (Z/2)^300 about 100 times slower
    calls = []
    real = sys.modules["heckealg.hall"]._gaussian_table

    def counting(p, n):
        calls.append((p, n))
        return real(p, n)

    monkeypatch.setattr(sys.modules["heckealg.hall"], "_gaussian_table", counting)
    argv = ("count-subgroups", "--p", "2", "--n", "6", "--trunc", "2", "--output", "json")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["by_type"]) == 28
    assert calls == [(2, 6)]


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


_ONE_TRANSFER, _ONE_ALGEBRA, _NO_CONTEXT = (1, 2), (0, 1), (0, 0)


@pytest.mark.parametrize("argv,omegas_heckes", [
    *((f"verify {suite} --p 2 --n 1 --max-order-exp 2", _ONE_TRANSFER)
      for suite in ("all", "oracle", "shimura")),
    ("mul --p 2 --n 2 1*[1] 1*[1]", _ONE_ALGEBRA),
    ("decompose --p 2 --n 2 1*[2]", _ONE_ALGEBRA),
    ("ccoeff --p 2 --n 2 --M [1] --N [1] --L [1,1]", _ONE_ALGEBRA),
    ("table c --p 2 --n 2 --max-order-exp 2", _ONE_ALGEBRA),
    ("acoeff --p 2 --n 1 --M [2,1] --N [1]", _ONE_TRANSFER),
    ("bcoeff --p 2 --n 1 --B [2] --A []", _ONE_TRANSFER),
    ("omega --p 2 --n 1 1*[1,1]", _ONE_TRANSFER),
    *((f"table {kind} --p 2 --n 1 --max-order-exp 2", _ONE_TRANSFER)
      for kind in ("a", "b", "omega")),
    ("selftest", _ONE_TRANSFER),
    ("count-subgroups --p 2 --n 2 --trunc 2", _NO_CONTEXT),
])
def test_a_verify_run_builds_its_contexts_once(capsys, monkeypatch, argv, omegas_heckes):
    # a run computes in one context, built once from its options: a
    # command with --split and every verify suite in one transfer
    # H_(n+1) -> H_n and its two algebras, any other command with --n in
    # the rank-n algebra only, and count-subgroups in its own Ambient
    from heckealg.hecke import HeckeContext
    from heckealg.omega import OmegaContext

    built = []
    for cls in (OmegaContext, HeckeContext):
        def counting(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built.append(_cls)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    code, _, _ = run(capsys, *argv.split())
    assert code == 0
    assert (built.count(OmegaContext), built.count(HeckeContext)) == omegas_heckes


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


def test_a_json_run_builds_no_csv_cell(capsys, monkeypatch):
    # only the --output format is built: JSON formats no class as a csv
    # cell (cache.coeff_key binds format_partition apart, so memo keys do
    # not count here)
    cli = sys.modules["heckealg.cli"]
    calls = []
    real = cli.format_partition
    monkeypatch.setattr(cli, "format_partition", lambda lam: calls.append(lam) or real(lam))
    for argv in (["table", "c", "--p", "3", "--n", "2", "--max-order-exp", "4"],
                 ["table", "omega", "--p", "2", "--n", "2", "--max-order-exp", "3"]):
        code, out, _ = run(capsys, *argv, "--output", "json")
        assert code == 0 and json.loads(out)
    assert calls == []
    assert run(capsys, "table", "c", "--p", "3", "--n", "2", "--output", "csv")[0] == 0
    assert calls


# stdout of what the goldens under tests/data lack: an empty rank-1
# element, flat single-record JSON of a and b, integer counts of several
# types and a one-class omega table
_RENDERED = [
    (["mul", "--p", "2", "--n", "1", "0", "1*[1]"], {
        "text": "0\n", "json": '{"p": 2, "n": 1, "terms": []}\n', "csv": "lambda,coeff\n"}),
    (["table", "omega", "--p", "2", "--n", "1", "--max-order-exp", "0"], {
        "text": "M,lambda,coeff\n[],[],1\n",
        "json": '{"p": 2, "n": 1, "entries": '
                '[{"M": [], "image": [{"lambda": [], "coeff": "1"}]}]}\n',
        "csv": "M,lambda,coeff\n[],[],1\n"}),
    (["acoeff", "--p", "2", "--n", "1", "--M", "[2,1]", "--N", "[1]"], {
        "json": '{"p": 2, "n": 1, "M": [2, 1], "N": [1], "value": "2"}\n'}),
    (["bcoeff", "--p", "2", "--n", "1", "--B", "[2]", "--A", "[]"], {
        "json": '{"p": 2, "n": 1, "B": [2], "A": [], "value": "-2"}\n'}),
    (["count-subgroups", "--p", "3", "--n", "2", "--trunc", "2"], {
        "json": '{"p": 3, "n": 2, "r": 2, "total": 23, "by_type": ['
                '{"type": [], "count": 1}, {"type": [1], "count": 4}, '
                '{"type": [1, 1], "count": 1}, {"type": [2], "count": 12}, '
                '{"type": [2, 1], "count": 4}, {"type": [2, 2], "count": 1}]}\n'}),
]


@pytest.mark.parametrize(
    "argv,output,stdout",
    [(argv, output, stdout) for argv, by_output in _RENDERED
     for output, stdout in by_output.items()],
    ids=lambda v: " ".join(v) if isinstance(v, list) else None,
)
def test_renderer_corner_cases(capsys, argv, output, stdout):
    assert run(capsys, *argv, "--output", output)[:2] == (0, stdout)


# verify hom at p = 2, n = 1, --max-order-exp 1, its last check forced to fail
_HOM_CHECKS = [
    ("hom M1=[] M2=[]", True, "ok; omega(M1*M2) = 1*[]; omega(M1)*omega(M2) = 1*[]"),
    ("hom M1=[] M2=[1]", True,
     "ok; omega(M1*M2) = 2*[] + 1*[1]; omega(M1)*omega(M2) = 2*[] + 1*[1]"),
    ("hom M1=[1] M2=[]", True,
     "ok; omega(M1*M2) = 2*[] + 1*[1]; omega(M1)*omega(M2) = 2*[] + 1*[1]"),
    ("hom M1=[1] M2=[1]", False, "MISMATCH; omega(M1*M2) = 4*[] + 4*[1] + 1*[2]; "
     "omega(M1)*omega(M2) = 8*[] + 8*[1] + 2*[2]"),
]
_HOM_FAILED = {
    "json": '{"suite": "hom", "p": 2, "n": 1, "passed": false, "checks": ['
            + ", ".join(f'{{"name": "{name}", "passed": {str(ok).lower()}, '
                        f'"detail": "{name}: {detail}"}}'
                        for name, ok, detail in _HOM_CHECKS)
            + "]}\n",
    "csv": "name,passed,detail\n" + "".join(
        f"{name},{str(ok).lower()},{name}: {detail}\n" for name, ok, detail in _HOM_CHECKS),
    "text": "".join(f"ok   {name}\n" if ok else f"FAIL {name}: {name}: {detail}\n"
                    for name, ok, detail in _HOM_CHECKS) + "4 checks, 1 failed\n",
}


@pytest.mark.parametrize("output", list(_HOM_FAILED))
def test_a_failed_check_renders_false_and_exits_4(capsys, monkeypatch, output):
    import heckealg.verify as verify

    real = verify.multiply

    def forced(x, y, ctx):
        # doubles omega([1])*omega([1]), the one product downstairs of two
        # factors that both hold [1]
        z = real(x, y, ctx)
        return z.scaled(2) if ctx.n == 1 and (1,) in x.terms and (1,) in y.terms else z

    monkeypatch.setattr(verify, "multiply", forced)
    argv = ["verify", "hom", "--p", "2", "--n", "1", "--max-order-exp", "1", "--output", output]
    assert run(capsys, *argv)[:2] == (4, _HOM_FAILED[output])


def test_a_failed_decomposition_is_a_failed_generators_check(capsys, monkeypatch):
    # shimura turns a VerificationError of the solver into a failed check:
    # [1] is both the class L=[1] and the aggregate r=1
    import heckealg.verify as verify

    real = verify.decompose_in_generators

    def forced(x, ctx):
        if x.terms == {(1,): 1}:
            raise VerificationError("image of [1] does not lead with 1*[1]: 2*[1]")
        return real(x, ctx)

    monkeypatch.setattr(verify, "decompose_in_generators", forced)
    argv = ["verify", "shimura", "--p", "2", "--n", "1", "--max-order-exp", "1"]
    assert run(capsys, *argv) == (4, (
        "ok   generators L=[]\n"
        "FAIL generators L=[1]: image of [1] does not lead with 1*[1]: 2*[1]\n"
        "ok   generators aggregate r=0\n"
        "FAIL generators aggregate r=1: image of [1] does not lead with 1*[1]: 2*[1]\n"
        "4 checks, 2 failed\n"), "")


def test_a_failed_recursion_alone_fails_the_aggregate_check(capsys, monkeypatch):
    # omega(T~(p)) matches its weighted sum, but the recursion form does not.
    # With omega(T~(1)) reused from r = 0, the recursion follows from the two
    # weighted sums unless T~(p) downstairs changes between its calls: the
    # second, the recursion's, is doubled
    import heckealg.verify as verify

    real, calls = verify.t_aggregate, Counter()

    def forced(r, ctx):
        calls[r, ctx.n] += 1
        x = real(r, ctx)
        return x.scaled(2) if (r, ctx.n, calls[r, ctx.n]) == (1, 1, 2) else x

    monkeypatch.setattr(verify, "t_aggregate", forced)
    argv = ["verify", "tp", "--p", "2", "--n", "1", "--max-order-exp", "1"]
    assert run(capsys, *argv) == (4, (
        "ok   aggregate r=0\n"
        "FAIL aggregate r=1: aggregate r=1: MISMATCH; omega(T~(p^1)) = 2*[] + 1*[1]; "
        "weighted sum = 2*[] + 1*[1]; recursion lhs = 2*[1], rhs = 1*[1]\n"
        "2 checks, 1 failed\n"), "")


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


def test_a_digit_int_cannot_read_is_a_parse_error(capsys):
    # "²" passes str.isdigit; int's own message must not reach the user
    code, out, err = run(capsys, "mul", "--p", "3", "--n", "2", "1*[\u00b2]", "1*[1]")
    assert (code, out, err) == (2, "", "error: bad partition part '\u00b2' in '[\u00b2]'\n")


def test_nonprime_exit_code(capsys):
    code, _, err = run(
        capsys, "ccoeff", "--p", "6", "--n", "2", "--M", "[]", "--N", "[]", "--L", "[]"
    )
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("command,classes", [
    ("ccoeff", ["--n", "2", "--M", "[1", "--N", "[1]", "--L", "[1,1]"]),
    ("acoeff", ["--n", "2", "--M", "[1", "--N", "[1]"]),
    ("bcoeff", ["--n", "2", "--B", "[1", "--A", "[]"]),
    # either context checks the prime before the rank and the truncation
    ("acoeff", ["--n", "0", "--M", "[1]", "--N", "[]"]),
    ("bcoeff", ["--n", "0", "--B", "[1]", "--A", "[]"]),
    ("omega", ["--n", "0", "1*[1]"]),
    ("table a", ["--n", "0"]),
    ("verify oracle", ["--n", "2", "--trunc", "0"]),
])
def test_p_is_checked_before_the_class_literals(capsys, command, classes):
    # the run's context is built from --p and --n before the command reads
    # its class literals, so of two faults the prime is reported
    argv = [*command.split(), "--p", "4", *classes]
    assert run(capsys, *argv) == (2, "", "error: p must be prime, got 4\n")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--p", "2", "--n", "1", "1*[1500]"),
        ("mul", "--p", "2", "--n", "1", "1*[1]", "1*[1500]"),
        ("mul", "--p", "2", "--n", "1", "1*[1500]", "1*[1]"),
    ],
    ids=["decompose", "mul x T1^1500", "mul T1^1500 x"],
)
def test_products_and_decompositions_have_no_depth_limit(capsys, argv):
    # one Pieri step per generator factor: 1500 factors once recursed past
    # Python's recursion limit, so mul x y and mul y x disagreed
    want = "1*T1^1500\n" if argv[0] == "decompose" else "1*[1501]\n"
    assert run(capsys, *argv) == (0, want, "")


needs_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int/str conversion limit"
)
# a(M, N) with 4,506 digits, past CPython's default limit of 4,300
_BIG_A = ("acoeff", "--p", "1009", "--n", "1", "--M", "[1500]", "--N", "[]")


@pytest.fixture(scope="module")
def big_a():
    from heckealg.omega import OmegaContext, a_coeff

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(a_coeff((1500,), (), OmegaContext(1009, 1)))
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
@pytest.mark.parametrize("output", ["text", "json", "csv"])
def test_exact_values_print_at_any_size(capsys, big_a, output):
    assert len(big_a) == 4506
    want = {
        "text": big_a + "\n",
        "json": json.dumps({"p": 1009, "n": 1, "M": [1500], "N": [], "value": big_a}) + "\n",
        "csv": f"M,N,value\n[1500],[],{big_a}\n",
    }[output]
    assert run(capsys, *_BIG_A, "--output", output) == (0, want, "")


# b(B, A) = -1009^1486, 4,464 digits after its sign: only b is stored
_BIG_B = ("bcoeff", "--p", "1009", "--n", "100", "--B", "[15]", "--A", "[]")


@pytest.fixture(scope="module")
def big_b():
    from heckealg.omega import OmegaContext, b_coeff

    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(b_coeff((15,), (), OmegaContext(1009, 100)))
    finally:
        sys.set_int_max_str_digits(limit)


@needs_digit_limit
def test_the_cache_keeps_exact_values_at_any_size(tmp_path, capsys, monkeypatch, big_b):
    assert len(big_b) == 4465
    argv = (*_BIG_B, "--cache", str(tmp_path))
    assert run(capsys, *argv) == (0, big_b + "\n", "")

    def refuse(*args):
        raise AssertionError("the value should come from the cache")

    monkeypatch.setattr(sys.modules["heckealg.omega"], "lift_section", refuse)
    assert run(capsys, *argv) == (0, big_b + "\n", "")


@needs_digit_limit
@pytest.mark.parametrize(
    "argv",
    [_BIG_A, ("mul", "--p", "6", "--n", "1", "1*[1]", "1*[1]"), ("mul", "--bogus"), ("--help",)],
    ids=["ok", "error", "usage", "help"],
)
def test_main_restores_the_int_digit_limit(capsys, argv):
    limit = sys.get_int_max_str_digits()
    run(capsys, *argv)
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize(
    "argv",
    [("acoeff", "--p", "2", "--n", "1", "--M", "[2,1]", "--N", "[1]", "--output", "json"),
     ("mul", "--p", "6", "--n", "1", "1*[1]", "1*[1]"), ("mul", "--bogus")],
    ids=["ok", "error", "usage"],
)
def test_main_runs_the_same_without_the_digit_limit_setter(capsys, monkeypatch, argv):
    # Python 3.10.0-3.10.6, which requires-python admits, have no setter
    want = run(capsys, *argv)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run(capsys, *argv) == want


def test_budget_exit_code(capsys):
    # Delsarte's formula counts without enumerating: nothing for a budget to bound
    for value in ("50", "0", "-5"):
        code, out, err = run(
            capsys, "count-subgroups", "--p", "2", "--n", "3", "--trunc", "3",
            "--budget", value,
        )
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: --budget {value}" in err


@pytest.mark.parametrize(("n", "trunc", "price"), [
    ("40", "40", 344023067946675764677184000),  # about 1e23 types
    ("1000", "1", 1002001000),  # 1001 types, from q-Pascal rows of 1000 binomials
    ("1", "1000", 1002001),  # 1001 types, each a product over 1000 columns
    ("10000000", "10000000", 4 * 10**21),  # priced without C(2 * 10^7, 10^7)
])
def test_count_subgroups_refuses_an_ambient_over_the_default_budget(capsys, n, trunc, price):
    t0 = time.process_time()
    code, out, err = run(capsys, "count-subgroups", "--p", "2", "--n", n, "--trunc", trunc)
    assert time.process_time() - t0 < 1
    assert (code, out) == (3, "")
    assert err == (f"error: counting the subgroups of (Z/2^{trunc})^{n} by type needs at "
                   f"least {price} steps, budget is {DEFAULT_BUDGET}\n")


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


def test_budget_trips_before_the_pivot_structures_are_listed():
    # (Z/2^10)^6 has 11^6 pivot structures; the budget stops the listing early
    t0 = time.process_time()
    with pytest.raises(BudgetExceededError) as exc:
        next(enumerate_subgroups((10,) * 6, 2, budget=10))
    assert time.process_time() - t0 < 1
    assert "needs at least" in str(exc.value) and "budget is 10" in str(exc.value)


# three sweeping command lines at budgets from 1 to 10^5: exit code, stdout
# digest and stderr, recorded while each oracle cell still swept on its
# own.  A memoised sweep must not move the point where a budget trips.
# count-subgroups, which counts by Delsarte's formula, refuses each budget.
BUDGET_GRID = json.loads((Path(__file__).parent / "data" / "budget_grid.json").read_text())


@pytest.mark.parametrize("case", BUDGET_GRID, ids=lambda c: " ".join(c["argv"]))
def test_budget_grid_keeps_its_recorded_outputs(capsys, cold_tables, case):
    code, out, err = run(capsys, *case["argv"])
    assert (code, err) == (case["exit"], case["stderr"])
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]


def test_a_census_at_the_default_budget_does_not_serve_a_smaller_one(cold_tables):
    # the Hall table is the one table that sweeps a group whole
    assert sum(_hall_census((2, 2), 2, DEFAULT_BUDGET).values()) == 15
    with pytest.raises(BudgetExceededError, match="budget is 1"):
        _hall_census((2, 2), 2, 1)


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
    # structure constants take the Pieri rule: no enumeration, and no
    # value of c is stored
    ("ccoeff", "--budget", "5"),
    ("ccoeff", "--cache", "unused-dir"),
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
    ("verify hom", "--split", "last"),
    ("verify tp", "--split", "last"),
    ("verify inverse", "--split", "last"),
    ("verify hom", "--cache", "unused-dir"),
    ("verify tp", "--cache", "unused-dir"),
    ("table a", "--budget", "5"),
    ("table b", "--budget", "5"),
    ("table omega", "--budget", "5"),
    ("verify tp", "--budget", "5"),
    ("verify inverse", "--budget", "5"),
    ("verify hom", "--budget", "5"),
    ("verify shimura", "--budget", "5"),
    ("table c", "--budget", "5"),
    ("table c", "--cache", "unused-dir"),
    ("verify shimura", "--cache", "unused-dir"),
]


@pytest.mark.parametrize("command,option,value", _KIND_FOREIGN_OPTIONS)
def test_foreign_option_of_a_kind_is_a_usage_error(capsys, command, option, value):
    argv = [*command.split(), "--p", "2", "--n", "1", "--max-order-exp", "2", option, value]
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert option in err
    assert out == ""


@pytest.mark.parametrize("command", ["ccoeff", "table c", "mul"])
def test_a_foreign_option_is_reported_against_its_command(tmp_path, capsys, command):
    # the command's parser names itself and its own usage, and the
    # directory a refused --cache names is never made
    store = tmp_path / "store"
    rest = ["--max-order-exp", "2"] if command == "table c" else _CELL_ARGV[command]
    argv = [*command.split(), "--p", "2", "--n", "2", *rest, "--cache", str(store)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: heckealg {command} [-h] --p P --n N ")
    assert err.endswith(f"heckealg {command}: error: unrecognized arguments: --cache {store}\n")
    assert not store.exists()


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


# a transfer coefficient and the key older stores kept it under; an
# inverse coefficient, its cache key, and a store that plants 77 for it
_ACOEFF = ("acoeff", "--p", "2", "--n", "1", "--M", "[2,1]", "--N", "[1]")
_A_KEY = "a:p=2:n=1:M=[2,1]:N=[1]"
_BCOEFF = ("bcoeff", "--p", "2", "--n", "1", "--B", "[1]", "--A", "[]")
_B_KEY = "b:p=2:n=1:B=[1]:A=[]"
_POISONED = f'garbage\n{{"version": "1", "key": "{_B_KEY}", "value": "77"}}\n'


@pytest.mark.parametrize("spelling", ["absolute", "trailing slash", "relative", "raced"])
def test_cache_round_trip(tmp_path, capsys, monkeypatch, spelling):
    monkeypatch.chdir(tmp_path)
    cache_dir = {"trailing slash": "store/", "relative": "store"}.get(
        spelling, str(tmp_path / "store")
    )
    if spelling == "raced":
        # another process makes the directory between the check and mkdir
        real_mkdir = os.mkdir

        def raced_mkdir(path, *args, **kwargs):
            real_mkdir(path, *args, **kwargs)
            raise FileExistsError(errno.EEXIST, os.strerror(errno.EEXIST), path)

        monkeypatch.setattr(os, "mkdir", raced_mkdir)
    args = [*_BCOEFF, "--cache", cache_dir]
    code, cold, _ = run(capsys, *args)
    assert code == 0
    cache_file = tmp_path / "store" / CACHE_FILENAME
    assert cache_file.exists()
    first_size = cache_file.stat().st_size
    records = [json.loads(line) for line in cache_file.read_text().splitlines()]
    assert {"version": "1", "key": _B_KEY, "value": "-2"} in records
    code, warm, _ = run(capsys, *args)
    assert code == 0
    assert warm == cold
    # warm run adds nothing
    assert cache_file.stat().st_size == first_size


def test_flush_appends_only_entries_added_after_load(tmp_path):
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(
        '{"version": "1", "key": "b:1", "value": "1"}\n'
        '{"version": "1", "key": "b:2", "value": "2"}\n'
        '{"version": "1", "key": "b:1", "value": "1"}\n'
    )
    store = CacheStore(str(tmp_path))
    memo = store.load()
    assert memo == {"b:1": 1, "b:2": 2}
    memo["b:3"] = 3
    memo["b:0"] = 0
    assert store.flush(memo) == 2
    assert store.flush(memo) == 0
    memo["b:4"] = 4
    assert store.flush(memo) == 1
    assert CacheStore(str(tmp_path)).load() == {"b:1": 1, "b:2": 2, "b:3": 3, "b:0": 0, "b:4": 4}
    assert len(cache_file.read_text().splitlines()) == 6


def test_flush_lines_are_json_dumps(tmp_path):
    # one write of all new lines, each byte-identical to json.dumps of its record
    store = CacheStore(str(tmp_path))
    memo = store.load()
    memo.update(
        {'b:quo"te': 7, "b:back\\slash": -12, "b:caf\u00e9:\u2211": 0, "b:tab\tnl\n": 10**30}
    )
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
    memo["b:k"] = 1
    assert store.flush(memo) == 1
    memo["b:j"] = 2
    assert store.flush(memo) == 1
    assert CacheStore(str(tmp_path / "a" / "b")).load() == {"b:k": 1, "b:j": 2}


@pytest.mark.parametrize(
    "layout", ["parent missing", "directory missing", "no cache file", "file to append to"]
)
def test_cached_command_makes_no_failing_file_system_call(tmp_path, capsys, monkeypatch, layout):
    # CPython builds the OSError of a failed call with libc's strerror, which
    # pages about 0.45 MB of libc into a run that otherwise never touches it
    cache = tmp_path / "parent" / "store"
    before = f'{{"version": "1", "key": "{_B_KEY}", "value": "-2"}}\n'
    if layout != "parent missing":
        cache.parent.mkdir()
    if layout in ("no cache file", "file to append to"):
        cache.mkdir()
    if layout == "file to append to":
        (cache / CACHE_FILENAME).write_text(before)
    raised = []

    def recording(module, name):
        call = getattr(module, name)

        def recorded(*args, **kwargs):
            try:
                return call(*args, **kwargs)
            except OSError as exc:
                raised.append((name, args[:1], exc))
                raise

        monkeypatch.setattr(module, name, recorded)

    for module, name in [
        (os, "stat"), (os, "lstat"), (os, "mkdir"), (os, "open"), (io, "open"), (builtins, "open")
    ]:
        recording(module, name)
    code, out, _ = run(
        capsys, "bcoeff", "--p", "3", "--n", "2", "--B", "[2,1]", "--A", "[1]",
        "--cache", str(cache),
    )
    monkeypatch.undo()
    assert raised == []
    assert (code, out) == (0, "15\n")
    new = '{"version": "1", "key": "b:p=3:n=2:B=[2,1]:A=[1]", "value": "15"}\n'
    assert (cache / CACHE_FILENAME).read_text() == (
        before + new if layout == "file to append to" else new
    )


def _checks(*names):
    return "".join(f"ok   {name}\n" for name in names) + f"{len(names)} checks, 0 failed\n"


@pytest.mark.parametrize(
    ("argv", "want"),
    [
        (_ACOEFF, "2\n"),
        (("bcoeff", "--p", "2", "--n", "1", "--B", "[2]", "--A", "[]"), "-2\n"),
        (("omega", "--p", "2", "--n", "1", "1*[2,1]"), "2*[1] + 1*[2]\n"),
        (("table", "a", "--p", "2", "--n", "1", "--max-order-exp", "1"),
         "M,N,value\n[],[],1\n[1],[],2\n[1],[1],1\n"),
        (("table", "b", "--p", "2", "--n", "1", "--max-order-exp", "1"),
         "B,A,value\n[],[],1\n[1],[],-2\n[1],[1],1\n"),
        (("table", "omega", "--p", "2", "--n", "1", "--max-order-exp", "1"),
         "M,lambda,coeff\n[],[],1\n[1],[],2\n[1],[1],1\n"),
        (("table", "c", "--p", "2", "--n", "1", "--max-order-exp", "1"),
         "M,N,L,value\n[],[],[],1\n[],[1],[1],1\n[1],[],[1],1\n"),
        (("ccoeff", "--p", "2", "--n", "2", "--M", "[1]", "--N", "[1]", "--L", "[1,1]"), "3\n"),
        (("mul", "--p", "2", "--n", "2", "1*[1]", "1*[1]"), "1*[2] + 3*[1,1]\n"),
        (("decompose", "--p", "2", "--n", "2", "1*[2]"), "1*T1^2 - 3*T2\n"),
        (("verify", "inverse", "--p", "2", "--n", "1", "--max-order-exp", "1"),
         _checks("inverse B=[] A=[]", "inverse B=[1] A=[]", "inverse B=[1] A=[1]",
                 "section N=[]", "section N=[1]")),
        (("verify", "shimura", "--p", "2", "--n", "1", "--max-order-exp", "1"),
         _checks("generators L=[]", "generators L=[1]", "generators aggregate r=0",
                 "generators aggregate r=1")),
    ],
    ids=["acoeff", "bcoeff", "omega", "table a", "table b", "table omega", "table c", "ccoeff",
         "mul", "decompose", "verify inverse", "verify shimura"],
)
def test_no_command_reads_or_writes_the_cache_environment_variable(
    tmp_path, capsys, monkeypatch, argv, want
):
    # only --cache names a store: a poisoned one under the variable that once
    # named the default would warn about its garbage line, and plant 77 for
    # b(B=[1], A=[]) in table b and verify inverse
    env, cwd = tmp_path / "env", tmp_path / "cwd"
    env.mkdir()
    cwd.mkdir()
    (env / CACHE_FILENAME).write_text(_POISONED)
    monkeypatch.setenv("HECKE_CACHE_DIR", str(env))
    monkeypatch.chdir(cwd)
    before = _tree(tmp_path)
    assert run(capsys, *argv) == (0, want, "")
    assert _tree(tmp_path) == before


@pytest.mark.parametrize("spelling", [["--cache", ""], ["--cache="]], ids=["reader", "argparse"])
@pytest.mark.parametrize("argv", [_ACOEFF, ("table", "a", "--p", "2", "--n", "1")], ids=" ".join)
def test_an_empty_cache_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, spelling):
    # the direct reader takes `--cache ""`, and only argparse `--cache=`
    assert (_read_argv([*argv, *spelling]) is None) == (spelling == ["--cache="])
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *argv, *spelling) == (2, "", "error: cache: --cache needs a directory\n")
    assert list(tmp_path.iterdir()) == []


def test_the_loader_keeps_only_the_b_lines(tmp_path, capsys):
    # a line under any other key, such as the a: and c: lines of older
    # stores, is passed over without a warning and stays in the file: the
    # planted a(M=[1], N=[]) = 4 would make b(B=[1], A=[]) read -4
    b_key = "b:p=2:n=1:B=[2]:A=[]"
    before = "".join(
        f'{{"version": "1", "key": "{key}", "value": "{value}"}}\n'
        for key, value in [("c:p=2:n=2:M=[1]:N=[1]:L=[1,1]", 3),
                           ("a:p=2:n=1:M=[1]:N=[]", 4), (b_key, -2)]
    )
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(before)
    store = CacheStore(str(tmp_path))
    assert store.load() == {b_key: -2}
    assert store.n_loaded == 1
    assert run(capsys, *_BCOEFF, "--cache", str(tmp_path)) == (0, "-2\n", "")
    assert cache_file.read_text() == (
        before + f'{{"version": "1", "key": "{_B_KEY}", "value": "-2"}}\n'
    )


def test_corrupt_cache_lines_warn_and_continue(tmp_path, capsys):
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(
        'garbage\n'
        f'{{"version": "1", "key": "{_B_KEY}", "value": "-2"}}\n'
        # int() reads each of these values, but the writer writes none of them
        + "".join(
            f'{{"version": "1", "key": "{_B_KEY}", "value": {value}}}\n'
            for value in ("5.7", "true", '"1_0"', '" 7 "', '"+3"', '"\\u0663"')
        )
        + '{"version": "99", "key": "x", "value": "5"}\n'
        + f'["version", "1", "key", "{_B_KEY}", "value", "-2"]\n'
        + '{"version": "1", "key": 5, "value": "2"}\n'
    )
    code, out, err = run(capsys, *_BCOEFF, "--cache", str(tmp_path))
    assert (code, out) == (0, "-2\n")
    reasons = [
        "Expecting value: line 1 column 1 (char 0)",
        *(f"value {value!r} is not a decimal string"
          for value in (5.7, True, "1_0", " 7 ", "+3", "\u0663")),
        "unsupported version '99'",
        "not an object",
        "key is not a string",
    ]
    assert err.splitlines() == [
        f"warning: {cache_file}:{lineno}: skipping bad cache line ({reason})"
        for lineno, reason in zip([1, *range(3, 12)], reasons)
    ]


def test_blank_cache_lines_are_skipped_without_a_warning(tmp_path, capsys):
    line = f'{{"version": "1", "key": "{_B_KEY}", "value": "-2"}}\n'
    (tmp_path / CACHE_FILENAME).write_text("\n" + line + "   \n\t\n" + line + "\n")
    assert CacheStore(str(tmp_path)).load() == {_B_KEY: -2}
    assert capsys.readouterr().err == ""


def test_a_non_directory_in_the_way_of_the_store_is_an_error(tmp_path):
    # a dangling symbolic link is missing to os.access, yet mkdir finds it there
    link = tmp_path / "store"
    link.symlink_to(tmp_path / "nowhere")
    with pytest.raises(FileExistsError):
        _make_directories(str(link))
    assert link.is_symlink() and not (tmp_path / "nowhere").exists()


def test_poisoned_cache_value_is_used_verbatim(tmp_path, capsys):
    # the cache is trusted storage: a planted value comes straight back,
    # which is what makes the verify suites meaningful against it
    cache_file = tmp_path / CACHE_FILENAME
    cache_file.write_text(f'{{"version": "1", "key": "{_B_KEY}", "value": "77"}}\n')
    code, out, _ = run(capsys, *_BCOEFF, "--cache", str(tmp_path))
    assert code == 0
    assert out.strip() == "77"


_A_ONLY = {
    "acoeff": _ACOEFF,
    "omega": ("omega", "--p", "2", "--n", "1", "1*[2,1]"),
    "table a": ("table", "a", "--p", "2", "--n", "1", "--max-order-exp", "2"),
    "table omega": ("table", "omega", "--p", "2", "--n", "1", "--max-order-exp", "2"),
    "verify oracle": ("verify", "oracle", "--p", "2", "--n", "1", "--max-order-exp", "2"),
}


@pytest.mark.parametrize("argv", _A_ONLY.values(), ids=_A_ONLY)
def test_a_command_that_asks_for_no_b_writes_no_store(tmp_path, capsys, monkeypatch, argv):
    # a is computed, never stored: nothing is flushed, so no directory is
    # made and no file is opened for writing
    calls = []
    for name in ("mkdir", "open"):
        real = getattr(os, name)
        monkeypatch.setattr(
            os, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        )
    code, _, err = run(capsys, *argv, "--cache", str(tmp_path / "store"))
    monkeypatch.undo()
    assert (code, err, calls) == (0, "", [])
    assert list(tmp_path.iterdir()) == []


def test_a_planted_a_line_is_neither_read_nor_rewritten(tmp_path, capsys):
    store = tmp_path / CACHE_FILENAME
    store.write_text(f'{{"version": "1", "key": "{_A_KEY}", "value": "77"}}\n')
    before = store.read_bytes()
    assert run(capsys, *_ACOEFF, "--cache", str(tmp_path)) == (0, "2\n", "")
    assert store.read_bytes() == before


def test_the_loader_parses_no_line_of_another_kind_as_flush_spells_it(tmp_path, monkeypatch):
    # torn a: and c: lines are passed over before json.loads, so they go
    # unreported; every other line is parsed and checked as before
    lines = [
        '{"version": "1", "key": "a:p=2:n=1:M=[2,1]:N=[1]", "value": "2"}',
        '{"version": "1", "key": "a:p=2:n=1:M=[2,1]:N=[1]", "val',
        '{"version": "1", "key": "c:p=2:n=2:M=[1]:N=[1]:L=[1,1]", "value": "3"}',
        f'{{"version": "1", "key": "{_B_KEY}", "value": "-2"}}',
        '{"key": "a:p=2:n=1:M=[2]:N=[]", "version": "1", "value": "4"}',
    ]
    (tmp_path / CACHE_FILENAME).write_text("".join(f"  {line}\n" for line in lines))
    parsed = []
    real = json.loads
    monkeypatch.setattr(json, "loads", lambda text: parsed.append(text) or real(text))
    assert CacheStore(str(tmp_path)).load() == {_B_KEY: -2}
    assert parsed == lines[3:]


def _tree(root):
    return sorted(
        (str(path.relative_to(root)), path.is_dir() or path.read_bytes())
        for path in root.rglob("*")
    )


@pytest.mark.parametrize("layout", ["file", "file as an ancestor", "cache file is a directory"])
def test_unusable_cache_is_a_usage_error(tmp_path, capsys, layout):
    # a regular file fails in flush: as the directory when it opens
    # F/hecke-cache.jsonl, as an ancestor in mkdir (both NotADirectoryError);
    # a directory in place of the cache file fails in load (IsADirectoryError)
    if layout == "cache file is a directory":
        cache = tmp_path / "store"
        (cache / CACHE_FILENAME).mkdir(parents=True)
    else:
        (tmp_path / "F").write_text("not a directory\n")
        cache = tmp_path / "F" if layout == "file" else tmp_path / "F" / "sub"
    before = _tree(tmp_path)
    code, out, err = run(capsys, *_BCOEFF, "--cache", str(cache))
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
    # the oracle's a-route cells enumerate under the split and depth given
    argv = ["verify", "oracle", "--p", "2", "--n", "1", "--max-order-exp", "2"]
    base = run(capsys, *argv)
    alt = run(capsys, *argv, "--split", "last", "--trunc", "3")
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
# wherever the option is taken, and count-subgroups, which takes no
# --budget, refuses any; --max-order-exp 0 sweeps the trivial class
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


@pytest.fixture
def built(monkeypatch):
    """The arguments of every argparse.ArgumentParser built during the test."""
    made = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        made.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return made


# a well-formed argv of every command, table kind and verify suite
_CANONICAL = [
    *([command, "--p", "2", "--n", "2", *cell] for command, cell in _CELL_ARGV.items()),
    *([command, kind, "--p", "2", "--n", "2", "--max-order-exp", "1"]
      for command in ("table", "verify") for kind in _COMMANDS[command].leaves),
    ["selftest"],
]


def test_canonical_argv_cover_every_command():
    assert {argv[0] for argv in _CANONICAL} == set(_COMMANDS)


@pytest.mark.parametrize("argv", _CANONICAL, ids=" ".join)
def test_canonical_argv_build_no_parser(capsys, built, argv):
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
def test_other_spellings_reach_argparse(capsys, built, argv):
    assert _read_argv(argv) is None
    assert run(capsys, *argv)[0] == 0
    assert built


# the op lines of the recorded benchmark traffic, read only
_TRAFFIC = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "expected.json").read_text()
)["ops"]


def test_recorded_traffic_never_reaches_argparse(built):
    assert _TRAFFIC
    for line in _TRAFFIC:
        argv = shlex.split(line)
        ns = _read_argv(argv)
        assert ns is not None, line
        if "cache" in ns:
            argv += ["--cache", "store"]
            assert _read_argv(argv) is not None, line
        assert _parse(argv) is not None
    assert built == []


# one parser for every argv: building the whole tree per hypothesis
# example would double the time of test_reader_agrees_with_argparse
_PARSER = _build_parser()


def _argparse_namespace(argv):
    """What argparse makes of argv, or None where it exits (help or error)."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return _PARSER.parse_args(argv)
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
@example(["acoeff", "--p", "2", "--n", "2", *_CELL_ARGV["acoeff"], "--cache", "-h"])
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


def test_a_closed_stdout_is_not_a_crash():
    # head closes the pipe after the header, long before the table is written
    src = str(Path(heckealg.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    argv = "table c --p 2 --n 3 --max-order-exp 9".split()
    proc = subprocess.Popen(
        [sys.executable, "-m", "heckealg.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"M,N,L,value\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 0
    assert err == b""


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize(
    "argv,code",
    [
        ("table c --p 2 --n 1 --max-order-exp 2", 0),
        ("verify inverse --p 2 --n 1 --max-order-exp 1 --cache {poisoned}", 4),
    ],
)
def test_a_stdout_that_refuses_writes_keeps_the_exit_code(tmp_path, monkeypatch, argv, code):
    poisoned = tmp_path / "poisoned"
    poisoned.mkdir()
    (poisoned / CACHE_FILENAME).write_text(
        '{"version": "1", "key": "b:p=2:n=1:B=[1]:A=[]", "value": "5"}\n'
    )
    err = io.StringIO()
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    monkeypatch.setattr(sys, "stderr", err)
    assert main(argv.format(poisoned=poisoned).split()) == code
    assert err.getvalue() == ""


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


def _added_by_import(module: str) -> set[str]:
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
    return set(added)


@pytest.mark.parametrize("module", ["heckealg.cli", "heckealg", "heckealg.verify"])
def test_start_up_loads_no_dataclasses_inspect_or_typing(module):
    added = _added_by_import(module)
    assert not {"dataclasses", "inspect", "typing"} & added, added


@pytest.mark.parametrize(
    "module,kept_out",
    [
        ("heckealg.cli", "heckealg.verify"),
        ("heckealg", "heckealg.verify"),
        ("heckealg.verify", "heckealg.cli"),
    ],
)
def test_the_suites_and_the_command_line_import_apart(module, kept_out):
    # the suites compile only for verify and selftest, the package imports
    # no suite, and the suites never import the command line (under
    # `python -m` that is __main__)
    added = _added_by_import(module)
    assert kept_out not in added, added


def test_the_suite_table_names_the_suites_in_order():
    from heckealg import cli, verify

    assert list(cli._SUITES) == list(verify.SUITES) == [
        "hom", "tp", "inverse", "shimura", "oracle"
    ]
