"""Command-line front end.

Scalar coefficients, products, transfers, tables and the built-in
verification suites, all over exact integers.  Examples:

    heckealg ccoeff --p 2 --n 2 --M "[1]" --N "[1]" --L "[1,1]"
    heckealg acoeff --p 2 --n 1 --M "[2,1]" --N "[1]"
    heckealg mul --p 2 --n 2 "1*[1]" "1*[1]"
    heckealg omega --p 2 --n 1 "1*[1,1]"
    heckealg decompose --p 2 --n 2 "1*[2]"
    heckealg table omega --p 2 --n 1 --max-order-exp 2 --output json
    heckealg verify all --p 2 --n 1 --max-order-exp 2
    heckealg count-subgroups --p 2 --n 2 --trunc 2
    heckealg selftest

Exit codes: 0 success, 2 bad arguments, unparsable input or an unusable
--cache, 3 an enumeration would exceed --budget, 4 a verification check
failed.

For `omega`, `acoeff` and `table a` the class M lives in the rank-(n+1)
algebra upstairs; --n names the target rank.  Commands that compute a
transfer take --split, the kernel of its enumeration oracle; `table c`
and `verify shimura` do not.  The transfer ("transversal" in `verify
oracle`) is a closed form that --split does not change.  --trunc raises
the exponent of the oracle's ambient, so of the transfer surfaces only
`verify oracle|all` take it.  Products, generator decompositions and
the structure constants of `ccoeff` and `table c` take the elementary
Pieri rule; the Hall table in the c-route of `verify oracle` is their
oracle.
--budget bounds enumerations, so only `verify oracle|all`,
`count-subgroups` and `selftest` take it.  `mul`, `decompose` and
`verify shimura` read no cache either, so they take no --cache.  For
`count-subgroups` --trunc is the exponent r of (Z/p^r)^n (default 1).
--cache points at a directory holding the append-only coefficient
cache (environment variable HECKE_CACHE_DIR supplies the default); one
that cannot be read or written as such is a usage error (exit 2).
Each command, table kind and suite accepts only the options it reads;
`table --help` and `verify --help` list them.  A well-formed command
line (the command, then the kind or suite, then positionals and exact
`--name value` pairs, each option at most once, no value with a leading
dash) is read straight from the option tables.  argparse parses every
other spelling and alone prints help and usage errors; it builds only
the parser the command line names, the other commands, kinds and suites
being names alone.
A negative --max-order-exp or a --budget below 1 is a usage error.

Commands return their output in every format and print nothing; `main`
prints the one --output names (the text form of a table is its csv).
`main` also loads the cache before the command runs and flushes it only
after the command returns, so a usage error, a budget overrun or a
failed exact identity (exit 2, 3 or 4 from an error) writes nothing,
while a verify run whose checks fail (exit 4) keeps what it computed.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from collections.abc import Callable, Iterator

from .cache import CACHE_ENV, CacheStore
from .errors import BudgetExceededError, VerificationError
from .hecke import (
    HeckeContext,
    HeckeElement,
    c_by_enumeration,
    c_coeff,
    decompose_in_generators,
    eval_generator_poly,
    multiply,
    basis_element,
    parse_element,
    t_aggregate,
)
from .omega import (
    OmegaContext,
    a_by_enumeration,
    a_coeff,
    b_coeff,
    lift_section,
    omega,
    verify_omega_hom,
    verify_tp_formula,
)
from .partitions import (
    Partition,
    embeds,
    format_partition,
    order_exponent,
    parse_partition,
    partitions_between,
    partitions_of_exponent,
    partitions_up_to,
)
from .subgroups import (
    DEFAULT_BUDGET,
    Ambient,
    _type_census,
    count_of_type_in_group,
    m_count,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

__all__ = ["main"]


# --- option plumbing ---------------------------------------------------------


def _at_least(low: int) -> Callable[[str], int]:
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names the type in "invalid int value"
    return parse


_OPTIONS = {
    "p": dict(type=int, required=True, help="the prime"),
    "n": dict(type=int, required=True, help="algebra rank (target rank for omega)"),
    "budget": dict(
        type=_at_least(1),
        default=DEFAULT_BUDGET,
        help="abort any enumeration larger than this (exit 3)",
    ),
    "cache": dict(help=f"cache directory (default: ${CACHE_ENV} if set)"),
    "output": dict(
        choices=("text", "json", "csv"), default="text", help="output format"
    ),
    "split": dict(
        choices=("first", "last"),
        default="first",
        help="which coordinate block forms the transfer kernel",
    ),
    "trunc": dict(
        type=int, help="raise the enumeration oracle's truncation exponent (never lowers it)"
    ),
    "max-order-exp": dict(
        type=_at_least(0),
        default=3,
        help="order-exponent bound for tables and verification sweeps",
    ),
}

# the options each command reads, by what it computes (--budget and
# --trunc if it enumerates, --cache if it memoises coefficients)
_ELEMENT_OPTIONS = "p n output"
_COEFF_OPTIONS = "p n cache output"
_TRANSFER_OPTIONS = _COEFF_OPTIONS + " split"
_TRANSFER_SWEEP_OPTIONS = _TRANSFER_OPTIONS + " max-order-exp"
_SWEEP_OPTIONS = _TRANSFER_SWEEP_OPTIONS + " budget trunc"


def _cache_dir(args: argparse.Namespace) -> str | None:
    # mul, decompose and verify shimura memoise nothing: ignore $HECKE_CACHE_DIR
    if "cache" not in args:
        return None
    if args.cache:
        return args.cache
    return os.environ.get(CACHE_ENV) or None


def _hecke_ctx(args: argparse.Namespace, memo: dict[str, int]) -> HeckeContext:
    budget = getattr(args, "budget", DEFAULT_BUDGET)
    return HeckeContext(p=args.p, n=args.n, budget=budget, memo=memo)


def _omega_ctx(args: argparse.Namespace, memo: dict[str, int]) -> OmegaContext:
    return OmegaContext(
        p=args.p,
        n=args.n,
        split=args.split,
        trunc_override=getattr(args, "trunc", None),
        budget=getattr(args, "budget", DEFAULT_BUDGET),
        memo=memo,
    )


# --- output -----------------------------------------------------------------


# the records of the package are plain classes or named tuples, and its
# annotation names come from collections.abc: importing dataclasses (and
# inspect with it) or typing would cost every command-line call several ms
class _Output:
    """What a command returns: its result in every output format.

    payload is the JSON object, header and rows the csv table, text the
    text form (None: the csv table), code the exit code.
    """

    def __init__(
        self,
        payload: dict,
        header: list[str],
        rows: list[list[str]],
        text: str | None = None,
        code: int = EXIT_OK,
    ):
        self.payload, self.header, self.rows = payload, header, rows
        self.text, self.code = text, code


def _emit(args, out: _Output) -> None:
    if args.output == "json":
        print(json.dumps(out.payload))
    elif args.output == "csv" or out.text is None:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(out.header)
        w.writerows(out.rows)
    else:
        print(out.text)


def _element_output(elem: HeckeElement) -> _Output:
    rows = [[format_partition(lam), str(c)] for lam, c in elem.sorted_terms()]
    return _Output(elem.to_json_dict(), ["lambda", "coeff"], rows, elem.to_text())


# --- element commands ---------------------------------------------------------


def _cmd_mul(args, memo) -> _Output:
    ctx = _hecke_ctx(args, memo)
    x = parse_element(args.x, args.p, args.n)
    y = parse_element(args.y, args.p, args.n)
    return _element_output(multiply(x, y, ctx))


def _cmd_omega(args, memo) -> _Output:
    ctx = _omega_ctx(args, memo)
    return _element_output(omega(parse_element(args.x, args.p, args.n + 1), ctx))


def _cmd_decompose(args, memo) -> _Output:
    ctx = _hecke_ctx(args, memo)
    poly = decompose_in_generators(parse_element(args.x, args.p, args.n), ctx)
    rows = [
        ["[" + ",".join(str(a) for a in exps) + "]", str(c)]
        for exps, c in poly.sorted_terms()
    ]
    payload = {"p": args.p, **poly.to_json_dict()}
    return _Output(payload, ["exponents", "coeff"], rows, poly.to_text())


# --- scalar coefficients and their tables --------------------------------------


def _c_cells(args) -> Iterator[tuple[Partition, Partition, Partition]]:
    for l in partitions_up_to(args.max_order_exp, args.n):
        d = order_exponent(l)
        for dm in range(d + 1):
            for m in partitions_of_exponent(dm, args.n):
                for n_ in partitions_of_exponent(d - dm, args.n):
                    yield m, n_, l


def _embedded_pairs(
    max_order_exp: int, outer_rank: int, inner_rank: int
) -> Iterator[tuple[Partition, Partition]]:
    for big in partitions_up_to(max_order_exp, outer_rank):
        for small in partitions_between((), big[:inner_rank]):
            yield big, small


class _CoeffSpec:
    """One scalar coefficient: its argument names, context, table cells, value.

    The argument names are the `*coeff` options, the table columns and
    the JSON fields alike.
    """

    def __init__(
        self, columns: tuple[str, ...], context: Callable, cells: Callable, value: Callable
    ):
        self.columns, self.context, self.cells, self.value = columns, context, cells, value

    def tabulate(self, cells: list[tuple], values: list[int]) -> tuple:
        """The JSON fields of each cell, then the csv header and rows."""
        pairs = list(zip(cells, values))
        fields = [
            {**dict(zip(self.columns, map(list, c))), "value": str(v)} for c, v in pairs
        ]
        rows = [[*map(format_partition, c), str(v)] for c, v in pairs]
        return fields, [*self.columns, "value"], rows


_COEFFS = {
    "c": _CoeffSpec(("M", "N", "L"), _hecke_ctx, _c_cells, c_coeff),
    "a": _CoeffSpec(
        ("M", "N"),
        _omega_ctx,
        lambda args: _embedded_pairs(args.max_order_exp, args.n + 1, args.n),
        a_coeff,
    ),
    "b": _CoeffSpec(
        ("B", "A"),
        _omega_ctx,
        lambda args: _embedded_pairs(args.max_order_exp, args.n, args.n),
        b_coeff,
    ),
}


def _cmd_coeff(args, memo) -> _Output:
    spec = _COEFFS[args.kind]
    cell = tuple(parse_partition(getattr(args, name)) for name in spec.columns)
    value = spec.value(*cell, spec.context(args, memo))
    (fields,), *table = spec.tabulate([cell], [value])
    return _Output({"p": args.p, "n": args.n, **fields}, *table, text=str(value))


def _cmd_table(args, memo) -> _Output:
    if args.kind == "omega":
        return _table_omega(args, memo)
    spec = _COEFFS[args.kind]
    cells = list(spec.cells(args))
    ctx = spec.context(args, memo)
    fields, *table = spec.tabulate(cells, [spec.value(*cell, ctx) for cell in cells])
    payload = {"p": args.p, "n": args.n, "table": args.kind, "rows": fields}
    return _Output(payload, *table)


def _table_omega(args, memo) -> _Output:
    ms = list(partitions_up_to(args.max_order_exp, args.n + 1))
    ctx = _omega_ctx(args, memo)
    images = [omega(basis_element(m, ctx.source), ctx).sorted_terms() for m in ms]
    entries = [
        {
            "M": list(m),
            "image": [{"lambda": list(lam), "coeff": str(c)} for lam, c in image],
        }
        for m, image in zip(ms, images)
    ]
    rows = [
        [format_partition(m), format_partition(lam), str(c)]
        for m, image in zip(ms, images)
        for lam, c in image
    ]
    payload = {"p": args.p, "n": args.n, "entries": entries}
    return _Output(payload, ["M", "lambda", "coeff"], rows)


# --- verification suites --------------------------------------------------------


def _suite_hom(args, memo, checks) -> None:
    ctx = _omega_ctx(args, memo)
    parts = list(partitions_up_to(args.max_order_exp, args.n + 1))
    for m1 in parts:
        for m2 in parts:
            rep = verify_omega_hom(m1, m2, ctx)
            checks.append(
                (
                    f"hom M1={format_partition(m1)} M2={format_partition(m2)}",
                    rep.passed,
                    rep.describe(),
                )
            )


def _suite_tp(args, memo, checks) -> None:
    ctx = _omega_ctx(args, memo)
    for r in range(args.max_order_exp + 1):
        rep = verify_tp_formula(r, ctx)
        checks.append((f"aggregate r={r}", rep.passed, rep.describe()))


def _suite_inverse(args, memo, checks) -> None:
    ctx = _omega_ctx(args, memo)
    parts = list(partitions_up_to(args.max_order_exp, args.n))
    for b in parts:
        for a in partitions_between((), b):
            mids = list(partitions_between(a, b))
            lhs = sum(a_coeff(b, c, ctx) * b_coeff(c, a, ctx) for c in mids)
            rhs = sum(b_coeff(b, c, ctx) * a_coeff(c, a, ctx) for c in mids)
            want = 1 if a == b else 0
            ok = lhs == want and rhs == want
            checks.append(
                (
                    f"inverse B={format_partition(b)} A={format_partition(a)}",
                    ok,
                    f"a.b = {lhs}, b.a = {rhs}, expected {want}",
                )
            )
    for n_ in parts:
        lifted = lift_section(n_, ctx)
        back = omega(lifted, ctx)
        want_elem = basis_element(n_, ctx.target)
        checks.append(
            (
                f"section N={format_partition(n_)}",
                back == want_elem,
                f"omega(lift) = {back.to_text()}",
            )
        )


def _suite_shimura(args, memo, checks) -> None:
    ctx = _hecke_ctx(args, memo)
    targets = [
        (f"L={format_partition(lam)}", f"{format_partition(lam)} =", basis_element, lam)
        for lam in partitions_up_to(args.max_order_exp, args.n)
    ] + [
        (f"aggregate r={r}", f"aggregate r={r}:", t_aggregate, r)
        for r in range(args.max_order_exp + 1)
    ]
    for name, label, make, arg in targets:
        try:
            elem = make(arg, ctx)
            poly = decompose_in_generators(elem, ctx)
            ok = eval_generator_poly(poly, ctx) == elem
            detail = f"{label} {poly.to_text()}"
        except VerificationError as exc:
            ok, detail = False, str(exc)
        checks.append((f"generators {name}", ok, detail))


def _suite_oracle(args, memo, checks) -> None:
    p = args.p
    budget = args.budget
    octx = _omega_ctx(args, memo)  # rejects a bad --trunc before any enumeration

    def total(n: int, r: int) -> int:
        return sum(_type_census((r,) * n, None, p, budget).values())

    expected_totals = [
        ("count rank2 exponent1", 2, 1, p + 3),
        ("count rank3 exponent1", 3, 1, 2 * p * p + 2 * p + 4),
    ] + [(f"count chain r={r}", 1, r, r + 1) for r in range(1, 5)]
    for name, nn, rr, want in expected_totals:
        got = total(nn, rr)
        checks.append((name, got == want, f"got {got}"))
    for nn, rr in ((1, 1), (1, 2), (2, 1), (2, 2)):
        all_types = [
            m
            for m in partitions_up_to(nn * rr, nn)
            if not m or m[0] <= rr
        ]
        sum_m = sum(m_count(m, nn, p, budget=budget) for m in all_types)
        got = total(nn, rr)
        detail = f"sum {sum_m} vs total {got}"
        checks.append((f"m-sum n={nn} r={rr}", sum_m == got, detail))
    maxoe = args.max_order_exp
    shapes = [lam for d in range(maxoe + 1) for lam in partitions_of_exponent(d, d or 1)]
    for lam in shapes:
        for mu in shapes:
            if order_exponent(mu) > order_exponent(lam):
                continue
            found = count_of_type_in_group(lam, mu, p, budget=budget) > 0
            predicted = embeds(mu, lam)
            checks.append(
                (
                    f"embedding L={format_partition(lam)} M={format_partition(mu)}",
                    found == predicted,
                    f"search {found}, containment {predicted}",
                )
            )
    for m in partitions_up_to(maxoe, args.n + 1):
        for n_ in partitions_up_to(order_exponent(m), args.n):
            va = a_coeff(m, n_, octx)
            vb = a_by_enumeration(m, n_, octx)
            checks.append(
                (
                    f"a-route M={format_partition(m)} N={format_partition(n_)}",
                    va == vb,
                    f"transversal {va}, enumeration {vb}",
                )
            )
    hctx = _hecke_ctx(args, memo)
    # labels kept so that stdout stays byte-identical: "table" is the
    # Pieri product, "normalized count" the Hall table
    for m, n_, l in _c_cells(args):
        vc = c_coeff(m, n_, l, hctx)
        vv = c_by_enumeration(m, n_, l, hctx)
        checks.append(
            (
                f"c-route M={format_partition(m)} "
                f"N={format_partition(n_)} L={format_partition(l)}",
                vc == vv,
                f"table {vc}, normalized count {vv}",
            )
        )


_SUITES = {
    "hom": (_suite_hom, _TRANSFER_SWEEP_OPTIONS),
    "tp": (_suite_tp, _TRANSFER_SWEEP_OPTIONS),
    "inverse": (_suite_inverse, _TRANSFER_SWEEP_OPTIONS),
    "shimura": (_suite_shimura, _ELEMENT_OPTIONS + " max-order-exp"),
    "oracle": (_suite_oracle, _SWEEP_OPTIONS),
}


def _cmd_verify(args, memo, label: str | None = None) -> _Output:
    """Run args.suite (every suite for "all"); label names it in the JSON."""
    checks: list = []
    for name in list(_SUITES) if args.suite == "all" else [args.suite]:
        _SUITES[name][0](args, memo, checks)
    failures = sum(not ok for _, ok, _ in checks)
    lines = [f"ok   {c}" if ok else f"FAIL {c}: {why}" for c, ok, why in checks]
    payload = {
        "suite": label or args.suite,
        "p": args.p,
        "n": args.n,
        "passed": not failures,
        "checks": [{"name": c, "passed": ok, "detail": why} for c, ok, why in checks],
    }
    return _Output(
        payload,
        ["name", "passed", "detail"],
        [[c, "true" if ok else "false", why] for c, ok, why in checks],
        "\n".join([*lines, f"{len(checks)} checks, {failures} failed"]),
        EXIT_VERIFY if failures else EXIT_OK,
    )


def _cmd_count_subgroups(args, memo) -> _Output:
    amb = Ambient(args.p, args.n, args.trunc)  # refuses a bad p, n or r
    by_type = _type_census((amb.r,) * amb.n, None, amb.p, args.budget)
    total = sum(by_type.values())
    ordered = sorted(by_type.items(), key=lambda kv: (order_exponent(kv[0]), kv[0]))
    payload = {
        "p": args.p,
        "n": args.n,
        "r": args.trunc,
        "total": total,
        "by_type": [{"type": list(t), "count": c} for t, c in ordered],
    }
    rows = [[format_partition(t), str(c)] for t, c in ordered]
    return _Output(payload, ["type", "count"], rows, str(total))


def _cmd_selftest(args, memo) -> _Output:
    argv = ["verify", "all", "--p", "2", "--n", "1", "--max-order-exp", "2",
            "--budget", str(args.budget)]
    ns = _parse(argv)
    # memo is empty: the self-test takes no --cache
    return _cmd_verify(ns, memo, label="selftest")


# --- entry point -----------------------------------------------------------------


def _named(argv: list[str]) -> tuple[str | None, list[str]]:
    """The name argparse dispatches on, and the tokens after it.

    The root, `table` and `verify` take no option with a value, so that is
    the first token without a leading dash.  A dash token read as a
    positional (say -1) names nothing, and argparse rejects it anyway.
    """
    for i, token in enumerate(argv):
        if not token.startswith("-"):
            return token, argv[i + 1 :]
    return None, []


def _arguments(options: str, own: dict[str, dict] | None = None) -> dict[str, dict]:
    """flag or positional name -> add_argument keywords: the shared options
    named in options, then own."""
    return {**{f"--{name}": _OPTIONS[name] for name in options.split()}, **(own or {})}


def _add_arguments(parser: argparse.ArgumentParser, arguments: dict[str, dict]) -> None:
    for flag, kwargs in arguments.items():
        parser.add_argument(flag, **kwargs)


class _Command:
    """A plain command: the shared options it reads, its own arguments
    and what it sets as defaults."""

    def __init__(self, help: str, options: str, arguments: dict[str, dict], defaults: dict):
        self.help, self.options, self.arguments, self.defaults = help, options, arguments, defaults

    def fill(self, parser: argparse.ArgumentParser, rest: list[str]) -> None:
        _add_arguments(parser, _arguments(self.options, self.arguments))
        parser.set_defaults(**self.defaults)

    def leaf(self, rest: list[str]) -> tuple[dict, dict, list[str]]:
        """The arguments rest is read against, the defaults, and rest."""
        return _arguments(self.options, self.arguments), self.defaults, rest


class _Kinds:
    """`table` or `verify`: a nested subparser per kind or suite (dest
    names the one chosen), each reading the shared options kinds lists."""

    def __init__(self, help: str, dest: str, kinds: dict[str, str], func: Callable):
        self.help, self.dest, self.kinds, self.func = help, dest, kinds, func

    def fill(self, parser: argparse.ArgumentParser, rest: list[str]) -> None:
        """Only the kind or suite that rest names gets its options."""
        sub = parser.add_subparsers(dest=self.dest, required=True)
        chosen = _named(rest)[0]
        for name, names in self.kinds.items():
            sp = sub.add_parser(name, add_help=name == chosen)
            if name == chosen:
                _add_arguments(sp, _arguments(names))
        parser.set_defaults(func=self.func)
        parser.formatter_class = argparse.RawDescriptionHelpFormatter
        parser.epilog = f"options by {self.dest}:\n" + "\n".join(
            f"  {name}: --" + " --".join(names.split()) for name, names in self.kinds.items()
        )

    def leaf(self, rest: list[str]) -> tuple[dict, dict, list[str]] | None:
        """As for a plain command, after the kind or suite rest[0] names
        (None if it names none)."""
        if not rest or rest[0] not in self.kinds:
            return None
        defaults = {self.dest: rest[0], "func": self.func}
        return _arguments(self.kinds[rest[0]]), defaults, rest[1:]


_REQUIRED = dict(required=True)

# the grammar: _build_parser fills a parser only for the command argv
# names, and _read_argv reads a well-formed argv straight off it
_COMMANDS = {
    "ccoeff": _Command(
        "structure constant c(M, N; L)",
        _COEFF_OPTIONS,
        {"--M": dict(required=True, help='partition literal, e.g. "[1]"'),
         "--N": _REQUIRED, "--L": _REQUIRED},
        dict(func=_cmd_coeff, kind="c")),
    "acoeff": _Command(
        "transfer coefficient a(M, N)",
        _TRANSFER_OPTIONS,
        {"--M": dict(required=True, help="class upstairs (rank n+1)"),
         "--N": dict(required=True, help="class downstairs (rank n)")},
        dict(func=_cmd_coeff, kind="a")),
    "bcoeff": _Command(
        "inverse-transfer coefficient b(B, A)",
        _TRANSFER_OPTIONS, {"--B": _REQUIRED, "--A": _REQUIRED},
        dict(func=_cmd_coeff, kind="b")),
    "mul": _Command(
        "product of two elements",
        _ELEMENT_OPTIONS,
        {"x": dict(help='element literal, e.g. "1*[1] + 2*[]"'), "y": {}},
        dict(func=_cmd_mul)),
    "omega": _Command(
        "transfer an element down one rank",
        _TRANSFER_OPTIONS, {"x": dict(help="element of the rank-(n+1) algebra")},
        dict(func=_cmd_omega)),
    "decompose": _Command(
        "write an element in the generators T_k",
        _ELEMENT_OPTIONS, {"x": {}}, dict(func=_cmd_decompose)),
    "table": _Kinds("tabulate coefficients", "kind", {
        "c": _COEFF_OPTIONS + " max-order-exp",
        **dict.fromkeys(("a", "b", "omega"), _TRANSFER_SWEEP_OPTIONS),
    }, _cmd_table),
    "verify": _Kinds("run a verification suite", "suite", {
        **{name: names for name, (_, names) in _SUITES.items()},
        "all": _SWEEP_OPTIONS,
    }, _cmd_verify),
    "count-subgroups": _Command(
        "count subgroups of (Z/p^r)^n, r from --trunc",
        "p n budget output",
        {"--trunc": dict(type=int, default=1, help="truncation exponent r")},
        dict(func=_cmd_count_subgroups)),
    "selftest": _Command(
        "small fixed verification run", "budget output", {}, dict(func=_cmd_selftest)),
}


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed argv, read off _COMMANDS
    without building a parser; None for any other argv.

    Well-formed: argv[0] names a command, and argv[1] the kind or suite of
    `table` and `verify`.  Every later token is a positional without a
    leading dash, or an exact --name the command takes, at most once,
    followed by a value without a leading dash.  The positionals are
    exactly as many as the command takes, every required option is there,
    and each value passes the option's type and choices.
    """
    spec = _COMMANDS.get(argv[0]) if argv else None
    leaf = spec.leaf(argv[1:]) if spec else None
    if leaf is None:
        return None
    arguments, defaults, rest = leaf
    given: dict[str, str] = {}
    free: list[str] = []
    tokens = iter(rest)
    for token in tokens:
        if not token.startswith("-"):
            free.append(token)
            continue
        value = next(tokens, "-")
        if token not in arguments or token in given or value.startswith("-"):
            return None
        given[token] = value
    positionals = [name for name in arguments if not name.startswith("-")]
    if len(free) != len(positionals):
        return None
    given.update(zip(positionals, free))
    values = {"command": argv[0], **defaults}
    for name, kwargs in arguments.items():
        if name not in given and kwargs.get("required"):
            return None
        raw = given.get(name, kwargs.get("default"))
        if isinstance(raw, str):  # argparse converts string defaults too
            try:
                raw = kwargs.get("type", str)(raw)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if name in given and raw not in kwargs.get("choices", (raw,)):
                return None
        values[name.lstrip("-").replace("-", "_")] = raw
    return argparse.Namespace(**values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv read directly when well-formed, else by argparse, which alone
    prints help and usage errors (and exits)."""
    return _read_argv(argv) or _build_parser(argv).parse_args(argv)


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for argv: every command keeps its name and help, but only
    the one argv names gets its arguments and -h, since each add_argument
    costs a help formatter and a terminal-size query."""
    parser = argparse.ArgumentParser(
        prog="heckealg",
        description="Exact structure constants, transfers and checks "
        "for algebras of finite abelian p-groups of bounded rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    chosen, rest = _named(argv)
    for name, spec in _COMMANDS.items():
        sp = sub.add_parser(name, help=spec.help, add_help=name == chosen)
        if name == chosen:
            spec.fill(sp, rest)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    directory = _cache_dir(args)
    store = CacheStore(directory) if directory else None
    try:
        memo = store.load() if store else {}
        out = args.func(args, memo)
        if store:
            store.flush(memo)
    except OSError as exc:  # only the cache reads or writes files
        print(f"error: cache {directory}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, BudgetExceededError, VerificationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, BudgetExceededError):
            return EXIT_BUDGET
        # a ParseError is a ValueError
        return EXIT_VERIFY if isinstance(exc, VerificationError) else EXIT_USAGE
    _emit(args, out)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
