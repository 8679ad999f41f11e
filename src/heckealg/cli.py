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
--cache, 3 an enumeration would exceed --budget, or count-subgroups the
fixed DEFAULT_BUDGET, 4 a verification check failed.  A reader that
closes stdout early (`| head`) changes none of them and leaves no
traceback: the rest of the output is dropped.

For `omega`, `acoeff` and `table a` the class M lives in the rank-(n+1)
algebra upstairs; --n names the target rank.  The transfer's commands
and tables take --split, the kernel of its enumeration oracle, and of
the suites only `verify oracle|all`, which run that oracle.  The
transfer ("transversal" in `verify oracle`) is a closed form that
--split does not change.  --trunc raises the exponent of the oracle's
ambient, so of the transfer surfaces only `verify oracle|all` take it.
Products, generator decompositions and the structure constants of
`ccoeff` and `table c` take the elementary Pieri rule; the Hall table
in the c-route of `verify oracle` is their oracle.
--budget bounds enumerations, so only `verify oracle|all` and
`selftest` take it.  The commands that take --split take --cache, and
so does `verify inverse`; only b is stored, so `acoeff`, `omega`,
`table a|omega` and `verify oracle` write nothing to it.  `ccoeff`,
`table c`, `mul`, `decompose` and `verify hom|tp|shimura` read no b,
and their Pieri products are memoised for one run only.  `count-subgroups`
counts the subgroups of (Z/p^r)^n of each type by Delsarte's formula, r
from --trunc (default 1), and enumerates nothing; an ambient whose types
it prices past DEFAULT_BUDGET steps exits 3 before any is listed.
--cache DIR names the directory of the append-only coefficient store,
and nothing else does: without it a command stores nothing.  An empty
DIR is a usage error (exit 2), and so is one that cannot be read or
written as such when the store is read or written.
Each command, table kind and suite accepts only the options it reads;
`table --help` and `verify --help` list them.  The grammar is one table
of leaves, one per command, table kind and suite, each naming the
arguments it reads, and both readers read it.  A well-formed command
line (the command, then the kind or suite, then positionals and exact
`--name value` pairs, each option at most once, no value with a leading
dash) is read straight from its leaf.  argparse, built whole from the
same leaves, takes help, usage errors and every other spelling.
A negative --max-order-exp or a --budget below 1 is a usage error.

The verification suites live in heckealg.verify, which only `verify`
and `selftest` import: without bytecode every imported module is
compiled, and the suites were the largest part of this module's compile.
This module keeps their names and options, in the order `verify all`
runs them, and returns their checks as records.

A run computes in one context, which `main` builds from the options
the command reads before the command runs, and hands to it: the
H_(n+1) -> H_n transfer for a command that takes --split and for every
verify suite, the rank-n algebra for any other command that takes --n,
and none for `count-subgroups`, which counts in its own ambient group.
So --p and --n are checked before any class or element literal is read.

Commands return records and print nothing; `main` renders them in the
one format --output names and builds no other (the text form of a table
is its csv).  Only this module knows the JSON and csv shape of a result.
`main` also loads the cache before the context is built and flushes it
only after the command returns, so a usage error, a budget overrun or a
failed exact identity (exit 2, 3 or 4 from an error) writes nothing,
while a verify run whose checks fail (exit 4) keeps what it computed.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterator

from .cache import CacheStore
from .errors import DEFAULT_BUDGET, BudgetExceededError, VerificationError
from .hall import _delsarte_counts
from .hecke import (
    HeckeContext,
    HeckeElement,
    _c_cells,
    c_coeff,
    decompose_in_generators,
    multiply,
    basis_element,
    parse_element,
)
from .omega import OmegaContext, a_coeff, b_coeff, omega
from .partitions import (
    embedded_pairs,
    format_partition,
    order_exponent,
    parse_partition,
    partitions_between,
    partitions_up_to,
)
from .subgroups import Ambient

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
    "cache": dict(help="cache directory"),
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
# --trunc if it enumerates, --split and --cache if it computes the
# transfer, whose b values alone are stored); of the suites only oracle
# and all take --split, and hom, tp and shimura, which read no b, no --cache
_ELEMENT_OPTIONS = "p n output"
_ELEMENT_SWEEP_OPTIONS = _ELEMENT_OPTIONS + " max-order-exp"
_TRANSFER_OPTIONS = "p n cache output split"
_TRANSFER_SWEEP_OPTIONS = _TRANSFER_OPTIONS + " max-order-exp"
_SWEEP_OPTIONS = _TRANSFER_SWEEP_OPTIONS + " budget trunc"


def _context(
    args: argparse.Namespace, memo: dict[str, int]
) -> HeckeContext | OmegaContext | None:
    """The run's one context: the transfer over memo if args holds a split
    (a command with --split, and every suite by default), else the rank-n
    algebra; none for count-subgroups, whose Ambient checks its p, n, r."""
    budget = getattr(args, "budget", DEFAULT_BUDGET)
    if "split" in args:
        return OmegaContext(
            p=args.p,
            n=args.n,
            split=args.split,
            trunc_override=getattr(args, "trunc", None),
            budget=budget,
            memo=memo,
        )
    if args.command == "count-subgroups":
        return None
    return HeckeContext(p=args.p, n=args.n, budget=budget)


# --- output -----------------------------------------------------------------


# the records of the package are plain classes or named tuples, and its
# annotation names come from collections.abc: importing dataclasses (and
# inspect with it) or typing would cost every command-line call several ms
class _Output(namedtuple("_Output", "head key columns records text code",
                          defaults=(None, EXIT_OK))):
    """What a command returns: its result as records, which only _emit renders.

    head holds the leading JSON fields, key the JSON field of the record
    list (None: the one record's fields follow head's).  columns names a
    record's fields in order, and is the csv header; a last column
    (name, *columns) holds a list of sub-records, which nest under name in
    JSON and give one csv row each.  records is read once; its classes are
    tuples.  text makes the text form (None: the csv table), and code is
    the exit code.
    """

    __slots__ = ()


def _emit(args, out: _Output) -> None:
    """Print out in the format --output names, and build no other."""
    if args.output == "json":
        fields = [_fields(out.columns, record) for record in out.records]
        payload = {**out.head, **(fields[0] if out.key is None else {out.key: fields})}
        print(json.dumps(payload))  # a tuple, so a class, becomes a JSON list
    elif args.output == "csv" or out.text is None:
        *flat, last = out.columns
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(out.columns if isinstance(last, str) else [*flat, *last[1:]])
        for record in out.records:
            w.writerows(_rows(out.columns, record))
    else:
        print(out.text())


def _fields(columns: tuple, record: tuple) -> dict:
    *flat, last = columns
    if isinstance(last, str):
        return dict(zip(columns, record))
    name, *sub = last
    return {**dict(zip(flat, record)), name: [dict(zip(sub, r)) for r in record[-1]]}


def _rows(columns: tuple, record: tuple) -> list[list]:
    if isinstance(columns[-1], str):
        return [list(map(_cell, record))]
    *flat, subs = record
    flat = list(map(_cell, flat))
    return [flat + list(map(_cell, r)) for r in subs]


def _cell(value):
    """A csv cell: a class as format_partition writes it, a bool as true or false."""
    if isinstance(value, tuple):
        return format_partition(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return value


def _terms(terms: list[tuple]) -> Iterator[tuple[tuple, str]]:
    """The (class or exponents, coefficient) records of sorted terms."""
    return ((lam, str(c)) for lam, c in terms)


def _element_output(elem: HeckeElement) -> _Output:
    return _Output({"p": elem.p, "n": elem.n}, "terms", ("lambda", "coeff"),
                   _terms(elem.sorted_terms()), elem.to_text)


# --- element commands ---------------------------------------------------------


def _cmd_mul(args, ctx: HeckeContext) -> _Output:
    x = parse_element(args.x, args.p, args.n)
    y = parse_element(args.y, args.p, args.n)
    return _element_output(multiply(x, y, ctx))


def _cmd_omega(args, ctx: OmegaContext) -> _Output:
    return _element_output(omega(parse_element(args.x, args.p, args.n + 1), ctx))


def _cmd_decompose(args, ctx: HeckeContext) -> _Output:
    poly = decompose_in_generators(parse_element(args.x, args.p, args.n), ctx)
    return _Output({"p": args.p, "n": poly.n}, "terms", ("exponents", "coeff"),
                   _terms(poly.sorted_terms()), poly.to_text)


# --- scalar coefficients and their tables --------------------------------------


# kind -> its cells' classes: the `*coeff` options, the table columns and
# the JSON fields alike
_COLUMNS = {"c": ("M", "N", "L"), "a": ("M", "N"), "b": ("B", "A")}


def _value(kind: str, cell: tuple, ctx) -> str:
    """The cell's coefficient as a decimal string.  Its function is looked
    up in this module at each call, so a wrapper bound over the name sees
    the call."""
    return str(globals()[f"{kind}_coeff"](*cell, ctx))


def _cmd_coeff(args, ctx: HeckeContext | OmegaContext) -> _Output:
    columns = _COLUMNS[args.kind]
    cell = tuple(parse_partition(getattr(args, name)) for name in columns)
    record = (*cell, _value(args.kind, cell, ctx))
    return _Output({"p": args.p, "n": args.n}, None, (*columns, "value"), [record],
                   lambda: record[-1])


def _cmd_table(args, ctx: HeckeContext | OmegaContext) -> _Output:
    """Row M of the transfer's matrix (a(M, N)) is the image omega(M), so
    `table a` reads its cells off the images that `table omega` prints; b
    and c are computed one cell at a time."""
    head, d, n, kind = {"p": args.p, "n": args.n}, args.max_order_exp, args.n, args.kind
    if kind in ("a", "omega"):
        ms = list(partitions_up_to(d, n + 1))
        images = (omega(basis_element(m, ctx.source), ctx) for m in ms)  # held one at a time
        if kind == "omega":
            entries = zip(ms, [_terms(image.sorted_terms()) for image in images])
            return _Output(head, "entries", ("M", ("image", "lambda", "coeff")), entries)
        records = [(m, n_, str(image.terms.get(n_, 0)))
                   for m, image in zip(ms, images) for n_ in partitions_between((), m[:n])]
    else:
        cells = _c_cells(d, n) if kind == "c" else embedded_pairs(d, n)
        records = [(*cell, _value(kind, cell, ctx)) for cell in cells]
    return _Output({**head, "table": kind}, "rows", (*_COLUMNS[kind], "value"), records)


# --- verification suites --------------------------------------------------------


# suite -> the options it reads, in the order `verify all` runs them (the
# suites are heckealg.verify.SUITES)
_SUITES = {
    "hom": _ELEMENT_SWEEP_OPTIONS,
    "tp": _ELEMENT_SWEEP_OPTIONS,
    "inverse": "p n cache output max-order-exp",
    "shimura": _ELEMENT_SWEEP_OPTIONS,
    "oracle": _SWEEP_OPTIONS,
}


def _cmd_verify(args, ctx: HeckeContext | OmegaContext) -> _Output:
    """Run args.suite, or every suite for a name _SUITES lacks ("all",
    "selftest"), against the run's one context."""
    from .verify import SUITES  # only verify and selftest compile the suites

    names = [args.suite] if args.suite in _SUITES else list(_SUITES)
    checks = [check for name in names for check in SUITES[name](args.max_order_exp, ctx)]
    failures = sum(not ok for _, ok, _ in checks)

    def text() -> str:
        lines = [f"ok   {c}" if ok else f"FAIL {c}: {why}" for c, ok, why in checks]
        return "\n".join([*lines, f"{len(checks)} checks, {failures} failed"])

    head = {"suite": args.suite, "p": args.p, "n": args.n, "passed": not failures}
    return _Output(head, "checks", ("name", "passed", "detail"), checks, text,
                   EXIT_VERIFY if failures else EXIT_OK)


def _cmd_count_subgroups(args, ctx: None) -> _Output:
    p, n, r = Ambient(args.p, args.n, args.trunc)  # refuses a bad p, n or r
    # C(n + r, n) >= n + r types, each a product over n + r parts of binomials
    # from n q-Pascal rows whose digits grow with n: priced before any is
    # listed, and C(n + r, n) computed only once n + r is small
    price = (n + r) ** 2 * n
    if price <= DEFAULT_BUDGET:
        price = math.comb(n + r, n) * (n + r) * n
    if price > DEFAULT_BUDGET:
        raise BudgetExceededError(price, DEFAULT_BUDGET, (
            f"counting the subgroups of (Z/{p}^{r})^{n} by type needs at least {price} steps"))
    counts = _delsarte_counts((r,) * n, p)
    ordered = sorted(counts.items(), key=lambda item: (order_exponent(item[0]), item[0]))
    total = sum(counts.values())
    head = {"p": args.p, "n": args.n, "r": args.trunc, "total": total}
    return _Output(head, "by_type", ("type", "count"), ordered, lambda: str(total))


# --- entry point -----------------------------------------------------------------


def _arguments(options: str, own: dict[str, dict] | None = None) -> dict[str, dict]:
    """flag or positional name -> add_argument keywords: the shared options
    named in options, then own."""
    return {**{f"--{name}": _OPTIONS[name] for name in options.split()}, **(own or {})}


# A command: its help, the dest that names its kind or suite, and its
# leaves: kind or suite -> the arguments it reads (_arguments), the one
# leaf of a plain command keyed None; then what it sets as defaults.
_Command = namedtuple("_Command", "help dest leaves defaults")


def _plain(help: str, options: str, own: dict[str, dict], defaults: dict) -> _Command:
    """A command with no kind or suite: its one leaf, keyed None."""
    return _Command(help, None, {None: _arguments(options, own)}, defaults)


_REQUIRED = dict(required=True)

# the grammar, one table of leaves: _read_argv reads a well-formed argv
# straight off it, and _build_parser builds the whole argparse tree from
# it for help, usage errors and every other spelling
_COMMANDS = {
    "ccoeff": _plain(
        "structure constant c(M, N; L)", _ELEMENT_OPTIONS,
        {"--M": dict(required=True, help='partition literal, e.g. "[1]"'),
         "--N": _REQUIRED, "--L": _REQUIRED},
        dict(func=_cmd_coeff, kind="c")),
    "acoeff": _plain(
        "transfer coefficient a(M, N)", _TRANSFER_OPTIONS,
        {"--M": dict(required=True, help="class upstairs (rank n+1)"),
         "--N": dict(required=True, help="class downstairs (rank n)")},
        dict(func=_cmd_coeff, kind="a")),
    "bcoeff": _plain(
        "inverse-transfer coefficient b(B, A)", _TRANSFER_OPTIONS,
        {"--B": _REQUIRED, "--A": _REQUIRED}, dict(func=_cmd_coeff, kind="b")),
    "mul": _plain(
        "product of two elements", _ELEMENT_OPTIONS,
        {"x": dict(help='element literal, e.g. "1*[1] + 2*[]"'), "y": {}},
        dict(func=_cmd_mul)),
    "omega": _plain(
        "transfer an element down one rank", _TRANSFER_OPTIONS,
        {"x": dict(help="element of the rank-(n+1) algebra")}, dict(func=_cmd_omega)),
    "decompose": _plain(
        "write an element in the generators T_k", _ELEMENT_OPTIONS, {"x": {}},
        dict(func=_cmd_decompose)),
    "table": _Command("tabulate coefficients", "kind", {
        "c": _arguments(_ELEMENT_SWEEP_OPTIONS),
        **dict.fromkeys(("a", "b", "omega"), _arguments(_TRANSFER_SWEEP_OPTIONS)),
    }, dict(func=_cmd_table)),
    "verify": _Command("run a verification suite", "suite", {
        suite: _arguments(options) for suite, options in {**_SUITES, "all": _SWEEP_OPTIONS}.items()
    }, dict(func=_cmd_verify, split="first")),
    "count-subgroups": _plain(
        "count subgroups of (Z/p^r)^n, r from --trunc", _ELEMENT_OPTIONS,
        {"--n": dict(type=int, required=True, help="rank n of the ambient (Z/p^r)^n"),
         "--trunc": dict(type=int, default=1, help="truncation exponent r")},
        dict(func=_cmd_count_subgroups)),
    "selftest": _plain(
        "small fixed verification run", "budget output", {},
        dict(func=_cmd_verify, suite="selftest", p=2, n=1, max_order_exp=2, split="first")),
}


def _leaf(argv: list[str]) -> tuple[dict, dict, list[str]] | None:
    """The arguments the rest of argv is read against, the defaults and
    that rest, past the command argv[0] and the kind or suite argv[1] of
    `table` and `verify`; None if argv names no command, kind or suite."""
    spec = _COMMANDS.get(argv[0]) if argv else None
    if spec is None:
        return None
    if spec.dest is None:
        return spec.leaves[None], spec.defaults, argv[1:]
    if len(argv) < 2 or argv[1] not in spec.leaves:
        return None
    return spec.leaves[argv[1]], {spec.dest: argv[1], **spec.defaults}, argv[2:]


def _read_argv(argv: list[str]) -> argparse.Namespace | None:
    """The namespace argparse gives a well-formed argv, read off the leaf
    of _COMMANDS that _leaf finds, the same leaf _build_parser gives to
    argparse, without building a parser; None for any other argv.

    Well-formed: argv[0] names a command, and argv[1] the kind or suite of
    `table` and `verify`.  Every later token is a positional without a
    leading dash, or an exact --name the command takes, at most once,
    followed by a value without a leading dash.  The positionals are
    exactly as many as the command takes, every required option is there,
    and each value passes the option's type and choices.
    """
    leaf = _leaf(argv)
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
    return _read_argv(argv) or _build_parser().parse_args(argv)


class _Parser(argparse.ArgumentParser):
    """Reports the arguments it cannot place under its own usage and name,
    where argparse hands them up to the root; subparsers take its class."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree: every command, table kind and verify suite
    with its arguments and -h."""
    parser = _Parser(
        prog="heckealg",
        description="Exact structure constants, transfers and checks "
        "for algebras of finite abelian p-groups of bounded rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, spec in _COMMANDS.items():
        command = sub.add_parser(name, help=spec.help)
        kinds = spec.dest and command.add_subparsers(dest=spec.dest, required=True)
        for kind, arguments in spec.leaves.items():
            leaf = command if kind is None else kinds.add_parser(kind)
            for flag, kwargs in arguments.items():
                leaf.add_argument(flag, **kwargs)
        command.set_defaults(**spec.defaults)
        if spec.dest:
            command.formatter_class = argparse.RawDescriptionHelpFormatter
            command.epilog = f"options by {spec.dest}:\n" + "\n".join(
                f"  {kind}: " + " ".join(arguments) for kind, arguments in spec.leaves.items()
            )
    return parser


def main(argv: list[str] | None = None) -> int:
    # exact values are read, cached and printed at any size: lift CPython's
    # limit on int/str conversion for this run only (a Python without the
    # limit has no setter)
    if not hasattr(sys, "set_int_max_str_digits"):
        return _run(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return _run(argv)
    finally:
        sys.set_int_max_str_digits(limit)


def _run(argv: list[str] | None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = _parse(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    directory = getattr(args, "cache", None)  # only a command run in the transfer takes --cache
    if directory == "":
        print("error: cache: --cache needs a directory", file=sys.stderr)
        return EXIT_USAGE
    store = CacheStore(directory) if directory is not None else None
    try:
        memo = store.load() if store else {}
        out = args.func(args, _context(args, memo))
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
    try:
        _emit(args, out)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone, as under `| head`: what it did not read is
        # dropped, and stdout points at devnull so the flush at exit cannot fail
        try:
            fd = sys.stdout.fileno()
        except (AttributeError, ValueError):  # io.UnsupportedOperation is a ValueError
            return out.code
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, fd)
        os.close(devnull)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
