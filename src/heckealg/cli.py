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

Exit codes: 0 success, 2 bad arguments or unparsable input, 3 an
enumeration would exceed --budget, 4 a verification check failed.

For `omega`, `acoeff` and `table a` the class M lives in the rank-(n+1)
algebra upstairs; --n names the target rank.  Commands that compute a
transfer take --split (the transfer kernel) and --trunc, which only
raises the truncation exponent; `table c` and `verify shimura` take
neither.  The transfer's default route ("transversal" in `verify
oracle`) is a closed form that neither changes; they steer its
enumeration oracle.  --budget bounds enumerations, so `acoeff`,
`bcoeff`, `omega`, `table a|b|omega` and `verify tp|inverse` do not
take it.  For `count-subgroups` --trunc is the exponent r of
(Z/p^r)^n (default 1).  --cache points at a directory holding the
append-only coefficient cache (environment variable HECKE_CACHE_DIR
supplies the default).  Each command, table kind and suite accepts
only the options it reads; `table --help` and `verify --help` list them.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterator

from .cache import CACHE_ENV, CacheStore
from .errors import BudgetExceededError, ParseError, VerificationError
from .hecke import (
    HeckeContext,
    HeckeElement,
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
    partitions_of_exponent,
    partitions_up_to,
)
from .subgroups import (
    DEFAULT_BUDGET,
    Ambient,
    count_of_type_in_group,
    enumerate_subgroups,
    m_count,
    type_of,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VERIFY = 4

__all__ = ["main"]


# --- option plumbing ---------------------------------------------------------


_OPTIONS = {
    "p": dict(type=int, required=True, help="the prime"),
    "n": dict(type=int, required=True, help="algebra rank (target rank for omega)"),
    "budget": dict(
        type=int,
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
    "trunc": dict(type=int, help="raise the truncation exponent (never lowers it)"),
    "max-order-exp": dict(
        type=int,
        default=3,
        help="order-exponent bound for tables and verification sweeps",
    ),
}

# the options each command reads, by what it computes (--budget if it enumerates)
_CELL_OPTIONS = "p n budget cache output"
_TRANSFER_OPTIONS = "p n cache output split trunc"
_CELL_SWEEP_OPTIONS = _CELL_OPTIONS + " max-order-exp"
_TRANSFER_SWEEP_OPTIONS = _TRANSFER_OPTIONS + " max-order-exp"
_SWEEP_OPTIONS = _TRANSFER_SWEEP_OPTIONS + " budget"


def _add_options(parser: argparse.ArgumentParser, names: str) -> None:
    for name in names.split():
        parser.add_argument(f"--{name}", **_OPTIONS[name])


def _add_kinds(
    parser: argparse.ArgumentParser, dest: str, kinds: dict[str, str], func
) -> None:
    """One nested subparser per table kind or verify suite, with its own options."""
    sub = parser.add_subparsers(dest=dest, required=True)
    for name, names in kinds.items():
        _add_options(sub.add_parser(name), names)
    parser.set_defaults(func=func)
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.epilog = f"options by {dest}:\n" + "\n".join(
        f"  {name}: --" + " --".join(names.split()) for name, names in kinds.items()
    )


def _cache_dir(args: argparse.Namespace) -> str | None:
    if args.cache:
        return args.cache
    return os.environ.get(CACHE_ENV) or None


def _open_cache(args: argparse.Namespace) -> tuple[CacheStore | None, dict[str, int]]:
    directory = _cache_dir(args)
    if not directory:
        return None, {}
    store = CacheStore(directory)
    return store, store.load()


def _close_cache(store: CacheStore | None, memo: dict[str, int]) -> None:
    if store is not None:
        store.flush(memo)


def _hecke_ctx(args: argparse.Namespace, memo: dict[str, int]) -> HeckeContext:
    return HeckeContext(p=args.p, n=args.n, budget=args.budget, memo=memo)


def _omega_ctx(args: argparse.Namespace, memo: dict[str, int]) -> OmegaContext:
    return OmegaContext(
        p=args.p,
        n=args.n,
        split=args.split,
        trunc_override=args.trunc,
        budget=getattr(args, "budget", DEFAULT_BUDGET),
        memo=memo,
    )


# --- output helpers -----------------------------------------------------------


def _write_csv(header: list[str], rows) -> None:
    w = csv.writer(sys.stdout, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)


def _emit_element(args, elem: HeckeElement) -> None:
    if args.output == "json":
        print(json.dumps(elem.to_json_dict()))
    elif args.output == "csv":
        _write_csv(
            ["lambda", "coeff"],
            ([format_partition(lam), str(c)] for lam, c in elem.sorted_terms()),
        )
    else:
        print(elem.to_text())


# --- element commands ---------------------------------------------------------


def _cmd_mul(args) -> int:
    store, memo = _open_cache(args)
    ctx = _hecke_ctx(args, memo)
    x = parse_element(args.x, args.p, args.n)
    y = parse_element(args.y, args.p, args.n)
    result = multiply(x, y, ctx)
    _close_cache(store, memo)
    _emit_element(args, result)
    return EXIT_OK


def _cmd_omega(args) -> int:
    store, memo = _open_cache(args)
    ctx = _omega_ctx(args, memo)
    x = parse_element(args.x, args.p, args.n + 1)
    result = omega(x, ctx)
    _close_cache(store, memo)
    _emit_element(args, result)
    return EXIT_OK


def _cmd_decompose(args) -> int:
    store, memo = _open_cache(args)
    ctx = _hecke_ctx(args, memo)
    x = parse_element(args.x, args.p, args.n)
    poly = decompose_in_generators(x, ctx)
    _close_cache(store, memo)
    if args.output == "json":
        payload = {"p": args.p, **poly.to_json_dict()}
        print(json.dumps(payload))
    elif args.output == "csv":
        _write_csv(
            ["exponents", "coeff"],
            (
                ["[" + ",".join(str(a) for a in exps) + "]", str(c)]
                for exps, c in poly.sorted_terms()
            ),
        )
    else:
        print(poly.to_text())
    return EXIT_OK


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
        for small in partitions_up_to(order_exponent(big), inner_rank):
            if embeds(small, big):
                yield big, small


@dataclass(frozen=True)
class _CoeffSpec:
    """One scalar coefficient: its argument names, context, table cells, value.

    The argument names are the `*coeff` options, the table columns and
    the JSON fields alike.
    """

    columns: tuple[str, ...]
    context: Callable
    cells: Callable
    value: Callable


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


def _cell_fields(columns: tuple[str, ...], cell: tuple, value: int) -> dict:
    fields: dict = {name: list(lam) for name, lam in zip(columns, cell)}
    fields["value"] = str(value)
    return fields


def _cell_row(cell: tuple, value: int) -> list[str]:
    return [format_partition(lam) for lam in cell] + [str(value)]


def _cmd_coeff(args) -> int:
    spec = _COEFFS[args.kind]
    cell = tuple(parse_partition(getattr(args, name)) for name in spec.columns)
    store, memo = _open_cache(args)
    value = spec.value(*cell, spec.context(args, memo))
    _close_cache(store, memo)
    if args.output == "json":
        fields = _cell_fields(spec.columns, cell, value)
        print(json.dumps({"p": args.p, "n": args.n, **fields}))
    elif args.output == "csv":
        _write_csv([*spec.columns, "value"], [_cell_row(cell, value)])
    else:
        print(value)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.kind == "omega":
        return _table_omega(args)
    spec = _COEFFS[args.kind]
    store, memo = _open_cache(args)
    cells = list(spec.cells(args))
    ctx = spec.context(args, memo)
    values = [spec.value(*cell, ctx) for cell in cells]
    _close_cache(store, memo)
    if args.output == "json":
        rows = [_cell_fields(spec.columns, cell, v) for cell, v in zip(cells, values)]
        print(json.dumps({"p": args.p, "n": args.n, "table": args.kind, "rows": rows}))
    else:
        # text tables are the csv form
        _write_csv(
            [*spec.columns, "value"],
            (_cell_row(cell, v) for cell, v in zip(cells, values)),
        )
    return EXIT_OK


def _table_omega(args) -> int:
    store, memo = _open_cache(args)
    ms = list(partitions_up_to(args.max_order_exp, args.n + 1))
    ctx = _omega_ctx(args, memo)
    images = [omega(basis_element(m, ctx.source), ctx).sorted_terms() for m in ms]
    _close_cache(store, memo)
    if args.output == "json":
        entries = [
            {
                "M": list(m),
                "image": [{"lambda": list(lam), "coeff": str(c)} for lam, c in image],
            }
            for m, image in zip(ms, images)
        ]
        print(json.dumps({"p": args.p, "n": args.n, "entries": entries}))
    else:
        _write_csv(
            ["M", "lambda", "coeff"],
            (
                [format_partition(m), format_partition(lam), str(c)]
                for m, image in zip(ms, images)
                for lam, c in image
            ),
        )
    return EXIT_OK


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
        for a in parts:
            if order_exponent(a) > order_exponent(b) or not embeds(a, b):
                continue
            mids = [
                c
                for c in partitions_up_to(order_exponent(b), args.n)
                if embeds(a, c) and embeds(c, b)
            ]
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

    def total(n: int, r: int) -> int:
        amb = Ambient(p, n, r)
        return sum(1 for _ in enumerate_subgroups(amb, budget=budget))

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
    octx = _omega_ctx(args, memo)
    for m in partitions_up_to(maxoe, args.n + 1):
        for n_ in partitions_up_to(order_exponent(m), args.n):
            va = a_coeff(m, n_, octx)
            vb = a_coeff(m, n_, octx, method="enumeration")
            checks.append(
                (
                    f"a-route M={format_partition(m)} N={format_partition(n_)}",
                    va == vb,
                    f"transversal {va}, enumeration {vb}",
                )
            )
    hctx = _hecke_ctx(args, memo)
    for m, n_, l in _c_cells(args):
        vc = c_coeff(m, n_, l, hctx)
        vv = c_coeff(m, n_, l, hctx, verify=True)
        checks.append(
            (
                f"c-route M={format_partition(m)} "
                f"N={format_partition(n_)} L={format_partition(l)}",
                vc == vv,
                f"table {vc}, normalized count {vv}",
            )
        )


_SUITES = {
    "hom": (_suite_hom, _SWEEP_OPTIONS),
    "tp": (_suite_tp, _TRANSFER_SWEEP_OPTIONS),
    "inverse": (_suite_inverse, _TRANSFER_SWEEP_OPTIONS),
    "shimura": (_suite_shimura, _CELL_SWEEP_OPTIONS),
    "oracle": (_suite_oracle, _SWEEP_OPTIONS),
}


def _run_suites(args, memo: dict[str, int]) -> list:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    checks: list = []
    for name in names:
        _SUITES[name][0](args, memo, checks)
    return checks


def _emit_checks(args, suite: str, checks: list) -> int:
    failures = [c for c in checks if not c[1]]
    if args.output == "json":
        print(
            json.dumps(
                {
                    "suite": suite,
                    "p": args.p,
                    "n": args.n,
                    "passed": not failures,
                    "checks": [
                        {"name": name, "passed": ok, "detail": detail}
                        for name, ok, detail in checks
                    ],
                }
            )
        )
    elif args.output == "csv":
        _write_csv(
            ["name", "passed", "detail"],
            ([name, "true" if ok else "false", detail] for name, ok, detail in checks),
        )
    else:
        for name, ok, detail in checks:
            if ok:
                print(f"ok   {name}")
            else:
                print(f"FAIL {name}: {detail}")
        print(f"{len(checks)} checks, {len(failures)} failed")
    return EXIT_VERIFY if failures else EXIT_OK


def _cmd_verify(args) -> int:
    store, memo = _open_cache(args)
    checks = _run_suites(args, memo)
    _close_cache(store, memo)
    return _emit_checks(args, args.suite, checks)


def _cmd_count_subgroups(args) -> int:
    amb = Ambient(args.p, args.n, args.trunc)
    by_type: dict = {}
    for s in enumerate_subgroups(amb, budget=args.budget):
        t = type_of(s)
        by_type[t] = by_type.get(t, 0) + 1
    total = sum(by_type.values())
    ordered = sorted(by_type.items(), key=lambda kv: (order_exponent(kv[0]), kv[0]))
    if args.output == "json":
        print(
            json.dumps(
                {
                    "p": args.p,
                    "n": args.n,
                    "r": args.trunc,
                    "total": total,
                    "by_type": [
                        {"type": list(t), "count": c} for t, c in ordered
                    ],
                }
            )
        )
    elif args.output == "csv":
        _write_csv(
            ["type", "count"], ([format_partition(t), str(c)] for t, c in ordered)
        )
    else:
        print(total)
    return EXIT_OK


def _cmd_selftest(args) -> int:
    ns = _build_parser().parse_args(
        ["verify", "all", "--p", "2", "--n", "1", "--max-order-exp", "2",
         "--budget", str(args.budget), "--output", args.output]
    )
    # a fresh memo: the self-test never reads or writes a cache
    return _emit_checks(ns, "selftest", _run_suites(ns, {}))


# --- entry point -----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heckealg",
        description="Exact structure constants, transfers and checks "
        "for algebras of finite abelian p-groups of bounded rank.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("ccoeff", help="structure constant c(M, N; L)")
    _add_options(sp, _CELL_OPTIONS)
    sp.add_argument("--M", required=True, help='partition literal, e.g. "[1]"')
    sp.add_argument("--N", required=True)
    sp.add_argument("--L", required=True)
    sp.set_defaults(func=_cmd_coeff, kind="c")

    sp = sub.add_parser("acoeff", help="transfer coefficient a(M, N)")
    _add_options(sp, _TRANSFER_OPTIONS)
    sp.add_argument("--M", required=True, help="class upstairs (rank n+1)")
    sp.add_argument("--N", required=True, help="class downstairs (rank n)")
    sp.set_defaults(func=_cmd_coeff, kind="a")

    sp = sub.add_parser("bcoeff", help="inverse-transfer coefficient b(B, A)")
    _add_options(sp, _TRANSFER_OPTIONS)
    sp.add_argument("--B", required=True)
    sp.add_argument("--A", required=True)
    sp.set_defaults(func=_cmd_coeff, kind="b")

    sp = sub.add_parser("mul", help="product of two elements")
    _add_options(sp, _CELL_OPTIONS)
    sp.add_argument("x", help='element literal, e.g. "1*[1] + 2*[]"')
    sp.add_argument("y")
    sp.set_defaults(func=_cmd_mul)

    sp = sub.add_parser("omega", help="transfer an element down one rank")
    _add_options(sp, _TRANSFER_OPTIONS)
    sp.add_argument("x", help="element of the rank-(n+1) algebra")
    sp.set_defaults(func=_cmd_omega)

    sp = sub.add_parser("decompose", help="write an element in the generators T_k")
    _add_options(sp, _CELL_OPTIONS)
    sp.add_argument("x")
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("table", help="tabulate coefficients")
    transfers = dict.fromkeys(("a", "b", "omega"), _TRANSFER_SWEEP_OPTIONS)
    _add_kinds(sp, "kind", {"c": _CELL_SWEEP_OPTIONS, **transfers}, _cmd_table)

    sp = sub.add_parser("verify", help="run a verification suite")
    suites = {name: names for name, (_, names) in _SUITES.items()}
    _add_kinds(sp, "suite", {**suites, "all": _SWEEP_OPTIONS}, _cmd_verify)

    sp = sub.add_parser(
        "count-subgroups", help="count subgroups of (Z/p^r)^n, r from --trunc"
    )
    _add_options(sp, "p n budget output")
    sp.add_argument("--trunc", type=int, default=1, help="truncation exponent r")
    sp.set_defaults(func=_cmd_count_subgroups)

    sp = sub.add_parser("selftest", help="small fixed verification run")
    _add_options(sp, "budget output")
    sp.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, 0 after --help
        return exc.code
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except VerificationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
