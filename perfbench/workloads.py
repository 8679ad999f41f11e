"""Seeded op lists for the benchmark workloads.

An op is the argv of one ``heckealg`` command, without ``--cache``; the
runner adds the cache directory the workload calls for.  Each workload is
a fixed list of slots, and the seed only chooses within a slot (which
cell, which classes, which coefficients, output format, split side and
order of ops), so that the work in one pass varies little from seed to
seed.  Nothing here calls into ``heckealg``: the driver process must stay
cold, so partitions are generated locally.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("transfer", "arithmetic", "verify", "cache_replay")

# (p, n, order-exponent bound, split side) of the transfer tables; p = 5
# shows whether a gain grows with p.
TRANSFER_GRID = ((3, 2, 5, "first"), (2, 3, 5, "last"), (5, 2, 4, "first"))
# cache_replay tables are one size smaller so that set-up, which computes
# the real cache entries, stays short; the replayed ops then spend their
# time loading the padded cache file.
REPLAY_GRID = ((3, 2, 4, "first"), (2, 3, 4, "last"), (5, 2, 3, "first"))
# Lines in the cache_replay file, real entries plus padding.
REPLAY_CACHE_LINES = 20_000

FORMATS = ("text", "json", "csv")
SPLITS = ("first", "last")


def partitions(d: int, max_parts: int, max_part: int | None = None) -> list[tuple[int, ...]]:
    """Partitions of d with at most max_parts parts, in a fixed order."""
    if max_part is None:
        max_part = d
    if d == 0:
        return [()]
    if max_parts == 0:
        return []
    out = []
    for first in range(min(d, max_part), 0, -1):
        for rest in partitions(d - first, max_parts - 1, first):
            out.append((first,) + rest)
    return out


def embeds(small: tuple[int, ...], big: tuple[int, ...]) -> bool:
    """Part-wise containment, which is when a group embeds in another."""
    return len(small) <= len(big) and all(a <= b for a, b in zip(small, big))


def fmt_partition(lam: tuple[int, ...]) -> str:
    return "[" + ",".join(str(x) for x in lam) + "]"


def fmt_element(terms: list[tuple[tuple[int, ...], int]]) -> str:
    """Element literal; the first coefficient is kept positive so argparse
    never mistakes the literal for an option."""
    first, *rest = terms
    text = f"{abs(first[1])}*{fmt_partition(first[0])}"
    for lam, c in rest:
        text += f" {'-' if c < 0 else '+'} {abs(c)}*{fmt_partition(lam)}"
    return text


def _coeff(rng: random.Random) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def _bins_cost(p: int, n: int, n_: tuple[int, ...], t: int, r: int) -> int:
    """Candidates the omega transversal tries for the bins (n_, t, r).

    Mirrors the enumeration in omega._transversal_bins; the trivial cases
    it answers in closed form cost nothing.
    """
    if t == 0 or t > r or not n_:
        return 0
    nu = n_ + (0,) * (n - len(n_))
    return p ** sum(min(t, r - x) for x in nu)


def _a_cost(p: int, n: int, m: tuple[int, ...], n_: tuple[int, ...]) -> int:
    return _bins_cost(p, n, n_, sum(m) - sum(n_), m[0] if m else 1)


def _omega_cost(p: int, n: int, classes: list[tuple[int, ...]]) -> int:
    keys = set()
    for m in classes:
        for e in range(sum(m) + 1):
            for n_ in partitions(e, n):
                if embeds(n_, m):
                    keys.add((n_, sum(m) - e, m[0] if m else 1))
    return sum(_bins_cost(p, n, *key) for key in keys)


def _b_cost(p: int, n: int, b: tuple[int, ...], a: tuple[int, ...]) -> int:
    between = [c for e in range(sum(a), sum(b) + 1) for c in partitions(e, n)
               if embeds(a, c) and embeds(c, b)]
    keys = {(y, sum(x) - sum(y), x[0]) for x in between for y in between
            if y != x and embeds(y, x)}
    return sum(_bins_cost(p, n, *key) for key in keys)


# Seeded single-cell ops are drawn only among cells whose transversal tries
# at most this many candidates, so that they are cheap next to the fixed
# tables and the work of a pass hardly depends on the seed.
CELL_COST_CAP = 400


def _cheap(options: list, cost) -> list:
    return [o for o in options if cost(o) <= CELL_COST_CAP]


def _cell_ops(rng: random.Random, p: int, n: int, d: int, count: int) -> list[list[str]]:
    """acoeff cells with M of order d, bcoeff cells with B of order d - 1."""
    pairs = [(m, s) for m in partitions(d, n + 1)
             for e in range(d) for s in partitions(e, n) if embeds(s, m)]
    pairs_b = [(b, s) for b in partitions(d - 1, n)
               for e in range(d - 1) for s in partitions(e, n) if embeds(s, b)]
    ops = []
    for m, n_ in rng.sample(_cheap(pairs, lambda mn: _a_cost(p, n, *mn)), count):
        ops.append(["acoeff", "--p", str(p), "--n", str(n),
                    "--M", fmt_partition(m), "--N", fmt_partition(n_),
                    "--output", rng.choice(FORMATS), "--split", rng.choice(SPLITS)])
    for b, a in rng.sample(_cheap(pairs_b, lambda ba: _b_cost(p, n, *ba)), count):
        ops.append(["bcoeff", "--p", str(p), "--n", str(n),
                    "--B", fmt_partition(b), "--A", fmt_partition(a),
                    "--output", rng.choice(FORMATS), "--split", rng.choice(SPLITS)])
    return ops


def _omega_ops(rng: random.Random, p: int, n: int, d: int, count: int) -> list[list[str]]:
    """omega of 2-4-term elements over cheap classes of order below d."""
    pool = _cheap([lam for e in range(1, d) for lam in partitions(e, n + 1)],
                  lambda lam: _omega_cost(p, n, [lam]))
    ops = []
    for _ in range(count):
        classes = rng.sample(pool, rng.randint(2, 4))
        ops.append(["omega", "--p", str(p), "--n", str(n), "--split", rng.choice(SPLITS),
                    fmt_element([(lam, _coeff(rng)) for lam in classes])])
    return ops


def _table(kind: str, p: int, n: int, d: int, fmt: str, split: str = "first") -> list[str]:
    return ["table", kind, "--p", str(p), "--n", str(n), "--max-order-exp", str(d),
            "--output", fmt, "--split", split]


def _transfer(rng: random.Random) -> list[list[str]]:
    ops = []
    for p, n, d, split in TRANSFER_GRID:
        # the split side changes the work of a table, so it is fixed per table
        ops.append(_table("omega", p, n, d, rng.choice(FORMATS), split))
        for kind in ("a", "b"):
            ops.append(_table(kind, p, n, d - 1, rng.choice(FORMATS), split))
        ops += _cell_ops(rng, p, n, d, 2)
        ops += _omega_ops(rng, p, n, d, 2)
    return ops


# (p, n, degree of x, degree of y) for mul; general classes, not only T_k.
# The small slots keep the mean op short, so that a run gathers 100 op
# timings within its length.
MUL_SLOTS = (
    (3, 3, 3, 3), (3, 3, 2, 4), (3, 3, 3, 2), (3, 3, 2, 2), (3, 3, 4, 1),
    (2, 4, 4, 3), (2, 4, 3, 2), (2, 4, 2, 2),
    (3, 4, 3, 2), (3, 4, 2, 2),
    (3, 3, 1, 1), (3, 3, 2, 1), (2, 4, 1, 1), (2, 4, 2, 1), (3, 4, 1, 1), (3, 4, 2, 1),
)
# (p, n, top degree) for decompose.  The cost of a decompose depends only
# on its top degree.  The five slowest slots cost about the same and make
# up a fifth of the ops, so the 90th percentile of op times falls in the
# middle of their cluster rather than at its edge.
DECOMPOSE_SLOTS = (
    (3, 3, 6), (3, 3, 5), (3, 3, 4),
    (2, 4, 7), (2, 4, 7), (2, 4, 5), (2, 4, 4),
    (3, 4, 6), (3, 4, 6), (3, 4, 6), (3, 4, 4),
)


def _homogeneous(rng: random.Random, d: int, n: int, k: int) -> list[tuple[tuple[int, ...], int]]:
    pool = partitions(d, n)
    return [(lam, _coeff(rng)) for lam in rng.sample(pool, min(k, len(pool)))]


def _arithmetic(rng: random.Random) -> list[list[str]]:
    ops = []
    for p, n, dx, dy in MUL_SLOTS:
        x = fmt_element(_homogeneous(rng, dx, n, rng.randint(1, 2)))
        y = fmt_element(_homogeneous(rng, dy, n, rng.randint(1, 2)))
        ops.append(["mul", "--p", str(p), "--n", str(n), x, y])
    for p, n, d in DECOMPOSE_SLOTS:
        # one term at the top degree, plus lower-degree terms
        terms = _homogeneous(rng, d, n, 1)
        for e in rng.sample(range(1, d), 2):
            terms += _homogeneous(rng, e, n, 1)
        ops.append(["decompose", "--p", str(p), "--n", str(n), fmt_element(terms)])
    return ops


VERIFY_OPS = (
    ["verify", "oracle", "--p", "3", "--n", "2", "--max-order-exp", "3"],
    ["verify", "oracle", "--p", "2", "--n", "2", "--max-order-exp", "4"],
    ["verify", "inverse", "--p", "3", "--n", "2", "--max-order-exp", "5"],
    ["verify", "all", "--p", "2", "--n", "1", "--max-order-exp", "5"],
)
# (p, n, trunc) for count-subgroups, all cheap.
COUNT_CELLS = tuple(
    (p, n, r)
    for p in (2, 3)
    for n, r in ((1, 4), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1))
)


def _verify(rng: random.Random) -> list[list[str]]:
    ops = [op + ["--output", rng.choice(FORMATS)] for op in VERIFY_OPS]
    for p, n, r in rng.sample(COUNT_CELLS, 14) + rng.sample(COUNT_CELLS, 7):
        ops.append(["count-subgroups", "--p", str(p), "--n", str(n), "--trunc", str(r),
                    "--output", rng.choice(FORMATS)])
    return ops


def _cache_replay(rng: random.Random) -> list[list[str]]:
    ops = []
    for p, n, d, split in REPLAY_GRID:
        for kind in ("omega", "a", "b"):
            ops.append(_table(kind, p, n, d, rng.choice(FORMATS), split))
        ops += _cell_ops(rng, p, n, d, 2)
    return ops


_MAKERS = {
    "transfer": _transfer,
    "arithmetic": _arithmetic,
    "verify": _verify,
    "cache_replay": _cache_replay,
}


def make_ops(workload: str, seed: int) -> list[list[str]]:
    """The op list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    ops = _MAKERS[workload](rng)
    rng.shuffle(ops)
    return ops


PAD_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)


def padding_lines(count: int) -> list[str]:
    """Cache records for (p, n) that no op queries, all of them true values.

    They are identities that hold for every p and n: c([], L; L) = 1,
    a(L, L) = 1 and b(L, L) = 1.
    """
    lines = []
    for p in PAD_PRIMES:
        for n in range(1, 7):
            for d in range(1, 13):
                for lam in partitions(d, n):
                    f = fmt_partition(lam)
                    for key in (f"c:p={p}:n={n}:M=[]:N={f}:L={f}",
                                f"a:p={p}:n={n}:M={f}:N={f}",
                                f"b:p={p}:n={n}:B={f}:A={f}"):
                        lines.append(json.dumps({"version": "1", "key": key, "value": "1"}))
                        if len(lines) == count:
                            return lines
    raise ValueError(f"padding pool holds fewer than {count} records")


def pad_cache(path: str, target_lines: int) -> None:
    """Append padding so the cache file holds target_lines lines."""
    with open(path, encoding="utf-8") as fh:
        have = sum(1 for _ in fh)
    with open(path, "a", encoding="utf-8") as fh:
        for line in padding_lines(max(0, target_lines - have)):
            fh.write(line + "\n")
