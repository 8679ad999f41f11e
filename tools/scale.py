"""Scale probe: time fixed heckealg commands at (p, n) = (1009, 6) in real processes.

    python tools/scale.py [--rounds N] [--warm-cache DIR] [--tiny] TREE [TREE]

Each TREE is the root of a checkout; its commands run as
`python -m heckealg.cli ...` with PYTHONPATH=TREE/src.  With two trees
the probe alternates them command by command, in the other order every
round, so that a drift of the machine's speed falls on both.  One
unmeasured pass per tree comes first: it compiles the bytecode and, with
--warm-cache, fills the store.  The children keep their bytecode under
the probe's temporary directory (PYTHONPYCACHEPREFIX), whatever the
environment says: no tree's __pycache__ is read, and nothing is written
into a tree.

For each command and tree it records the wall time, the child's CPU
time (user + system) and its max RSS, all from os.wait4 of the child,
and the sha256 of its stdout.  A command that exits non-zero, or whose
stdout differs between the trees or between rounds, fails the probe
(exit 1).  The report is one JSON object on stdout: per command the
argv, the digest, and per tree the runs and their medians.

Without --warm-cache every child runs with no cache.  With it, a
command that takes --cache (the transfer's: table a, b and omega, and
verify inverse, hom and tp) is given `--cache DIR/tree<i>/cmd<k>`, k its
place and i its tree's, so it is measured against the store that its own
unmeasured pass filled, and no other command's lines.  Only b is stored,
so only table b and verify inverse fill a store; the others find none.
No child sees HECKE_CACHE_DIR: older checkouts read it as their default
store.

--tiny runs the same commands at (2, 2) with small bounds; a test uses
it to keep the probe working.  The probe measures only: it gates
nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import sys
import tempfile
import time


# the probe's commands that compute the transfer, the only ones that take --cache
CACHED = ("table a", "table b", "table omega", "verify inverse", "verify hom", "verify tp")


def commands(tiny: bool = False) -> dict[str, list[str]]:
    """name -> heckealg argv of the probe's fixed commands."""
    p, n = ("2", "2") if tiny else ("1009", "6")
    c_bounds, d = ((2, 3), 3) if tiny else ((10, 12), 14)
    suites = {"inverse": 2, "hom": 2, "tp": 3} if tiny else {"inverse": 10, "hom": 6, "tp": 14}
    x, y = ("1*[2,1]+2*[1,1]", "1*[2]-3*[1]") if tiny else (
        "1*[3,2,1]+2*[2,2,1,1]", "1*[2,2,1]-3*[4,1]")
    z = "1*[2,1]-5*[1,1]" if tiny else "1*[4,3,2,1,1]-5*[3,3,2,1]"
    out = {
        f"table c D={bound}": ["table", "c", "--p", p, "--n", n, "--max-order-exp", str(bound)]
        for bound in c_bounds
    }
    for kind in ("a", "b", "omega"):
        out[f"table {kind} D={d}"] = ["table", kind, "--p", p, "--n", n, "--max-order-exp", str(d)]
    for suite, bound in suites.items():
        out[f"verify {suite} D={bound}"] = [
            "verify", suite, "--p", p, "--n", n, "--max-order-exp", str(bound)]
    out["mul"] = ["mul", "--p", p, "--n", n, x, y]
    out["decompose"] = ["decompose", "--p", p, "--n", n, z]
    return out


def run(tree: str, argv: list[str], cache: str | None, scratch: str) -> dict:
    """One real-process run of argv against tree: its times, RSS and digest.
    Its stdout, stderr and bytecode go under scratch."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("HECKE_CACHE_DIR", "PYTHONDONTWRITEBYTECODE")}
    env["PYTHONPATH"] = os.path.join(tree, "src")
    env["PYTHONPYCACHEPREFIX"] = os.path.join(scratch, "pycache")
    if cache is not None:
        argv = [*argv, "--cache", cache]
    out_path, err_path = os.path.join(scratch, "stdout"), os.path.join(scratch, "stderr")
    out_fd = os.open(out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o600)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(
            sys.executable, [sys.executable, "-m", "heckealg.cli", *argv], env,
            file_actions=[(os.POSIX_SPAWN_DUP2, out_fd, 1), (os.POSIX_SPAWN_DUP2, err_fd, 2)],
        )
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
    finally:
        os.close(out_fd)
        os.close(err_fd)
    digest = hashlib.sha256()
    with open(out_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return {
        "exit": os.waitstatus_to_exitcode(status),
        "stderr": stderr,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,  # ru_maxrss is in KB on Linux
        "sha256": digest.hexdigest(),
    }


def probe(trees: list[str], rounds: int, warm_cache: str | None = None,
          tiny: bool = False) -> tuple[dict, list[str]]:
    """Run every command on every tree for rounds rounds, after one
    unmeasured pass; returns the report and the list of failures."""
    cmds = commands(tiny)
    runs = {name: [[] for _ in trees] for name in cmds}
    digests: dict[str, set[str]] = {name: set() for name in cmds}
    failures = []
    with tempfile.TemporaryDirectory(prefix="heckealg-scale-") as scratch:
        for number in range(rounds + 1):
            order = list(enumerate(trees))
            if number % 2:
                order.reverse()
            for k, (name, argv) in enumerate(cmds.items()):
                for i, tree in order:
                    cached = warm_cache and " ".join(argv[:2]) in CACHED
                    cache = os.path.join(warm_cache, f"tree{i}", f"cmd{k}") if cached else None
                    result = run(tree, argv, cache, scratch)
                    if result["exit"] != 0:
                        failures.append(f"{name} on {tree} exited {result['exit']}: "
                                        f"{result['stderr'].strip()}")
                    digests[name].add(result["sha256"])
                    if number:  # the first pass is unmeasured
                        runs[name][i].append(result)
    report = {"rounds": rounds, "trees": trees, "warm_cache": warm_cache is not None,
              "tiny": tiny, "commands": {}}
    for name, argv in cmds.items():
        if len(digests[name]) > 1:
            failures.append(f"{name}: stdout digests differ: {sorted(digests[name])}")
        report["commands"][name] = {
            "argv": argv,
            "sha256": sorted(digests[name]),
            "trees": [_summary(tree_runs) for tree_runs in runs[name]],
        }
    report["failures"] = failures
    return report, failures


def _summary(tree_runs: list[dict]) -> dict:
    out = {}
    for metric in ("wall_s", "cpu_s", "maxrss_mb"):
        values = [round(r[metric], 4) for r in tree_runs]
        out[metric] = values
        out[f"median_{metric}"] = round(statistics.median(values), 4) if values else None
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", metavar="TREE", help="checkout root (one or two)")
    parser.add_argument("--rounds", type=int, default=5, help="measured rounds (default 5)")
    parser.add_argument("--warm-cache", metavar="DIR",
                        help="give command k of tree i, if it takes --cache, "
                        "--cache DIR/tree<i>/cmd<k>")
    parser.add_argument("--tiny", action="store_true", help="the same commands at (2, 2)")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = [os.path.abspath(tree) for tree in args.trees]
    for tree in trees:
        if not os.path.isdir(os.path.join(tree, "src", "heckealg")):
            parser.error(f"{tree} has no src/heckealg")
    report, failures = probe(trees, args.rounds, args.warm_cache, args.tiny)
    print(json.dumps(report))
    for failure in failures:
        print(f"scale: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
