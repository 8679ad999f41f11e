"""Cold op runner, passes and output checks.

Every op runs as ``heckealg.cli.main(argv)`` in a fresh ``os.fork()``
child of the driver.  The driver has imported ``heckealg`` but computed
nothing, so each op starts with empty memos and ``lru_cache``s, as a
command-line call does, without paying for interpreter start-up.  One op
runs at a time.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import re
import shlex
import shutil
import signal
import sys
import time
import traceback
from dataclasses import dataclass, field

from spans import Tracer, install

# A runaway op is killed by SIGALRM after this many wall seconds and
# counted as failed; the slowest op here takes under 2 s.
OP_CEILING_S = 30
EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def op_key(argv: list[str]) -> str:
    return shlex.join(argv)


@dataclass
class OpResult:
    argv: list[str]
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    rc: int | None  # None when the child died without reporting
    digest: str | None = None
    stdout: str | None = None
    main_ns: int = 0
    trace: dict | None = None


def _child(argv: list[str], traced: bool, keep_stdout: bool) -> dict:
    out = io.StringIO()
    sys.stdout, sys.stderr = out, io.StringIO()
    tracer = None
    if traced:
        tracer = Tracer()
        install(tracer)
    import heckealg.cli as cli

    t0 = time.perf_counter_ns()
    try:
        rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects an argv with exit 2
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 1
    main_ns = time.perf_counter_ns() - t0
    text = out.getvalue()
    return {
        "rc": rc,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "stdout": text if keep_stdout else None,
        "main_ns": main_ns,
        "trace": tracer.snapshot() if tracer else None,
    }


def run_in_child(fn, *args, ceiling_s: int = OP_CEILING_S) -> tuple[object, float, tuple]:
    """Run fn(*args) in a forked child; return its JSON result, wall time
    and (status, rusage).  The result is None if the child died."""
    r, w = os.pipe()
    sys.stdout.flush()
    sys.stderr.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            os.close(r)
            signal.alarm(ceiling_s)
            data = json.dumps(fn(*args)).encode()
            while data:
                data = data[os.write(w, data):]
            code = 0
        except BaseException:
            traceback.print_exc(file=sys.__stderr__)
        finally:
            os._exit(code)
    os.close(w)
    chunks = []
    with os.fdopen(r, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            chunks.append(chunk)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    result = None
    if os.WIFEXITED(status) and os.WEXITSTATUS(status) == 0 and chunks:
        result = json.loads(b"".join(chunks))
    return result, wall, (status, usage)


def run_op(argv: list[str], *, traced: bool = False, keep_stdout: bool = False) -> OpResult:
    msg, wall, (_, usage) = run_in_child(_child, argv, traced, keep_stdout)
    res = OpResult(argv, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, None)
    if msg is None:  # killed at the ceiling or crashed: rc stays None, a failure
        return res
    res.rc = msg["rc"]
    res.digest = msg["digest"]
    res.stdout = msg["stdout"]
    res.main_ns = msg["main_ns"]
    res.trace = msg["trace"]
    return res


@dataclass
class Pass:
    traced: bool
    wall_s: float
    ops: list[OpResult] = field(default_factory=list)
    complete: bool = True


class Runner:
    """Runs passes over one op list, giving each op the cache it needs.

    cache_mode "fresh" gives every op execution a new empty cache
    directory, "shared" gives every op replay_dir, and "none" no cache.
    The first pass sends back the stdout of the ops named in keep_stdout,
    for the identity checks.
    """

    def __init__(self, ops: list[list[str]], workdir: str, cache_mode: str,
                 replay_dir: str | None = None, keep_stdout: frozenset[str] = frozenset()):
        self.ops = ops
        self.workdir = workdir
        self.cache_mode = cache_mode
        self.replay_dir = replay_dir
        self.keep_stdout = keep_stdout
        self._fresh = 0
        self._passes = 0

    def argv(self, op: list[str]) -> list[str]:
        if self.cache_mode == "fresh":
            self._fresh += 1
            return op + ["--cache", os.path.join(self.workdir, "fresh", str(self._fresh))]
        if self.cache_mode == "shared":
            return op + ["--cache", self.replay_dir]
        return list(op)

    def run_pass(self, traced: bool, stop_at: float = math.inf) -> Pass:
        """One pass over the op list; no op starts after the stop_at clock."""
        first = self._passes == 0
        self._passes += 1
        plan = [(op, self.argv(op), first and op_key(op) in self.keep_stdout) for op in self.ops]
        done = Pass(traced, 0.0)
        t0 = time.perf_counter()
        for op, argv, keep in plan:
            if time.perf_counter() > stop_at:
                done.complete = False
                break
            res = run_op(argv, traced=traced, keep_stdout=keep)
            res.argv = op
            done.ops.append(res)
        done.wall_s = time.perf_counter() - t0
        shutil.rmtree(os.path.join(self.workdir, "fresh"), ignore_errors=True)
        return done


# --- output checks --------------------------------------------------------------


def load_expected() -> dict[str, list]:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)["ops"]


IDENTITY_KINDS = ("decompose", "mul", "omega")


def _parse_poly(text: str, n: int):
    from heckealg import GeneratorPoly

    s = text.replace(" ", "")
    if s == "0":
        return GeneratorPoly(n, {})
    term = re.compile(r"([+-]?)(\d+)((?:\*T\d+(?:\^\d+)?)*)")
    coeffs: dict[tuple[int, ...], int] = {}
    pos = 0
    while pos < len(s):
        m = term.match(s, pos)
        if not m or m.end() == pos:
            raise ValueError(f"unparsable polynomial {text!r}")
        exps = [0] * n
        for k, a in re.findall(r"T(\d+)(?:\^(\d+))?", m.group(3)):
            exps[int(k) - 1] += int(a or 1)
        c = int(m.group(2)) * (-1 if m.group(1) == "-" else 1)
        coeffs[tuple(exps)] = coeffs.get(tuple(exps), 0) + c
        pos = m.end()
    return GeneratorPoly(n, coeffs)


def _opt(argv: list[str], flag: str, default: str | None = None) -> str | None:
    return argv[argv.index(flag) + 1] if flag in argv else default


def _identity_holds(argv: list[str], stdout: str) -> bool:
    from heckealg import (
        HeckeContext, OmegaContext, basis_element, eval_generator_poly,
        lift_section, omega, parse_element,
    )

    kind = argv[0]
    p, n = int(_opt(argv, "--p")), int(_opt(argv, "--n"))
    if kind == "decompose":
        ctx = HeckeContext(p, n)
        x = parse_element(argv[-1], p, n)
        return eval_generator_poly(_parse_poly(stdout.strip(), n), ctx) == x
    if kind == "mul":
        import heckealg.cli as cli

        swapped = argv[:-2] + [argv[-1], argv[-2]]
        out = io.StringIO()
        saved, sys.stdout = sys.stdout, out
        try:
            rc = cli.main(swapped)
        finally:
            sys.stdout = saved
        return rc == 0 and out.getvalue() == stdout
    if kind == "omega":
        ctx = OmegaContext(p, n, split=_opt(argv, "--split", "first"))
        image = parse_element(stdout.strip(), p, n)
        return all(
            omega(lift_section(lam, ctx), ctx) == basis_element(lam, ctx.target)
            for lam in image.terms
        )
    raise ValueError(f"no identity check for {kind!r}")


def _identity_failures(items: list[tuple[list[str], str]]) -> list[str]:
    failed = []
    for argv, stdout in items:
        try:
            ok = _identity_holds(argv, stdout)
        except Exception:
            ok = False
        if not ok:
            failed.append(op_key(argv))
    return failed


@dataclass
class CheckReport:
    failed_keys: set[str]
    by_digest: int  # distinct ops checked against a recorded digest
    by_identity: int  # distinct ops checked by an identity
    unchecked: int  # distinct ops checked only for exit code 0 and repeatability


def check_outputs(passes: list[Pass], expected: dict[str, list]) -> CheckReport:
    """Exit code and stdout of every op execution, untimed.

    An op recorded in expected.json must reproduce its exit code and stdout
    digest.  Any other op must exit 0, give the same stdout every time, and
    pass an identity check where its kind has one.
    """
    seen: dict[str, set] = {}
    stdouts: dict[str, tuple[list[str], str]] = {}
    failed: set[str] = set()
    for pas in passes:
        for res in pas.ops:
            key = op_key(res.argv)
            seen.setdefault(key, set()).add((res.rc, res.digest))
            if res.stdout is not None:
                stdouts[key] = (res.argv, res.stdout)
    by_digest = by_identity = unchecked = 0
    pending = []
    for key, outcomes in seen.items():
        want = expected.get(key)
        if want is not None:
            by_digest += 1
            if outcomes != {tuple(want)}:
                failed.add(key)
            continue
        if len(outcomes) != 1 or next(iter(outcomes))[0] != 0:
            failed.add(key)
        elif key in stdouts:
            pending.append(stdouts[key])
        else:
            unchecked += 1
    if pending:
        bad, _, _ = run_in_child(_identity_failures, pending, ceiling_s=40)
        failed.update(bad if bad is not None else (op_key(a) for a, _ in pending))
        by_identity = len(pending)
    return CheckReport(failed, by_digest, by_identity, unchecked)


def identity_candidates(ops: list[list[str]], expected: dict[str, list]) -> frozenset[str]:
    """Ops whose stdout the identity checks need: element ops not recorded."""
    return frozenset(op_key(op) for op in ops
                     if op[0] in IDENTITY_KINDS and op_key(op) not in expected)


def cold_caches() -> dict[str, int]:
    """currsize of every functools cache that a loaded heckealg module binds.

    The driver computes nothing, so all of them must stay empty; a cache a
    later change adds is covered without naming it here.
    """
    sizes = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "heckealg" or name.startswith("heckealg.")):
            continue
        for value in vars(mod).values():
            info = getattr(value, "cache_info", None)
            if callable(info):
                sizes[f"{value.__module__}.{value.__qualname__}"] = info().currsize
    return sizes
