"""Append-only JSONL store for b, the inverse of the transfer's coefficients.

One record per line: {"version": "1", "key": "...", "value": "..."}, the
key naming b at (p, n) and its classes B and A (see coeff_key).  Only b is
stored: it needs a peel, while an a value is one product.  The loader
keeps only b: keys: a line under another key, such as the a: and c:
lines of older stores, is passed over without a warning and left in
the file.  Values are decimal strings, exactly as str(int) writes them;
any other value makes its line unreadable.  The file is only ever
appended to, so concurrent readers see a prefix; unreadable lines are
skipped with a warning rather than aborting the run.

A missing cache file is an empty cache, and the first flush creates the
directory and any missing parents.  Existence is asked with os.access,
never with a stat or mkdir that fails: CPython turns a failed call's
errno into an OSError through libc's strerror, which pages about
0.45 MB of libc into a run that otherwise never touches it.
"""

from __future__ import annotations

import json
import os
import sys
from itertools import islice

from .partitions import Partition, format_partition

CACHE_FILENAME = "hecke-cache.jsonl"
SCHEMA_VERSION = "1"
_PREFIX = f'{{"version": "{SCHEMA_VERSION}", "key": "'  # how flush starts each line
_KEEP = _PREFIX + "b:"

__all__ = ["CacheStore", "CACHE_FILENAME", "SCHEMA_VERSION", "coeff_key"]


def coeff_key(p: int, n: int, b: Partition, a: Partition) -> str:
    """The cache key of b(B, A) at (p, n).

    >>> coeff_key(2, 2, (2,), ())
    'b:p=2:n=2:B=[2]:A=[]'
    """
    return f"b:p={p}:n={n}:B={format_partition(b)}:A={format_partition(a)}"


def _make_directories(directory: str) -> None:
    """Create directory and its missing parents, as os.makedirs(exist_ok=True)
    does, but make only the mkdir calls that succeed on the normal path.

    A FileExistsError from a concurrent creator is tolerated if the path is
    then a directory.  A non-directory in the way still raises: here if it
    is an ancestor, in the caller's os.open if it is directory itself.
    """
    missing = []
    head = directory
    while head and not os.access(head, os.F_OK):
        missing.append(head)
        head, tail = os.path.split(head)
        if not tail:  # a trailing separator: step past it as os.makedirs does
            head = os.path.split(head)[0]
    for path in reversed(missing):
        try:
            os.mkdir(path)
        except FileExistsError:
            if not os.path.isdir(path):
                raise


class CacheStore:
    """Reads and appends the coefficient cache under one directory."""

    def __init__(self, directory: str):
        self.directory = directory
        self.path = os.path.join(directory, CACHE_FILENAME)
        self.n_loaded = 0

    def load(self) -> dict[str, int]:
        """Parse the b: lines of the cache file into a key -> value dict.

        Callers extend that dict in place and hand it back to flush.  A
        dict keeps insertion order and a loaded key is never added again,
        so the new entries are exactly those past the first n_loaded.
        """
        out: dict[str, int] = {}
        if os.access(self.path, os.F_OK):
            with open(self.path, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, 1):
                    line = line.strip()
                    if not line or line.startswith(_PREFIX) and not line.startswith(_KEEP):
                        continue  # blank, or another kind as flush spells it: left unparsed
                    try:
                        record = json.loads(line)
                        if not isinstance(record, dict):
                            raise ValueError("not an object")
                        version = record.get("version")
                        if version != SCHEMA_VERSION:
                            raise ValueError(f"unsupported version {version!r}")
                        key = record["key"]
                        if not isinstance(key, str):
                            raise ValueError("key is not a string")
                        if not key.startswith("b:"):
                            continue
                        text = record["value"]
                        value = int(text) if isinstance(text, str) else None
                        # flush writes str(value): refuse the rest of what int() reads
                        if value is None or str(value) != text:
                            raise ValueError(f"value {text!r} is not a decimal string")
                    except (ValueError, KeyError, TypeError) as exc:
                        print(
                            f"warning: {self.path}:{lineno}: skipping bad cache line ({exc})",
                            file=sys.stderr,
                        )
                        continue
                    out[key] = value
        self.n_loaded = len(out)
        return out

    def flush(self, memo: dict[str, int]) -> int:
        """Append the entries added since load or the last flush; returns how many."""
        new = dict(islice(memo.items(), self.n_loaded, None))
        if not new:
            return 0
        # each line is json.dumps({"version": ..., "key": key, "value": str(value)}),
        # which escapes every non-ASCII character
        data = "".join(
            f'{{"version": "{SCHEMA_VERSION}", "key": {json.dumps(key)}, '
            f'"value": "{new[key]}"}}\n'
            for key in sorted(new)
        ).encode("ascii")
        _make_directories(self.directory)
        # one unbuffered append: no text or buffer layer to set up per call
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            while data:
                data = data[os.write(fd, data):]
        finally:
            os.close(fd)
        self.n_loaded = len(memo)
        return len(new)
