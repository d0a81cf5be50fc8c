"""L-value cache file: checksummed CSV, atomic rewrite, exact roundtrip.

Format:

    # sha256=<hex digest of everything after this line>
    q,a,b,re,im,method,err
    5,-1,-2,0.53788...,-0.12...,afe,1e-09

Rows are sorted by (q, a, b); floats carry 17 significant digits so binary64
values roundtrip bit-exactly.  Files are rewritten atomically (temp file +
rename) and keep the mode of the file they replace (a new file gets
0o666 less the umask, as `open` would give it); a checksum mismatch, or a
row that does not parse, refuses to load.
"""

from __future__ import annotations

import hashlib
import os

from .lfunctions import LValueRecord

__all__ = ["CacheCorruptError", "write_lvalue_cache", "read_lvalue_cache", "cache_roundtrip"]

_HEADER = "q,a,b,re,im,method,err"


class CacheCorruptError(RuntimeError):
    """Checksum mismatch or malformed cache file."""


def _body(records: list[LValueRecord]) -> str:
    lines = [_HEADER]
    for r in sorted(records, key=lambda r: (r.q, r.a, r.b)):
        lines.append(
            f"{r.q},{r.a},{r.b},{r.value.real:.17g},{r.value.imag:.17g},"
            f"{r.method},{r.err_estimate:.17g}"
        )
    return "\n".join(lines) + "\n"


def write_lvalue_cache(path: str, records: list[LValueRecord]) -> None:
    body = _body(records)
    digest = hashlib.sha256(body.encode()).hexdigest()
    payload = f"# sha256={digest}\n{body}"
    d = os.path.dirname(os.path.abspath(path)) or "."
    try:
        mode = os.stat(path).st_mode & 0o7777
    except FileNotFoundError:
        mode = None
    tmp = os.path.join(d, f".lvalue-cache-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # less the umask
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(payload)
        if mode is not None:
            os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_lvalue_cache(path: str) -> list[LValueRecord]:
    with open(path) as fh:
        first = fh.readline()
        body = fh.read()
    if not first.startswith("# sha256="):
        raise CacheCorruptError("missing checksum line")
    digest = first.strip().split("=", 1)[1]
    if hashlib.sha256(body.encode()).hexdigest() != digest:
        raise CacheCorruptError("checksum mismatch")
    lines = body.splitlines()
    if not lines or lines[0] != _HEADER:
        raise CacheCorruptError("missing header row")
    out = []
    for row, line in enumerate(lines[1:], start=1):
        fields = line.split(",")
        if len(fields) != 7:
            raise CacheCorruptError(f"row {row} has {len(fields)} fields, not 7")
        q, a, b, re, im, method, err = fields
        try:
            rec = LValueRecord(
                q=int(q),
                a=int(a),
                b=int(b),
                value=complex(float(re), float(im)),
                method=method,
                err_estimate=float(err),
            )
        except ValueError as exc:
            raise CacheCorruptError(f"row {row}: {exc}") from None
        out.append(rec)
    return out


def cache_roundtrip(records: list[LValueRecord], path: str) -> list[LValueRecord]:
    """Write then read back; the identity on sorted record lists."""
    write_lvalue_cache(path, records)
    return read_lvalue_cache(path)
