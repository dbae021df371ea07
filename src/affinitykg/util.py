"""Small helpers: text input, atomic file writes, canonical JSON and CSV, vocabulary hashing.

All artifact writers go through the atomic helpers so a crashed command never
leaves a half-written file, and all JSON is emitted with sorted keys so
identical runs produce identical bytes, and with no NaN or infinity (not JSON).
"""

import contextlib
import hashlib
import json
import os
import tempfile

from affinitykg.errors import ParseError


@contextlib.contextmanager
def open_text(path: str, newline: str | None = None):
    """Open a UTF-8 text input for reading; a leading byte-order mark is dropped.

    Text that does not decode is a ParseError naming the first line (counted
    by LF) that fails; only then is the file rescanned, in binary, to find it.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            for n, line in enumerate(fh, start=1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as err:
                    raise ParseError(f"not valid UTF-8 ({err.reason} at byte offset "
                                     f"{err.start} of the line)", n, path) from None
        raise


def canonical_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def atomic_write_bytes(path: str, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=os.path.basename(path))
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def format_float(x: float) -> str:
    """Shortest decimal string that round-trips the exact float64 value."""
    return repr(float(x))


def csv_text(rows) -> str:
    """One comma-joined line per row; a float cell is spelled by format_float."""
    return "".join(",".join(format_float(x) if isinstance(x, float) else str(x) for x in row)
                   + "\n" for row in rows)
