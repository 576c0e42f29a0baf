"""Core value types: sequence prefixes over {-1,0,1}, blocks, and the basic maps.

A :class:`SignSeq` is a finite prefix of a sequence over the alphabet
{-1, 0, 1}, indexed from 1 (term 1 is the first term).  Symbols are stored
as signed 8-bit integers so that prefixes of 10**8 terms fit in 100 MB.
A :class:`Block` is a finite word over the same alphabet together with its
support (the 0-based positions of its nonzero letters).

All objects are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import os
import struct
import weakref
from dataclasses import dataclass, field

import numpy as np

ALPHABET = (-1, 0, 1)

SQZ_MAGIC = b"SQZ1"
SQZ_HEADER = struct.Struct("<4sQ")  # magic + little-endian 64-bit length


def _as_symbol_array(values) -> np.ndarray:
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d sequence of symbols, got shape {arr.shape}")
    # Compare before casting: the cast to int8 wraps 257 to 1 and truncates 0.7 to 0.
    ok = arr == 0
    ok |= arr == 1
    ok |= arr == -1
    if not ok.all():
        raise _alphabet_error(arr, ok)
    return arr.astype(np.int8, copy=True)


def _alphabet_error(arr: np.ndarray, ok: np.ndarray, offset: int = 0) -> ValueError:
    """The error for the first False of ``ok``; arr[0] is term offset + 1."""
    pos = int(np.argmin(ok))
    return ValueError(f"symbol out of alphabet {{-1,0,1}} at position {offset + pos + 1}: "
                      f"{arr[pos]}")


class SignSeq:
    """A finite prefix of a sequence over {-1, 0, 1}, 1-indexed.

    ``seq[n]`` is the n-th term for 1 <= n <= len(seq).  The backing array
    is read-only; use :attr:`values` for bulk (0-based) numpy access.
    """

    __slots__ = ("_values",)

    def __init__(self, values):  # a validated int8 copy, then the trusted constructor's checks
        self._values = SignSeq._wrap(_as_symbol_array(values))._values

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "SignSeq":
        # Trusted constructor for arrays already validated as int8 in {-1,0,1}.
        if arr.size == 0:
            raise ValueError("a SignSeq must have length >= 1")
        obj = object.__new__(cls)
        arr.setflags(write=False)
        obj._values = arr
        return obj

    @property
    def values(self) -> np.ndarray:
        """Read-only int8 array; ``values[i]`` is term i+1."""
        return self._values

    def __len__(self) -> int:
        return self._values.size

    def __getitem__(self, n: int) -> int:
        if not 1 <= n <= self._values.size:
            raise IndexError(f"index {n} outside 1..{self._values.size}")
        return int(self._values[n - 1])

    # iteration would otherwise call __getitem__ from 0 and stop at once
    def __iter__(self):
        return map(int, self._values)

    def __reversed__(self):
        return map(int, self._values[::-1])

    def chunks(self, overlap: int = 0):
        """Read-only int8 views of the terms at the ``_spans``, as from a .sqz."""
        for lo, hi in _spans(self._values.size, overlap):
            yield self._values[lo:hi]

    def prefix(self, n: int) -> "SignSeq":
        if not 1 <= n <= len(self):
            raise ValueError(f"prefix length {n} outside 1..{len(self)}")
        return SignSeq._wrap(self._values[:n].copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignSeq):
            return NotImplemented
        return bool(np.array_equal(self._values, other._values))  # unequal shapes are unequal

    __hash__ = None

    def __repr__(self) -> str:
        head = ",".join(str(int(v)) for v in self._values[:8])
        tail = ",..." if len(self) > 8 else ""
        return f"SignSeq(({head}{tail}), len={len(self)})"


@dataclass(frozen=True)
class Block:
    """A finite word over {-1,0,1}; ``support`` is derived and cached."""

    letters: tuple[int, ...]
    support: tuple[int, ...] = field(init=False, compare=False)

    def __post_init__(self):
        if len(self.letters) < 1:
            raise ValueError("a Block must have length >= 1")
        # before the int cast, which truncates 0.5 to 0
        for i, v in enumerate(self.letters):
            if v not in ALPHABET:
                raise ValueError(f"letter out of alphabet at position {i}: {v}")
        letters = tuple(int(v) for v in self.letters)
        object.__setattr__(self, "letters", letters)
        object.__setattr__(
            self, "support", tuple(i for i, v in enumerate(letters) if v != 0)
        )

    def __len__(self) -> int:
        return len(self.letters)


def square_map(z) -> SignSeq:
    """z[n]**2 in {0,1} for a SignSeq or an _SqzFile, squared chunk by chunk into the output."""
    out, lo = np.empty(len(z), dtype=np.int8), 0
    for chunk in z.chunks():
        np.multiply(chunk, chunk, out=out[lo : lo + chunk.size])
        lo += chunk.size
    return SignSeq._wrap(out)


def pointwise_product(a: SignSeq, b: SignSeq) -> SignSeq:
    """Coordinatewise product; both prefixes must have equal length."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return SignSeq._wrap(a.values * b.values)


def _atomic_write(path, chunks) -> None:
    """Write the bytes-like ``chunks`` in order to ``path`` through a temp
    file and a rename; the temp file is removed if anything fails, also an
    error raised while the chunks are made."""
    tmp = f"{path}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except OSError as exc:  # name the caller's path, not the temp file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        if os.path.lexists(tmp):
            os.remove(tmp)


def _write_sqz_chunks(path, n: int, chunks) -> None:
    """Write the header for n symbols, then the int8 ``chunks``, atomically;
    ValueError, and no file, unless the chunks add up to n."""

    def framed():
        yield SQZ_HEADER.pack(SQZ_MAGIC, n)
        written = 0
        for chunk in chunks:
            written += chunk.size
            if written > n:
                break
            yield chunk
        if written != n:
            raise ValueError(f"{path}: the chunks do not add up to the header's {n} symbols")

    _atomic_write(path, framed())


def write_sqz(path, seq: SignSeq) -> None:
    """Write the binary prefix format: b"SQZ1", u64-le length, one int8 per symbol.

    The write is atomic (temp file + rename).
    """
    _write_sqz_chunks(path, len(seq), (seq.values,))


_CHUNK = 1 << 20  # terms per chunk of a streamed .sqz or SignSeq


def _spans(n: int, overlap: int):
    """The 0-based (lo, hi) that cut n terms: every span but the last holds
    max(_CHUNK, 2 overlap) terms, and each starts ``overlap`` terms before the
    last ended, so any overlap + 1 consecutive terms lie in one span."""
    step = max(_CHUNK, 2 * overlap) - overlap
    for lo in range(0, max(n - overlap, 1) if n else 0, step):
        yield lo, min(lo + step + overlap, n)


class _SqzFile:
    """A .sqz file whose magic, and header length against its size, are
    checked on opening; ``len()`` is its length.  Its terms are read
    unbuffered, as the file is then, also once its path is removed: the file
    stays open until the object is collected."""

    def __init__(self, path):
        self._fh = fh = open(path, "rb", buffering=0)
        weakref.finalize(self, fh.close)
        header = fh.read(SQZ_HEADER.size)
        if len(header) != SQZ_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, length = SQZ_HEADER.unpack(header)
        if magic != SQZ_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {SQZ_MAGIC!r}")
        found = os.fstat(fh.fileno()).st_size - SQZ_HEADER.size
        if found != length:
            raise ValueError(f"{path}: expected {length} symbols, found {found} bytes")
        self.path, self.length = path, length

    def __len__(self) -> int:
        return self.length

    def _read(self, lo: int, out: np.ndarray) -> np.ndarray:
        """``out`` filled with the terms from 0-based lo on; a file that
        shrank after it was opened, or a byte outside {-1,0,1}, is refused."""
        self._fh.seek(SQZ_HEADER.size + lo)  # per read: walks may interleave
        found = 0  # one read stops short of 2 GiB, so read until out is full or the file ends
        while found < out.size and (got := self._fh.readinto(out[found:])):
            found += got
        if found != out.size:
            raise ValueError(f"{self.path}: expected {self.length} symbols, "
                             f"found {lo + found} bytes")
        if out.min(initial=0) < -1 or out.max(initial=0) > 1:  # these allocate nothing
            raise _alphabet_error(out, (out >= -1) & (out <= 1), lo)
        return out

    def chunks(self, overlap: int = 0):
        """Validated int8 chunks of the terms at the ``_spans``, read into one
        buffer that the call reuses: a chunk is valid until the next is read."""
        buf = np.empty(min(max(_CHUNK, 2 * overlap), self.length), np.int8)
        for lo, hi in _spans(self.length, overlap):
            yield self._read(lo, buf[: hi - lo])


def _windows(source, k: int, stops):
    """(end, buf) pairs that walk the length-k windows of a SignSeq or an
    _SqzFile up to the last of the ascending ``stops``: buf holds the terms of
    the at most ``_CHUNK`` windows that start at terms end - (buf.size - k)
    through end, and every stop is some end.  A buf is a view of one chunk:
    the chunks overlap by k - 1 terms, so each window lies whole in one.  A
    stop is where a caller must see a running total, and costs one Python
    iteration.  A file is read to its end, so a bad byte past the stops is refused."""
    j, end = 0, 0
    for buf in source.chunks(k - 1):  # its windows start at term end + 1
        while j < len(stops) and buf.size >= k:
            count = min(buf.size - k + 1, stops[j] - end, _CHUNK)
            end += count
            j += end == stops[j]
            yield end, buf[: count + k - 1]
            buf = buf[count:]


def _fill(n: int, chunks) -> SignSeq:
    """The SignSeq of n terms that consecutive int8 ``chunks`` hold."""
    out = np.empty(n, dtype=np.int8)
    lo = 0
    for chunk in chunks:
        out[lo : lo + chunk.size] = chunk
        lo += chunk.size
    return SignSeq._wrap(out)


def read_sqz(path) -> SignSeq:
    """Read a prefix written by :func:`write_sqz`, validating magic and length,
    in one read into the result."""
    source = _SqzFile(path)
    return SignSeq._wrap(source._read(0, np.empty(len(source), dtype=np.int8)))
