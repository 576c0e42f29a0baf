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
        pos = int(np.argmin(ok))
        raise ValueError(f"symbol out of alphabet {{-1,0,1}} at position {pos + 1}: {arr[pos]}")
    return arr.astype(np.int8, copy=True)


class SignSeq:
    """A finite prefix of a sequence over {-1, 0, 1}, 1-indexed.

    ``seq[n]`` is the n-th term for 1 <= n <= len(seq).  The backing array
    is read-only; use :attr:`values` for bulk (0-based) numpy access.
    """

    __slots__ = ("_values",)

    def __init__(self, values):
        arr = _as_symbol_array(values)
        if arr.size == 0:
            raise ValueError("a SignSeq must have length >= 1")
        arr.setflags(write=False)
        self._values = arr

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

    def prefix(self, n: int) -> "SignSeq":
        if not 1 <= n <= len(self):
            raise ValueError(f"prefix length {n} outside 1..{len(self)}")
        return SignSeq._wrap(self._values[:n].copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SignSeq):
            return NotImplemented
        return self._values.shape == other._values.shape and bool(
            np.array_equal(self._values, other._values)
        )

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


def square_map(z: SignSeq) -> SignSeq:
    """Coordinatewise square: result[n] = z[n]**2, values in {0,1}."""
    return SignSeq._wrap(z.values * z.values)


def pointwise_product(a: SignSeq, b: SignSeq) -> SignSeq:
    """Coordinatewise product; both prefixes must have equal length."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} != {len(b)}")
    return SignSeq._wrap(a.values * b.values)


def _atomic_write(path, *chunks) -> None:
    """Write the bytes-like ``chunks`` in order to ``path`` through a temp
    file and a rename; the temp file is removed if either step fails."""
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


def write_sqz(path, seq: SignSeq) -> None:
    """Write the binary prefix format: b"SQZ1", u64-le length, one int8 per symbol.

    The write is atomic (temp file + rename).
    """
    _atomic_write(path, SQZ_HEADER.pack(SQZ_MAGIC, len(seq)), seq.values)


def read_sqz(path) -> SignSeq:
    """Read a prefix written by :func:`write_sqz`, validating magic and length."""
    with open(path, "rb") as fh:
        header = fh.read(SQZ_HEADER.size)
        if len(header) != SQZ_HEADER.size:
            raise ValueError(f"{path}: truncated header")
        magic, length = SQZ_HEADER.unpack(header)
        if magic != SQZ_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {SQZ_MAGIC!r}")
        values = np.fromfile(fh, dtype=np.int8)
    if values.size != length:
        raise ValueError(f"{path}: expected {length} symbols, found {values.size} bytes")
    # min and max allocate nothing; SignSeq names the first bad byte of a bad file
    ok = values.size and values.min() >= -1 and values.max() <= 1
    return SignSeq._wrap(values) if ok else SignSeq(values)
