"""Bit-exact uplink codec.

Wire format (documented in docs/PROTOCOL.md, frozen by golden-byte tests):

* known-distribution message: a single reward bit.
* unknown-distribution message, in order, most-significant bit first:

    [reward bit | d sign bits (+1 -> 1) | d square-error bits (+3/m -> 1)
     | lattice rank, big-endian, ceil(log2 |Q_d|) bits]

  where Q_d = {v in N^d : ||v||_1 <= 2d} and the rank is the position of
  the magnitude vector in the lexicographic enumeration of Q_d.  Byte
  padding (zeros on the right, and rejected by the decoder unless zero)
  happens only when a message is framed into bytes; bit lengths are always
  accounted unpadded.  A message is the integer whose bits are these fields
  in order, and a BitBuffer frames that integer with its bit length.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .quantizer import QuantizedContext, context_grid, magnitude_scale

__all__ = [
    "MessageCodecError",
    "LatticeMembershipError",
    "BitBuffer",
    "q_size",
    "LatticeEnumerator",
    "lattice_enumerator",
    "bit_budget",
    "KnownMessage",
    "UnknownMessage",
    "encode_known",
    "decode_known",
    "encode_unknown",
    "decode_unknown",
]


class MessageCodecError(ValueError):
    """Buffer cannot be parsed as a well-formed message."""


class LatticeMembershipError(ValueError):
    """Vector is not a member of the magnitude lattice (quantizer bug upstream)."""


# --------------------------------------------------------------------------
# message frame
# --------------------------------------------------------------------------

class BitBuffer:
    """A message frame: one integer and its bit length, MSB-first on the wire."""

    def __init__(self, value: int, nbits: int):
        if nbits < 0 or not 0 <= value < (1 << nbits):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self.value = value
        self._nbits = nbits

    def __len__(self) -> int:
        return self._nbits

    def to_bytes(self) -> bytes:
        """Frame into bytes, zero-padding on the right to a byte boundary."""
        nbytes = (self._nbits + 7) // 8
        return (self.value << (8 * nbytes - self._nbits)).to_bytes(nbytes, "big")

    @classmethod
    def from_bytes(cls, data: bytes, nbits: int) -> "BitBuffer":
        """Rebuild a frame of ``nbits`` bits from its byte string, whose padding
        bits must all be zero."""
        if nbits < 0 or (nbits + 7) // 8 != len(data):
            raise MessageCodecError(
                f"{len(data)} bytes cannot hold exactly {nbits} bits"
            )
        pad = 8 * len(data) - nbits
        value = int.from_bytes(data, "big")
        if value & ((1 << pad) - 1):
            raise MessageCodecError(f"nonzero padding bits after bit {nbits}")
        return cls(value >> pad, nbits)


# --------------------------------------------------------------------------
# lattice enumeration
# --------------------------------------------------------------------------

def q_size(d: int) -> int:
    """Number of nonnegative integer d-vectors with coordinate sum <= 2d."""
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return math.comb(3 * d, d)


class LatticeEnumerator:
    """Lexicographic rank/unrank over {v in N^d : ||v||_1 <= 2d}.

    count(k, b) = C(b+k, k) counts length-k suffixes with sum <= b; ranks
    are computed coordinate by coordinate from prefix counts, exactly, in
    O(d) big-integer operations (no table of size |Q|).
    """

    def __init__(self, d: int):
        if d < 1:
            raise ValueError(f"dimension must be >= 1, got {d}")
        self.d = d
        self.budget = 2 * d
        # _count[k][b] = C(b+k, k), built by Pascal recurrence.
        count = [[1] * (self.budget + 1)]
        for _ in range(d):
            prev = count[-1]
            row = [1] * (self.budget + 1)
            for b in range(1, self.budget + 1):
                row[b] = prev[b] + row[b - 1]
            count.append(row)
        self._count = count
        self.size = count[d][self.budget]
        self.width = (self.size - 1).bit_length()  # rank bits on the wire

    def rank(self, vec) -> int:
        """Position of ``vec`` in the lexicographic enumeration."""
        vec = np.asarray(vec)
        if vec.shape != (self.d,):
            raise ValueError(f"expected shape ({self.d},), got {vec.shape}")
        if vec.dtype.kind not in "iu":  # signed or unsigned integers
            raise ValueError(f"lattice vectors are integer, got dtype {vec.dtype}")
        vals = vec.tolist()
        if min(vals) < 0:
            raise LatticeMembershipError(f"negative coordinate in {vals}")
        if sum(vals) > self.budget:
            raise LatticeMembershipError(
                f"||v||_1 = {sum(vals)} exceeds budget {self.budget}"
            )
        count = self._count
        r = 0
        b = self.budget
        for i, v in enumerate(vals):
            k = self.d - i  # coordinates from i onward
            r += count[k][b] - count[k][b - v]
            b -= v
        return r

    def unrank(self, r: int) -> np.ndarray:
        """Inverse of rank."""
        if not 0 <= r < self.size:
            raise MessageCodecError(f"rank {r} outside 0..{self.size - 1}")
        out = []
        b = self.budget
        for row in reversed(self._count[:self.d]):  # count[d-1], ..., count[0]
            v = 0
            while r >= row[b - v]:
                r -= row[b - v]
                v += 1
            out.append(v)
            b -= v
        return np.array(out, dtype=np.int64)


@lru_cache(maxsize=None)
def lattice_enumerator(d: int) -> LatticeEnumerator:
    """Shared per-dimension enumerator (immutable after construction)."""
    return LatticeEnumerator(d)


def bit_budget(d: int) -> int:
    """Exact per-round uplink cost for the unknown-distribution message."""
    return 1 + 2 * d + lattice_enumerator(d).width


# --------------------------------------------------------------------------
# messages
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class KnownMessage:
    """Uplink payload when the context distribution is known: one reward bit."""

    reward_bit: int

    def __post_init__(self):
        if self.reward_bit not in (0, 1):
            raise ValueError(f"reward bit must be 0 or 1, got {self.reward_bit}")


@dataclass(frozen=True)
class UnknownMessage:
    """Uplink payload when the context distribution is unknown."""

    reward_bit: int
    context: QuantizedContext

    def __post_init__(self):
        if self.reward_bit not in (0, 1):
            raise ValueError(f"reward bit must be 0 or 1, got {self.reward_bit}")


def encode_known(msg: KnownMessage) -> BitBuffer:
    """Serialize a known-distribution message: exactly one bit."""
    return BitBuffer(msg.reward_bit, 1)


def decode_known(buf: BitBuffer) -> KnownMessage:
    """Parse a known-distribution message; the buffer must hold exactly 1 bit."""
    if len(buf) != 1:
        raise MessageCodecError(f"known message is 1 bit, buffer has {len(buf)}")
    return KnownMessage(reward_bit=buf.value)


def encode_unknown(msg: UnknownMessage) -> BitBuffer:
    """Serialize an unknown-distribution message into exactly bit_budget(d) bits."""
    qc = msg.context
    d = qc.d
    # sign and square bits as one 2d-bit field; packbits zero-pads to whole bytes
    packed = np.packbits(np.concatenate((qc.signs, qc.sq_errors)) > 0.0)
    field = int.from_bytes(packed.tobytes(), "big") >> (-2 * d % 8)
    enum = lattice_enumerator(d)
    # int(): a NumPy integer reward bit would wrap once shifted past 64 bits
    value = (((int(msg.reward_bit) << 2 * d) | field) << enum.width) | enum.rank(qc.magnitudes)
    return BitBuffer(value, 1 + 2 * d + enum.width)


def decode_unknown(buf: BitBuffer, d: int) -> UnknownMessage:
    """Parse an unknown-distribution message for dimension ``d``."""
    enum = lattice_enumerator(d)
    if len(buf) != 1 + 2 * d + enum.width:  # the three fields split below
        raise MessageCodecError(
            f"unknown message for d={d} is {bit_budget(d)} bits, buffer has {len(buf)}"
        )
    head, rank = divmod(buf.value, 1 << enum.width)
    reward_bit, field = divmod(head, 1 << 2 * d)
    # the 2d-bit sign and square field, left-aligned in whole bytes as packbits
    # left it, then one 0/1 byte per bit
    field <<= -2 * d % 8
    bits = np.unpackbits(np.frombuffer(field.to_bytes((2 * d + 7) // 8, "big"), np.uint8))
    magnitudes = enum.unrank(rank)  # raises past the lattice's end
    m = magnitude_scale(d)
    grid = context_grid(m)
    qc = QuantizedContext(signs=grid.signs.take(bits[:d]), magnitudes=magnitudes,
                          sq_errors=grid.squares.take(bits[d:2 * d]), m=m)
    return UnknownMessage(reward_bit=reward_bit, context=qc)
