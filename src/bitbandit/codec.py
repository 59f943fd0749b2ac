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

The codec moves bits only: decode_unknown returns the sign and square bits as
sent, and quantizer.reconstruct_context maps them to +-1 and +-3/m.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .quantizer import QuantizedContext, _integer

__all__ = [
    "MessageCodecError",
    "LatticeMembershipError",
    "BitBuffer",
    "q_size",
    "LatticeEnumerator",
    "lattice_enumerator",
    "bit_budget",
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
        value, nbits = _integer(value, "frame value"), _integer(nbits, "frame length")
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
    d = _integer(d, "dimension", 1)
    return math.comb(3 * d, d)


class LatticeEnumerator:
    """Lexicographic rank/unrank over {v in N^d : ||v||_1 <= 2d}.

    count(k, b) = C(b+k, k) counts length-k suffixes with sum <= b; ranks
    are computed coordinate by coordinate from prefix counts, exactly, in
    O(d) big-integer operations (no table of size |Q|).
    """

    def __init__(self, d: int):
        self.d = d = _integer(d, "dimension", 1)
        self.budget = 2 * d
        self._count = [[math.comb(b + k, k) for b in range(self.budget + 1)]
                       for k in range(d + 1)]
        self.size = self._count[d][self.budget]
        self.width = (self.size - 1).bit_length()  # rank bits on the wire
        self.bits = 1 + 2 * d + self.width  # a message: reward, sign and square bits, rank

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


@lru_cache(maxsize=None, typed=True)  # typed: 3.0 must not find the entry of 3
def lattice_enumerator(d: int) -> LatticeEnumerator:
    """Shared per-dimension enumerator (immutable after construction)."""
    return LatticeEnumerator(d)


def bit_budget(d: int) -> int:
    """Exact per-round uplink cost for the unknown-distribution message."""
    return lattice_enumerator(_integer(d, "dimension", 1)).bits


# --------------------------------------------------------------------------
# messages
# --------------------------------------------------------------------------

def _reward_bit(bit) -> int:
    """The reward bit as a Python int, the one check of it before it enters a frame."""
    bit = _integer(bit, "reward bit")
    if bit not in (0, 1):
        raise ValueError(f"reward bit must be 0 or 1, got {bit}")
    return bit


class UnknownMessage(NamedTuple):
    """Uplink payload when the context distribution is unknown."""

    reward_bit: int
    context: QuantizedContext


def encode_known(bit) -> BitBuffer:
    """Frame a known-distribution message, the reward bit alone: exactly one bit."""
    return BitBuffer(_reward_bit(bit), 1)


def decode_known(buf: BitBuffer) -> int:
    """The reward bit of a known-distribution frame, which must hold exactly 1 bit."""
    if len(buf) != 1:
        raise MessageCodecError(f"known message is 1 bit, buffer has {len(buf)}")
    return buf.value


def encode_unknown(msg: UnknownMessage) -> BitBuffer:
    """Serialize an unknown-distribution message into exactly bit_budget(d) bits."""
    qc = msg.context
    d = qc.magnitudes.size
    # sign and square bits as one 2d-bit field; packbits zero-pads to whole bytes
    packed = np.packbits(np.concatenate((qc.sign_bits, qc.square_bits)))
    field = int.from_bytes(packed.tobytes(), "big") >> (-2 * d % 8)
    enum = lattice_enumerator(d)
    head = (_reward_bit(msg.reward_bit) << 2 * d) | field
    return BitBuffer((head << enum.width) | enum.rank(qc.magnitudes), enum.bits)


def decode_unknown(buf: BitBuffer, d: int) -> UnknownMessage:
    """Parse an unknown-distribution message for dimension ``d``."""
    d = _integer(d, "dimension", 1)  # a Python int, so that the fields below are too
    enum = lattice_enumerator(d)
    if len(buf) != enum.bits:
        raise MessageCodecError(
            f"unknown message for d={d} is {enum.bits} bits, buffer has {len(buf)}")
    head, rank = divmod(buf.value, 1 << enum.width)
    reward_bit, field = divmod(head, 1 << 2 * d)
    # the 2d-bit sign and square field, left-aligned in whole bytes as packbits
    # left it, then one bool per bit
    field <<= -2 * d % 8
    packed = np.frombuffer(field.to_bytes((2 * d + 7) // 8, "big"), np.uint8)
    bits = np.unpackbits(packed).view(bool)
    return UnknownMessage(reward_bit, QuantizedContext(bits[:d], enum.unrank(rank), bits[d:2 * d]))
