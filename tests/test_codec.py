"""Tests for the message frame, lattice enumeration, and message codecs."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitbandit.codec import (
    BitBuffer,
    LatticeEnumerator,
    LatticeMembershipError,
    MessageCodecError,
    UnknownMessage,
    bit_budget,
    decode_known,
    decode_unknown,
    encode_known,
    encode_unknown,
    lattice_enumerator,
    q_size,
)
from bitbandit.quantizer import QuantizedContext, quantize_context

PROPERTY = settings(max_examples=200)


@st.composite
def lattice_vectors(draw):
    """A member of Q_d = {v in N^d : ||v||_1 <= 2d} for some d <= 64."""
    d = draw(st.integers(1, 64))
    v = np.array(draw(st.lists(st.integers(0, 2 * d), min_size=d, max_size=d)),
                 dtype=np.int64)
    total = int(v.sum())
    return v * (2 * d) // total if total > 2 * d else v


def reference_encode(msg: UnknownMessage) -> BitBuffer:
    """The unknown-message layout of docs/PROTOCOL.md, shifted in one bit at a time."""
    qc = msg.context
    d = qc.magnitudes.size
    width = bit_budget(d) - 1 - 2 * d
    rank = lattice_enumerator(d).rank(qc.magnitudes)
    bits = ([msg.reward_bit] + [1 if s else 0 for s in qc.sign_bits.tolist()]
            + [1 if e else 0 for e in qc.square_bits.tolist()]
            + [(rank >> i) & 1 for i in reversed(range(width))])
    value = 0
    for bit in bits:
        value = (value << 1) | bit
    return BitBuffer(value, len(bits))


def reference_decode(buf: BitBuffer, d: int):
    """(reward bit, sign bits, magnitudes, square bits), shifted out one bit at a time."""
    bits = [(buf.value >> i) & 1 for i in reversed(range(len(buf)))]  # MSB first
    sign_bits = np.array([b == 1 for b in bits[1:d + 1]])
    square_bits = np.array([b == 1 for b in bits[d + 1:2 * d + 1]])
    rank = 0
    for bit in bits[2 * d + 1:]:
        rank = (rank << 1) | bit
    return bits[0], sign_bits, lattice_enumerator(d).unrank(rank), square_bits


class TestBitBuffer:
    def test_value_and_length_roundtrip(self):
        rng = np.random.default_rng(42)
        for _ in range(200):
            nbits = int(rng.integers(0, 300))
            value = int.from_bytes(rng.bytes(40), "big") >> (320 - nbits)
            back = BitBuffer.from_bytes(BitBuffer(value, nbits).to_bytes(), nbits)
            assert (back.value, len(back)) == (value, nbits)

    def test_msb_first_framing(self):
        assert BitBuffer(0b110, 3).to_bytes() == bytes([0b11000000])

    def test_padding_is_zero(self):
        (byte,) = BitBuffer(0b1011, 4).to_bytes()
        assert byte == 0b10110000

    def test_bytes_roundtrip(self):
        buf = BitBuffer((0b101 << 16) | 0x5AC3, 19)
        assert buf.to_bytes() == b"\xab\x58\x60"
        back = BitBuffer.from_bytes(buf.to_bytes(), len(buf))
        assert (back.value, len(back)) == ((0b101 << 16) | 0x5AC3, 19)
        assert BitBuffer(0, 0).to_bytes() == b""

    def test_from_bytes_length_check(self):
        with pytest.raises(MessageCodecError):
            BitBuffer.from_bytes(b"\x00\x00", 3)  # 3 bits need exactly 1 byte
        with pytest.raises(MessageCodecError):
            BitBuffer.from_bytes(b"", 1)

    def test_nonzero_padding_rejected(self):
        with pytest.raises(MessageCodecError, match="padding"):
            BitBuffer.from_bytes(b"\xff", 1)  # would read as reward bit 1
        with pytest.raises(MessageCodecError, match="padding"):
            BitBuffer.from_bytes(b"\x00\x01", 9)

    def test_range_check(self):
        for value, nbits in ((4, 2), (-1, 2), (0, -1)):
            with pytest.raises(ValueError, match="does not fit"):
                BitBuffer(value, nbits)

    def test_takes_any_integer_and_refuses_the_rest(self):
        buf = BitBuffer(np.int64(5), np.uint8(3))
        assert type(buf.value) is int and len(buf) == 3 and buf.to_bytes() == b"\xa0"
        for value, nbits, name in ((1.0, 1, "frame value"), (np.float64(1), 1, "frame value"),
                                   ("1", 1, "frame value"), (1, 1.0, "frame length")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                BitBuffer(value, nbits)


class TestLatticeEnumerator:
    def test_size_matches_binomial(self):
        for d in range(1, 9):
            assert lattice_enumerator(d).size == math.comb(3 * d, d)

    def test_size_matches_brute_force(self):
        for d in (1, 2, 3):
            count = sum(
                1
                for v in itertools.product(range(2 * d + 1), repeat=d)
                if sum(v) <= 2 * d
            )
            assert lattice_enumerator(d).size == count

    def test_lexicographic_order_d2(self):
        enum = lattice_enumerator(2)
        expected = [
            v for v in itertools.product(range(5), repeat=2) if sum(v) <= 4
        ]
        assert enum.size == len(expected)
        for r, vec in enumerate(expected):
            assert enum.rank(np.array(vec)) == r
            np.testing.assert_array_equal(enum.unrank(r), vec)

    def test_exhaustive_bijection_small_d(self):
        for d in (1, 2, 3):
            enum = lattice_enumerator(d)
            seen = set()
            for r in range(enum.size):
                v = enum.unrank(r)
                assert v.sum() <= 2 * d
                assert enum.rank(v) == r
                seen.add(tuple(int(c) for c in v))
            assert len(seen) == enum.size

    def test_randomized_roundtrips_d16(self):
        enum = lattice_enumerator(16)
        rng = np.random.default_rng(42)
        for _ in range(2_000):
            r = int(rng.integers(0, enum.size))
            assert enum.rank(enum.unrank(r)) == r

    @PROPERTY
    @given(lattice_vectors())
    def test_unrank_inverts_rank_up_to_d64(self, vec):
        enum = lattice_enumerator(vec.size)
        r = enum.rank(vec)
        assert 0 <= r < enum.size
        np.testing.assert_array_equal(enum.unrank(r), vec)

    @PROPERTY
    @given(st.integers(1, 64).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, q_size(d) - 1))))
    def test_rank_inverts_unrank_up_to_d64(self, d_and_rank):
        d, r = d_and_rank
        enum = lattice_enumerator(d)
        assert enum.rank(enum.unrank(r)) == r

    def test_membership_rejection(self):
        enum = lattice_enumerator(3)
        with pytest.raises(LatticeMembershipError):
            enum.rank(np.array([3, 3, 1]))  # sum 7 > 6
        with pytest.raises(LatticeMembershipError):
            enum.rank(np.array([-1, 0, 0]))
        with pytest.raises(ValueError):
            enum.rank(np.array([1, 2]))  # wrong length
        with pytest.raises(ValueError, match="lattice vectors are integer, got dtype float64"):
            enum.rank(np.array([1.0, 2.0, 0.0]))

    def test_unrank_range_check(self):
        enum = lattice_enumerator(2)
        with pytest.raises(MessageCodecError):
            enum.unrank(-1)
        with pytest.raises(MessageCodecError):
            enum.unrank(enum.size)


class TestBitBudget:
    def test_known_values(self):
        assert {d: bit_budget(d) for d in (1, 2, 5, 16, 64)} == {
            1: 5, 2: 9, 5: 23, 16: 75, 64: 302,
        }

    def test_formula(self):
        for d in range(1, 65):
            width = math.ceil(math.log2(math.comb(3 * d, d)))
            assert bit_budget(d) == 1 + 2 * d + width

    def test_q_size_validation(self):
        with pytest.raises(ValueError):
            q_size(0)
        with pytest.raises(ValueError, match="dimension must be >= 1, got 0"):
            LatticeEnumerator(0)


class TestKnownCodec:
    @pytest.mark.parametrize("bit, fragment", [(2, "must be 0 or 1"), (-1, "must be 0 or 1"),
                                               (0.5, "must be an integer"),
                                               (1.0, "must be an integer")])
    def test_reward_bit_validation(self, bit, fragment):
        with pytest.raises(ValueError, match=f"reward bit {fragment}"):
            encode_known(bit)

    def test_numpy_integer_bit_frames(self):
        assert encode_known(np.int64(1)).to_bytes() == b"\x80"
        assert encode_known(np.uint8(0)).to_bytes() == b"\x00"

    def test_exactly_one_bit(self):
        for bit in (0, 1):
            buf = encode_known(bit)
            assert len(buf) == 1
            assert decode_known(BitBuffer.from_bytes(buf.to_bytes(), 1)) == bit

    def test_golden_byte(self):
        assert encode_known(1).to_bytes() == b"\x80"
        assert encode_known(0).to_bytes() == b"\x00"

    def test_nonzero_padding_rejected(self):
        assert decode_known(BitBuffer.from_bytes(b"\x80", 1)) == 1
        with pytest.raises(MessageCodecError, match="padding"):
            decode_known(BitBuffer.from_bytes(b"\x81", 1))

    def test_wrong_length_rejected(self):
        with pytest.raises(MessageCodecError):
            decode_known(BitBuffer(0b10, 2))


class TestUnknownMessageCodec:
    @staticmethod
    def _context(signs, magnitudes, sq_signs):
        """The bits of +-1 signs and of square errors of sign +-1."""
        return QuantizedContext(sign_bits=np.asarray(signs) > 0,
                                magnitudes=np.asarray(magnitudes, dtype=np.int64),
                                square_bits=np.asarray(sq_signs) > 0)

    def test_golden_bytes_d1(self):
        # 1 | 1 | 1 | 10  ->  0b11110000
        msg = UnknownMessage(reward_bit=1, context=self._context([1], [2], [1]))
        buf = encode_unknown(msg)
        assert len(buf) == bit_budget(1) == 5
        assert buf.to_bytes() == b"\xf0"

    def test_nonzero_padding_rejected_d1(self):
        msg = decode_unknown(BitBuffer.from_bytes(b"\xf0", 5), 1)
        assert msg.reward_bit == 1 and msg.context.magnitudes.tolist() == [2]
        with pytest.raises(MessageCodecError, match="padding"):
            decode_unknown(BitBuffer.from_bytes(b"\xf1", 5), 1)

    def test_out_of_range_rank_rejected_d1(self):
        # 0 | 1 | 1 | 11  ->  0b01111000: rank 3, one past the end of |Q_1| = 3
        assert lattice_enumerator(1).size == 3
        with pytest.raises(MessageCodecError, match="rank 3"):
            decode_unknown(BitBuffer.from_bytes(b"\x78", 5), 1)

    def test_golden_bytes_d2(self):
        # 0 | 10 | 01 | 0111  ->  0b01001011, 0b10000000; rank((1,2)) = 7
        assert lattice_enumerator(2).rank(np.array([1, 2])) == 7
        msg = UnknownMessage(
            reward_bit=0, context=self._context([1, -1], [1, 2], [-1, 1])
        )
        buf = encode_unknown(msg)
        assert len(buf) == bit_budget(2) == 9
        assert buf.to_bytes() == b"\x4b\x80"

    def test_roundtrip_random_contexts(self):
        rng = np.random.default_rng(42)
        for d in (1, 2, 3, 5, 6):
            for _ in range(100):
                x = rng.standard_normal(d)
                x *= rng.random() / max(np.linalg.norm(x), 1e-12)
                qc = quantize_context(x, rng.random(2 * d))
                bit = int(rng.integers(0, 2))
                buf = encode_unknown(UnknownMessage(reward_bit=bit, context=qc))
                assert len(buf) == bit_budget(d)
                out = decode_unknown(BitBuffer.from_bytes(buf.to_bytes(), len(buf)), d)
                assert out.reward_bit == bit
                for got, sent in zip(out.context, qc):
                    assert got.dtype == sent.dtype
                    np.testing.assert_array_equal(got, sent)

    @PROPERTY
    @given(lattice_vectors(), st.data())
    def test_framed_roundtrip_returns_any_context(self, magnitudes, data):
        d = magnitudes.size
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
        sq_signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
        bit = data.draw(st.integers(0, 1))
        qc = self._context(signs, magnitudes, sq_signs)
        buf = encode_unknown(UnknownMessage(reward_bit=bit, context=qc))
        assert len(buf) == bit_budget(d)
        out = decode_unknown(BitBuffer.from_bytes(buf.to_bytes(), len(buf)), d)
        assert out.reward_bit == bit
        np.testing.assert_array_equal(out.context.sign_bits, qc.sign_bits)
        np.testing.assert_array_equal(out.context.magnitudes, qc.magnitudes)
        np.testing.assert_array_equal(out.context.square_bits, qc.square_bits)

    @PROPERTY
    @given(lattice_vectors(), st.data())
    def test_wire_layout_matches_per_bit_reference(self, magnitudes, data):
        """Bytes and decoded fields (value and dtype) equal the per-bit codec's."""
        d = magnitudes.size
        signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
        sq_signs = data.draw(st.lists(st.sampled_from([-1, 1]), min_size=d, max_size=d))
        msg = UnknownMessage(reward_bit=data.draw(st.integers(0, 1)),
                             context=self._context(signs, magnitudes, sq_signs))
        wire = encode_unknown(msg).to_bytes()
        assert wire == reference_encode(msg).to_bytes()
        out = decode_unknown(BitBuffer.from_bytes(wire, bit_budget(d)), d)
        bit, *fields = reference_decode(BitBuffer.from_bytes(wire, bit_budget(d)), d)
        assert type(out.reward_bit) is int and out.reward_bit == bit
        for g, want, dtype in zip(out.context, fields, (np.bool_, np.int64, np.bool_)):
            assert g.dtype == want.dtype == dtype
            assert g.tobytes() == want.tobytes()

    def test_wrong_length_rejected(self):
        with pytest.raises(MessageCodecError):
            decode_unknown(BitBuffer(0, 4), 1)

    def test_reward_bit_is_checked_as_the_known_one(self):
        qc = self._context([1], [2], [1])
        assert encode_unknown(UnknownMessage(np.int64(1), qc)).to_bytes() == b"\xf0"
        for bit, fragment in ((2, "must be 0 or 1"), (0.5, "must be an integer")):
            with pytest.raises(ValueError, match=f"reward bit {fragment}"):
                encode_unknown(UnknownMessage(bit, qc))
