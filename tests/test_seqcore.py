"""Core types: prefixes, blocks, the square and product maps, the file format."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from chowla_lab import seqcore
from chowla_lab.seqcore import (
    Block,
    SignSeq,
    _write_sqz_chunks,
    pointwise_product,
    read_sqz,
    square_map,
    write_sqz,
)

import chowla_lab as cl
from factorize_oracle import factorize


signseqs = st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=200).map(SignSeq)


class TestSignSeq:
    def test_one_based_indexing(self):
        s = SignSeq([1, -1, 0])
        assert s[1] == 1 and s[2] == -1 and s[3] == 0
        with pytest.raises(IndexError):
            s[0]
        with pytest.raises(IndexError):
            s[4]

    def test_rejects_bad_symbols(self):
        with pytest.raises(ValueError, match="position 2"):
            SignSeq([0, 2, 1])

    @pytest.mark.parametrize("values, position", [
        ([257, 255, 0.7], 1), ([1, -129], 2), ([0, 0.7], 2), ([float("nan")], 1),
        ([1, float("inf")], 2), ([float("-inf")], 1), (np.array([1, -128], dtype=np.int8), 2),
        (np.array([0, 255], dtype=np.uint8), 2), ([0, 1, 1.5], 3),
    ], ids=["wraps-to-1", "wraps-to-127", "truncates-to-0", "nan", "inf", "-inf",
            "int8-min", "uint8-255", "half"])
    def test_rejects_values_the_int8_cast_would_change(self, values, position):
        with pytest.raises(ValueError,
                           match=rf"symbol out of alphabet \{{-1,0,1\}} at position {position}:"):
            SignSeq(values)

    def test_accepts_integral_floats_and_bools(self):
        assert SignSeq([1.0, -1.0, 0.0]).values.tolist() == [1, -1, 0]
        assert SignSeq([True, False]).values.tolist() == [1, 0]
        assert SignSeq(np.array([-1, 0, 1], dtype=np.int8)).values.dtype == np.int8

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SignSeq([])

    def test_values_read_only(self):
        s = SignSeq([1, 0, -1])
        with pytest.raises(ValueError):
            s.values[0] = 0

    def test_window_and_prefix(self):
        s = SignSeq([1, -1, 0, 1])
        assert s.values[1:3].tolist() == [-1, 0]
        assert s.prefix(2) == SignSeq([1, -1])


class TestBlock:
    def test_support_derived(self):
        b = Block((1, 0, -1, 0))
        assert b.support == (0, 2)

    def test_rejects_bad_letter(self):
        with pytest.raises(ValueError):
            Block((0, 3))

    def test_rejects_a_letter_the_int_cast_would_change(self):
        # int(0.5) is 0: the cast made this Block((0, 1))
        with pytest.raises(ValueError, match="position 0: 0.5"):
            Block((0.5, 1))


class TestSquareMap:
    def test_example(self):
        assert square_map(SignSeq([1, -1, 0, 1])) == SignSeq([1, 1, 0, 1])

    def test_all_zero(self):
        z = SignSeq([0] * 7)
        assert square_map(z) == z

    def test_mobius_prefix_is_squarefree_indicator(self):
        # oracle: n squarefree iff no exponent >= 2 in the factorization
        from chowla_lab.numbergen import mobius_prefix

        sq = square_map(mobius_prefix(10))
        oracle = [1 if all(e < 2 for _, e in factorize(n)) else 0 for n in range(1, 11)]
        assert sq.values.tolist() == oracle == [1, 1, 1, 0, 1, 1, 1, 0, 0, 1]


class TestPointwiseProduct:
    def test_example(self):
        assert pointwise_product(SignSeq([1, 1, 0]), SignSeq([-1, 1, 1])) == SignSeq([-1, 1, 0])

    def test_identity(self):
        z = SignSeq([1, 0, -1, 1])
        assert pointwise_product(z, SignSeq([1] * 4)) == z

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="3 != 2"):
            pointwise_product(SignSeq([1, 1, 1]), SignSeq([1, 1]))

    @given(signseqs, st.data())
    def test_square_of_product_splits(self, a, data):
        b = SignSeq(data.draw(st.lists(
            st.sampled_from([-1, 0, 1]), min_size=len(a), max_size=len(a))))
        lhs = square_map(pointwise_product(a, b))
        rhs = pointwise_product(square_map(a), square_map(b))
        assert lhs == rhs

    @given(signseqs, st.data())
    def test_square_absorbs_sign_factors(self, a, data):
        # for b valued in {-1,1}: (a*b)^2 = a^2
        b = SignSeq(data.draw(st.lists(
            st.sampled_from([-1, 1]), min_size=len(a), max_size=len(a))))
        assert square_map(pointwise_product(a, b)) == square_map(a)


class TestSqzFormat:
    def test_round_trip(self, tmp_path):
        z = SignSeq(np.random.default_rng(0).integers(-1, 2, size=1000))
        path = tmp_path / "z.sqz"
        write_sqz(path, z)
        assert read_sqz(path) == z

    def test_layout(self, tmp_path):
        z = SignSeq([1, -1, 0])
        path = tmp_path / "z.sqz"
        write_sqz(path, z)
        raw = path.read_bytes()
        assert raw[:4] == b"SQZ1"
        assert int.from_bytes(raw[4:12], "little") == 3
        assert raw[12:] == bytes([1, 255, 0])
        assert len(raw) == 3 + 12

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.sqz"
        path.write_bytes(b"NOPE" + b"\x00" * 12)
        with pytest.raises(ValueError, match="magic"):
            read_sqz(path)

    @pytest.mark.parametrize("byte, symbol", [(5, 5), (0x80, -128)])
    def test_out_of_alphabet_payload_rejected(self, tmp_path, byte, symbol):
        path = tmp_path / "bad.sqz"
        path.write_bytes(b"SQZ1" + (4).to_bytes(8, "little") + bytes([1, 0, byte, 255]))
        with pytest.raises(ValueError,
                           match=rf"symbol out of alphabet \{{-1,0,1\}} at position 3: {symbol}$"):
            read_sqz(path)

    def test_bad_byte_past_the_first_chunk_names_its_term(self, tmp_path, monkeypatch):
        monkeypatch.setattr(seqcore, "_CHUNK", 2)
        path = tmp_path / "bad.sqz"
        path.write_bytes(b"SQZ1" + (5).to_bytes(8, "little") + bytes([1, 0, 255, 1, 7]))
        with pytest.raises(ValueError,
                           match=rf"symbol out of alphabet \{{-1,0,1\}} at position 5: 7$"):
            read_sqz(path)

    @pytest.mark.parametrize("sizes", [[2, 3], [2, 3, 2]], ids=["one-short", "one-long"])
    def test_chunks_that_miss_the_header_length_leave_no_file(self, tmp_path, sizes):
        # the header is written first, so the count is checked as the chunks come
        path = tmp_path / "z.sqz"
        chunks = (np.ones(k, dtype=np.int8) for k in sizes)
        with pytest.raises(ValueError, match="do not add up to the header's 6 symbols"):
            _write_sqz_chunks(path, 6, chunks)
        assert list(tmp_path.iterdir()) == []

    def test_truncation_rejected(self, tmp_path):
        z = SignSeq([1, -1, 0, 1])
        path = tmp_path / "z.sqz"
        write_sqz(path, z)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError, match="expected 4 symbols"):
            read_sqz(path)

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        # the rename onto a directory fails after the temp file is written
        target = tmp_path / "existing-dir"
        target.mkdir()
        with pytest.raises(OSError) as err:
            write_sqz(target, SignSeq([1, 0, -1]))
        assert err.value.filename == str(target)
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []


def _sqz_round_trip(tmp_path):
    write_sqz(tmp_path / "z.sqz", SignSeq([1, 0, -1]))
    return read_sqz(tmp_path / "z.sqz")


class TestTrustedWrap:
    # SignSeq._wrap stores the array it is given without a cast: every
    # public generator and map must hand it int8 values
    @pytest.mark.parametrize("make", [
        lambda _: cl.mobius_prefix(100),
        lambda _: cl.liouville_prefix(100),
        lambda _: cl.mu_b_prefix(cl.BSet.from_squares([4, 9]), 100),
        lambda _: cl.sturmian_prefix(cl.SturmianParams(alpha=(3 - 5**0.5) / 2), 100),
        lambda _: cl.bernoulli_prefix((-1, 0, 1), cl.BernoulliParams((0.2, 0.3, 0.5), 1), 100),
        lambda _: cl.pair_code_prefix(3, 1, 100),
        lambda _: cl.masked_coin_prefix(1, 100),
        lambda _: cl.doubling_word_prefix(100),
        lambda _: cl.sparse_embed(cl.mobius_prefix(100), 1000, 2),
        lambda _: cl.determinize_step(cl.doubling_word_prefix(1000),
                                      cl.DeterminizeParams(0.5, 3, 48)).sequence,
        lambda _: cl.build_toeplitz(cl.ToeplitzSpec(q=3, z_ref=cl.mobius_prefix(100)), 100),
        lambda _: square_map(SignSeq([1, 0, -1])),
        lambda _: pointwise_product(SignSeq([1, 0, -1]), SignSeq([-1, 1, 1])),
        lambda _: SignSeq([1, 0, -1]).prefix(2),
        _sqz_round_trip,
    ], ids=["mobius", "liouville", "mu_b", "sturmian", "bernoulli", "pair_code",
            "masked_coin", "doubling_word", "sparse_embed", "determinize_step",
            "build_toeplitz", "square_map", "pointwise_product", "prefix", "read_sqz"])
    def test_values_are_int8(self, make, tmp_path):
        assert make(tmp_path).values.dtype == np.int8
