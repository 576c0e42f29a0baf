"""Core types: prefixes, blocks, the square and product maps, the file format."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
from traced_memory import traced_peak


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

    def test_python_and_numpy_read_every_term(self):
        # without __iter__ they called __getitem__ from 0 and read nothing
        s = SignSeq([1, 0, -1])
        assert list(s) == [1, 0, -1] and all(type(v) is int for v in s)
        assert -1 in s and 2 not in s
        assert list(reversed(s)) == [-1, 0, 1]
        assert np.asarray(s).tolist() == [1, 0, -1]
        assert SignSeq(s) == s

    @pytest.mark.parametrize("chunk", [1, 7, seqcore._CHUNK])
    def test_chunks_are_the_terms_in_order(self, monkeypatch, chunk):
        values = np.random.default_rng(chunk).integers(-1, 2, size=100)
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        parts = list(SignSeq(values).chunks())
        assert all(0 < part.size <= chunk and not part.flags.writeable for part in parts)
        assert np.concatenate(parts).tolist() == values.tolist()


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

    def test_zero_term_file_has_no_chunk(self, tmp_path):
        # no span, not one empty one: a reduction over an empty chunk fails
        path = tmp_path / "empty.sqz"
        path.write_bytes(seqcore.SQZ_HEADER.pack(seqcore.SQZ_MAGIC, 0))
        source = seqcore._SqzFile(path)
        assert len(source) == 0
        assert list(source.chunks()) == [] and list(source.chunks(19)) == []

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


class TestSpans:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_chunks_follow_the_span_rule(self, data):
        # every chunk but the last holds max(_CHUNK, 2 overlap) terms, the
        # next starts overlap terms before it ends, and so every run of
        # overlap + 1 terms lies whole in one chunk, of a SignSeq or a file
        n = data.draw(st.integers(1, 300), label="n")
        overlap = data.draw(st.integers(0, 40), label="overlap")
        chunk = data.draw(st.sampled_from([1, 2, 7, 64]), label="chunk")
        values = np.int8(data.draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n)))
        size = max(chunk, 2 * overlap)
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(seqcore, "_CHUNK", chunk)
            write_sqz(os.path.join(tmp, "z.sqz"), SignSeq(values))
            spans = list(seqcore._spans(n, overlap))
            for source in (SignSeq(values), seqcore._SqzFile(os.path.join(tmp, "z.sqz"))):
                # tobytes: a file's chunks reuse one buffer
                parts = [part.tobytes() for part in source.chunks(overlap)]
                assert parts == [values[lo:hi].tobytes() for lo, hi in spans]
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(hi - lo == size for lo, hi in spans[:-1])
        assert 0 < spans[-1][1] - spans[-1][0] <= size
        assert all(b[0] == a[1] - overlap for a, b in zip(spans, spans[1:]))
        for start in range(n - overlap):
            assert any(lo <= start and start + overlap + 1 <= hi for lo, hi in spans)


class TestWindows:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_every_window_once_up_to_the_last_stop(self, data):
        # chunks shorter than k, stops inside a chunk, and a last stop before
        # the last window, after which nothing is yielded but a file is read
        values = data.draw(st.lists(st.integers(-1, 1), min_size=1, max_size=80))
        k = data.draw(st.integers(1, len(values)))
        stops = sorted(data.draw(st.sets(st.integers(1, len(values) - k + 1), min_size=1)))
        chunk = data.draw(st.sampled_from([1, 2, 7, 64]))
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(seqcore, "_CHUNK", chunk)
            write_sqz(os.path.join(tmp, "z.sqz"), SignSeq(values))
            for source in (SignSeq(values), seqcore._SqzFile(os.path.join(tmp, "z.sqz"))):
                starts, ends = [], []
                for end, buf in seqcore._windows(source, k, stops):
                    first = end - (buf.size - k)  # the buffer's first window starts here
                    assert 1 <= first <= end and end - first < chunk
                    assert buf.tolist() == values[first - 1 : end + k - 1]
                    starts += range(first, end + 1)
                    ends.append(end)
                assert starts == list(range(1, stops[-1] + 1))
                assert set(stops) <= set(ends)

    @pytest.mark.parametrize("k", [1, 2, 3, 8, 20])
    @pytest.mark.parametrize("chunk", [1, 2, 7])
    def test_windows_match_a_brute_force_list(self, tmp_path, monkeypatch, chunk, k):
        # a buffer is a view of one chunk, of at most max(_CHUNK, 2k - 2)
        # letters: the chunks overlap by k - 1, so at k 8 and 20 each chunk
        # holds more letters than a _CHUNK shorter than k - 1
        values = np.random.default_rng(k).integers(-1, 2, size=60).tolist()
        monkeypatch.setattr(seqcore, "_CHUNK", chunk)
        write_sqz(tmp_path / "z.sqz", SignSeq(values))
        want = [values[i : i + k] for i in range(len(values) - k + 1)]
        for source in (SignSeq(values), seqcore._SqzFile(tmp_path / "z.sqz")):
            got = []
            for _, buf in seqcore._windows(source, k, [len(want)]):
                assert buf.size <= max(chunk, 2 * k - 2)
                got += [buf[i : i + k].tolist() for i in range(buf.size - k + 1)]
            assert got == want

    @pytest.mark.parametrize("k", [1, 20])
    def test_opened_file_walk_holds_one_read_chunk(self, tmp_path, k):
        # every chunk of an opened file is read into one buffer, so a walk
        # traces that buffer alone: 1.00 chunks, where a fresh array per read
        # traced 2.00, as the last chunk is held while the next is read
        N = 4 * seqcore._CHUNK + 5
        write_sqz(tmp_path / "z.sqz", SignSeq(np.resize(np.int8([1, 0, -1, 0]), N)))
        source = seqcore._SqzFile(tmp_path / "z.sqz")
        def walk(source):
            for _ in seqcore._windows(source, k, (N - k + 1,)):
                pass
        assert traced_peak(walk, source) < 1.01 * seqcore._CHUNK

    def test_opened_file_is_read_after_its_path_is_removed(self, tmp_path, monkeypatch):
        # hat-test hands its opened input to the sign test, and a caller may
        # read it again (square_map) once the file's directory is cleared
        z = SignSeq(np.random.default_rng(3).integers(-1, 2, size=3001))
        write_sqz(tmp_path / "z.sqz", z)
        monkeypatch.setattr(seqcore, "_CHUNK", 7)
        source = seqcore._SqzFile(tmp_path / "z.sqz")
        (tmp_path / "z.sqz").unlink()
        assert seqcore._fill(len(source), source.chunks()) == z
        squared = square_map(source)
        assert squared == square_map(z) and squared.values.dtype == np.int8


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
        lambda _: cl.build_toeplitz(cl.mobius_prefix(100), 3, 100),
        lambda _: square_map(SignSeq([1, 0, -1])),
        lambda _: pointwise_product(SignSeq([1, 0, -1]), SignSeq([-1, 1, 1])),
        lambda _: SignSeq([1, 0, -1]).prefix(2),
        _sqz_round_trip,
    ], ids=["mobius", "liouville", "mu_b", "sturmian", "bernoulli", "pair_code",
            "masked_coin", "doubling_word", "sparse_embed", "determinize_step",
            "build_toeplitz", "square_map", "pointwise_product", "prefix", "read_sqz"])
    def test_values_are_int8(self, make, tmp_path):
        assert make(tmp_path).values.dtype == np.int8


def _read_shrunk(path, n=10**5):
    """Opens an n-term .sqz, cuts it to 2n/5 terms, then reads it.  A small
    file lies whole in a buffered reader's first read, of the header, so only
    an unbuffered read meets its new end."""
    write_sqz(path, SignSeq(np.ones(n, dtype=np.int8)))
    source = seqcore._SqzFile(path)
    os.truncate(path, seqcore.SQZ_HEADER.size + 2 * n // 5)
    list(source.chunks())


@pytest.mark.parametrize("call, message", [
    (lambda path: (path.write_bytes(b"SQZ1\0"), read_sqz(path)), "{path}: truncated header"),
    (_read_shrunk, "{path}: expected 100000 symbols, found 40000 bytes"),
    (lambda path: _read_shrunk(path, 100), "{path}: expected 100 symbols, found 40 bytes"),
    (lambda path: SignSeq(np.zeros((2, 2))), "expected a 1-d sequence of symbols, got shape (2, 2)"),
    (lambda path: Block(()), "a Block must have length >= 1"),
], ids=["read-sqz-short-header", "sqz-file-shrunk-after-open",
        "small-sqz-file-shrunk-after-open", "signseq-2d", "empty-block"])
def test_refusals_name_their_cause(tmp_path, call, message):
    path = tmp_path / "z.sqz"
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(path=path))}$"):
        call(path)
