import math
import os
import stat
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from crn_jamgame import cli, encode, output
from oracles import csv_line

COLUMNS = ("i", "action", "x")
ONE_ROW = [([1], ["stay"], [0.5])]


def blocks_of(rows, size):
    """``rows`` as blocks of at most ``size`` rows, one list per column."""
    return [list(map(list, zip(*rows[lo : lo + size]))) for lo in range(0, len(rows), size)]


class TestAtomicWrite:
    def test_rows_that_fail_after_a_flush_leave_no_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        out.write_bytes(b"earlier results\n")
        partial = []

        def blocks():
            for lo in range(0, 100_000, 2048):
                yield np.arange(lo, lo + 2048), ["stay"] * 2048, np.full(2048, 0.5)
            # the blocks so far reached a temporary file beside the output
            partial.extend(path.stat().st_size for path in tmp_path.iterdir() if path != out)
            raise OSError("device lost")

        with pytest.raises(OSError, match="device lost"):
            output.write_csv(str(out), COLUMNS, blocks())
        assert len(partial) == 1 and partial[0] > 0
        assert out.read_bytes() == b"earlier results\n"
        assert [path.name for path in tmp_path.iterdir()] == ["trace.csv"]

    @pytest.mark.parametrize(
        "path", ["newdir" + os.sep, f"d{os.sep}.", "existing"], ids=["trailing-separator", "dot", "existing"]
    )
    def test_a_directory_path_fails_before_any_block_is_pulled(self, tmp_path, monkeypatch, path):
        # it used to encode every block into a temporary file in the working
        # directory, then fail at the rename naming that file
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").mkdir()
        pulled = []

        def blocks():
            pulled.append(1)
            yield from ONE_ROW

        with pytest.raises(IsADirectoryError) as error:
            output.write_csv(path, COLUMNS, blocks())
        assert error.value.filename == path and str(error.value).endswith(f": {path!r}")
        assert pulled == []
        assert [p.name for p in tmp_path.iterdir()] == ["existing"]
        assert not any((tmp_path / "existing").iterdir())

    def test_a_written_file_gets_the_usual_mode(self, tmp_path):
        umask = os.umask(0o022)
        try:
            output.write_csv(str(tmp_path / "out.csv"), COLUMNS, ONE_ROW)
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == 0o644
        assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier results\n")
        out.chmod(0o640)
        output.write_csv(str(out), COLUMNS, ONE_ROW)
        assert out.read_bytes() == b"i,action,x\n1,stay,0.5\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_a_symlink_is_written_through_and_stays_a_link(self, tmp_path, target_exists):
        target = tmp_path / "target.csv"
        if target_exists:
            target.write_bytes(b"earlier results\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        output.write_csv(str(link), COLUMNS, ONE_ROW)
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_bytes() == b"i,action,x\n1,stay,0.5\n"
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
    def test_a_pipe_is_written_in_place(self, tmp_path):
        pipe = tmp_path / "pipe"
        os.mkfifo(pipe)
        received = []
        reader = threading.Thread(target=lambda: received.append(pipe.read_bytes()), daemon=True)
        reader.start()
        output.write_csv(str(pipe), COLUMNS, ONE_ROW)
        reader.join(timeout=10)
        assert received == [b"i,action,x\n1,stay,0.5\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


#: The values of each kind of column: ints and bools, text, floats.
CELLS = {
    "int": st.one_of(st.booleans(), st.integers(-(2**70), 2**70)),
    "text": st.one_of(st.sampled_from(("A", "B", "C", "stay", "switch", "1-1;2-2", "")), st.text()),
    "float": st.one_of(
        st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1.7e308)),
        st.floats(),
        st.floats(width=32),
    ),
}


#: The Python values of each kind of column of ``typed``; an int kind
#: "< 10**6" holds only values its one-word cells cover.
TYPED = {
    "float64": CELLS["float"],
    "float list": CELLS["float"],
    "int8": st.integers(-(2**7), 2**7 - 1),
    "uint8": st.integers(0, 2**8 - 1),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "int64 < 10**6": st.integers(0, 10**6 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "uint64 < 10**6": st.integers(0, 10**6 - 1),
    "int list": CELLS["int"],
    "bool": st.booleans(),
    "labels": CELLS["text"],
}


def typed(kind, values):
    """``values`` as a column of ``kind`` of :data:`TYPED`: a NumPy array
    of its dtype, a list, or labels; with the Python values it writes."""
    if kind == "labels":
        table = sorted(set(values))
        return output.Labels(np.array([table.index(value) for value in values], np.intp), table), values
    if kind.endswith(" list"):
        return list(values), values
    return np.array(values, np.dtype(kind.split()[0])), values


@st.composite
def typed_blocks(draw):
    """A block of ``typed`` columns with two float64 columns, the first
    column and one after at least one other column."""
    rows = draw(st.integers(0, 30), label="rows")
    kinds = draw(st.lists(st.sampled_from(sorted(TYPED)), min_size=1, max_size=8), label="columns")
    split = draw(st.integers(1, len(kinds)))
    kinds = ["float64", *kinds[:split], "float64", *kinds[split:]]
    return [typed(kind, draw(st.lists(TYPED[kind], min_size=rows, max_size=rows))) for kind in kinds]


#: Float columns of five values for the examples of typed blocks.
FIVE_FLOATS = ([0.5, 1e-05, -0.0, 123456.5, 1e300], [2.5, -7.0, math.inf, 1e-07, 0.1])


def edge_block(kind, ints):
    """Two float columns around an int column of ``kind`` holding ``ints``."""
    return [typed("float64", FIVE_FLOATS[0]), typed(kind, ints), typed("float list", FIVE_FLOATS[1])]


class TestCsvFormat:
    @given(data=st.data())
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_the_cell_by_cell_oracle(self, data, tmp_path):
        kinds = data.draw(st.lists(st.sampled_from(sorted(CELLS)), min_size=1, max_size=14), label="columns")
        header = [f"{kind}{i}" for i, kind in enumerate(kinds)]
        rows = data.draw(st.lists(st.tuples(*(CELLS[kind] for kind in kinds)), max_size=30))
        size = data.draw(st.integers(1, 30), label="rows per block")
        out = tmp_path / "out.csv"
        output.write_csv(str(out), header, iter(blocks_of(rows, size)))
        expected = ",".join(header) + "\n" + "".join(csv_line(row) for row in rows)
        assert out.read_bytes() == expected.encode("utf-8")

    @given(typed_blocks())
    @settings(max_examples=100, deadline=None)
    @example(edge_block("int64", [0, 9, 999, 1000, 999_999]))
    @example(edge_block("uint64", [999_999, 1000, 999, 9, 0]))
    @example(edge_block("int64", [0, 9, 999, 1000, 1_000_000]))
    @example(edge_block("int64", [9, 999, -1, 1000, 999_999]))
    @example(edge_block("int64", [-(2**63), 2**63 - 1, 0, 1000, 999_999]))
    @example(edge_block("uint64", [0, 2**64 - 1, 999, 1000, 1_000_000]))
    @example(edge_block("uint8", [0, 9, 255, 100, 10]))
    def test_typed_columns_match_the_cell_by_cell_oracle(self, block):
        # NumPy arrays of each dtype, lists and labels side by side, so the
        # float columns encoded together are split back in their order
        columns, cells = zip(*block)
        expected = "".join(csv_line(row) for row in zip(*cells))
        assert encode.encode_block(columns) == expected.encode("utf-8")

    def test_sweep_columns_follow_the_documented_header(self, tmp_path, capsys):
        header = cli.sweep_columns((("n_bands", (3, 4)), ("gain_malicious", (50.0,))), with_fp=True)
        assert header == (
            "n_bands", "gain_malicious", "p_A", "q_A", "degenerate_A", "p_B", "q_B",
            "degenerate_B", "fp_err_p_A", "fp_err_q_A", "fp_err_p_B", "fp_err_q_B",
        )
        # an int field's values are written %d, a float field's %.6g
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--sweep", "n_bands=6..7", "--sweep", "gain_malicious=1e6", "--out", str(out)]
        assert cli.main(args) == 0
        assert [line.split(",")[:2] for line in out.read_text().splitlines()[1:]] == [
            ["6", "1e+06"], ["7", "1e+06"],
        ]

    @given(
        codes=st.lists(st.integers(0, 3), max_size=40),
        table=st.lists(st.text(), min_size=4, max_size=4),
    )
    def test_a_label_column_may_be_codes_into_a_table(self, codes, table):
        block = (output.Labels(np.array(codes), table), [table[code] for code in codes], codes)
        expected = "".join(f"{table[code]},{table[code]},{code}\n" for code in codes).encode("utf-8")
        assert encode.encode_block(block) == expected

    def test_blocks_mixing_label_tables_and_strings_give_their_text(self):
        # a table's cells are kept from block to block; tables that differ
        # in one label, or only in order, and plain strings never share them
        categories, moves = ("A", "B", "C"), ["switch", "stay"]
        rng = np.random.default_rng(7)
        for table in (moves, moves[::-1], ["switch", "go"], moves):
            codes_c, codes_m = rng.integers(0, 3, 12), rng.integers(0, 2, 12)
            texts = [table[1 - code] for code in codes_m]
            block = (output.Labels(codes_c, categories), output.Labels(codes_m, table), texts)
            expected = "".join(
                "%s,%s,%s\n" % (categories[c], table[m], text) for c, m, text in zip(codes_c, codes_m, texts)
            )
            assert encode.encode_block(block) == expected.encode("utf-8")

    def test_columns_of_different_lengths_are_an_error(self):
        with pytest.raises(ValueError, match="differ in length"):
            encode.encode_block(([1, 2], [0.5]))

    def test_empty_columns_of_every_kind_encode_to_nothing(self):
        labels = output.Labels(np.array([], int), ["A"])
        empty = ([], (), np.array([]), np.array([], bool), np.array([], "U1"), labels)
        assert encode.encode_block(empty) == b""


def lines(values, spec):
    """``values`` formatted cell by cell with ``format``, a line each."""
    return "".join(format(value, spec) + "\n" for value in values).encode("ascii")


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Values just off a rounding tie of the sixth digit, and on it, at every scale.
NEAR_TIES = st.builds(
    lambda digits, scale: (digits + 0.5) * 10.0**scale,
    st.integers(99_999, 999_999),
    st.integers(-300, 290),
)


class TestCellEncoders:
    """Every cell the encoders write against Python's own formatting."""

    @given(
        st.lists(
            st.one_of(
                st.floats(),
                st.floats(width=32),
                st.integers(0, 2**64 - 1).map(from_bits),
                NEAR_TIES,
                st.integers(-310, 290).map(lambda scale: 999_999.5 * 10.0**scale),
            ),
            max_size=50,
        ).map(np.array)
    )
    @settings(max_examples=300)
    @example(np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1.7e308]))
    @example(np.array([1e-300, 1e300, 9.999995e-5, 999_999.5, 0.5, 1e-5, 1e-4, 1e16, 1e22, 1e23]))
    def test_floats_match_format(self, values):
        assert encode.encode_block((values,)) == lines(values.tolist(), ".6g")

    def test_a_million_seeded_floats_match_format(self):
        rng = np.random.default_rng(20190906)
        n = 125_000
        families = [
            rng.random(n),
            rng.standard_normal(n) * 10.0 ** rng.integers(-300, 290, n).astype(float),
            rng.integers(0, 2**64, n, dtype=np.uint64).view(np.float64),
            (rng.integers(99_999, 1_000_000, n) + 0.5) * 10.0 ** rng.integers(-300, 290, n).astype(float),
            (rng.integers(99_999, 1_000_000, n) + 0.5) * 10.0 ** rng.integers(-12, 4, n).astype(float),
            999_999.5 * 10.0 ** rng.integers(-310, 290, n).astype(float),
            np.arange(1, n + 1) / n,
            np.arange(1, n + 1) / 300_000 - 0.2,
        ]
        for values in families:
            got = b"".join(
                encode.encode_block((values[lo : lo + 2048],))
                for lo in range(0, len(values), 2048)
            )
            assert got == lines(values.tolist(), ".6g")

    @given(st.lists(st.one_of(st.booleans(), st.integers(-(2**70), 2**70)), max_size=50))
    @example([-(2**63), 2**63 - 1, 2**63, 2**64, 0, -1])
    @example([-1, 2**63 + 1])  # NumPy would hold these as float64
    @example([999, 1000, 9, -99_999_999, 12_345_678])
    @example([True, 2, False, -3])
    @example([])
    def test_ints_and_bools_match_format(self, values):
        assert encode.encode_block((values,)) == lines(values, "d")

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint8, np.int16, np.int64, np.uint64])
    def test_every_integer_dtype_matches_format(self, dtype):
        lo, hi = (0, 1) if dtype is bool else (np.iinfo(dtype).min, np.iinfo(dtype).max)
        drawn = np.random.default_rng(7).integers(lo, hi, 500, endpoint=True, dtype=np.uint64 if hi > 2**63 else np.int64)
        values = np.concatenate([np.array([lo, hi, 0], dtype), drawn.astype(dtype)])
        assert encode.encode_block((values,)) == lines(values.tolist(), "d")
