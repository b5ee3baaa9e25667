import math
import os
import stat
import threading

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from crn_jamgame import cli, output
from oracles import csv_line

COLUMNS = (("i", "%d"), ("action", "%s"), ("x", "%.6g"))


class TestAtomicWrite:
    def test_rows_that_fail_after_a_flush_leave_no_trace(self, tmp_path):
        out = tmp_path / "trace.csv"
        out.write_bytes(b"earlier results\n")
        partial = []

        def rows():
            for i in range(100_000):
                yield (i, "stay", 0.5)
            # the rows so far reached a temporary file beside the output
            partial.extend(path.stat().st_size for path in tmp_path.iterdir() if path != out)
            raise OSError("device lost")

        with pytest.raises(OSError, match="device lost"):
            output.write_csv(str(out), COLUMNS, rows())
        assert len(partial) == 1 and partial[0] > 0
        assert out.read_bytes() == b"earlier results\n"
        assert [path.name for path in tmp_path.iterdir()] == ["trace.csv"]

    def test_a_written_file_gets_the_usual_mode(self, tmp_path):
        umask = os.umask(0o022)
        try:
            output.write_csv(str(tmp_path / "out.csv"), COLUMNS, [(1, "stay", 0.5)])
        finally:
            os.umask(umask)
        assert stat.S_IMODE((tmp_path / "out.csv").stat().st_mode) == 0o644
        assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]

    def test_a_replaced_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier results\n")
        out.chmod(0o640)
        output.write_csv(str(out), COLUMNS, [(1, "stay", 0.5)])
        assert out.read_bytes() == b"i,action,x\n1,stay,0.5\n"
        assert stat.S_IMODE(out.stat().st_mode) == 0o640

    @pytest.mark.parametrize("target_exists", [True, False])
    def test_a_symlink_is_written_through_and_stays_a_link(self, tmp_path, target_exists):
        target = tmp_path / "target.csv"
        if target_exists:
            target.write_bytes(b"earlier results\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        output.write_csv(str(link), COLUMNS, [(1, "stay", 0.5)])
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
        output.write_csv(str(pipe), COLUMNS, [(1, "stay", 0.5)])
        reader.join(timeout=10)
        assert received == [b"i,action,x\n1,stay,0.5\n"]
        assert stat.S_ISFIFO(pipe.stat().st_mode)


def _cells(fmt):
    if fmt == "%d":
        return st.one_of(st.booleans(), st.integers(-(2**70), 2**70))
    if fmt == "%s":
        return st.one_of(st.sampled_from(("A", "B", "C", "stay", "switch", "1-1;2-2", "")), st.text())
    special = st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1.7e308))
    return st.one_of(special, st.floats(), st.floats(width=32))


COMMAND_COLUMNS = {
    "nash": cli.NASH_COLUMNS,
    "fp": cli.FP_COLUMNS,
    "simulate": cli.SIMULATE_COLUMNS,
    "sweep": cli.sweep_columns((("n_bands", (3, 4)), ("gain_malicious", (50.0,))), with_fp=True),
    "sweep-without-fp": cli.sweep_columns((("n_primary", (0, 1)),), with_fp=False),
}


class TestCsvFormat:
    @pytest.mark.parametrize("command", sorted(COMMAND_COLUMNS))
    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_bytes_match_the_cell_by_cell_oracle(self, command, data, tmp_path):
        columns = COMMAND_COLUMNS[command]
        rows = data.draw(st.lists(st.tuples(*(_cells(fmt) for _name, fmt in columns)), max_size=30))
        out = tmp_path / "out.csv"
        output.write_csv(str(out), columns, iter(rows))
        expected = ",".join(name for name, _fmt in columns) + "\n"
        expected += "".join(csv_line(row) for row in rows)
        assert out.read_bytes() == expected.encode("utf-8")

    def test_sweep_columns_follow_the_documented_header(self):
        assert [name for name, _fmt in COMMAND_COLUMNS["sweep"]] == [
            "n_bands", "gain_malicious", "p_A", "q_A", "degenerate_A", "p_B", "q_B",
            "degenerate_B", "fp_err_p_A", "fp_err_q_A", "fp_err_p_B", "fp_err_q_B",
        ]
        assert [fmt for _name, fmt in COMMAND_COLUMNS["sweep"][:2]] == ["%d", "%.6g"]
