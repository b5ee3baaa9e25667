import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from crn_jamgame.cli import main

REFERENCE_DEFAULTS = {
    "n_bands": 10,
    "n_primary": 5,
    "cost_secondary_switch": 5,
    "cost_malicious_switch": 2,
    "gain_secondary": 50,
    "gain_malicious": 75,
    "loss_secondary": 100,
}


def write_config(tmp_path, name="config.json", **values):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


class TestParseConfig:
    def test_empty_config_file_means_defaults(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("")
        out = tmp_path / "nash.csv"
        assert main(["nash", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert float(rows[0]["p"]) == pytest.approx(0.948, abs=0.005)

    def test_single_band_is_a_config_error_naming_the_field(self, tmp_path, capsys):
        config = write_config(tmp_path, n_bands=1)
        assert main(["nash", "--config", config]) == 2
        assert "n_bands" in capsys.readouterr().err

    def test_flag_seed_overrides_file_seed(self, tmp_path, capsys):
        config = write_config(tmp_path, seed=1)
        out_flag = tmp_path / "flag.csv"
        out_file = tmp_path / "file.csv"
        assert main(["fp", "--config", config, "--seed", "7", "--iterations", "50",
                     "--out", str(out_flag)]) == 0
        assert main(["fp", "--seed", "7", "--iterations", "50", "--out", str(out_file)]) == 0
        assert out_flag.read_bytes() == out_file.read_bytes()

    def test_env_var_is_the_fallback_seed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("CRN_JAMGAME_SEED", "7")
        out_env = tmp_path / "env.csv"
        out_explicit = tmp_path / "explicit.csv"
        assert main(["fp", "--iterations", "50", "--out", str(out_env)]) == 0
        monkeypatch.delenv("CRN_JAMGAME_SEED")
        assert main(["fp", "--seed", "7", "--iterations", "50", "--out", str(out_explicit)]) == 0
        assert out_env.read_bytes() == out_explicit.read_bytes()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, bogus=3)
        assert main(["nash", "--config", config]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_invalid_policy_rejected(self, capsys):
        assert main(["simulate", "--policy-secondary", "random"]) == 2
        assert "policy_secondary" in capsys.readouterr().err

    def test_out_of_range_seed_rejected(self, capsys):
        assert main(["nash", "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err


class TestCmdNash:
    def test_reference_equilibria(self, tmp_path, capsys):
        out = tmp_path / "nash.csv"
        assert main(["nash", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "category A" in printed and "category B" in printed
        _, rows = read_csv(out)
        by_category = {row["category"]: row for row in rows}
        assert float(by_category["A"]["p"]) == pytest.approx(0.948, abs=0.005)
        assert float(by_category["A"]["q"]) == pytest.approx(0.84, abs=0.005)
        assert float(by_category["B"]["p"]) == pytest.approx(0.852, abs=0.005)
        assert float(by_category["B"]["q"]) == pytest.approx(0.849, abs=0.005)
        assert by_category["A"]["degenerate"] == "0"
        assert by_category["A"]["pure_equilibria"] == ""

    def test_zero_utility_config_is_degenerate_in_both_categories(self, tmp_path):
        config = write_config(
            tmp_path,
            cost_secondary_switch=0,
            cost_malicious_switch=0,
            gain_secondary=0,
            gain_malicious=0,
            loss_secondary=0,
        )
        out = tmp_path / "nash.csv"
        assert main(["nash", "--config", config, "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert all(row["degenerate"] == "1" for row in rows)
        assert all(row["p"] == "nan" for row in rows)

    def test_dominance_config_prints_pure_only(self, tmp_path, capsys):
        # zero transmission stakes make staying dominant for the secondary
        config = write_config(tmp_path, gain_secondary=0, loss_secondary=0)
        out = tmp_path / "nash.csv"
        assert main(["nash", "--config", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "no mixed equilibrium" in printed
        _, rows = read_csv(out)
        by_category = {row["category"]: row for row in rows}
        assert by_category["A"]["degenerate"] == "1"
        assert "2-2" in by_category["A"]["pure_equilibria"]


class TestCmdFp:
    def test_default_run_converges(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert main(["fp", "--category", "A", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "iteration", "secondary_action", "malicious_action",
            "p_star", "q_star", "err_p", "err_q",
        ]
        assert len(rows) == 20_000
        assert float(rows[-1]["err_p"]) <= 0.03
        assert float(rows[-1]["err_q"]) <= 0.03

    def test_single_iteration_shape(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert main(["fp", "--iterations", "1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["iteration"] == "1"
        assert rows[0]["secondary_action"] in ("switch", "stay")

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(["fp", "--seed", "5", "--iterations", "2000", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_category_b_actions_use_b_labels(self, tmp_path):
        out = tmp_path / "fp.csv"
        assert main(["fp", "--category", "B", "--iterations", "200", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert {row["malicious_action"] for row in rows} <= {"stay", "switch"}


class TestCmdSimulate:
    def test_saturated_spectrum_trace_is_all_c(self, tmp_path):
        config = write_config(tmp_path, n_primary=10)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--config", config, "--slots", "200", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[:5] == [
            "slot", "category", "secondary_band", "malicious_band",
            "n_primaries_on_secondary_band",
        ]
        assert all(row["category"] == "C" for row in rows)
        assert all(row["n_primaries_on_secondary_band"] == "1" for row in rows)

    def test_summary_reports_the_observation_asymmetry(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--slots", "10000", "--seed", "3", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        line = next(l for l in printed.splitlines() if l.startswith("history totals"))
        malicious = int(line.split("malicious=")[1].split()[0])
        secondary = int(line.split("secondary=")[1].split()[0])
        assert malicious >= secondary

    def test_trace_schema_and_consistency(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--slots", "500", "--seed", "11", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == [
            "slot", "category", "secondary_band", "malicious_band",
            "n_primaries_on_secondary_band", "secondary_action", "malicious_action",
            "jam", "payoff_s", "payoff_m", "pstar_A", "qstar_A", "pstar_B", "qstar_B",
        ]
        assert len(rows) == 500
        for row in rows:
            if row["category"] == "C":
                assert row["secondary_action"] == "stay"
                assert row["n_primaries_on_secondary_band"] == "1"
            else:
                assert row["n_primaries_on_secondary_band"] == "0"
            if row["category"] == "A":
                assert row["secondary_band"] == row["malicious_band"]

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(["simulate", "--slots", "3000", "--seed", "9", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestCmdSweep:
    def test_singleton_sweep_matches_nash(self, tmp_path):
        sweep_out = tmp_path / "sweep.csv"
        nash_out = tmp_path / "nash.csv"
        assert main(["sweep", "--sweep", "n_primary=5", "--out", str(sweep_out)]) == 0
        assert main(["nash", "--out", str(nash_out)]) == 0
        _, sweep_rows = read_csv(sweep_out)
        _, nash_rows = read_csv(nash_out)
        assert len(sweep_rows) == 1
        by_category = {row["category"]: row for row in nash_rows}
        assert sweep_rows[0]["p_A"] == by_category["A"]["p"]
        assert sweep_rows[0]["q_B"] == by_category["B"]["q"]

    def test_primary_count_range(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep", "n_primary=1..9", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 9
        anchor = next(row for row in rows if row["n_primary"] == "5")
        assert float(anchor["p_A"]) == pytest.approx(0.948, abs=0.005)
        assert float(anchor["q_A"]) == pytest.approx(0.84, abs=0.005)

    def test_jammer_gain_sweep_leaves_q_unchanged(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(
            ["sweep", "--sweep", "gain_malicious=75..300:75", "--out", str(out)]
        ) == 0
        _, rows = read_csv(out)
        assert len(rows) == 4
        assert len({row["q_A"] for row in rows}) == 1
        assert len({row["q_B"] for row in rows}) == 1
        assert len({row["p_A"] for row in rows}) == 4  # p does move with the jammer's gain

    def test_cartesian_product_order_and_fp_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--sweep", "n_primary=4..5", "--sweep", "gain_secondary=50..100:50",
            "--iterations", "400", "--out", str(out),
        ]) == 0
        header, rows = read_csv(out)
        assert header[:2] == ["n_primary", "gain_secondary"]
        assert "fp_err_p_A" in header and "fp_err_q_B" in header
        combos = [(row["n_primary"], row["gain_secondary"]) for row in rows]
        assert combos == [("4", "50"), ("4", "100"), ("5", "50"), ("5", "100")]

    def test_inverted_range_is_a_config_error(self, capsys):
        assert main(["sweep", "--sweep", "n_primary=9..1"]) == 2
        assert "inverted" in capsys.readouterr().err

    def test_invalid_grid_cell_leaves_the_output_untouched(self, tmp_path, capsys):
        # n_primary 11 and 12 exceed the 10 bands; the grid is rejected before
        # anything is opened, so no file appears and an existing one survives
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--sweep", "n_primary=8..12", "--out", str(out)]
        assert main(argv) == 2
        assert "n_primary" in capsys.readouterr().err
        assert not out.exists()
        out.write_bytes(b"earlier results\n")
        assert main(argv) == 2
        assert out.read_bytes() == b"earlier results\n"

    def test_swept_field_overrides_an_incompatible_default(self, tmp_path):
        # the default n_primary (5) exceeds 3 bands, but every swept cell is valid
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--n-bands", "3", "--sweep", "n_primary=0..3", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        assert [row["n_primary"] for row in rows] == ["0", "1", "2", "3"]

    def test_grid_with_one_invalid_cell_exits_two_and_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n-bands", "3", "--sweep", "n_primary=0..4", "--out", str(out)]
        assert main(argv) == 2
        assert "n_primary" in capsys.readouterr().err
        assert not out.exists()

    def test_each_cell_builds_and_solves_both_games_once(self, tmp_path, monkeypatch):
        # the traced benchmark wraps these two names and counts their calls
        # and the degenerate reports, so a sweep must keep calling them per cell
        import crn_jamgame.cli as cli

        build_game, mixed_equilibrium = cli.build_game, cli.mixed_equilibrium
        calls = {"build_game": 0, "mixed_equilibrium": 0, "degenerate": 0}

        def counted_build_game(*args):
            calls["build_game"] += 1
            return build_game(*args)

        def counted_mixed_equilibrium(game):
            report = mixed_equilibrium(game)
            calls["mixed_equilibrium"] += 1
            calls["degenerate"] += report.degenerate
            return report

        monkeypatch.setattr(cli, "build_game", counted_build_game)
        monkeypatch.setattr(cli, "mixed_equilibrium", counted_mixed_equilibrium)
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--n-bands", "3", "--sweep", "n_primary=0..3",
            "--sweep", "cost_malicious_switch=0..4:2", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        cells = len(rows)
        assert cells == 12
        assert calls["build_game"] == calls["mixed_equilibrium"] == 2 * cells
        flagged = sum(int(row[f"degenerate_{cat}"]) for row in rows for cat in "AB")
        assert 0 < calls["degenerate"] == flagged

    def test_missing_sweep_flag_is_a_config_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(["sweep", "--sweep", "n_primary=1..9", "--seed", "2",
                         "--iterations", "300", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestExitCodes:
    def test_unwritable_output_path_is_an_io_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["fp", "--iterations", "10", "--out", str(missing_dir)]) == 4
        assert "i/o error" in capsys.readouterr().err

    def test_unrepresentable_equilibrium_exits_three(self, capsys, monkeypatch):
        # no real 2x2 game lacks both a mixed and a pure equilibrium, so the
        # guard is exercised with a stubbed solver report
        import crn_jamgame.cli as cli
        from crn_jamgame.nash import EquilibriumReport

        empty = EquilibriumReport(
            mixed=None, pure=(), indifference_residuals=None, degenerate=True
        )
        monkeypatch.setattr(cli, "mixed_equilibrium", lambda game: empty)
        assert main(["nash"]) == 3
        assert "no representable equilibrium" in capsys.readouterr().err

    def test_success_is_zero(self, tmp_path):
        assert main(["nash", "--out", str(tmp_path / "n.csv")]) == 0

    def test_failure_mid_sweep_exits_four_and_keeps_the_old_file(self, tmp_path, monkeypatch, capsys):
        # sweep rows are solved while the file is written; the tenth solve fails
        import crn_jamgame.cli as cli

        solve = cli.mixed_equilibrium
        calls = itertools.count()

        def failing_solve(game):
            if next(calls) == 9:
                raise OSError("device lost")
            return solve(game)

        monkeypatch.setattr(cli, "mixed_equilibrium", failing_solve)
        out = tmp_path / "sweep.csv"
        out.write_bytes(b"earlier results\n")
        assert main(["sweep", "--sweep", "n_primary=0..9", "--out", str(out)]) == 4
        assert "device lost" in capsys.readouterr().err
        assert out.read_bytes() == b"earlier results\n"
        assert [path.name for path in tmp_path.iterdir()] == ["sweep.csv"]


def run_cli(args, stdout):
    """Run the CLI in a fresh interpreter with ``stdout`` as its standard
    output, block-buffered as it is by default for a file or a pipe."""
    import crn_jamgame

    env = dict(os.environ, PYTHONPATH=str(Path(crn_jamgame.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run(
        [sys.executable, "-m", "crn_jamgame.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60,
    )


class TestOutputPaths:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    def test_a_link_to_stdout_writes_into_the_redirected_file(self, tmp_path):
        # the shape of `--out /dev/stdout > trace.csv`, with the link kept in tmp_path
        link = tmp_path / "stdout"
        link.symlink_to("/proc/self/fd/1")
        captured = tmp_path / "captured.txt"
        with captured.open("wb") as stdout:
            done = run_cli(["nash", "--out", str(link)], stdout)
        assert done.returncode == 0, done.stderr
        text = captured.read_text()
        assert "category,p,q,residual_secondary,residual_malicious,degenerate,pure_equilibria\n" in text
        assert "\nA,0.948,0.84," in text
        assert link.is_symlink() and os.readlink(link) == "/proc/self/fd/1"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("into", ["link-to-file", "link-to-pipe", "the-file-itself"])
    @pytest.mark.parametrize(
        "args, csv_first",
        [(["nash"], False), (["fp", "--iterations", "3"], True), (["fp", "--iterations", "5000"], True)],
    )
    def test_csv_and_printed_lines_keep_program_order_on_stdout(self, tmp_path, args, csv_first, into):
        # `--out /dev/stdout > file`, `--out /dev/stdout | ...` and
        # `--out file > file`: nash prints its summary before it writes
        # the CSV, fp after, and both must come out whole and in that order
        regular = tmp_path / "regular.csv"
        done = run_cli([*args, "--out", str(regular)], subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        captured = tmp_path / "captured.txt"
        out = captured
        if into != "the-file-itself":
            out = tmp_path / "stdout"
            out.symlink_to("/proc/self/fd/1")
        printed = done.stdout.decode().replace(str(regular), str(out))
        csv_text = regular.read_text()
        if into == "link-to-pipe":
            done = run_cli([*args, "--out", str(out)], subprocess.PIPE)
            output = done.stdout.decode()
        else:
            with captured.open("wb") as stdout:
                done = run_cli([*args, "--out", str(out)], stdout)
            output = captured.read_text()
        assert done.returncode == 0, done.stderr
        assert output == (csv_text + printed if csv_first else printed + csv_text)
