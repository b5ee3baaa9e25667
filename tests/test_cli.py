import contextlib
import io
import itertools
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
import warnings
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from crn_jamgame import cli
from crn_jamgame.cli import main
from crn_jamgame.games import (
    Category, FictitiousPlayPolicy, FixedPolicy, NashPolicy, NetworkConfig, build_game,
)
from crn_jamgame.nash import mixed_equilibrium, pure_equilibria, strategy_utilities
from crn_jamgame.output import write_csv

REFERENCE_DEFAULTS = {
    "n_bands": 10,
    "n_primary": 5,
    "cost_secondary_switch": 5,
    "cost_malicious_switch": 2,
    "gain_secondary": 50,
    "gain_malicious": 75,
    "loss_secondary": 100,
}


# Every config-file key: (default, config-file value, flag value), each as
# parse_config resolves it for `simulate`; policies and the category by name.
PRECEDENCE = {
    "seed": (1, 11, 12),
    "iterations": (20000, 30, 40),
    "slots": (10000, 50, 60),
    "category": ("A", "B", "A"),
    "policy_secondary": ("fp", "nash", "fixed:0.25"),
    "policy_malicious": ("fp", "fixed:0.5", "nash"),
    "out": ("sim_trace.csv", "file.csv", "flag.csv"),
    "n_bands": (10, 12, 14),
    "n_primary": (5, 6, 7),
    "cost_secondary_switch": (5, 1.5, 2.5),
    "cost_malicious_switch": (2, 3.5, 4.5),
    "gain_secondary": (50, 5.5, 6.5),
    "gain_malicious": (75, 7.5, 8.5),
    "loss_secondary": (100, 9.5, 10.5),
}
POLICY_NAMES = {
    FictitiousPlayPolicy(): "fp",
    NashPolicy(): "nash",
    FixedPolicy(0.25): "fixed:0.25",
    FixedPolicy(0.5): "fixed:0.5",
}


def resolve(key, *args):
    """``key``'s value as parse_config resolves it for ``simulate ARGS``."""
    cfg = cli.parse_config(cli._build_parser().parse_args(["simulate", *args]))
    if key in REFERENCE_DEFAULTS:
        return getattr(cfg.network, key)
    value = getattr(cfg, key)
    if key == "category":
        return value.name
    return POLICY_NAMES[value] if key.startswith("policy_") else value


def write_config(tmp_path, name="config.json", **values):
    path = tmp_path / name
    path.write_text(json.dumps(values))
    return str(path)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def fresh_python(code, *args):
    """The words of the last line that ``python -c code ARGS`` prints, run
    in a fresh interpreter with the package on its path."""
    import crn_jamgame

    env = dict(os.environ, PYTHONPATH=str(Path(crn_jamgame.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()[-1].split()


class TestParseConfig:
    def test_importing_the_cli_loads_no_json(self):
        # json is imported by the one reader of a --config file, when it runs,
        # and the learner and the simulator by the commands that run them
        probe = (
            "import sys; before = 'json' in sys.modules; import crn_jamgame.cli; "
            "print(before, *(name in sys.modules for name in "
            "('json', 'numpy', 'crn_jamgame.learning', 'crn_jamgame.simulate')))"
        )
        before, after, *loaded = fresh_python(probe)
        assert loaded == [b"True", b"False", b"False"]
        if before == b"True":
            pytest.skip("the interpreter loads json at start-up")
        assert after == b"False"

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

    @pytest.mark.parametrize("source", ["flag", "key"])
    def test_a_bad_category_is_one_config_error_from_the_flag_or_the_key(self, tmp_path, capsys, source):
        # cli._category is the one check of both: argparse has no choices to reject the flag first
        args = ["--category", "C"] if source == "flag" else ["--config", write_config(tmp_path, category="C")]
        before = tree(tmp_path)
        assert main(["fp", *args, "--out", str(tmp_path / "fp.csv")]) == 2
        assert capsys.readouterr() == ("", "config error: category must be 'A' or 'B' (got 'C')\n")
        assert tree(tmp_path) == before

    def test_the_category_help_names_its_values(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "120")  # so that argparse wraps no help line
        with pytest.raises(SystemExit):
            main(["fp", "--help"])
        assert "A or B: which game to learn (fp)" in capsys.readouterr().out

    def test_out_of_range_seed_rejected(self, capsys):
        assert main(["nash", "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("key", list(PRECEDENCE))
    def test_flag_beats_file_beats_default(self, key, tmp_path, monkeypatch):
        monkeypatch.delenv("CRN_JAMGAME_SEED", raising=False)
        default, file_value, flag_value = PRECEDENCE[key]
        config = write_config(tmp_path, **{key: file_value})
        flag = [f"--{key.replace('_', '-')}", str(flag_value)]
        assert resolve(key) == default
        assert resolve(key, "--config", config) == file_value
        assert resolve(key, *flag) == flag_value
        assert resolve(key, "--config", config, *flag) == flag_value

    def test_seed_env_var_ranks_between_file_and_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CRN_JAMGAME_SEED", "7")
        assert resolve("seed") == 7
        assert resolve("seed", "--config", write_config(tmp_path, seed=None)) == 7
        assert resolve("seed", "--config", write_config(tmp_path, seed=11)) == 11
        assert resolve("seed", "--config", write_config(tmp_path, seed=11), "--seed", "12") == 12
        monkeypatch.setenv("CRN_JAMGAME_SEED", "seven")
        assert resolve("seed", "--seed", "12") == 12  # a flag never reads the variable
        with pytest.raises(cli.ConfigError, match="CRN_JAMGAME_SEED"):
            resolve("seed")

    @pytest.mark.parametrize(
        "content, named",
        [
            (b'{"gain_secondary": 1' + b"0" * 400 + b"}", "gain_secondary must lie in [0, 2**1020] (got 1000"),
            (b'{"n_bands": 1' + b"0" * 400 + b', "n_primary": 0}', "n_bands must be finite"),
            (b'{"seed": 1' + b"0" * 5000 + b"}", "not valid JSON"),
            (b"[" * 100_000, "not valid JSON"),
            (b'{"out": "\xff"}', "cannot read"),
            (b'[{"seed": 1}]', "top-level JSON value must be an object"),
            (b'{"policy_secondary": "fixed:x"}', "policy_secondary: fixed policy needs a number"),
            *(
                (b'{"policy_malicious": "fixed:%s"}' % text,
                 f"config error: policy_malicious: fixed probability must lie in [0, 1] (got {value!r})\n")
                for text, value in ((b"2", 2.0), (b"-0.1", -0.1), (b"1.5", 1.5), (b"nan", math.nan))
            ),
        ],
        ids=["int-over-float-range", "bands-over-float-range", "int-over-digit-limit",
             "deep-nesting", "not-utf8", "not-an-object", "fixed-not-a-number", "fixed-out-of-range",
             "fixed-below-zero", "fixed-above-one", "fixed-nan"],
    )
    def test_unusable_config_file_exits_two_and_writes_nothing(self, tmp_path, capsys, content, named):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        out = tmp_path / "nash.csv"
        assert main(["nash", "--config", str(config), "--out", str(out)]) == 2
        assert named in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    @pytest.mark.parametrize(
        "file_out, flag_out",
        [(None, ""), ("", None), (3, None)],
        ids=["empty-flag", "empty-key", "number-key"],
    )
    def test_an_unusable_out_exits_two_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, file_out, flag_out
    ):
        # an empty path's directory is the working directory's parent
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        args = [command, "--iterations", "10", "--slots", "10"]
        if command == "sweep":  # the one command that takes --sweep
            args += ["--sweep", "n_primary=0..1"]
        if file_out is not None:
            args += ["--config", write_config(tmp_path, out=file_out)]
        if flag_out is not None:
            args += ["--out", flag_out]
        assert main(args) == 2
        got = file_out if flag_out is None else flag_out
        message = f"config error: out must be a non-empty path string (got {got!r})\n"
        assert capsys.readouterr() == ("", message)
        expected = ["work"] if file_out is None else ["config.json", "work"]
        assert sorted(path.name for path in tmp_path.iterdir()) == expected
        assert not any(work.iterdir())


#: Run in a fresh interpreter as ``python -c STUBBED_LAYER_CALLS ARGV``: the
#: CLI with ``cli.run_fp`` and ``cli.run_simulation``, which the traced
#: benchmark wraps, replaced by stubs that record each call (its name, the
#: count of positional arguments, the keyword names, the iterations or slots,
#: and whether the called module was loaded) and return the real call's
#: result for seed + 1. Prints the exit code and the records as JSON.
STUBBED_LAYER_CALLS = """
import importlib, json, sys
from crn_jamgame import cli

calls = []

def stub(module, name):
    module = "crn_jamgame." + module

    def record(*args, **kwargs):
        calls.append([name, len(args), sorted(kwargs), args[-2], module in sys.modules])
        *rest, seed = args
        return getattr(importlib.import_module(module), name)(*rest, seed + 1)

    return record

cli.run_fp = stub("learning", "run_fp")
cli.run_simulation = stub("simulate", "run_simulation")
code = cli.main(sys.argv[1:])
print(json.dumps([code, calls], separators=(",", ":")))
"""


class TestLazyImports:
    # with no bytecode cached, a run compiles every module it imports; a
    # command loads the learner or the simulator only if it runs it
    @pytest.mark.parametrize(
        "args, loaded",
        [
            (["nash"], [b"False", b"False"]),
            (["sweep", "--sweep", "n_primary=0..1"], [b"False", b"False"]),
            (["fp", "--iterations", "10"], [b"True", b"False"]),
            (["sweep", "--sweep", "n_primary=0..1", "--iterations", "10"], [b"True", b"False"]),
            (["simulate", "--slots", "10"], [b"True", b"True"]),
        ],
        ids=["nash", "sweep", "fp", "sweep-learning", "simulate"],
    )
    def test_a_command_loads_only_the_modules_it_runs(self, args, loaded):
        probe = (
            "import sys; from crn_jamgame.cli import main; code = main(sys.argv[1:]); "
            "print(code, *(name in sys.modules for name in ('crn_jamgame.learning', 'crn_jamgame.simulate')))"
        )
        assert fresh_python(probe, *args, "--out", os.devnull) == [b"0", *loaded]

    @pytest.mark.parametrize("name, module", [("run_fp", "learning"), ("run_simulation", "simulate")])
    def test_the_package_loads_a_runner_on_first_access(self, name, module):
        probe = (
            f"import sys, crn_jamgame; module = 'crn_jamgame.{module}'; before = module in sys.modules; "
            f"run = crn_jamgame.{name}; print(before, run is getattr(sys.modules[module], {name!r}), "
            f"{name!r} in crn_jamgame.__all__, hasattr(crn_jamgame, 'no_such_name'))"
        )
        assert fresh_python(probe) == [b"False", b"True", b"True", b"False"]

    @pytest.mark.parametrize(
        "args, name, calls",
        [
            (["fp", "--iterations", "50"], "run_fp", 1),
            (["sweep", "--sweep", "n_primary=0..2", "--iterations", "50"], "run_fp", 6),
            (["simulate", "--slots", "50"], "run_simulation", 1),
        ],
        ids=["fp", "sweep-learning", "simulate"],
    )
    def test_the_traced_layer_calls_are_positional_and_import_nothing(self, tmp_path, args, name, calls):
        # the traced benchmark reads iterations and slots as positional
        # arguments, and times a call that must not include its module's import
        stubbed, plain = tmp_path / "stubbed.csv", tmp_path / "plain.csv"
        (printed,) = fresh_python(STUBBED_LAYER_CALLS, *args, "--seed", "7", "--out", str(stubbed))
        positional = 3 if name == "run_fp" else 4
        assert json.loads(printed) == [0, [[name, positional, [], 50, True]] * calls]
        # the command writes what the stubs returned: the run at seed 8
        assert main([*args, "--seed", "8", "--out", str(plain)]) == 0
        assert stubbed.read_bytes() == plain.read_bytes()


# JSON values of every type, with ints past 2**64 and past a float's range
# and floats including NaN and the infinities (json writes those as NaN and
# Infinity, which json.loads reads back)
json_values = st.one_of(
    st.booleans(),
    st.none(),
    st.lists(st.integers(-3, 3), max_size=2),
    st.sampled_from(["", "A", "B", "C", "nash", "fp", "fixed:0.25", "fixed:2", "fixed:x", "x.csv"]),
    st.integers(-300, 300),
    st.integers(-(2**72), 2**72),
    st.sampled_from([2**64 - 1, 2**64, 10**400, -(10**400)]),
    st.floats(allow_nan=True, allow_infinity=True),
)
config_files = st.dictionaries(st.sampled_from([*PRECEDENCE, "bogus"]), json_values, max_size=5)
# range ends and steps keep every range under ~1,200 values
range_ends = st.one_of(
    st.integers(-300, 300).map(str),
    st.floats(-300, 300).map(repr),
    st.sampled_from(["nan", "inf", "-inf", "1e400", "-1e400", "x", ""]),
)
range_steps = st.sampled_from(["1", "2", "0.5", "2.5", "0", "-1", "nan", "inf", "1e300", "1e400", "x"])
sweep_specs = st.one_of(
    st.builds(
        lambda name, lo, hi, step: f"{name}={lo}..{hi}" + ("" if step is None else f":{step}"),
        st.sampled_from([*REFERENCE_DEFAULTS, "seed"]),
        range_ends,
        range_ends,
        st.none() | range_steps,
    ),
    st.builds(lambda name, value: f"{name}={value}", st.sampled_from(list(REFERENCE_DEFAULTS)), range_ends),
    st.text(max_size=6),
)

# ranges that a grid accepts more often than not: non-negative ends, a
# positive step, and counts around the default ten bands and five users
grid_specs = st.builds(
    lambda name, lo, span, step: f"{name}={lo}..{lo + span}:{step}",
    st.sampled_from(list(REFERENCE_DEFAULTS)),
    st.integers(0, 10),
    st.integers(0, 10),
    st.sampled_from([1, 2, 3]),
)

#: Float range ends: invalid, zero, the smallest subnormal, the bound 2**1020,
#: the next float past it and larger ones.
GRID_FLOAT_ENDS = [
    -1.0, 0.0, 5e-324, 1e307, 2.0**1020, math.nextafter(2.0**1020, math.inf), 1.7e308, sys.float_info.max,
]


@st.composite
def small_grids(draw):
    """A valid network and a sweep over some of its fields: at most two int
    values per int field (n_primary may exceed n_bands), and one to four
    ascending values per float range, its ends from ``GRID_FLOAT_ENDS``."""
    n_bands = draw(st.sampled_from([2, 3, 10]))
    fields = [n_bands, draw(st.integers(0, n_bands))]
    fields += [draw(st.sampled_from(GRID_FLOAT_ENDS[1:])) for _ in range(5)]
    try:
        network = NetworkConfig(*fields)
    except cli.ConfigError:
        assume(False)
    sweeps = []
    for name in draw(st.lists(st.sampled_from(NetworkConfig._fields), min_size=1, max_size=7, unique=True)):
        if name == "n_bands":
            values = draw(st.lists(st.sampled_from([1, 2, 3, 10]), min_size=1, max_size=2, unique=True))
        elif name == "n_primary":
            values = draw(st.lists(st.sampled_from([0, 1, 2, 3, 11]), min_size=1, max_size=2, unique=True))
        else:
            lo, hi = sorted(draw(st.sampled_from(GRID_FLOAT_ENDS)) for _ in range(2))
            count = draw(st.integers(1, 4))
            inner = sorted(draw(st.floats(lo, hi)) for _ in range(count - 2))
            values = [lo] if count == 1 else [lo, *inner, hi]
        sweeps.append((name, tuple(sorted(values))))
    return network, tuple(sweeps)


def config_argv(directory, command, file_values, specs):
    path = Path(directory) / "config.json"
    path.write_text(json.dumps(file_values))
    return [command, "--config", str(path), *(f"--sweep={spec}" for spec in specs)]


class TestParseConfigFuzz:
    @given(st.sampled_from(list(cli._COMMANDS)), config_files, st.lists(sweep_specs, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_every_input_parses_or_is_a_config_error(self, command, file_values, specs):
        with tempfile.TemporaryDirectory() as directory:
            if command != "sweep" and specs:  # --sweep is the sweep command's flag only
                with pytest.raises(SystemExit) as exit_info:
                    cli._build_parser().parse_args(config_argv(directory, command, file_values, specs))
                assert exit_info.value.code == 2
                specs = []
            argv = config_argv(directory, command, file_values, specs)
            try:
                cli.parse_config(cli._build_parser().parse_args(argv))
            except cli.ConfigError:
                pass

    @given(config_files, st.lists(sweep_specs, max_size=2))
    @settings(max_examples=200, deadline=None)
    def test_nash_exits_two_and_writes_nothing_when_parsing_fails(self, file_values, specs):
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory) / "nash.csv"
            if specs:  # --sweep is the sweep command's flag only: argparse exits 2
                with pytest.raises(SystemExit) as exit_info:
                    main([*config_argv(directory, "nash", file_values, specs), "--out", str(out)])
                assert exit_info.value.code == 2
                assert not out.exists()
            argv = [*config_argv(directory, "nash", file_values, []), "--out", str(out)]
            try:
                cli.parse_config(cli._build_parser().parse_args(argv))
            except cli.ConfigError:
                assert main(argv) == 2
                assert not out.exists()


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

    @pytest.mark.parametrize("values", [
        {},
        {"gain_secondary": 0.0, "gain_malicious": 0.0, "loss_secondary": 0.0},
        {"cost_malicious_switch": 20.0},
        {"gain_secondary": 0.0, "loss_secondary": 0.0},
        {"cost_secondary_switch": 0.0, "cost_malicious_switch": 0.0, "gain_secondary": 0.0,
         "gain_malicious": 0.0, "loss_secondary": 0.0},
        {"n_bands": 32, "n_primary": 24, "cost_malicious_switch": 0.5},
    ])
    def test_residuals_and_pure_sets_are_the_kernels_on_each_game(self, tmp_path, monkeypatch, values):
        blocks = []

        def keep_blocks(path, columns, given):  # the cells at full precision
            blocks.extend(given)
            return write_csv(path, columns, given)

        monkeypatch.setattr(cli, "write_csv", keep_blocks)
        flags = [text for key, value in values.items() for text in (f"--{key.replace('_', '-')}", str(value))]
        assert main(["nash", *flags, "--out", str(tmp_path / "nash.csv")]) == 0
        (block,) = blocks
        config = NetworkConfig(**values)
        bits = struct.Struct("<2d").pack
        for name, p, q, res_s, res_m, degenerate, pure_text in zip(*block):
            game = build_game(config, Category[name])
            u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, p, q)
            assert bits(res_s, res_m) == bits(abs(u_s1 - u_s2), abs(u_m1 - u_m2))
            assert [math.isnan(res_s), math.isnan(res_m)] == [degenerate] * 2
            pure = tuple(tuple(map(int, profile.split("-"))) for profile in pure_text.split(";") if profile)
            assert pure == pure_equilibria(game)

    def test_the_degenerate_flag_does_not_depend_on_the_payoff_scale(self, capsys):
        # one game in two units: in the first, category B's secondary has the
        # indifference sum -3e-13 + 0, and q = 0 at either scale
        lines = []
        for cost, gain in (("3e-13", "2.25e-11"), ("1", "75")):
            assert main([
                "nash", "--n-bands", "2", "--n-primary", "0", "--cost-secondary-switch", cost,
                "--cost-malicious-switch", "0", "--gain-secondary", "0", "--gain-malicious", gain,
                "--loss-secondary", "0",
            ]) == 0
            lines += [line for line in capsys.readouterr().out.splitlines() if line.startswith("category B:")]
        assert lines == ["category B: p=0.5 q=0 residuals=(0,0) pure=[2-2] degenerate=0"] * 2


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

    @given(
        st.integers(0, 10),
        st.sampled_from(["fixed:0.3", "nash", "fp"]),
        st.sampled_from(["fixed:0.7", "nash", "fp"]),
        st.integers(1, 3000),
        st.integers(0, 2**32),
    )
    @example(5, "fp", "fp", 100_000, 1)  # the default config over a long run
    @settings(max_examples=100, deadline=None)
    def test_printed_lines_agree_with_the_csv(self, n_primary, secondary, malicious, slots, seed):
        # cmd_simulate computes its printed lines from the record, apart from the CSV
        with tempfile.TemporaryDirectory() as directory:
            out = Path(directory) / "sim.csv"
            printed = io.StringIO()
            args = [
                "simulate", "--n-primary", str(n_primary), "--policy-secondary", secondary,
                "--policy-malicious", malicious, "--slots", str(slots), "--seed", str(seed),
                "--out", str(out),
            ]
            with contextlib.redirect_stdout(printed):
                assert main(args) == 0
            _, rows = read_csv(out)
        lines = dict(line.partition(": ")[::2] for line in printed.getvalue().splitlines())
        assert int(lines["slots"]) == len(rows) == slots
        for side, column in (("secondary", "payoff_s"), ("malicious", "payoff_m")):
            total = math.fsum(float(row[column]) for row in rows)
            assert float(f"{total:.6g}") == float(lines[f"cumulative payoff {side}"])  # 6 digits
        dwell = re.findall(r"(\w)=(\d+) \((\S+)\)", lines["category dwell"])
        in_csv = Counter(row["category"] for row in rows)
        assert [name for name, _count, _share in dwell] == ["A", "B", "C"]
        for name, count, share in dwell:
            assert int(count) == in_csv[name]
            assert share == f"{in_csv[name] / slots:.6g}"
        assert int(lines["jams"]) == sum(int(row["jam"]) for row in rows)
        for row, after in zip(rows, rows[1:]):
            # a slot jams exactly when it settles into A, the next slot's category
            assert (row["jam"] == "1") == (after["category"] == "A"), row["slot"]
        finals = re.fullmatch(
            r"A p\*=(\S+) q\*=(\S+); B p\*=(\S+) q\*=(\S+)", lines["final frequencies"]
        ).groups()
        last = [rows[-1][column] for column in ("pstar_A", "qstar_A", "pstar_B", "qstar_B")]
        for printed_value, written in zip(finals, last):
            x, y = float(printed_value), float(written)
            assert x == y or (math.isnan(x) and math.isnan(y))

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

    def test_more_bands_than_a_uint64_holds_are_written_as_digits(self, tmp_path):
        n_bands = 2**70
        out = tmp_path / "sim.csv"
        args = ["simulate", "--n-bands", str(n_bands), "--n-primary", "3", "--slots", "50", "--out", str(out)]
        assert main(args) == 0
        _, rows = read_csv(out)
        assert len(rows) == 50
        for row in rows:
            for key in ("secondary_band", "malicious_band"):
                assert row[key].isdigit() and int(row[key]) < n_bands

    def test_each_category_game_is_built_once_per_run(self, tmp_path, monkeypatch):
        # the traced benchmark wraps build_game where the CLI and the
        # simulator look it up, and counts every call
        import crn_jamgame.simulate as simulate

        built = []
        for module in (cli, simulate):
            def counted_build_game(network, category, build_game=module.build_game):
                built.append(category)
                return build_game(network, category)

            monkeypatch.setattr(module, "build_game", counted_build_game)
        out = tmp_path / "sim.csv"
        assert main(["simulate", "--slots", "50", "--out", str(out)]) == 0
        assert sorted(built) == [Category.A, Category.B]


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

    @pytest.mark.parametrize(
        "spec",
        [
            "gain_secondary=1e400..1e400",
            "gain_secondary=0..1e400:1e300",
            "gain_secondary=nan..nan",
            "gain_secondary=0..1:nan",
            "gain_secondary=0..1e308:1e-308",
            "gain_secondary=5..5:inf",
        ],
    )
    def test_non_finite_range_is_a_config_error_naming_the_field(self, tmp_path, capsys, spec):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep", spec, "--out", str(out)]) == 2
        assert "gain_secondary range must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_a_range_holds_at_most_the_value_limit(self, tmp_path, capsys):
        limit = cli.MAX_SWEEP_VALUES
        argv = ["sweep", "--sweep", f"gain_secondary=0..{limit - 1}"]
        cfg = cli.parse_config(cli._build_parser().parse_args(argv))
        assert len(cfg.sweeps[0][1]) == limit
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep", f"gain_secondary=0..{limit}", "--out", str(out)]) == 2
        assert "sweep: gain_secondary range holds more than" in capsys.readouterr().err
        assert not out.exists()

    def test_a_huge_integer_range_is_rejected_before_it_is_built(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--sweep", "n_primary=0..1" + "0" * 400, "--out", str(out)]) == 2
        assert "sweep: n_primary range holds more than" in capsys.readouterr().err
        assert not out.exists()

    def test_a_last_cell_past_the_bound_names_its_field_and_writes_nothing(self, tmp_path, capsys):
        # the first cell, 2**1020, is accepted; the last is the next float
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--n-primary", "0",
            "--sweep", "loss_secondary=1.1235582092889474e307..1.1235582092889477e307:2.4948003869184e291",
            "--out", str(out),
        ]) == 2
        assert capsys.readouterr() == (
            "", "config error: sweep: loss_secondary must lie in [0, 2**1020] (got 1.1235582092889477e+307)\n"
        )
        assert list(tmp_path.iterdir()) == []

    def test_a_grid_up_to_the_bound_runs(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        spec = "loss_secondary=0..1.1235582092889474e307:1.1235582092889474e307"
        assert main(["sweep", "--n-primary", "0", "--sweep", spec, "--out", str(out)]) == 0
        assert capsys.readouterr() == (f"2 combinations -> {out}\n", "")
        _, rows = read_csv(out)
        assert [row["loss_secondary"] for row in rows] == ["0", "1.12356e+307"]

    def test_a_cell_past_the_bound_leaves_a_symlinked_out_as_it_was(self, tmp_path, capsys):
        # cost_secondary_switch's last value, 1.6e307, passes 2**1020; the
        # grid is rejected before the first of its 4,001 cells is written,
        # through a symlink or, in a fresh interpreter, through /dev/stdout
        grid = ["sweep", "--sweep", "cost_secondary_switch=0..1.6e307:4e303", "--n-primary", "0", "--n-bands", "2"]
        error = "config error: sweep: cost_secondary_switch must lie in [0, 2**1020] (got 1.6e+307)\n"
        target = tmp_path / "target.csv"
        target.write_bytes(b"earlier results\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main([*grid, "--out", str(link)]) == 2
        assert target.read_bytes() == b"earlier results\n"
        assert link.is_symlink() and sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]
        assert capsys.readouterr() == ("", error)
        done = run_cli([*grid, "--out", "/dev/stdout"], subprocess.PIPE)
        assert (done.returncode, done.stdout, done.stderr.decode()) == (2, b"", error)

    @given(small_grids())
    # only the last value is invalid: the next float past 2**1020
    @example((NetworkConfig(2, 0, 2.0**1020, 0.0, 0.0, 0.0, 0.0),
              (("loss_secondary", (0.0, math.nextafter(2.0**1020, math.inf))),)))
    # only the first value is invalid
    @example((NetworkConfig(2, 0, 0.0, 0.0, 0.0, 0.0, 0.0), (("cost_secondary_switch", (-1.0, 0.0)),)))
    @example((NetworkConfig(10, 0, 2.0**1020, 0.0, 2.0**1020, 0.0, 2.0**1020), (("gain_secondary", (0.0, 2.0**1020)),)))
    @settings(max_examples=300, deadline=None)
    def test_checking_the_ends_of_each_float_range_checks_every_cell(self, grid):
        # _check_grid builds the int values times each float range's first and
        # last value; the oracle builds every cell
        network, sweeps = grid
        names = [name for name, _values in sweeps]
        failures = set()
        for combo in itertools.product(*(values for _name, values in sweeps)):
            try:
                network._replace(**dict(zip(names, combo)))
            except cli.ConfigError as exc:
                failures.add(f"sweep: {exc}")
        try:
            cli._check_grid(network, sweeps)
        except cli.ConfigError as exc:
            assert str(exc) in failures  # the message of a cell that fails
        else:
            assert not failures

    @pytest.mark.parametrize(
        "first,second",
        [("gain_secondary=1..2", "gain_secondary=30..31"), ("n_bands=2..3", "n_bands=4..5")],
        ids=["float", "int"],
    )
    def test_a_field_swept_twice_is_a_config_error_naming_it(self, tmp_path, capsys, first, second):
        out = tmp_path / "sweep.csv"
        argv = ["sweep", "--n-primary", "0", "--sweep", first, "--sweep", second, "--out", str(out)]
        assert main(argv) == 2
        name = first.partition("=")[0]
        assert capsys.readouterr().err == f"config error: sweep: {name} is swept more than once\n"
        assert not out.exists()

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

    def test_each_learning_cell_builds_solves_and_learns_both_games_once(self, tmp_path, monkeypatch):
        # with --iterations the traced benchmark also counts run_fp; each cell
        # learns its own A and B games, seeded seed + row index
        build_game, mixed_equilibrium, run_fp = cli.build_game, cli.mixed_equilibrium, cli.run_fp
        calls = Counter()

        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)
            return wrapper

        for name in ("build_game", "mixed_equilibrium", "run_fp"):
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
        out = tmp_path / "sweep.csv"
        assert main([
            "sweep", "--n-bands", "3", "--sweep", "n_primary=0..2", "--sweep", "gain_malicious=25..100:25",
            "--iterations", "200", "--seed", "7", "--out", str(out),
        ]) == 0
        _, rows = read_csv(out)
        assert len(rows) == 12
        assert calls == {"build_game": 24, "mixed_equilibrium": 24, "run_fp": 24}
        index = 5
        row = rows[index]
        config = NetworkConfig(n_bands=3, n_primary=int(row["n_primary"]), gain_malicious=float(row["gain_malicious"]))
        games = [build_game(config, category) for category in (Category.A, Category.B)]
        reports = [mixed_equilibrium(game) for game in games]
        assert not any(report.degenerate for report in reports)
        # the learned A and B frequencies differ, so swapping the games shows
        learned = [run_fp(game, 200, 7 + index).final_frequencies() for game in games]
        assert learned[0] != learned[1]
        p_star, q_star = learned[0]
        report = reports[0]
        assert (row["fp_err_p_A"], row["fp_err_q_A"]) == ("%.6g" % abs(p_star - report.p), "%.6g" % abs(q_star - report.q))

    @given(
        st.lists(grid_specs, min_size=1, max_size=3)
        | st.lists(grid_specs | sweep_specs, min_size=1, max_size=2)
    )
    # fields swept out of NetworkConfig's field order, down to all seven reversed
    @example(["loss_secondary=0..2", "n_primary=0..3"])
    @example(["gain_malicious=1..3", "n_bands=6..7", "cost_secondary_switch=0..1:0.5"])
    @example([
        "loss_secondary=1..2", "gain_malicious=1..2", "gain_secondary=1..2",
        "cost_malicious_switch=0..1", "cost_secondary_switch=0..1", "n_primary=0..2", "n_bands=2..3",
    ])
    @settings(max_examples=200, deadline=None)
    def test_each_cell_is_the_config_that_a_checked_build_gives(self, specs):
        # cmd_sweep passes build_game each cell as the plain tuple of its values
        # in field order, since _check_grid has checked the whole grid: each
        # must be what NetworkConfig would have built
        argv = ["sweep", *(f"--sweep={spec}" for spec in specs), "--out", os.devnull]
        try:
            cfg = cli.parse_config(cli._build_parser().parse_args(argv))
            cli._check_grid(cfg.network, cfg.sweeps)
        except cli.ConfigError:
            return
        names = [name for name, _values in cfg.sweeps]
        grid = list(itertools.product(*(values for _name, values in cfg.sweeps)))
        if len(grid) > 2_000:
            return
        build_game = cli.build_game
        built = []

        def recording_build_game(network, category):
            built.append(network)
            return build_game(network, category)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "build_game", recording_build_game)
            cli.cmd_sweep(cfg)  # an invalid cell is a grid that _check_grid rejects
        assert len(built) == 2 * len(grid)
        for network, combo in zip(built[::2], grid):
            assert network == NetworkConfig(*network) == cfg.network._replace(**dict(zip(names, combo)))

    @pytest.mark.parametrize(
        "spec, step", [("n_primary=0..3:0", "n_primary step must be > 0 (got 0)"),
                       ("gain_malicious=1..2:-0.5", "gain_malicious step must be > 0 (got -0.5)")],
    )
    def test_a_step_that_is_not_positive_is_a_config_error(self, tmp_path, capsys, spec, step):
        assert main(["sweep", "--sweep", spec, "--out", str(tmp_path / "sweep.csv")]) == 2
        assert capsys.readouterr() == ("", f"config error: sweep: {step}\n")
        assert not any(tmp_path.iterdir())

    def test_missing_sweep_flag_is_a_config_error(self, tmp_path, capsys):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    def test_byte_identical_reruns(self, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for out in (first, second):
            assert main(["sweep", "--sweep", "n_primary=1..9", "--seed", "2",
                         "--iterations", "300", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestOneDegenerateRule:
    """``nash``, ``fp`` and ``sweep`` all show the solver's own flag."""

    @pytest.mark.parametrize("n_primary", [0, 2])
    @pytest.mark.parametrize("values", [
        {},
        {"cost_secondary_switch": 0.0, "cost_malicious_switch": 0.0, "gain_secondary": 0.0,
         "gain_malicious": 0.0, "loss_secondary": 0.0},
    ], ids=["reference", "zero"])
    def test_each_command_writes_the_solvers_flag(self, tmp_path, n_primary, values):
        config = NetworkConfig(n_bands=2, n_primary=n_primary, **values)
        flags = ["--n-bands", "2", "--n-primary", str(n_primary)]
        flags += [text for key, value in values.items() for text in (f"--{key.replace('_', '-')}", repr(value))]
        nash_out, sweep_out, fp_out = (tmp_path / name for name in ("nash.csv", "sweep.csv", "fp.csv"))
        assert main(["nash", *flags, "--out", str(nash_out)]) == 0
        assert main(["sweep", "--sweep", "n_bands=2..2", *flags, "--out", str(sweep_out)]) == 0
        _, nash_rows = read_csv(nash_out)
        _, (cell,) = read_csv(sweep_out)
        for category, nash_row in zip((Category.A, Category.B), nash_rows):
            degenerate = mixed_equilibrium(build_game(config, category)).degenerate
            assert nash_row["degenerate"] == cell[f"degenerate_{category.name}"] == str(int(degenerate))
            argv = ["fp", "--category", category.name, "--iterations", "50", *flags, "--out", str(fp_out)]
            assert main(argv) == 0
            _, fp_rows = read_csv(fp_out)
            assert len(fp_rows) == 50
            assert {(row["err_p"] == "nan", row["err_q"] == "nan") for row in fp_rows} == {(degenerate,) * 2}


#: A cost one float past the bound 2**1020, and what every command prints for it.
PAST_THE_BOUND = ["--cost-secondary-switch", "1.1235582092889477e307"]
PAST_THE_BOUND_ERROR = "config error: cost_secondary_switch must lie in [0, 2**1020] (got 1.1235582092889477e+307)"


class TestExitCodes:
    def test_unwritable_output_path_is_an_io_error(self, tmp_path, capsys):
        missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["fp", "--iterations", "10", "--out", str(missing_dir)]) == 4
        assert "i/o error" in capsys.readouterr().err

    #: Gain and loss at the bound 2**1020: a - c + d - b is -2**1022 in both
    #: games, whose one equilibrium is the fully mixed (0.5, 0.5).
    LARGEST_SUMS = [
        "--n-bands", "2", "--n-primary", "0", "--cost-secondary-switch", "0",
        "--cost-malicious-switch", "0", "--gain-secondary", "1.1235582092889474e307", "--gain-malicious", "1",
        "--loss-secondary", "1.1235582092889474e307",
    ]

    def test_the_largest_indifference_sums_still_have_an_equilibrium(self, tmp_path, capsys):
        assert main(["nash", *self.LARGEST_SUMS]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert re.findall(r"^category (\w): p=0\.5 q=0\.5 ", out, re.MULTILINE) == ["A", "B"]
        assert main(["fp", "--iterations", "200", "--out", str(tmp_path / "fp.csv"), *self.LARGEST_SUMS]) == 0
        out, err = capsys.readouterr()
        assert err == "" and "(equilibrium p=0.5 q=0.5)" in out

    @pytest.mark.parametrize(
        "command", [["nash"], ["fp"], ["fp", "--category", "B"], ["simulate"]],
        ids=["nash", "fp", "fp-category-B", "simulate"],
    )
    def test_a_field_past_the_bound_exits_two_and_writes_nothing(self, tmp_path, capsys, command):
        # one float past 2**1020: the message does not depend on the command or the category
        out = tmp_path / "out.csv"
        assert main([*command, *PAST_THE_BOUND, "--iterations", "10", "--slots", "10", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", PAST_THE_BOUND_ERROR + "\n")
        assert list(tmp_path.iterdir()) == []
        # the bound itself runs
        assert main([*command, "--cost-secondary-switch", "1.1235582092889474e307", "--iterations", "10",
                     "--slots", "10", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command, name", [("fp", "run_fp"), ("simulate", "run_simulation")])
    def test_a_plain_value_error_in_a_command_is_not_a_config_error(
        self, tmp_path, monkeypatch, capsys, command, name
    ):
        # only ConfigError exits 2; any other ValueError is a fault that propagates
        def fail(*args):
            raise ValueError("not a config")

        monkeypatch.setattr(cli, name, fail)
        out = tmp_path / "out.csv"
        with pytest.raises(ValueError, match="not a config") as error:
            main([command, "--iterations", "10", "--slots", "10", "--out", str(out)])
        assert type(error.value) is ValueError
        assert capsys.readouterr().err == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["nash", "fp", "simulate"])
    def test_only_sweep_takes_a_sweep_range(self, tmp_path, capsys, command):
        # the range holds an invalid n_bands, which these commands used to ignore
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--iterations", "10", "--slots", "10", "--sweep", "n_bands=1..3", "--out", str(out)])
        assert exit_info.value.code == 2
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "unrecognized arguments: --sweep n_bands=1..3" in printed.err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_a_full_device_is_an_io_error(self, capsys):
        assert main(["fp", "--iterations", "3000", "--out", "/dev/full"]) == 4
        assert "i/o error" in capsys.readouterr().err

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


#: A short run of each command.
SHORT_RUNS = {
    "nash": ["nash"],
    "fp": ["fp", "--iterations", "3000"],
    "simulate": ["simulate", "--slots", "3000"],
    "sweep": ["sweep", "--sweep", "gain_malicious=75..78"],
}


class TestFailurePaths:
    """Every command fails alike: its exit code, one line on stderr and no
    traceback, and an existing ``--out`` file left as it was."""

    @staticmethod
    def error_line(capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        return err.rstrip("\n")

    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    def test_a_missing_directory_is_an_io_error_naming_the_out_path(self, tmp_path, capsys, command):
        earlier = tmp_path / "earlier.csv"
        earlier.write_bytes(b"earlier results\n")
        out = tmp_path / "missing" / "out.csv"
        assert main([*SHORT_RUNS[command], "--out", str(out)]) == 4
        assert self.error_line(capsys) == f"i/o error: [Errno 2] No such file or directory: {str(out)!r}"
        assert [path.name for path in tmp_path.iterdir()] == ["earlier.csv"]
        assert earlier.read_bytes() == b"earlier results\n"

    @pytest.mark.parametrize(
        "out",
        ["existing", "existing" + os.sep, "missing" + os.sep, f"existing{os.sep}.", f"missing{os.sep}."],
        ids=["existing", "existing-trailing-separator", "trailing-separator", "existing-dot", "missing-dot"],
    )
    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    def test_a_directory_is_an_io_error_before_any_work(self, tmp_path, monkeypatch, capsys, command, out):
        # it used to fail at the rename, after the whole run, naming a
        # temporary file that a missing directory's spelling put in the
        # working directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing").mkdir()
        assert main([*SHORT_RUNS[command], "--out", out]) == 4
        assert capsys.readouterr() == ("", f"i/o error: [Errno 21] Is a directory: {out!r}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["existing"]
        assert not any((tmp_path / "existing").iterdir())

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    def test_a_full_device_is_an_io_error(self, capsys, command):
        assert main([*SHORT_RUNS[command], "--out", "/dev/full"]) == 4
        assert self.error_line(capsys) == "i/o error: [Errno 28] No space left on device"

    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    def test_a_field_past_the_bound_is_a_config_error(self, tmp_path, capsys, command):
        # NetworkConfig says so alike for every command, sweep's first cell included
        out = tmp_path / "out.csv"
        out.write_bytes(b"earlier results\n")
        assert main([*SHORT_RUNS[command], *PAST_THE_BOUND, "--out", str(out)]) == 2
        assert self.error_line(capsys) == PAST_THE_BOUND_ERROR
        assert [path.name for path in tmp_path.iterdir()] == ["out.csv"]
        assert out.read_bytes() == b"earlier results\n"


def cli_process(args, stdout, run=subprocess.run, **options):
    """Run the CLI in a fresh interpreter with ``stdout`` as its standard
    output, block-buffered as it is by default for a file or a pipe;
    ``run`` is ``subprocess.run`` or ``subprocess.Popen``."""
    import crn_jamgame

    env = dict(os.environ, PYTHONPATH=str(Path(crn_jamgame.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    return run(
        [sys.executable, "-m", "crn_jamgame.cli", *args],
        stdout=stdout, stderr=subprocess.PIPE, env=env, **options,
    )


def run_cli(args, stdout):
    return cli_process(args, stdout, timeout=60)


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
        [
            (["nash"], False),
            (["fp", "--iterations", "3"], True),
            (["fp", "--iterations", "5000"], True),
            (["simulate", "--slots", "3000"], True),
            (["sweep", "--sweep", "n_primary=0..3"], True),
        ],
    )
    def test_csv_and_printed_lines_keep_program_order_on_stdout(self, tmp_path, args, csv_first, into):
        # `--out /dev/stdout > file`, `--out /dev/stdout | ...` and
        # `--out file > file`: nash prints its summary before it writes
        # the CSV, the other commands after, and both must come out whole
        # and in that order
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


class TestClosedPipe:
    # a reader that stops early ends the run as a writer killed by SIGPIPE
    # would: exit 141 (128 + SIGPIPE), with nothing on stderr

    @pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
    def test_a_reader_that_stops_after_the_first_line(self):
        # `fp --out /dev/stdout | head -1`
        args = ["fp", "--iterations", "300000", "--out", "/dev/stdout"]
        process = cli_process(args, subprocess.PIPE, subprocess.Popen)
        try:
            assert process.stdout.readline().startswith(b"iteration,")
            process.stdout.close()
            _, err = process.communicate(timeout=60)
        finally:
            process.kill()
        assert process.returncode == 141
        assert err == b""

    def test_a_pipe_closed_before_reading(self):
        read, write = os.pipe()
        os.close(read)
        try:
            done = cli_process(["nash"], write, timeout=60)
        finally:
            os.close(write)
        assert done.returncode == 141
        assert done.stderr == b""


#: Magnitudes log-uniform up to the bound 2**1020, exact zeros and the bound.
FIELD_VALUES = st.one_of(
    st.sampled_from([0.0, 1e307, 2.0**1020]),
    st.floats(-300.0, math.log10(2.0**1020)).map(lambda x: min(10.0**x, 2.0**1020)),
)


@st.composite
def accepted_configs(draw):
    """Flags of a config ``NetworkConfig`` accepts, over its whole range."""
    n_bands = draw(st.one_of(st.integers(2, 4), st.integers(2, 300)))
    flags = ["--n-bands", str(n_bands), "--n-primary", str(draw(st.integers(0, n_bands)))]
    for name in ("cost-secondary-switch", "cost-malicious-switch", "gain-secondary", "gain-malicious",
                 "loss-secondary"):
        flags += [f"--{name}", repr(draw(FIELD_VALUES))]
    return n_bands, flags


class TestEveryAcceptedConfig:
    #: Every payoff field at the bound: a jammed switch pays -2**1021, and
    #: the secondary's total can overflow either way.
    BOUND_SLOT_PAYOFF = [
        "--n-bands", "3", "--n-primary", "1", "--cost-secondary-switch", "1.1235582092889474e307",
        "--cost-malicious-switch", "1.1235582092889474e307", "--gain-secondary", "1.1235582092889474e307",
        "--gain-malicious", "1.1235582092889474e307", "--loss-secondary", "1.1235582092889474e307",
    ]

    @given(accepted_configs())
    @settings(max_examples=150, deadline=None)
    @example((2, TestExitCodes.LARGEST_SUMS))
    @example((3, BOUND_SLOT_PAYOFF))
    def test_each_command_runs_clean(self, config):
        # in process, with warnings as errors: exit 0 and an empty stderr;
        # simulate's slot payoffs are finite and no total is nan
        n_bands, flags = config
        runs = (
            ["nash"],
            ["fp", "--iterations", "200"],
            ["simulate", "--slots", "200"],
            ["sweep", f"--sweep=n_bands={n_bands}..{n_bands + 1}"],
        )
        with tempfile.TemporaryDirectory() as directory, warnings.catch_warnings():
            warnings.simplefilter("error")
            path = os.path.join(directory, "out.csv")
            for argv in runs:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, *flags, "--out", path])
                assert (code, err.getvalue()) == (0, "")
                if argv[0] == "simulate":
                    _, rows = read_csv(Path(path))
                    assert all(math.isfinite(float(row[name])) for row in rows for name in ("payoff_s", "payoff_m"))
                    totals = re.findall(r"^cumulative payoff \w+: (.*)$", out.getvalue(), re.MULTILINE)
                    assert len(totals) == 2 and "nan" not in totals


class TestFreshInterpreterStderr:
    # the installed CLI runs without -W error, so only stderr shows a
    # warning: one run per command on configs at the payoff bound
    @pytest.mark.parametrize("args", [
        ["nash", *TestExitCodes.LARGEST_SUMS],
        ["fp", "--iterations", "200", *TestExitCodes.LARGEST_SUMS],
        ["sweep", "--sweep", "n_bands=2..3", *TestExitCodes.LARGEST_SUMS],
        ["simulate", "--slots", "200", *TestEveryAcceptedConfig.BOUND_SLOT_PAYOFF],
    ], ids=["nash", "fp", "sweep", "simulate"])
    def test_each_command_exits_zero_with_nothing_on_stderr(self, tmp_path, args):
        done = run_cli([*args, "--out", str(tmp_path / "out.csv")], subprocess.PIPE)
        assert done.returncode == 0
        assert done.stderr == b""


class TestOverflowingTotals:
    # every slot's payoff is finite, but the secondary's sum overflows:
    # the summary prints -inf and nothing reaches stderr
    ARGS = ["simulate", "--n-primary", "0", "--loss-secondary", "1.1235582092889474e307", "--slots", "2000"]

    def test_in_process_with_warnings_as_errors(self, tmp_path, capsys):
        assert main([*self.ARGS, "--out", str(tmp_path / "sim.csv")]) == 0
        assert "cumulative payoff secondary: -inf\n" in capsys.readouterr().out

    def test_in_a_fresh_interpreter(self, tmp_path):
        # the installed CLI runs without -W error, so only stderr shows a warning
        done = run_cli([*self.ARGS, "--out", str(tmp_path / "sim.csv")], subprocess.PIPE)
        assert done.returncode == 0
        assert done.stderr == b""
        assert b"cumulative payoff secondary: -inf" in done.stdout.splitlines()

    def test_a_cost_that_could_make_a_slot_pay_minus_inf_is_a_config_error(self, tmp_path, capsys):
        # the ROADMAP's -inf reproduction: with this cost a jammed switch would pay
        # -1e307 - 1.7e308 = -inf after the secondary's total reached +inf, a nan total
        args = ["simulate", "--n-bands", "3", "--n-primary", "1", "--cost-secondary-switch", "1.7e308",
                "--gain-secondary", "8e307", "--loss-secondary", "1e307", "--slots", "200"]
        assert main([*args, "--out", str(tmp_path / "sim.csv")]) == 2
        error = "config error: cost_secondary_switch must lie in [0, 2**1020] (got 1.7e+308)\n"
        assert capsys.readouterr() == ("", error)
        assert list(tmp_path.iterdir()) == []


#: Each failure's extra arguments and documented exit code, run in a
#: directory that holds ``earlier.csv`` and an empty directory ``empty``.
FAILURES = {
    "config-error": (["--n-bands", "1", "--out", "earlier.csv"], 2),
    "field-past-the-bound": ([*PAST_THE_BOUND, "--out", "earlier.csv"], 2),
    "unwritable-out": (["--out", os.path.join("missing", "out.csv")], 4),
    "full-device": (["--out", "/dev/full"], 4),
    "closed-pipe": (["--out", "/dev/stdout"], 141),
    "directory-out": (["--out", "empty" + os.sep], 4),
}


def tree(root):
    """Every path under ``root`` with its bytes (None for a directory)."""
    return {
        str(path.relative_to(root)): None if path.is_dir() else path.read_bytes() for path in root.rglob("*")
    }


class TestFailureTable:
    """Each command against each failure, in a fresh interpreter: the
    documented exit code, at most one line on stderr and no traceback,
    and the working directory, an existing ``--out`` included, as it was."""

    @pytest.mark.parametrize("failure", list(FAILURES))
    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    def test_a_failing_run_exits_with_its_code_and_changes_nothing(self, tmp_path, command, failure):
        args, code = FAILURES[failure]
        device = {"full-device": "/dev/full", "closed-pipe": "/dev/stdout"}.get(failure)
        if device is not None and not os.path.exists(device):
            pytest.skip(f"needs {device}")
        (tmp_path / "earlier.csv").write_bytes(b"earlier results\n")
        (tmp_path / "empty").mkdir()
        before = tree(tmp_path)
        read, stdout = os.pipe() if failure == "closed-pipe" else (None, subprocess.DEVNULL)
        if read is not None:
            os.close(read)  # the reader is gone before the run starts
        try:
            done = cli_process([*SHORT_RUNS[command], *args], stdout, cwd=tmp_path, timeout=30)
        finally:
            if read is not None:
                os.close(stdout)
        err = done.stderr.decode()
        assert done.returncode == code, err
        assert "Traceback" not in err and len(err.splitlines()) <= 1
        assert err == "" if code == 141 else err.endswith("\n")
        assert tree(tmp_path) == before
