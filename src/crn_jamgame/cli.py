"""Command-line front end: nash / fp / simulate / sweep.

Configuration comes from a flat JSON file plus flags (flags win); every
run is a pure function of (config, seed), so repeated invocations write
byte-identical CSVs. Exit codes: 0 success, 2 config error, 4 I/O error,
141 a closed output pipe.
"""

from __future__ import annotations

import argparse
import itertools
import math
import operator
import os
import sys
from collections.abc import Callable
from functools import partial
from typing import NamedTuple

import numpy as np

from .games import (
    FIRST_IS_SWITCH, Category, ConfigError, FictitiousPlayPolicy, FixedPolicy, NashPolicy, NetworkConfig, Policy,
    build_game,
)
from .nash import mixed_equilibrium, pure_equilibria, strategy_utilities
from .output import Labels, reject_directory, write_csv

MAX_SEED = 2**64 - 1
SEED_ENV_VAR = "CRN_JAMGAME_SEED"

_DEFAULT_OUT = {"fp": "fp_trace.csv", "simulate": "sim_trace.csv", "sweep": "sweep.csv"}


def _integer(minimum: int, maximum: int | None, value, key: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer (got {value!r})")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{key} must be {bound} (got {value!r})")
    return value


def _category(value, key: str) -> Category:
    if value not in ("A", "B"):
        raise ConfigError(f"{key} must be 'A' or 'B' (got {value!r})")
    return Category[value]


def _policy(text, key: str) -> Policy:
    if not isinstance(text, str):
        raise ConfigError(f"{key} must be a string (got {text!r})")
    if text == "nash":
        return NashPolicy()
    if text == "fp":
        return FictitiousPlayPolicy()
    if text.startswith("fixed:"):
        try:
            prob = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"{key}: fixed policy needs a number (got {text!r})") from None
        try:
            return FixedPolicy(prob)
        except ConfigError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    raise ConfigError(f"{key}: expected 'fixed:P', 'nash' or 'fp' (got {text!r})")


def _path(value, key: str) -> str | None:
    if value is not None and not (isinstance(value, str) and value):
        raise ConfigError(f"{key} must be a non-empty path string (got {value!r})")
    return value


class Setting(NamedTuple):
    """A config-file key and its flag ``--key-with-dashes``. ``check`` turns the
    merged value into the run's; ``NetworkConfig`` checks the network keys."""

    key: str
    type: type
    default: object
    check: Callable | None = None
    help: str | None = None


_NETWORK_ROWS = tuple(Setting(k, type(v), v) for k, v in NetworkConfig._field_defaults.items())
#: The network constants and their types, in ``NetworkConfig``'s field order.
_NETWORK_TYPES = {row.key: row.type for row in _NETWORK_ROWS}

SETTINGS = (
    # None: CRN_JAMGAME_SEED, else 1
    Setting("seed", int, None, partial(_integer, 0, MAX_SEED), "64-bit unsigned RNG seed"),
    Setting("iterations", int, 20000, partial(_integer, 1, None), "learning stages (fp, sweep)"),
    Setting("slots", int, 10000, partial(_integer, 1, None), "simulated time slots (simulate)"),
    Setting("category", str, "A", _category, "A or B: which game to learn (fp)"),
    Setting("policy_secondary", str, "fp", _policy, "fixed:P | nash | fp (simulate)"),
    Setting("policy_malicious", str, "fp", _policy, "fixed:P | nash | fp (simulate)"),
    # None: the command's default file, or no CSV for nash
    Setting("out", str, None, _path, "output CSV path"),
    *_NETWORK_ROWS,
)
_SETTING_KEYS = frozenset(row.key for row in SETTINGS)

#: Most values one ``--sweep`` range may hold; its count is checked before
#: any value is made.
MAX_SWEEP_VALUES = 100_000


def _parse_sweep(spec: str) -> tuple[str, tuple[float, ...]]:
    if "=" not in spec:
        raise ConfigError(f"sweep: expected FIELD=LO..HI[:STEP] (got {spec!r})")
    name, _, range_text = spec.partition("=")
    number = _NETWORK_TYPES.get(name)
    if number is None:
        raise ConfigError(f"sweep: unknown field {name!r}; sweepable: {', '.join(_NETWORK_TYPES)}")
    range_text, colon, step_text = range_text.partition(":")
    lo_text, dots, hi_text = range_text.partition("..")
    try:
        lo = number(lo_text)
        hi = number(hi_text) if dots else lo
        step = number(step_text) if colon else number(1)
    except ValueError:
        raise ConfigError(f"sweep: malformed range for {name} (got {spec!r})") from None
    if step <= 0:
        raise ConfigError(f"sweep: {name} step must be > 0 (got {step!r})")
    if lo > hi:
        raise ConfigError(f"sweep: {name} range is inverted ({lo!r} > {hi!r})")
    if number is int:
        count = (hi - lo) // step + 1
    else:
        steps = (hi - lo) / step
        if not all(map(math.isfinite, (lo, step, steps))):  # then hi is finite too
            raise ConfigError(f"sweep: {name} range must be finite (got {spec!r})")
        count = int(steps + 1e-9) + 1
    if count > MAX_SWEEP_VALUES:
        raise ConfigError(f"sweep: {name} range holds more than {MAX_SWEEP_VALUES} values")
    return name, tuple(lo + i * step for i in range(count))


def _read_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path!r}: {exc}") from None
    if not text.strip():
        return {}
    # imported on first use: a run without --config does without it
    import json

    try:
        values = json.loads(text)
    # ValueError: bad JSON, or an integer over the interpreter's digit limit
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config: {path!r} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError("config: top-level JSON value must be an object")
    for key in values:
        if key not in _SETTING_KEYS:
            raise ConfigError(f"config: unknown key {key!r}")
    return values


def parse_config(args: argparse.Namespace) -> argparse.Namespace:
    """The run's validated settings: ``network`` (a NetworkConfig), every other
    row of ``SETTINGS`` by its key, ``sweeps`` and ``iterations_given``.

    Each value comes from its flag, else the ``--config`` JSON file, else
    ``CRN_JAMGAME_SEED`` (seed only), else the row's default. For ``sweep``
    a swept field takes its range's first value (``_check_grid`` checks the
    other cells). Raises ConfigError, naming the field, for any invalid value.
    """
    file_values = {} if args.config is None else _read_config(args.config)
    values = {}
    for row in SETTINGS:
        value = getattr(args, row.key)
        values[row.key] = file_values.get(row.key, row.default) if value is None else value
    if values["seed"] is None:
        text = os.environ.get(SEED_ENV_VAR)
        try:
            values["seed"] = int(text) if text else 1
        except ValueError:
            raise ConfigError(f"seed: {SEED_ENV_VAR} must be an integer (got {text!r})") from None
    sweeps = tuple(_parse_sweep(spec) for spec in getattr(args, "sweep", None) or ())
    for i, (name, _values) in enumerate(sweeps):
        if name in dict(sweeps[:i]):
            raise ConfigError(f"sweep: {name} is swept more than once")
    network_values = {name: values.pop(name) for name in _NETWORK_TYPES}
    network_values.update((name, swept[0]) for name, swept in sweeps)
    network = NetworkConfig(**network_values)
    for row in SETTINGS:
        if row.check is not None:
            values[row.key] = row.check(values[row.key], row.key)
    if values["out"] is None:
        values["out"] = _DEFAULT_OUT.get(args.cmd)
    iterations_given = args.iterations is not None or "iterations" in file_values
    return argparse.Namespace(network=network, sweeps=sweeps, iterations_given=iterations_given, **values)


# The learner and the simulator are imported only by the commands that run
# them: a run compiles each module it imports when no bytecode is cached, so
# ``nash`` and ``sweep`` load neither. The commands call these two names as
# module globals, which the traced benchmark replaces, and import the module
# before the first call, so that a timed call loads no module.


def run_fp(game, iterations: int, seed: int):
    """:func:`learning.run_fp`, imported when called."""
    from .learning import run_fp

    return run_fp(game, iterations, seed)


def run_simulation(config: NetworkConfig, policies: tuple[Policy, Policy], slots: int, seed: int):
    """:func:`simulate.run_simulation`, imported when called."""
    from .simulate import run_simulation

    return run_simulation(config, policies, slots, seed)


#: Rows per block that a command hands ``write_csv``. A block's arrays and
#: line buffer are the writer's transient memory, which grows with it. A
#: block's float columns are encoded in one pass, several thousand values
#: for ``fp`` and ``simulate``, so 1024-row blocks encode no slower per
#: row than blocks of 2048 or 4096.
_CHUNK = 1024

#: The move labels of ``fp`` and ``simulate``, indexed by switch flag.
_MOVES = ("stay", "switch")


# Each command's CSV header sits next to the function that builds its
# blocks in the same order; ``write_csv`` formats a column by its values' type.

NASH_COLUMNS = (
    "category", "p", "q", "residual_secondary", "residual_malicious", "degenerate", "pure_equilibria",
)


def cmd_nash(cfg: argparse.Namespace) -> int:
    """Solve both category games and report (p, q) plus pure equilibria."""
    rows = []
    for category in (Category.A, Category.B):
        game = build_game(cfg.network, category)
        report = mixed_equilibrium(game)
        pure = pure_equilibria(game)
        p, q = report.p, report.q
        u_s1, u_s2, u_m1, u_m2 = strategy_utilities(game, p, q)  # nan when p and q are
        res_s, res_m = abs(u_s1 - u_s2), abs(u_m1 - u_m2)
        pure_text = ";".join(f"{r}-{c}" for r, c in pure)
        rows.append((category.name, p, q, res_s, res_m, report.degenerate, pure_text))
        line = f"category {category.name}: "
        if not report.degenerate:
            line += f"p={p:.6g} q={q:.6g} residuals=({res_s:.6g},{res_m:.6g})"
        else:
            line += "no mixed equilibrium"
        line += f" pure=[{pure_text}] degenerate={report.degenerate:d}"
        print(line)
    if cfg.out is not None:
        write_csv(cfg.out, NASH_COLUMNS, [list(zip(*rows))])
    return 0


FP_COLUMNS = ("iteration", "secondary_action", "malicious_action", "p_star", "q_star", "err_p", "err_q")


def cmd_fp(cfg: argparse.Namespace) -> int:
    """Run learning on the chosen category's game; one CSV row per stage."""
    from . import learning  # loaded before run_fp is called

    game = build_game(cfg.network, cfg.category)
    reference = mixed_equilibrium(game)
    trace = run_fp(game, cfg.iterations, cfg.seed)
    first_s, first_m = FIRST_IS_SWITCH[cfg.category]

    def blocks():
        # each player's move labels by strategy index 1, 2
        moves_s = ("", _MOVES[first_s], _MOVES[not first_s])
        moves_m = ("", _MOVES[first_m], _MOVES[not first_m])
        for lo, p_star, q_star in trace.running_frequencies(_CHUNK):
            hi = lo + len(p_star)
            yield (
                np.arange(lo + 1, hi + 1),
                Labels(trace.actions_secondary[lo:hi], moves_s),
                Labels(trace.actions_malicious[lo:hi], moves_m),
                p_star,
                q_star,
                np.abs(p_star - reference.p),
                np.abs(q_star - reference.q),
            )

    write_csv(cfg.out, FP_COLUMNS, blocks())
    p_star, q_star = trace.final_frequencies()
    print(
        f"category {cfg.category.name}: {len(trace)} iterations, "
        f"final p*={p_star:.6g} q*={q_star:.6g} "
        f"(equilibrium p={reference.p:.6g} q={reference.q:.6g}) -> {cfg.out}"
    )
    return 0


SIMULATE_COLUMNS = (
    "slot", "category", "secondary_band", "malicious_band", "n_primaries_on_secondary_band",
    "secondary_action", "malicious_action", "jam", "payoff_s", "payoff_m",
    "pstar_A", "qstar_A", "pstar_B", "qstar_B",
)


def cmd_simulate(cfg: argparse.Namespace) -> int:
    """Full network run; per-slot trace CSV plus a printed summary."""
    from . import simulate  # loaded before run_simulation is called

    result = run_simulation(cfg.network, (cfg.policy_secondary, cfg.policy_malicious), cfg.slots, cfg.seed)

    def blocks():
        labels = tuple(category.name for category in Category)
        in_a, in_b = (result.running_frequencies(code, _CHUNK) for code in (Category.A, Category.B))
        for (lo, p_a, q_a), (_lo, p_b, q_b) in zip(in_a, in_b):
            part = slice(lo, lo + _CHUNK)
            category = result.category[part]
            payoff_s, payoff_m = result.payoffs(part)
            yield (
                np.arange(lo, lo + len(category)), Labels(category, labels),
                result.secondary_band[part], result.malicious_band[part], category == Category.C,
                Labels(result.secondary_switch[part].view(np.uint8), _MOVES),
                Labels(result.malicious_switch[part].view(np.uint8), _MOVES),
                result.settled[part] == Category.A, payoff_s, payoff_m,
                p_a, q_a, p_b, q_b,
            )

    write_csv(cfg.out, SIMULATE_COLUMNS, blocks())
    slots = len(result)
    payoff_s, payoff_m = result.cumulative_payoffs()
    print(f"slots: {slots}")
    print(f"cumulative payoff secondary: {payoff_s:.6g}")
    print(f"cumulative payoff malicious: {payoff_m:.6g}")
    dwell = np.bincount(result.category, minlength=len(Category))
    shares = " ".join(f"{cat.name}={n} ({n / slots:.6g})" for cat, n in zip(Category, dwell))
    print(f"category dwell: {shares}")
    print(f"jams: {np.count_nonzero(result.settled == Category.A)}")
    print(
        f"history totals: malicious={np.count_nonzero(result.seen_by_malicious)} "
        f"secondary={np.count_nonzero(result.seen_by_secondary)}"
    )
    (p_a, q_a), (p_b, q_b) = (result.final_frequencies(code) for code in (Category.A, Category.B))
    print(f"final frequencies: A p*={p_a:.6g} q*={q_a:.6g}; B p*={p_b:.6g} q*={q_b:.6g}")
    print(f"trace -> {cfg.out}")
    return 0


def _check_grid(network: NetworkConfig, sweeps) -> None:
    """Raise ConfigError unless every cell of the sweep grid is a valid config.

    Checks each swept int value times only the ends of each ascending float
    range: each float field's check is a range of its own.
    """
    names = [name for name, _values in sweeps]
    ends = [values if _NETWORK_TYPES[name] is int else values[:: len(values) - 1 or 1] for name, values in sweeps]
    for combo in itertools.product(*ends):
        try:
            network._replace(**dict(zip(names, combo)))
        except ConfigError as exc:
            raise ConfigError(f"sweep: {exc}") from None


def sweep_columns(sweeps, with_fp: bool) -> tuple[str, ...]:
    """Header of ``sweep``: each swept field, then the solved and, with
    ``with_fp``, the learned values."""
    columns = [name for name, _values in sweeps]
    columns += [f"{x}_{cat}" for cat in ("A", "B") for x in ("p", "q", "degenerate")]
    if with_fp:
        columns += [f"fp_err_{x}_{cat}" for cat in ("A", "B") for x in ("p", "q")]
    return tuple(columns)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    """Equilibria (and optional learning errors) over a parameter grid."""
    if not cfg.sweeps:
        raise ConfigError("sweep: at least one --sweep FIELD=LO..HI[:STEP] is required")
    names = [name for name, _values in cfg.sweeps]
    value_lists = [values for _name, values in cfg.sweeps]
    with_fp = cfg.iterations_given
    if with_fp:
        from . import learning  # loaded before run_fp is called
    _check_grid(cfg.network, cfg.sweeps)

    def rows():
        # every cell is valid (_check_grid), so it is the plain tuple that build_game unpacks:
        # one itemgetter puts its swept, then its unswept values in field order, as _replace would
        unswept = [name for name in NetworkConfig._fields if name not in names]
        in_field_order = operator.itemgetter(*map([*names, *unswept].index, NetworkConfig._fields))
        rest = tuple(getattr(cfg.network, name) for name in unswept)
        cat_a, cat_b = Category.A, Category.B
        for index, combo in enumerate(itertools.product(*value_lists)):
            network = in_field_order(combo + rest)
            game_a, game_b = build_game(network, cat_a), build_game(network, cat_b)
            report_a, report_b = mixed_equilibrium(game_a), mixed_equilibrium(game_b)
            row = combo + report_a + report_b  # a report is the tuple (p, q, degenerate)
            if with_fp:
                child_seed = (cfg.seed + index) % (MAX_SEED + 1)
                p_a, q_a = run_fp(game_a, cfg.iterations, child_seed).final_frequencies()
                p_b, q_b = run_fp(game_b, cfg.iterations, child_seed).final_frequencies()
                row += (abs(p_a - report_a.p), abs(q_a - report_a.q), abs(p_b - report_b.p), abs(q_b - report_b.q))
            yield row

    cells = rows()
    # each block's columns, made from its rows; nothing holds a block once written
    blocks = iter(lambda: tuple(zip(*itertools.islice(cells, _CHUNK))), ())
    write_csv(cfg.out, sweep_columns(cfg.sweeps, with_fp), blocks)
    print(f"{math.prod(map(len, value_lists))} combinations -> {cfg.out}")
    return 0


_COMMANDS = {"nash": cmd_nash, "fp": cmd_fp, "simulate": cmd_simulate, "sweep": cmd_sweep}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crn-jamgame",
        description=(
            "Anti-jamming band-hopping games: analytic equilibria, "
            "best-response learning, and network simulation."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat JSON config file; flags override its values")
    for row in SETTINGS:
        flag = f"--{row.key.replace('_', '-')}"
        common.add_argument(flag, dest=row.key, type=row.type, help=row.help)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("nash", parents=[common], help="solve both category games")
    sub.add_parser("fp", parents=[common], help="learning run on one category's game")
    sub.add_parser("simulate", parents=[common], help="full network slot simulation")
    sweep = sub.add_parser("sweep", parents=[common], help="equilibria over parameter ranges")
    sweep.add_argument(
        "--sweep",
        action="append",
        metavar="FIELD=LO..HI[:STEP]",
        help="parameter range; repeat for a Cartesian product",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
        if cfg.out is not None:  # a directory would fail only after the run
            reject_directory(cfg.out)
        code = _COMMANDS[args.cmd](cfg)
        sys.stdout.flush()  # a closed pipe raises here, not at the interpreter's exit
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: exit quietly as a writer killed by SIGPIPE would,
        # with fd 1 on devnull so that the interpreter's last flush raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        return 141
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
