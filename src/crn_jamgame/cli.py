"""Command-line front end: nash / fp / simulate / sweep.

Configuration comes from a flat JSON file plus flags (flags win); every
run is a pure function of (config, seed), so repeated invocations write
byte-identical CSVs. Exit codes: 0 success, 2 config error, 3 a category
game has no representable equilibrium, 4 I/O error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .games import Category, NetworkConfig, build_game
from .learning import run_fp
from .nash import mixed_equilibrium
from .output import write_csv
from .simulate import (
    CATEGORIES,
    A,
    B,
    C,
    FictitiousPlayPolicy,
    FixedPolicy,
    NashPolicy,
    Policy,
    PolicySpec,
    run_simulation,
)

MAX_SEED = 2**64 - 1
SEED_ENV_VAR = "CRN_JAMGAME_SEED"

_NETWORK_INT_FIELDS = ("n_bands", "n_primary")
_NETWORK_FLOAT_FIELDS = (
    "cost_secondary_switch",
    "cost_malicious_switch",
    "gain_secondary",
    "gain_malicious",
    "loss_secondary",
)
_NETWORK_FIELDS = _NETWORK_INT_FIELDS + _NETWORK_FLOAT_FIELDS
_CONFIG_KEYS = _NETWORK_FIELDS + (
    "seed",
    "iterations",
    "slots",
    "category",
    "policy_secondary",
    "policy_malicious",
    "out",
)

_DEFAULT_OUT = {"fp": "fp_trace.csv", "simulate": "sim_trace.csv", "sweep": "sweep.csv"}


class ConfigError(Exception):
    """Invalid configuration; the message names the offending field."""


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one command invocation."""

    command: str
    network: NetworkConfig
    seed: int
    iterations: int
    slots: int
    category: Category
    policy_secondary: Policy
    policy_malicious: Policy
    out: str | None
    sweeps: tuple[tuple[str, tuple[float, ...]], ...]
    iterations_given: bool


def _parse_policy(text: str, field_name: str) -> Policy:
    if text == "nash":
        return NashPolicy()
    if text == "fp":
        return FictitiousPlayPolicy()
    if text.startswith("fixed:"):
        try:
            prob = float(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"{field_name}: fixed policy needs a number (got {text!r})") from None
        if not 0.0 <= prob <= 1.0:
            raise ConfigError(f"{field_name}: fixed probability must lie in [0, 1] (got {prob!r})")
        return FixedPolicy(prob)
    raise ConfigError(f"{field_name}: expected 'fixed:P', 'nash' or 'fp' (got {text!r})")


def _parse_sweep(spec: str) -> tuple[str, tuple[float, ...]]:
    if "=" not in spec:
        raise ConfigError(f"sweep: expected FIELD=LO..HI[:STEP] (got {spec!r})")
    name, _, range_text = spec.partition("=")
    if name not in _NETWORK_FIELDS:
        raise ConfigError(f"sweep: unknown field {name!r}; sweepable: {', '.join(_NETWORK_FIELDS)}")
    is_int = name in _NETWORK_INT_FIELDS
    number = int if is_int else float
    step_text = None
    if ":" in range_text:
        range_text, _, step_text = range_text.partition(":")
    try:
        if ".." in range_text:
            lo_text, _, hi_text = range_text.partition("..")
            lo, hi = number(lo_text), number(hi_text)
        else:
            lo = hi = number(range_text)
        step = number(step_text) if step_text is not None else number(1)
    except ValueError:
        raise ConfigError(f"sweep: malformed range for {name} (got {spec!r})") from None
    if step <= 0:
        raise ConfigError(f"sweep: {name} step must be > 0 (got {step!r})")
    if lo > hi:
        raise ConfigError(f"sweep: {name} range is inverted ({lo!r} > {hi!r})")
    if is_int:
        values = tuple(range(int(lo), int(hi) + 1, int(step)))
    else:
        count = int((hi - lo) / step + 1e-9) + 1
        values = tuple(lo + i * step for i in range(count))
    if not values:
        raise ConfigError(f"sweep: {name} range is empty (got {spec!r})")
    return name, values


def _require_int(value, field_name: str, minimum: int, maximum: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{field_name} must be an integer (got {value!r})")
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum}" if maximum is None else f"in [{minimum}, {maximum}]"
        raise ConfigError(f"{field_name} must be {bound} (got {value!r})")
    return value


def parse_config(args: argparse.Namespace) -> RunConfig:
    """Merge flags > the JSON config file > ``CRN_JAMGAME_SEED`` > defaults
    (in decreasing precedence) into a validated RunConfig."""
    file_values: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}") from None
        if text.strip():
            try:
                file_values = json.loads(text)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config: {args.config!r} is not valid JSON: {exc}") from None
            if not isinstance(file_values, dict):
                raise ConfigError("config: top-level JSON value must be an object")
        for key in file_values:
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"config: unknown key {key!r}")

    network_kwargs = {}
    for name in _NETWORK_FIELDS:
        if name in file_values:
            network_kwargs[name] = file_values[name]
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            network_kwargs[name] = flag_value
    sweeps = tuple(_parse_sweep(spec) for spec in (args.sweep or []))
    if args.cmd == "sweep":
        # a swept field's own value is never used: the base config holds
        # the first cell's, and _check_grid validates every cell
        network_kwargs.update((name, values[0]) for name, values in sweeps)
    try:
        network = NetworkConfig(**network_kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None

    seed = file_values.get("seed")
    if seed is None and os.environ.get(SEED_ENV_VAR):
        try:
            seed = int(os.environ[SEED_ENV_VAR])
        except ValueError:
            raise ConfigError(
                f"seed: {SEED_ENV_VAR} must be an integer (got {os.environ[SEED_ENV_VAR]!r})"
            ) from None
    if args.seed is not None:
        seed = args.seed
    if seed is None:
        seed = 1
    seed = _require_int(seed, "seed", 0, MAX_SEED)

    iterations = file_values.get("iterations", 20000)
    iterations_given = "iterations" in file_values
    if args.iterations is not None:
        iterations = args.iterations
        iterations_given = True
    iterations = _require_int(iterations, "iterations", 1)

    slots = file_values.get("slots", 10000)
    if args.slots is not None:
        slots = args.slots
    slots = _require_int(slots, "slots", 1)

    category_text = file_values.get("category", "A")
    if args.category is not None:
        category_text = args.category
    if category_text not in ("A", "B"):
        raise ConfigError(f"category must be 'A' or 'B' (got {category_text!r})")
    category = Category(category_text)

    policy_s_text = file_values.get("policy_secondary", "fp")
    if args.policy_secondary is not None:
        policy_s_text = args.policy_secondary
    policy_m_text = file_values.get("policy_malicious", "fp")
    if args.policy_malicious is not None:
        policy_m_text = args.policy_malicious
    if not isinstance(policy_s_text, str):
        raise ConfigError(f"policy_secondary must be a string (got {policy_s_text!r})")
    if not isinstance(policy_m_text, str):
        raise ConfigError(f"policy_malicious must be a string (got {policy_m_text!r})")
    policy_secondary = _parse_policy(policy_s_text, "policy_secondary")
    policy_malicious = _parse_policy(policy_m_text, "policy_malicious")

    out = file_values.get("out")
    if args.out is not None:
        out = args.out
    if out is None:
        out = _DEFAULT_OUT.get(args.cmd)
    if out is not None and not isinstance(out, str):
        raise ConfigError(f"out must be a path string (got {out!r})")

    return RunConfig(
        command=args.cmd,
        network=network,
        seed=seed,
        iterations=iterations,
        slots=slots,
        category=category,
        policy_secondary=policy_secondary,
        policy_malicious=policy_malicious,
        out=out,
        sweeps=sweeps,
        iterations_given=iterations_given,
    )


def _fmt(value) -> str:
    """Stdout number: bools as 0/1, floats with 6 significant digits."""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return format(value, ".6g")
    return str(value)


#: Rows per slice of the NumPy columns that ``fp`` and ``simulate`` turn
#: into Python objects at a time.
_CHUNK = 2048

# Each command's CSV columns, (header, %-format) pairs for ``write_csv``,
# sit next to the function that builds its rows in the same order.

NASH_COLUMNS = (
    ("category", "%s"),
    ("p", "%.6g"),
    ("q", "%.6g"),
    ("residual_secondary", "%.6g"),
    ("residual_malicious", "%.6g"),
    ("degenerate", "%d"),
    ("pure_equilibria", "%s"),
)


def cmd_nash(cfg: RunConfig) -> int:
    """Solve both category games and report (p, q) plus pure equilibria."""
    rows = []
    for category in (Category.A, Category.B):
        game = build_game(cfg.network, category)
        report = mixed_equilibrium(game)
        if report.mixed is None and not report.pure:
            print(
                f"error: category {category.value} game has no representable equilibrium",
                file=sys.stderr,
            )
            return 3
        p = report.mixed.p_secondary_first if report.mixed else float("nan")
        q = report.mixed.q_malicious_first if report.mixed else float("nan")
        res_s, res_m = report.indifference_residuals or (float("nan"), float("nan"))
        pure_text = ";".join(f"{r}-{c}" for r, c in report.pure)
        rows.append((category.value, p, q, res_s, res_m, report.degenerate, pure_text))
        line = f"category {category.value}: "
        if report.mixed is not None:
            line += f"p={_fmt(p)} q={_fmt(q)} residuals=({_fmt(res_s)},{_fmt(res_m)})"
        else:
            line += "no mixed equilibrium"
        line += f" pure=[{pure_text}] degenerate={_fmt(report.degenerate)}"
        print(line)
    if cfg.out is not None:
        write_csv(cfg.out, NASH_COLUMNS, rows)
    return 0


FP_COLUMNS = (
    ("iteration", "%d"),
    ("secondary_action", "%s"),
    ("malicious_action", "%s"),
    ("p_star", "%.6g"),
    ("q_star", "%.6g"),
    ("err_p", "%.6g"),
    ("err_q", "%.6g"),
)


def cmd_fp(cfg: RunConfig) -> int:
    """Run learning on the chosen category's game; one CSV row per stage."""
    game = build_game(cfg.network, cfg.category)
    reference = mixed_equilibrium(game).mixed
    p_ref = reference.p_secondary_first if reference else float("nan")
    q_ref = reference.q_malicious_first if reference else float("nan")
    trace = run_fp(game, cfg.iterations, cfg.seed)

    def rows():
        labels_s = np.array((None, *game.row_labels), dtype=object)
        labels_m = np.array((None, *game.col_labels), dtype=object)
        for lo, p_star, q_star in trace.running_frequencies(_CHUNK):
            hi = lo + len(p_star)
            yield from zip(
                range(lo + 1, hi + 1),
                labels_s[trace.actions_secondary[lo:hi]].tolist(),
                labels_m[trace.actions_malicious[lo:hi]].tolist(),
                p_star.tolist(),
                q_star.tolist(),
                np.abs(p_star - p_ref).tolist(),
                np.abs(q_star - q_ref).tolist(),
            )

    write_csv(cfg.out, FP_COLUMNS, rows())
    p_star, q_star = trace.final_frequencies()
    print(
        f"category {cfg.category.value}: {len(trace)} iterations, "
        f"final p*={_fmt(p_star)} q*={_fmt(q_star)} "
        f"(equilibrium p={_fmt(p_ref)} q={_fmt(q_ref)}) -> {cfg.out}"
    )
    return 0


SIMULATE_COLUMNS = (
    ("slot", "%d"),
    ("category", "%s"),
    ("secondary_band", "%d"),
    ("malicious_band", "%d"),
    ("n_primaries_on_secondary_band", "%d"),
    ("secondary_action", "%s"),
    ("malicious_action", "%s"),
    ("jam", "%d"),
    ("payoff_s", "%.6g"),
    ("payoff_m", "%.6g"),
    ("pstar_A", "%.6g"),
    ("qstar_A", "%.6g"),
    ("pstar_B", "%.6g"),
    ("qstar_B", "%.6g"),
)


def cmd_simulate(cfg: RunConfig) -> int:
    """Full network run; per-slot trace CSV plus a printed summary."""
    policies = PolicySpec(secondary=cfg.policy_secondary, malicious=cfg.policy_malicious)
    result = run_simulation(cfg.network, policies, cfg.slots, cfg.seed)

    def rows():
        labels = np.array([category.value for category in CATEGORIES], dtype=object)
        moves = np.array(("stay", "switch"), dtype=object)
        columns = (
            result.secondary_band,
            result.malicious_band,
            result.jam,
            result.secondary_payoff,
            result.malicious_payoff,
            *result.frequencies(A),
            *result.frequencies(B),
        )
        for lo in range(0, len(result), _CHUNK):
            part = slice(lo, lo + _CHUNK)
            category = result.category[part]
            sec, mal, jam, pay_s, pay_m, p_a, q_a, p_b, q_b = (
                column[part].tolist() for column in columns
            )
            yield from zip(
                range(lo, lo + len(category)),
                labels[category].tolist(),
                sec,
                mal,
                (category == C).tolist(),
                moves[result.secondary_switch[part].view(np.uint8)].tolist(),
                moves[result.malicious_switch[part].view(np.uint8)].tolist(),
                jam,
                pay_s,
                pay_m,
                p_a,
                q_a,
                p_b,
                q_b,
            )

    write_csv(cfg.out, SIMULATE_COLUMNS, rows())
    s = result.summary
    print(f"slots: {s.slots}")
    print(f"cumulative payoff secondary: {_fmt(s.cumulative_secondary_payoff)}")
    print(f"cumulative payoff malicious: {_fmt(s.cumulative_malicious_payoff)}")
    dwell = " ".join(
        f"{cat.value}={s.category_counts[cat]} ({_fmt(s.category_counts[cat] / s.slots)})"
        for cat in (Category.A, Category.B, Category.C)
    )
    print(f"category dwell: {dwell}")
    print(f"jams: {s.jam_count}")
    print(
        "history totals: "
        f"malicious={s.malicious_observations} "
        f"secondary={s.secondary_observations}"
    )
    print(
        f"final frequencies: A p*={_fmt(s.p_star_a)} q*={_fmt(s.q_star_a)}; "
        f"B p*={_fmt(s.p_star_b)} q*={_fmt(s.q_star_b)}"
    )
    print(f"trace -> {cfg.out}")
    return 0


def _check_grid(network: NetworkConfig, sweeps) -> None:
    """Raise ConfigError unless every cell of the sweep grid is a valid config.

    NetworkConfig checks each float field on its own and ``n_primary``
    against ``n_bands``, so one config per swept float value and one per
    swept (n_bands, n_primary) pair cover the grid without building it.
    """
    ints = {name: values for name, values in sweeps if name in _NETWORK_INT_FIELDS}
    changes = [{name: value} for name, values in sweeps if name not in ints for value in values]
    changes += [dict(zip(ints, combo)) for combo in itertools.product(*ints.values())]
    for change in changes:
        try:
            replace(network, **change)
        except ValueError as exc:
            raise ConfigError(f"sweep: {exc}") from None


def sweep_columns(sweeps, with_fp: bool) -> tuple[tuple[str, str], ...]:
    """Columns of ``sweep``: each swept field (``%d`` when its values are
    ints), then the solved and, with ``with_fp``, the learned values."""
    columns = [(name, "%d" if isinstance(values[0], int) else "%.6g") for name, values in sweeps]
    for cat in ("A", "B"):
        columns += [(f"p_{cat}", "%.6g"), (f"q_{cat}", "%.6g"), (f"degenerate_{cat}", "%d")]
    if with_fp:
        columns += [(f"fp_err_{x}_{cat}", "%.6g") for cat in ("A", "B") for x in ("p", "q")]
    return tuple(columns)


def cmd_sweep(cfg: RunConfig) -> int:
    """Equilibria (and optional learning errors) over a parameter grid."""
    if not cfg.sweeps:
        raise ConfigError("sweep: at least one --sweep FIELD=LO..HI[:STEP] is required")
    names = [name for name, _values in cfg.sweeps]
    value_lists = [values for _name, values in cfg.sweeps]
    with_fp = cfg.iterations_given
    _check_grid(cfg.network, cfg.sweeps)

    def rows():
        # every cell is valid (_check_grid); each is built from one dict of fields
        fields = {name: getattr(cfg.network, name) for name in _NETWORK_FIELDS}
        categories = (Category.A, Category.B)
        for index, combo in enumerate(itertools.product(*value_lists)):
            fields.update(zip(names, combo))
            network = NetworkConfig(**fields)
            row = combo
            fp_errors = ()
            for category in categories:
                game = build_game(network, category)
                report = mixed_equilibrium(game)
                p = report.mixed.p_secondary_first if report.mixed else float("nan")
                q = report.mixed.q_malicious_first if report.mixed else float("nan")
                row += (p, q, report.degenerate)
                if with_fp:
                    child_seed = (cfg.seed + index) % (MAX_SEED + 1)
                    p_star, q_star = run_fp(game, cfg.iterations, child_seed).final_frequencies()
                    fp_errors += (abs(p_star - p), abs(q_star - q))
            yield row + fp_errors

    write_csv(cfg.out, sweep_columns(cfg.sweeps, with_fp), rows())
    combo_count = 1
    for values in value_lists:
        combo_count *= len(values)
    print(f"{combo_count} combinations -> {cfg.out}")
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
    common.add_argument("--seed", type=int, help="64-bit unsigned RNG seed")
    common.add_argument("--iterations", type=int, help="learning stages (fp, sweep)")
    common.add_argument("--slots", type=int, help="simulated time slots (simulate)")
    common.add_argument("--category", choices=("A", "B"), help="which game to learn (fp)")
    common.add_argument("--policy-secondary", help="fixed:P | nash | fp (simulate)")
    common.add_argument("--policy-malicious", help="fixed:P | nash | fp (simulate)")
    common.add_argument("--out", help="output CSV path")
    common.add_argument(
        "--sweep",
        action="append",
        metavar="FIELD=LO..HI[:STEP]",
        help="parameter range (sweep); repeat for a Cartesian product",
    )
    for name in _NETWORK_INT_FIELDS:
        common.add_argument(f"--{name.replace('_', '-')}", type=int, dest=name)
    for name in _NETWORK_FLOAT_FIELDS:
        common.add_argument(f"--{name.replace('_', '-')}", type=float, dest=name)
    sub = parser.add_subparsers(dest="cmd", required=True)
    sub.add_parser("nash", parents=[common], help="solve both category games")
    sub.add_parser("fp", parents=[common], help="learning run on one category's game")
    sub.add_parser("simulate", parents=[common], help="full network slot simulation")
    sub.add_parser("sweep", parents=[common], help="equilibria over parameter ranges")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.cmd](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
