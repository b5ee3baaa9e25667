"""Probes the benchmark runs in a fresh interpreter, with ``src`` on the path.

    python bench/child.py setup ARGV...           import, parse_config, solve both games
    python bench/child.py trace OUT.json ARGV...  one CLI run with spans at layer calls
    python bench/child.py memory OUT.json ARGV... one CLI run, tracemalloc around run_simulation

ARGV is the CLI's own argument list. Set-up imports nothing at module
level beyond ``sys``, so its wall time is what a CLI run pays before its
core loop.
"""

import sys

#: Layer functions wrapped for the traced run: (module, attribute, span).
#: Each is looked up through the module attribute its caller reads at call
#: time; one that is missing is reported absent.
SPANS = (
    ("cli", "parse_config", "cli.parse_config"),
    ("cli", "build_game", "games.build_game"),
    ("cli", "mixed_equilibrium", "nash.mixed_equilibrium"),
    ("cli", "run_fp", "learning.run_fp"),
    ("cli", "run_simulation", "simulate.run_simulation"),
    ("simulate", "build_game", "games.build_game"),
    ("simulate", "mixed_equilibrium", "nash.mixed_equilibrium"),
    ("simulate", "classify_state", "simulate.classify_state"),
    ("simulate", "choose_actions", "simulate.choose_actions"),
    ("simulate", "settle_slot", "simulate.settle_slot"),
    ("simulate", "update_histories", "simulate.update_histories"),
)
#: Spans kept individually (name, parent, start, end); per-slot and per-cell
#: spans are only aggregated.
KEEP_SPANS = {"cli.main", "cli.parse_config", "cli.command", "learning.run_fp", "simulate.run_simulation"}
MAX_KEPT_SPANS = 1000


def setup(argv):
    from crn_jamgame import cli
    from crn_jamgame.games import Category, build_game
    from crn_jamgame.nash import mixed_equilibrium

    cfg = cli.parse_config(cli._build_parser().parse_args(argv))
    for category in (Category.A, Category.B):
        mixed_equilibrium(build_game(cfg.network, category))
    return 0


class Tracer:
    """Aggregates spans into count, total and self time per (name, parent)."""

    def __init__(self, clock):
        self.clock = clock
        self.origin = clock()
        self.stack = ["root"]
        self.child_time = [0.0]
        self.stats = {}
        self.spans = []
        self.counts = {"degenerate_games": 0, "fp_iterations": 0, "sim_slots": 0}

    def wrap(self, name, fn, on_return=None):
        stack, child_time, clock, origin = self.stack, self.child_time, self.clock, self.origin
        by_parent = self.stats.setdefault(name, {})
        spans = self.spans if name in KEEP_SPANS else None

        def traced(*args, **kwargs):
            parent = stack[-1]
            stack.append(name)
            child_time.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                inner = child_time.pop()
                child_time[-1] += end - start
                entry = by_parent.get(parent)
                if entry is None:
                    entry = by_parent[parent] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += end - start
                entry[2] += end - start - inner
                if spans is not None and len(spans) < MAX_KEPT_SPANS:
                    spans.append((name, parent, start - origin, end - origin))
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def count_degenerate(self, args, kwargs, report):
        self.counts["degenerate_games"] += bool(getattr(report, "degenerate", False))

    def count_iterations(self, args, kwargs, trace):
        self.counts["fp_iterations"] += kwargs.get("iterations", args[1] if len(args) > 1 else 0)

    def count_slots(self, args, kwargs, result):
        self.counts["sim_slots"] += kwargs.get("slots", args[2] if len(args) > 2 else 0)


def _install(tracer, modules):
    hooks = {
        "nash.mixed_equilibrium": tracer.count_degenerate,
        "learning.run_fp": tracer.count_iterations,
        "simulate.run_simulation": tracer.count_slots,
    }
    absent = []
    for module_name, attribute, span in SPANS:
        module = modules.get(module_name)
        fn = getattr(module, attribute, None)
        if not callable(fn):
            absent.append(f"{module_name}.{attribute}")
            continue
        setattr(module, attribute, tracer.wrap(span, fn, hooks.get(span)))
    commands = getattr(modules["cli"], "_COMMANDS", None)
    if isinstance(commands, dict):
        for name, fn in commands.items():
            commands[name] = tracer.wrap("cli.command", fn)
    else:
        absent.append("cli._COMMANDS")
    return absent


def trace(out_path, argv):
    import gc
    import importlib
    import json
    import time

    clock = time.perf_counter
    start = clock()
    cli = importlib.import_module("crn_jamgame.cli")
    import_s = clock() - start
    modules = {"cli": cli}
    try:
        modules["simulate"] = importlib.import_module("crn_jamgame.simulate")
    except ImportError:
        pass
    tracer = Tracer(clock)
    absent = _install(tracer, modules)
    gen2_before = gc.get_stats()[2]["collections"]
    code = tracer.wrap("cli.main", cli.main)(argv)
    gen2 = gc.get_stats()[2]["collections"] - gen2_before
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "exit_code": code,
                "import_s": import_s,
                "stats": tracer.stats,
                "spans": tracer.spans,
                "counts": tracer.counts,
                "gc_gen2_collections": gen2,
                "absent": absent,
            },
            handle,
        )
    return code


def memory(out_path, argv):
    import importlib
    import json
    import tracemalloc

    cli = importlib.import_module("crn_jamgame.cli")
    measured = {}
    run_simulation = getattr(cli, "run_simulation", None)

    def measured_run(*args, **kwargs):
        tracemalloc.start()
        before = tracemalloc.get_traced_memory()[0]
        result = run_simulation(*args, **kwargs)
        after, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        slots = kwargs.get("slots", args[2] if len(args) > 2 else 0)
        measured.update(retained_bytes=after - before, peak_bytes=peak, slots=slots)
        return result

    if callable(run_simulation):
        cli.run_simulation = measured_run
    code = cli.main(argv)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"exit_code": code, **measured}, handle)
    return code


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "setup":
        sys.exit(setup(sys.argv[2:]))
    sys.exit({"trace": trace, "memory": memory}[mode](sys.argv[2], sys.argv[3:]))
