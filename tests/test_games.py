import math
import re
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crn_jamgame import Category, NetworkConfig, build_game, derived_probabilities, simulate
from crn_jamgame.games import FIRST_IS_SWITCH, BimatrixGame, ConfigError
from oracles import mc_switch_target_occupancy

REF = NetworkConfig()  # n_bands=10, n_primary=5, C_s=5, C_m=2, G_s=50, G_m=75, L_s=100


@st.composite
def configs(draw, max_bands=200, min_primary=0):
    n_bands = draw(st.integers(2, max_bands))
    n_primary = draw(st.integers(min_primary, n_bands))
    # subnormal utilities underflow to zero inside the payoff products,
    # which would void sign-based invariants that hold for the reals
    cost = st.floats(0.0, 1000.0, allow_nan=False, allow_infinity=False, allow_subnormal=False)
    return NetworkConfig(
        n_bands=n_bands,
        n_primary=n_primary,
        cost_secondary_switch=draw(cost),
        cost_malicious_switch=draw(cost),
        gain_secondary=draw(cost),
        gain_malicious=draw(cost),
        loss_secondary=draw(cost),
    )


class TestDerivedProbabilities:
    def test_reference_config(self):
        probs = derived_probabilities(REF)
        assert probs.p_primary == 0.5
        assert probs.p_just_secondary == pytest.approx(4 / 9, abs=1e-12)
        assert probs.p_secondary_and_malicious == pytest.approx(1 / 18, abs=1e-12)

    def test_no_primaries(self):
        probs = derived_probabilities(NetworkConfig(n_primary=0))
        assert probs.p_primary == 0.0
        assert probs.p_just_secondary == pytest.approx(8 / 9, abs=1e-12)
        assert probs.p_secondary_and_malicious == pytest.approx(1 / 9, abs=1e-12)

    def test_monte_carlo_oracle_confirms_formulas(self):
        """Direct placement simulation reproduces the closed forms."""
        just_secondary, both = mc_switch_target_occupancy(10, 5, trials=200_000, seed=20240)
        # 3-sigma binomial bounds at 200k trials
        assert abs(just_secondary - 4 / 9) < 3 * math.sqrt((4 / 9) * (5 / 9) / 200_000)
        assert abs(both - 1 / 18) < 3 * math.sqrt((1 / 18) * (17 / 18) / 200_000)

    @given(configs())
    @settings(max_examples=200)
    def test_probabilities_partition_the_clear_band_mass(self, config):
        probs = derived_probabilities(config)
        assert 0.0 <= probs.p_primary <= 1.0
        assert -1e-12 <= probs.p_just_secondary <= 1.0 + 1e-12
        assert -1e-12 <= probs.p_secondary_and_malicious <= 1.0 + 1e-12
        total = probs.p_just_secondary + probs.p_secondary_and_malicious
        assert abs(total - (1.0 - probs.p_primary)) <= 1e-12

    @given(configs())
    @settings(max_examples=200)
    def test_switch_target_outcomes_are_exhaustive(self, config):
        # just-secondary + primary-without-rival + rival-on-target covers everything
        probs = derived_probabilities(config)
        other = config.n_bands - 1
        total = probs.p_just_secondary + probs.p_primary * (1.0 - 1.0 / other) + 1.0 / other
        assert abs(total - 1.0) <= 1e-12

    @given(configs())
    @settings(max_examples=200)
    def test_just_secondary_factors(self, config):
        probs = derived_probabilities(config)
        expected = (1.0 - probs.p_primary) * (1.0 - 1.0 / (config.n_bands - 1))
        assert abs(probs.p_just_secondary - expected) <= 1e-12


class TestConfigValidation:
    def test_rejects_single_band(self):
        with pytest.raises(ValueError, match="n_bands"):
            NetworkConfig(n_bands=1)

    def test_rejects_more_primaries_than_bands(self):
        with pytest.raises(ValueError, match="n_primary"):
            NetworkConfig(n_bands=5, n_primary=6)

    def test_rejects_more_bands_than_a_float_holds(self):
        with pytest.raises(ValueError, match="n_bands must be finite"):
            NetworkConfig(n_bands=10**400, n_primary=0)

    def test_rejects_negative_primaries(self):
        with pytest.raises(ValueError, match="n_primary"):
            NetworkConfig(n_primary=-1)

    @pytest.mark.parametrize(
        "field",
        [
            "cost_secondary_switch",
            "cost_malicious_switch",
            "gain_secondary",
            "gain_malicious",
            "loss_secondary",
        ],
    )
    def test_rejects_negative_and_non_finite_utilities(self, field):
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: -1.0})
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: float("inf")})
        with pytest.raises(ValueError, match=field):
            NetworkConfig(**{field: float("nan")})
        with pytest.raises(ValueError, match=rf"^{field} must lie in \[0, 2\*\*1020\] \(got 10+\)$"):
            NetworkConfig(**{field: 10**400})  # an int too large for a float

    @pytest.mark.parametrize("field", NetworkConfig._fields[2:])
    def test_a_payoff_field_is_accepted_up_to_2_to_the_1020(self, field):
        # the bound itself, as a float and as an int, is accepted
        for top in (2.0**1020, 2**1020):
            assert getattr(NetworkConfig(**{field: top}), field) == top
        # the next float above it, the next int and the largest float are not, with one message naming the field
        for over in (math.nextafter(2.0**1020, math.inf), 2**1020 + 1, 1.7e308, sys.float_info.max):
            with pytest.raises(ConfigError) as error:
                NetworkConfig(**{field: over})
            assert str(error.value) == f"{field} must lie in [0, 2**1020] (got {over!r})"


class TestNetworkConfigTuple:
    def test_positional_and_keyword_construction_agree(self):
        values = (12, 3, 1.5, 2.5, 40.0, 60.0, 80.0)
        assert NetworkConfig(*values) == NetworkConfig(**dict(zip(NetworkConfig._fields, values)))
        assert NetworkConfig(*values) == values  # a plain 7-tuple
        assert NetworkConfig(12, gain_secondary=40.0) == NetworkConfig(n_bands=12, gain_secondary=40.0)
        assert REF == NetworkConfig(*NetworkConfig._field_defaults.values()) == (10, 5, 5, 2, 50, 75, 100)

    @pytest.mark.parametrize(
        "change",
        [
            {"n_bands": 1},
            {"n_bands": 10**400, "n_primary": 0},
            {"n_primary": 11},
            {"n_primary": -1},
            {"n_primary": 2.0},
            {"cost_secondary_switch": -1.0},
            {"cost_malicious_switch": True},
            {"gain_secondary": float("nan")},
            {"gain_malicious": 10**400},
            {"loss_secondary": "100"},
        ],
    )
    def test_replace_and_make_reject_what_the_constructor_rejects(self, change):
        with pytest.raises(ConfigError) as built:
            NetworkConfig(**change)
        values = {**REF._asdict(), **change}.values()
        for make in (lambda: REF._replace(**change), lambda: NetworkConfig._make(values)):
            with pytest.raises(ConfigError) as made:
                make()
            assert str(made.value) == str(built.value)

    def test_fields_cannot_be_assigned(self):
        config = NetworkConfig()
        with pytest.raises(AttributeError):
            config.n_bands = 3
        with pytest.raises(AttributeError):
            config.extra = 3  # no instance dict either
        assert config == REF


class TestCategory:
    def test_values_are_the_simulator_codes(self):
        assert [(c.name, c.value) for c in Category] == [("A", 0), ("B", 1), ("C", 2)]
        assert (simulate.A, simulate.B, simulate.C) == tuple(Category)
        # plain ints, which the slot loop's compares and indexing need
        assert {type(code) for code in (simulate.A, simulate.B, simulate.C)} == {int}


def per_entry_rule(*entries):
    """The entries as a tuple, after the per-entry test: the reference
    that BimatrixGame's construction and ``_replace`` must agree with."""
    for name, x in zip("abcdefgh", entries):
        if not -(2.0**1021) <= x <= 2.0**1021:
            raise ConfigError(f"payoff entry {name} must lie in [-2**1021, 2**1021] (got {x!r})")
    return entries


def outcome(build, *args, **kwargs):
    """What ``build`` returns, as its values and their types, or what it raises."""
    try:
        result = build(*args, **kwargs)
    except (ValueError, OverflowError, TypeError) as exc:
        return type(exc), str(exc)
    return list(result), list(map(type, result))


#: The bound 2**1021 and the next float past it.
OVER_ENTRY = math.nextafter(2.0**1021, math.inf)

# finite and non-finite floats, ints and bools, and ints too large for a float
any_entry = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([2.0**1021, -(2.0**1021), OVER_ENTRY, -OVER_ENTRY, 1e308, -1.7e308, 0.0, -0.0]),
    st.integers(-(10**6), 10**6),
    st.booleans(),
    st.sampled_from([2**1021, -(2**1021), 2**1021 + 1, 10**308, 2**1024, -(2**1024), 10**400]),
)


class TestBimatrixGame:
    def test_holds_its_eight_entries_only(self):
        game = build_game(REF, Category.B)
        assert game._fields == tuple("abcdefgh")
        assert tuple(game) == tuple(getattr(game, x) for x in "abcdefgh")

    def test_an_entry_past_2_to_the_1021_is_named(self):
        for index, name in enumerate("abcdefgh"):
            for bad in (float("inf"), float("-inf"), float("nan"), OVER_ENTRY, -OVER_ENTRY, 2**1021 + 1):
                entries = [1.0] * 8
                entries[index] = bad
                message = f"payoff entry {name} must lie in [-2**1021, 2**1021] (got {bad!r})"
                for make in (lambda: BimatrixGame(*entries), lambda: BimatrixGame(*[1.0] * 8)._replace(**{name: bad})):
                    with pytest.raises(ConfigError) as error:
                        make()
                    assert str(error.value) == message

    @pytest.mark.parametrize(
        "entries",
        [
            [2.0**1021] * 8, [-(2.0**1021)] * 8, [2.0**1021, -(2.0**1021), -(2.0**1021), 2.0**1021] * 2,
            [2.0**1021, 2**1021] * 4, [np.float64(2.0**1021)] * 8,
        ],
        ids=["eight-at-the-bound", "eight-at-minus-the-bound", "mixed-signs", "floats-and-ints", "numpy-scalars"],
    )
    def test_finite_entries_whose_sum_overflows_are_kept(self, entries):
        # each entry is finite though their sum is not: kept, with no warning
        # (NumPy would warn of an overflowing scalar add)
        replaced = BimatrixGame(*[0.0] * 8)._replace(**dict(zip("abcdefgh", entries)))
        for game in (BimatrixGame(*entries), replaced):
            assert list(game) == entries
            assert list(map(type, game)) == list(map(type, entries))

    @given(st.lists(any_entry, min_size=8, max_size=8), st.lists(st.booleans(), min_size=8, max_size=8))
    @example([0.0] * 7 + [10**400], [True] * 8)
    @example([10**400, -(10**400)] + [1.0] * 6, [True] * 8)  # ints that cancel
    @example([float("nan"), 10**400] + [1.0] * 6, [True] * 8)  # nan before a huge int
    @example([float("inf"), float("-inf")] + [1.0] * 6, [True] * 8)  # a sum of nan
    @example([True, False, 3, -4, 10**308, 10**308, 0.5, 1.0], [True] * 8)
    @example([2.0**1021, -(2.0**1021), 2**1021, -(2**1021), OVER_ENTRY, 1.0, 1.0, 1.0], [True] * 8)
    @example([1.0, 1 + 2j] + [1.0] * 6, [True] * 8)  # a complex entry has no order: TypeError
    @settings(max_examples=500, deadline=None)
    def test_construction_and_replace_follow_the_per_entry_rule(self, entries, replaced):
        # construction and _replace accept exactly what the per-entry test
        # accepts and raise the same exception, naming the same entry
        merged = [value if take else 1.0 for value, take in zip(entries, replaced)]
        changes = {name: value for name, value, take in zip("abcdefgh", entries, replaced) if take}
        expected = outcome(per_entry_rule, *merged)
        assert outcome(BimatrixGame, *merged) == expected
        assert outcome(BimatrixGame(*[1.0] * 8)._replace, **changes) == expected

#: A field over its whole accepted range, as ``test_cli.FIELD_VALUES`` draws
#: it, plus the smallest subnormal and ints up to the bound 2**1020.
extreme_field = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e307, 2.0**1020]),
    st.integers(0, 2**1020),
    st.floats(-300.0, math.log10(2.0**1020)).map(lambda x: min(10.0**x, 2.0**1020)),
)


@st.composite
def extreme_configs(draw):
    """Field tuples, each field in its accepted range."""
    n_bands = draw(st.sampled_from([2, 3, 10, 2**70]))
    n_primary = draw(st.sampled_from([0, 1, n_bands - 1, n_bands]))
    return (n_bands, n_primary, *(draw(extreme_field) for _ in range(5)))


class TestEntryBound:
    """Every payoff field at most 2**1020 keeps every entry of both games
    within 2**1021, so no sum of four entries overflows; build_game never
    fails for a NetworkConfig."""

    @given(extreme_configs())
    # a = -2**1020 - 2**1020 * 1 reaches -2**1021 exactly (p_js = 0, p_sm = 1)
    @example((2, 0, 2.0**1020, 0.0, 0.0, 0.0, 2.0**1020))
    @example((2, 0, 2**1020, 2**1020, 2**1020, 2**1020, 2**1020))
    @example((3, 1, 2.0**1020, 2.0**1020, 2.0**1020, 2.0**1020, 2.0**1020))
    @settings(max_examples=500, deadline=None)
    def test_every_entry_lies_within_2_to_the_1021(self, fields):
        config = NetworkConfig(*fields)
        for category in (Category.A, Category.B):
            game = build_game(config, category)
            assert type(game) is BimatrixGame and len(game) == 8
            assert all(abs(x) <= 2.0**1021 for x in game)
            # as the per-entry check of BimatrixGame accepts unchanged
            assert outcome(BimatrixGame, *game) == (list(game), list(map(type, game)))
            a, b, c, d, e, f, g, h = game
            assert math.isfinite(a - c + (d - b)) and math.isfinite(e - f + (h - g))

    def test_construction_make_and_replace_give_the_same_message(self):
        over = math.nextafter(2.0**1020, math.inf)
        fields = (10, 0, over, 2.0, 50.0, 75.0, 100.0)
        message = "cost_secondary_switch must lie in [0, 2**1020] (got 1.1235582092889477e+307)"
        for make in (
            lambda: NetworkConfig(*fields),
            lambda: NetworkConfig._make(fields),
            lambda: NetworkConfig(n_primary=0)._replace(cost_secondary_switch=over),
        ):
            with pytest.raises(ConfigError) as error:
                make()
            assert str(error.value) == message

    def test_the_first_invalid_field_is_named(self):
        with pytest.raises(ConfigError) as error:
            NetworkConfig(n_primary=0, cost_secondary_switch=1.7e308, gain_secondary=-1.7e308)
        assert str(error.value) == "cost_secondary_switch must lie in [0, 2**1020] (got 1.7e+308)"


class TestBuildGame:
    def test_category_a_reference_entries(self):
        game = build_game(REF, Category.A)
        assert game.a == pytest.approx(35 / 3, abs=1e-9)
        assert game.b == pytest.approx(20.0, abs=1e-9)
        assert game.c == pytest.approx(25.0, abs=1e-9)
        assert game.d == pytest.approx(-50.0, abs=1e-9)
        assert game.e == pytest.approx(13 / 6, abs=1e-9)
        assert game.f == 0.0
        assert game.g == pytest.approx(-2.0, abs=1e-9)
        assert game.h == pytest.approx(37.5, abs=1e-9)
        assert FIRST_IS_SWITCH[Category.A] == (True, True)  # both over (switch, stay)

    def test_category_b_reference_entries(self):
        game = build_game(REF, Category.B)
        assert game.a == pytest.approx(35 / 3, abs=1e-9)
        assert game.b == pytest.approx(25.0, abs=1e-9)
        assert game.c == pytest.approx(25.0, abs=1e-9)
        assert game.d == pytest.approx(-50.0, abs=1e-9)
        assert game.e == pytest.approx(25 / 6, abs=1e-9)
        assert game.f == pytest.approx(-2.0, abs=1e-9)
        assert game.g == 0.0
        assert game.h == pytest.approx(35.5, abs=1e-9)
        assert FIRST_IS_SWITCH[Category.B] == (True, False)  # jammer over (stay, switch)

    def test_category_b_switch_switch_cell_has_no_secondary_cost(self):
        # deliberate asymmetry of the analytic tables: b equals the plain
        # clean-transmission value, with no switching cost subtracted
        game = build_game(REF, Category.B)
        clear = 1.0 - derived_probabilities(REF).p_primary
        assert game.b == pytest.approx(REF.gain_secondary * clear, abs=1e-12)

    def test_zero_utilities_give_zero_game(self):
        config = NetworkConfig(
            cost_secondary_switch=0.0,
            cost_malicious_switch=0.0,
            gain_secondary=0.0,
            gain_malicious=0.0,
            loss_secondary=0.0,
        )
        for category in (Category.A, Category.B):
            game = build_game(config, category)
            assert (game.a, game.b, game.c, game.d) == (0.0, 0.0, 0.0, 0.0)
            assert (game.e, game.f, game.g, game.h) == (0.0, 0.0, 0.0, 0.0)

    def test_rejects_category_c(self):
        # a programming error, not an invalid config
        with pytest.raises(ValueError, match="category C") as error:
            build_game(REF, Category.C)
        assert type(error.value) is ValueError
        # the simulator's code for A and the label "A" are not categories: named, not taken for C
        for value, shown in ((simulate.A, "0"), ("A", "'A'")):
            with pytest.raises(ValueError, match=re.escape(f"(got {shown})")) as error:
                build_game(REF, value)
            assert type(error.value) is ValueError
            assert "category C" not in str(error.value)

    @given(configs())
    @settings(max_examples=100)
    def test_deterministic_construction(self, config):
        for category in (Category.A, Category.B):
            first = build_game(config, category)
            second = build_game(config, category)
            assert first == second

    @given(configs(max_bands=50))
    @settings(max_examples=150)
    def test_stay_stay_loses_for_secondary(self, config):
        if config.loss_secondary > 0 and config.n_primary < config.n_bands:
            game = build_game(config, Category.A)
            assert game.d < 0

    @given(configs(max_bands=50), st.floats(0.1, 100.0))
    @settings(max_examples=150)
    def test_raising_jam_gain_only_helps_the_jammer(self, config, bump):
        if config.n_primary == config.n_bands:
            return  # a fully occupied spectrum zeroes the jam probabilities
        richer = NetworkConfig(
            n_bands=config.n_bands,
            n_primary=config.n_primary,
            cost_secondary_switch=config.cost_secondary_switch,
            cost_malicious_switch=config.cost_malicious_switch,
            gain_secondary=config.gain_secondary,
            gain_malicious=config.gain_malicious + bump,
            loss_secondary=config.loss_secondary,
        )
        for category in (Category.A, Category.B):
            base = build_game(config, category)
            more = build_game(richer, category)
            assert more.e > base.e
            assert more.h > base.h
            assert (more.a, more.b, more.c, more.d) == (base.a, base.b, base.c, base.d)

