"""Unit and property tests for the SchedulerSpec grammar."""

import math
import random
import string
import struct

import pytest
from hypothesis import given, strategies as st

from repro.scheduling import GAScheduler, HeuristicScheduler
from repro.service import SchedulerSpec, format_option_value, parse_option_value


class TestParse:
    def test_bare_name(self):
        spec = SchedulerSpec.parse("static")
        assert spec.name == "static"
        assert spec.options == ()
        assert str(spec) == "static"

    def test_typed_option_values(self):
        spec = SchedulerSpec.parse(
            "ga:generations=50,population_size=40,crossover_probability=0.9,"
            "seed_with_heuristic=true,seed=none,label=fast"
        )
        assert spec.options_dict() == {
            "generations": 50,
            "population_size": 40,
            "crossover_probability": 0.9,
            "seed_with_heuristic": True,
            "seed": None,
            "label": "fast",
        }

    def test_options_are_key_sorted_and_order_insensitive(self):
        a = SchedulerSpec.parse("ga:b=1,a=2")
        b = SchedulerSpec.parse("ga:a=2,b=1")
        assert a == b
        assert hash(a) == hash(b)
        assert str(a) == "ga:a=2,b=1"

    def test_whitespace_is_tolerated_around_tokens(self):
        spec = SchedulerSpec.parse(" ga : generations = 5 , seed = 7 ")
        assert spec.name == "ga"
        assert spec.options_dict() == {"generations": 5, "seed": 7}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            ":",
            "ga:",
            "ga:generations",
            "ga:generations=5,generations=6",
            "ga:bad key=1",
            "bad name:x=1",
            "ga:=5",
        ],
    )
    def test_invalid_specs_are_rejected(self, text):
        with pytest.raises(ValueError):
            SchedulerSpec.parse(text)

    def test_non_string_input_raises_type_error(self):
        with pytest.raises(TypeError):
            SchedulerSpec.parse(42)

    def test_non_finite_float_literals_stay_strings(self):
        """Regression: 'nan'/'inf' must not parse to floats format() refuses."""
        spec = SchedulerSpec.parse("m:a=nan,b=inf,c=1e999")
        assert spec.options_dict() == {"a": "nan", "b": "inf", "c": "1e999"}
        assert SchedulerSpec.parse(spec.format()) == spec

    def test_coerce_accepts_both_forms(self):
        spec = SchedulerSpec.parse("static")
        assert SchedulerSpec.coerce(spec) is spec
        assert SchedulerSpec.coerce("static") == spec


class TestFormat:
    def test_unrepresentable_strings_are_rejected(self):
        for value in ("true", "none", "1", "1.5", "has space", "a,b", "x=y", ""):
            with pytest.raises(ValueError):
                format_option_value(value)

    def test_non_finite_floats_are_rejected(self):
        for value in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                format_option_value(value)

    def test_dict_form_carries_what_the_grammar_cannot(self):
        spec = SchedulerSpec("static", {"label": "has space"})
        with pytest.raises(ValueError):
            spec.format()
        assert SchedulerSpec.from_dict(spec.to_dict()) == spec


class TestDictRoundTrip:
    def test_to_from_dict(self):
        spec = SchedulerSpec.parse("ga:generations=5,seed=7")
        data = spec.to_dict()
        assert data == {"name": "ga", "options": {"generations": 5, "seed": 7}}
        assert SchedulerSpec.from_dict(data) == spec

    def test_from_dict_accepts_spec_strings(self):
        assert SchedulerSpec.from_dict("ga:seed=3") == SchedulerSpec.parse("ga:seed=3")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown spec fields"):
            SchedulerSpec.from_dict({"name": "ga", "optoins": {}})


class TestResolve:
    def test_resolves_through_the_registry(self):
        scheduler = SchedulerSpec.parse("ga:generations=3,population_size=8,seed=1").resolve()
        assert isinstance(scheduler, GAScheduler)
        assert scheduler.config.generations == 3
        assert scheduler.config.population_size == 8
        assert scheduler.config.seed == 1

    def test_bare_spec_resolves_default_instance(self):
        assert isinstance(SchedulerSpec.parse("static").resolve(), HeuristicScheduler)

    def test_unknown_scheduler_raises_key_error(self):
        with pytest.raises(KeyError, match="no-such"):
            SchedulerSpec.parse("no-such").resolve()

    def test_rejected_option_names_the_factory(self):
        with pytest.raises(TypeError, match="GAScheduler"):
            SchedulerSpec.parse("ga:bogus=1").resolve()
        with pytest.raises(TypeError, match="HeuristicScheduler"):
            SchedulerSpec.parse("static:bogus=1").resolve()


# -- property-based round-trip -------------------------------------------------

# Hypothesis draws one seeded ``random.Random`` per spec and every choice
# comes from it: regex strategies drawing names, keys and values character by
# character made generating a spec cost more than checking it.

_NAME_CHARS = string.ascii_letters + string.digits + "_"
_VALUE_CHARS = string.ascii_letters + string.digits + "_.-"
#: Floats whose text the grammar must carry exactly.
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, 1e16, 0.1)


def _word(rng: random.Random, first: str, rest: str) -> str:
    return rng.choice(first) + "".join(rng.choice(rest) for _ in range(rng.randint(0, 15)))


def _is_plain_string(text: str) -> bool:
    value = parse_option_value(text)
    return isinstance(value, str) and value == text


def _finite_float(rng: random.Random) -> float:
    pick = rng.randrange(4)
    if pick == 0:
        return rng.choice(_EDGE_FLOATS)
    if pick == 1:
        return float(rng.randint(-(10**6), 10**6))
    if pick == 2:
        return rng.uniform(-1e3, 1e3)
    while True:  # any finite double, by its bits
        value = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(value):
            return value


def _option_value(rng: random.Random):
    pick = rng.randrange(5)
    if pick == 0:
        return rng.random() < 0.5
    if pick == 1:
        return None
    if pick == 2:
        return rng.choice((0, -(10**12), 10**12, rng.randint(-(10**12), 10**12)))
    if pick == 3:
        return _finite_float(rng)
    while True:
        text = _word(rng, string.ascii_letters, _VALUE_CHARS)
        if _is_plain_string(text):
            return text


def _random_spec(rng: random.Random) -> SchedulerSpec:
    """A name, and up to six options of every value type."""
    options = {
        _word(rng, string.ascii_letters + "_", _NAME_CHARS): _option_value(rng)
        for _ in range(rng.randint(0, 6))
    }
    return SchedulerSpec(_word(rng, _NAME_CHARS, _NAME_CHARS + "-"), options)


_specs = st.integers(0, 2**64 - 1).map(random.Random).map(_random_spec)


def test_the_drawn_specs_cover_every_kind():
    """The kinds of spec the earlier Hypothesis strategies drew all occur."""
    specs = [_random_spec(random.Random(seed)) for seed in range(300)]
    values = [value for spec in specs for _, value in spec.options]
    assert {type(value) for value in values} == {bool, type(None), int, float, str}
    assert {len(spec.options) for spec in specs} == set(range(7))
    floats = [value for value in values if type(value) is float]
    assert any(math.copysign(1.0, value) < 0 and value == 0 for value in floats)
    assert any(0 < abs(value) < 2.2250738585072014e-308 for value in floats)
    assert any(abs(value) > 1e300 for value in floats)
    assert any(spec.name[0].isdigit() for spec in specs)
    assert any("-" in spec.name for spec in specs)
    assert any(key.startswith("_") for spec in specs for key, _ in spec.options)


@given(spec=_specs)
def test_parse_format_round_trip(spec):
    """parse(format(spec)) recovers the spec exactly — values, types and all."""
    text = spec.format()
    recovered = SchedulerSpec.parse(text)
    assert recovered == spec
    for (key_a, value_a), (key_b, value_b) in zip(recovered.options, spec.options):
        assert key_a == key_b
        assert type(value_a) is type(value_b)
    assert recovered.format() == text


@given(spec=_specs)
def test_dict_round_trip(spec):
    assert SchedulerSpec.from_dict(spec.to_dict()) == spec
