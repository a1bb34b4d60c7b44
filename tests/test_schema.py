import dataclasses
import json
import math
import re
from pathlib import Path

from hypothesis import example, given
from hypothesis import strategies as st

from ddpm1d import schema
from ddpm1d.diffusion import SamplerOptions
from ddpm1d.errors import ConfigError
from ddpm1d.experiment import ExperimentConfig
from ddpm1d.noise import FAMILIES, NoiseSpec

README = Path(__file__).resolve().parents[1] / "README.md"

# anything JSON can hold, including values no field accepts: NaN, +-inf, numbers
# as strings, integers beyond float range (json.loads reads a 401-digit literal
# as an int)
junk = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
    | st.sampled_from([10**400, -(10**400), "0.001", "3", "true"]),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=2),
    max_leaves=4,
)


def plausible(cls, f):
    """In-range values of a field: its choices, or numbers near its default."""
    default = getattr(cls(), f.name)
    if "choices" in f.metadata:
        return st.sampled_from(f.metadata["choices"])
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):  # 3.0 is read as 3
        return st.integers(default, 2 * default + 1) | st.just(float(default))
    # integral values as ints: 7 is read as 7.0
    return st.floats(default / 2, default).map(lambda x: int(x) if x.is_integer() else x)


def edges(bound):
    """A bound and its neighbours on either side: the next float, or the next
    integer."""
    if isinstance(bound, float):
        return [bound, math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    return [bound, bound - 1, bound + 1]


def near_misses(default, metadata):
    """Values of the wrong type for a field with this default, each of which a
    coercing reader would accept, and the edges of the field's bounds."""
    bounds = [x for op in (">=", "<=", ">") if op in metadata for x in edges(metadata[op])]
    if isinstance(default, bool):
        return [int(default), json.dumps(default)]
    if isinstance(default, int):
        return [True, str(default), default + 0.5] + bounds
    if isinstance(default, float):
        return [True, str(default), 10**400] + bounds
    if isinstance(default, NoiseSpec):
        return [default.family, [], 5, schema.to_json(default)]
    return [None]


@st.composite
def with_junk(draw, valid, misses):
    """A valid-looking object, half of the time with a near miss or junk under
    one schema or unknown key."""
    d = draw(valid)
    if draw(st.booleans()):
        key = draw(st.sampled_from(sorted(misses)))
        near = st.sampled_from(misses[key])
        d[key] = draw(st.one_of(near, near, junk))
    return d


def objects(cls, nested, unknown, required=()):
    fields = dataclasses.fields(cls)
    values = {f.name: nested if f.name == "noise" else plausible(cls, f) for f in fields}
    valid = st.fixed_dictionaries({k: values.pop(k) for k in required}, optional=values)
    misses = {f.name: near_misses(getattr(cls(), f.name), f.metadata) for f in fields}
    return with_junk(valid, misses | dict.fromkeys(unknown, [None]))


noise_objects = objects(NoiseSpec, None, ["spread"], required=["family"])
noise_specs = st.builds(NoiseSpec, st.sampled_from(FAMILIES), st.floats(0.0, 1.0),
                        st.floats(0.01, 1000.0), st.booleans())
config_objects = objects(ExperimentConfig, noise_objects, ["momentum"])
# both always given, so a mixture passed with normalize_mixture is common
config_keywords = objects(ExperimentConfig, noise_specs, [],
                          required=["noise", "normalize_mixture"])


def echoes(given_value, echoed):
    """The echo equals the input, as a bool only for a bool and as a string
    only for a string: 3.0 may come back as 3, but true not as 1.0."""
    def kind(v):
        return type(v) if isinstance(v, (bool, str)) else None
    return echoed == given_value and kind(echoed) == kind(given_value)


def assert_well_typed(obj):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        assert type(value) is type(getattr(type(obj)(), f.name)), f.name
        if dataclasses.is_dataclass(value):
            assert_well_typed(value)


def assert_json_roundtrip(cfg):
    assert_well_typed(cfg)
    echo = json.loads(json.dumps(cfg.to_dict()))
    assert ExperimentConfig.from_dict(echo) == cfg
    return echo


@given(config_objects)
@example({"x0": 10**400})
@example({"noise": {"family": "gaussian", "mix_prob": 0.3}})
def test_any_json_object_parses_to_a_roundtripping_config_or_raises_config_error(d):
    try:
        cfg = ExperimentConfig.from_dict(d)
    except ConfigError:
        return
    echo = assert_json_roundtrip(cfg)
    for key, value in d.items():
        if key != "noise":
            assert echoes(value, echo[key]), key
    for key, value in d.get("noise", {}).items():
        if key != "normalize":  # normalize_mixture may set it
            assert echoes(value, echo["noise"][key]), key


@given(config_keywords)
@example({"noise": NoiseSpec("mixture", 0.5, 100.0), "normalize_mixture": True})
def test_keyword_construction_roundtrips_or_raises_config_error(kw):
    try:
        cfg = ExperimentConfig(**kw)
    except ConfigError:
        return
    assert_json_roundtrip(cfg)


def test_readme_configuration_block_is_the_defaults():
    section = README.read_text().split("## Configuration", 1)[1]
    block = json.loads(re.search(r"```json\n(.*?)```", section, re.S).group(1))
    assert ExperimentConfig.from_dict(block) == ExperimentConfig()
    assert set(block) == set(ExperimentConfig().to_dict())


def test_every_field_rule_is_one_the_schema_reads():
    # a misspelt bound, such as ">=0" or "min", would otherwise check nothing
    read = {"choices", *schema._BOUNDS}
    assert read == {"choices", ">=", "<=", ">"}
    for cls in (ExperimentConfig, NoiseSpec, SamplerOptions):
        for f in dataclasses.fields(cls):
            assert set(f.metadata) <= read, (cls.__name__, f.name)
