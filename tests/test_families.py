"""Pins how every parameter of the ten closed-form families is read from,
checked against and written to the JSON model config."""

import math

import pytest

from hjsim.model import (AffineClippedRate, BoundedSmoothDrift, ConfigError,
                         ConstantDiffusion, ConstantJump, ConstantRate,
                         LinearDampingJump, LinearDrift, PowerBoundedJump,
                         SigmoidRate, SmoothBoundedDiffusion, model_from_dict,
                         model_to_dict)

from helpers import reference_model

# (path of the variant in the config, its class, the literal config it is
# built from, {parameter: {value outside the family's range: field named}}).
# Values 0 and -1.0 of every parameter are listed; one mapped to None is valid.
FAMILIES = [
    ("rates[0]", AffineClippedRate,
     {"type": "affine_clipped", "floor": 0.1, "intercept": 1.0, "slope": 0.75},
     {"floor": {0: "rates[0].floor", -1.0: "rates[0].floor"},
      "intercept": {0: None, -1.0: None},
      "slope": {0: None, -1.0: None}}),
    ("rates[0]", SigmoidRate,
     {"type": "sigmoid", "height": 2.0, "steepness": 1.5, "center": -0.5},
     {"height": {0: "rates[0].height", -1.0: "rates[0].height"},
      "steepness": {0: "rates[0].steepness", -1.0: "rates[0].steepness"},
      "center": {0: None, -1.0: None}}),
    ("rates[0]", ConstantRate,
     {"type": "constant", "level": 1.5},
     {"level": {0: "rates[0].level", -1.0: "rates[0].level"}}),
    ("coefficients.drift", LinearDrift,
     {"type": "linear", "rate": 1.0, "intercept": 0.25},
     {"rate": {0: None, -1.0: None},
      "intercept": {0: None, -1.0: None}}),
    ("coefficients.drift", BoundedSmoothDrift,
     {"type": "bounded_smooth", "amplitude": 2.0, "steepness": 0.5},
     {"amplitude": {0: "coefficients.drift.amplitude", -1.0: "coefficients.drift.amplitude"},
      "steepness": {0: "coefficients.drift.steepness", -1.0: "coefficients.drift.steepness"}}),
    ("coefficients.diffusion", ConstantDiffusion,
     {"type": "constant", "value": 1.0},
     {"value": {0: None, -1.0: "coefficients.diffusion.value"}}),
    ("coefficients.diffusion", SmoothBoundedDiffusion,
     {"type": "smooth_bounded", "lo": 0.5, "hi": 1.5},
     {"lo": {0: "coefficients.diffusion", -1.0: "coefficients.diffusion",
             2.0: "coefficients.diffusion"},
      "hi": {0: "coefficients.diffusion", -1.0: "coefficients.diffusion",
             0.25: "coefficients.diffusion"}}),
    ("coefficients.jump", ConstantJump,
     {"type": "constant", "size": 0.3},
     {"size": {0: None, -1.0: None}}),
    ("coefficients.jump", LinearDampingJump,
     {"type": "linear_damping", "eta": 0.5},
     {"eta": {0: None, -1.0: "coefficients.jump.eta", 2: None,
              2.5: "coefficients.jump.eta"}}),
    ("coefficients.jump", PowerBoundedJump,
     {"type": "power_bounded", "coeff": 1.5, "exponent": 0.5},
     {"coeff": {0: None, -1.0: None},
      "exponent": {0: None, -1.0: None, 1: "coefficients.jump.exponent",
                   1.5: "coefficients.jump.exponent"}}),
]

# Parameters with a default: a config may leave them out.
DEFAULTS = {(LinearDrift, "intercept"): 0.0, (BoundedSmoothDrift, "steepness"): 1.0}

# Values no parameter accepts, whatever its range.
NOT_NUMBERS = {"a string": "1.0", "a bool": True, "null": None, "10**400": 10 ** 400,
               "nan": math.nan, "inf": math.inf}

_MISSING = object()


def _config_with(path: str, variant: dict) -> dict:
    d = model_to_dict(reference_model())
    if path == "rates[0]":
        d["rates"][0] = variant
    else:
        d["coefficients"][path.split(".")[1]] = variant
    return d


def _variant(model, path: str):
    return model.rates[0] if path == "rates[0]" else getattr(
        model.coefficients, path.split(".")[1])


def _edited(config: dict, param: str, value) -> dict:
    out = dict(config)
    if value is _MISSING:
        del out[param]
    else:
        out[param] = value
    return out


def _cases():
    for path, cls, config, ranges in FAMILIES:
        for param, by_value in ranges.items():
            tag = f"{config['type']}-{param}"
            missing = None if (cls, param) in DEFAULTS else f"{path}.{param}"
            yield pytest.param(path, cls, config, param, _MISSING, missing,
                               id=f"{path}-{tag}-missing")
            for name, value in NOT_NUMBERS.items():
                yield pytest.param(path, cls, config, param, value, f"{path}.{param}",
                                   id=f"{path}-{tag}-{name}")
            for value, field in by_value.items():
                yield pytest.param(path, cls, config, param, value, field,
                                   id=f"{path}-{tag}-{value!r}")


@pytest.mark.parametrize("path, cls, config, param, value, field", list(_cases()))
def test_parameter_value_names_field(path, cls, config, param, value, field):
    d = _config_with(path, _edited(config, param, value))
    if field is not None:
        with pytest.raises(ConfigError) as err:
            model_from_dict(d)
        assert err.value.field == field
        return
    f = _variant(model_from_dict(d), path)
    assert type(f) is cls
    want = DEFAULTS[(cls, param)] if value is _MISSING else value
    assert getattr(f, param) == want
    assert isinstance(getattr(f, param), float)


@pytest.mark.parametrize("path, cls, config", [fam[:3] for fam in FAMILIES],
                         ids=[fam[2]["type"] + "-" + fam[0] for fam in FAMILIES])
def test_to_dict_is_the_literal_config(path, cls, config):
    f = _variant(model_from_dict(_config_with(path, config)), path)
    assert type(f) is cls
    assert f.to_dict() == config
    assert list(f.to_dict()) == list(config)
    assert cls.from_dict(f.to_dict(), path) == f


@pytest.mark.parametrize("path, cls, config, param, value", [
    pytest.param(path, cls, config, param, value, id=f"{config['type']}-{param}-{value!r}")
    for path, cls, config, ranges in FAMILIES
    for param, by_value in ranges.items()
    for value in [math.nan] + [v for v, field in by_value.items() if field is not None]
])
def test_constructor_names_parameter(path, cls, config, param, value):
    kwargs = {k: v for k, v in config.items() if k != "type"}
    kwargs[param] = value
    with pytest.raises(ValueError) as err:
        cls(**kwargs)
    assert param in str(err.value)
