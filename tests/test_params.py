import dataclasses
import math

import pytest

from eitcool.params import ModelParams

# lambda_coupling is eta under another name; bath is a label
NUMERIC_FIELDS = [f.name for f in dataclasses.fields(ModelParams)
                  if f.name not in ("lambda_coupling", "bath")]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", NUMERIC_FIELDS)
def test_non_finite_field_is_named(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        ModelParams(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_lambda_coupling_is_checked_under_its_own_name(value):
    with pytest.raises(ValueError, match="^lambda_coupling must be finite"):
        ModelParams(lambda_coupling=value)


def test_eta_and_lambda_coupling_must_agree():
    with pytest.raises(ValueError, match=r"^eta \(0\.1\) and lambda_coupling \(0\.2\) "
                                         "disagree"):
        ModelParams(eta=0.1, lambda_coupling=0.2)


def test_split_decays_must_fit_in_the_total():
    with pytest.raises(ValueError, match="^gamma_plus \\+ gamma_minus exceeds gamma_total$"):
        ModelParams(gamma_total=1.0, gamma_plus=0.6, gamma_minus=0.6)
