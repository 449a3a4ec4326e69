"""One rule for every real-number argument.

Each site below takes a density, a coefficient or a tail parameter.  A bool
(numpy's included), a string, NaN, ±inf and a value outside the site's
interval are refused with a ValueError that names the argument, never read
as 1 or as a number; an int, an ``np.float64`` and an ``np.float32`` inside
the interval are accepted.
"""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from majdyn import (
    BinomSpec,
    ExperimentConfig,
    OpinionModel,
    OpinionVector,
    PSpec,
    apply_swing,
    berry_esseen_gap,
    census,
    check_binom_shift,
    check_four_rv,
    chernoff_lower,
    chernoff_upper,
    estimate_jumbledness,
    from_edges,
    psi_pair_bound_constant,
    sample_gnp,
    sample_morning,
    swing_count,
)
from majdyn.graph import check_real

PATH = from_edges(4, [(0, 1), (1, 2), (2, 3)])
R0 = OpinionVector([1, -1, 1, -1])

# (argument's name in the message, call with the value, its interval, an int
# inside it or None where none is, a float inside it, a value outside it or
# None where every finite real is legal)
SITES = {
    "sample_gnp": ("p", lambda v: sample_gnp(10, v, 0), "[0, 1]", 1, 0.25, 1.5),
    "estimate_jumbledness": (
        "p", lambda v: estimate_jumbledness(PATH, v, pairs=2), "[0, 1]", 0, 0.5, -0.5),
    "census.p": ("p", lambda v: census(PATH, R0, [0], 0.5, v), "(0, 1]", 1, 0.5, 0),
    "census.gamma": ("gamma", lambda v: census(PATH, R0, [0], v, 0.5), "[0, inf)", 1, 0.5, -1),
    "resolved_p": ("p", lambda v: ExperimentConfig(n=60, p=v).resolved_p(), "(0, 1]", 1, 0.1, 1.5),
    "config.gamma": (
        "gamma",
        lambda v: ExperimentConfig(n=60, p=0.1, model=OpinionModel("morning_evening", c=1.0),
                                   gamma=v).validate(),
        "[0, inf)", 1, 0.5, -0.1),
    "BinomSpec": ("prob", lambda v: BinomSpec(4, v), "[0, 1]", 1, 0.3, -0.1),
    "check_binom_shift": (
        "prob", lambda v: check_binom_shift(BinomSpec(5, v), BinomSpec(4, v)), "(0, 1)", None, 0.3, 1),
    "check_four_rv": ("p", lambda v: check_four_rv(50, 60, 70, 80, v, 2), "(0, 1)", None, 0.3, 0),
    "berry_esseen_gap": ("p", lambda v: berry_esseen_gap(20, v), "(0, 1)", None, 0.3, 1.0),
    "OpinionModel.validate": (
        "swing coefficient c", lambda v: OpinionModel("morning_evening", c=v).validate(100),
        "[0, inf)", 1, 0.5, -0.5),
    "apply_swing": (
        "swing coefficient c", lambda v: apply_swing(sample_morning(100, 0), v, 1),
        "[0, inf)", 1, 0.5, -0.5),
    "swing_count": ("swing coefficient c", lambda v: swing_count(100, v), "[0, inf)", 1, 0.5, -0.5),
    "PSpec.coefficient": (
        "p_spec coefficient", lambda v: PSpec(v, -0.5, 0.0).resolve(100), "(0, inf)", 1, 0.5, 0),
    "PSpec.exponent": ("p_spec exponent", lambda v: PSpec(0.5, v, 0.0).resolve(100), None, -1, -0.5, None),
    "PSpec.log_power": ("p_spec log_power", lambda v: PSpec(0.5, -0.5, v).resolve(100), None, 1, 0.5, None),
    "chernoff_upper.mu": ("mu", lambda v: chernoff_upper(v, 1.0), "[0, inf)", 2, 2.5, -1),
    "chernoff_upper.t": ("t", lambda v: chernoff_upper(2.0, v), "[0, inf)", 1, 0.5, -0.5),
    "chernoff_lower.mu": ("mu", lambda v: chernoff_lower(v, 1.0), "[0, inf)", 2, 2.5, -1),
    "chernoff_lower.t": ("t", lambda v: chernoff_lower(2.0, v), "[0, inf)", 1, 0.5, -0.5),
    "psi_pair_bound_constant": ("c", psi_pair_bound_constant, "(0, inf)", 1, 0.5, 0),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [True, np.True_, "0.5", 0.5j],
                         ids=["bool", "numpy-bool", "string", "complex"])
def test_a_non_number_is_refused_by_name(site, value):
    name, call, *_ = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be a real number, got "):
        call(value)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan")],
                         ids=["nan", "inf", "minus-inf", "numpy-nan"])
def test_a_value_that_is_not_finite_is_refused_by_name(site, value):
    name, call, *_ = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite, got "):
        call(value)


@pytest.mark.parametrize("site", [site for site, entry in SITES.items() if entry[5] is not None])
def test_a_value_out_of_range_is_refused_by_name(site):
    name, call, interval, _, _, outside = SITES[site]
    message = f"{name} must lie in {interval}, got {outside}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(outside)


@pytest.mark.parametrize("site", [site for site, entry in SITES.items() if entry[3] is not None])
def test_an_int_in_range_is_accepted(site):
    _, call, _, inside_int, _, _ = SITES[site]
    call(inside_int)


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_numpy_float_in_range_is_accepted(site, dtype):
    _, call, _, _, inside, _ = SITES[site]
    call(dtype(inside))


def test_the_rule_itself():
    check_real("x", 0, 0, 1)
    check_real("x", 1, 0, 1)
    check_real("x", np.int8(-3), -3)
    check_real("x", 10**400, 0)  # a Python int past float range is finite
    for value, bounds, message in [
        (0.0, {"lo": 0, "hi": 1, "lo_open": True}, "x must lie in (0, 1], got 0.0"),
        (1, {"lo": 0, "hi": 1, "hi_open": True}, "x must lie in [0, 1), got 1"),
        (np.float32(1.5), {"lo": 0, "hi": 1}, "x must lie in [0, 1], got 1.5"),
        (2, {"lo": 2.5}, "x must lie in [2.5, inf), got 2"),
        (-math.inf, {"lo": 0}, "x must be finite, got -inf"),
        (None, {"lo": 0}, "x must be a real number, got None"),
        (np.array(0.5), {"lo": 0}, "x must be a real number, got array(0.5)"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_real("x", value, **bounds)
