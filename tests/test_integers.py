"""One rule for every integer argument the library takes.

Each site below takes a count, an id bound or a seed.  A bool, a float (a
whole one and numpy's included) and a value outside the site's range are
refused with a ValueError that names the argument, never read as a NaN law,
error rows or ``Outcome(day=True)``; a numpy integer in range is accepted.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from majdyn import (
    BinomSpec,
    ExperimentConfig,
    OpinionModel,
    OpinionVector,
    PSpec,
    berry_esseen_gap,
    bias_sweep,
    check_coupling,
    check_four_rv,
    contraction_experiment,
    estimate_jumbledness,
    from_edges,
    run,
    run_lemma_sweeps,
    swing_count,
)
from majdyn.graph import check_integer

PATH = from_edges(4, [(0, 1), (1, 2), (2, 3)])


def with_config(name):
    return lambda v: ExperimentConfig(**{"n": 60, "p": 0.1, name: v}).validate()


def four_rv_at(i):
    def call(v):
        ns = [50, 60, 70, 80]
        ns[i] = v
        return check_four_rv(*ns, 0.3, 2)
    return call


# (argument's name in the message, call with the value, a valid value, a value out of
# range or None where every integer is legal)
SITES = {
    "config.trials": ("trials", with_config("trials"), 2, 0),
    "config.day_cap": ("day_cap", with_config("day_cap"), 3, 0),
    "config.workers": ("workers", with_config("workers"), 1, 0),
    "config.master_seed": ("master_seed", with_config("master_seed"), 4, -1),
    "PSpec.resolve": ("n for a regime density", PSpec.lower().resolve, 100, 1),
    "contraction_experiment": (
        "bias_floor",
        lambda v: contraction_experiment(ExperimentConfig(n=60, p=0.1, master_seed=3), v), 4, 0),
    "bias_sweep": (
        "opinion sum d",
        lambda v: bias_sweep(ExperimentConfig(n=60, p=0.1, master_seed=3,
                                              model=OpinionModel("fixed_discrepancy")), [0, v]),
        2, 62),
    "OpinionModel.validate": (
        "opinion sum d",
        lambda v: OpinionModel("fixed_discrepancy", d=v).validate(60), -2, -62),
    "run": ("day_cap", lambda v: run(PATH, OpinionVector([1, -1, 1, -1]), v), 3, 0),
    "estimate_jumbledness": (
        "pairs", lambda v: estimate_jumbledness(PATH, 0.5, pairs=v), 2, 0),
    "BinomSpec": ("trials", lambda v: BinomSpec(v, 0.3), 4, -1),
    **{f"check_four_rv.n{i + 1}": (f"n{i + 1}", four_rv_at(i), 55, 0) for i in range(4)},
    "berry_esseen_gap": ("n", lambda v: berry_esseen_gap(v, 0.3), 100, 10**6 + 1),
    "run_lemma_sweeps": ("max_cases", run_lemma_sweeps, 1, 0),
    "swing_count": ("n", lambda v: swing_count(v, 1.0), 100, 0),
    "check_four_rv.ell": ("ell", lambda v: check_four_rv(50, 60, 70, 80, 0.3, v), 2, None),
    "check_coupling.ell": ("ell", lambda v: check_coupling(*[BinomSpec(10, 0.3)] * 4, v), 2, None),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("value", [2.5, np.float64(3.0), True, np.True_],
                         ids=["fraction", "numpy-whole-float", "bool", "numpy-bool"])
def test_a_non_integer_is_refused_by_name(site, value):
    name, call, _, _ = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer, got "):
        call(value)


@pytest.mark.parametrize("site", [site for site, entry in SITES.items() if entry[3] is not None])
def test_a_value_out_of_range_is_refused_by_name(site):
    name, call, _, outside = SITES[site]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must (be at least|lie in) .*, got {outside}$"):
        call(outside)


@pytest.mark.parametrize("site", SITES)
def test_a_numpy_integer_is_accepted(site):
    _, call, valid, _ = SITES[site]
    call(np.int64(valid))


@pytest.mark.parametrize("ell", [-10**6, 10**6])
def test_every_integer_ell_is_legal_beyond_the_support_too(ell):
    # the tails there are exactly 1 or 0, so both differences vanish
    assert check_four_rv(50, 60, 70, 80, 0.3, ell)[0] < 1e-12
    assert abs(check_coupling(*[BinomSpec(10, 0.3)] * 4, ell)[1]) < 1e-12


def test_the_rule_itself():
    check_integer("k", 3, 3, 3)
    check_integer("k", np.uint8(200), 0)
    check_integer("k", -2**70)  # no bound on either side
    for value, message in [
        (2**40, "k must lie in 0..7, got 1099511627776"),
        (-1, "k must lie in 0..7, got -1"),
        ("3", "k must be an integer, got '3'"),
        (None, "k must be an integer, got None"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            check_integer("k", value, 0, 7)
    with pytest.raises(ValueError, match="^k must be at least 1, got 0$"):
        check_integer("k", np.int8(0), 1)
