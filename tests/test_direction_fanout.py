"""A swept profile's directions run on AFFSOB_THREADS threads: the values
do not depend on the thread count, and every share keeps the caller's
numpy error state and hands its failures to the caller."""

import json
import sys
import threading

import numpy as np
import pytest

from affsob import (AnalyticField, NumericalFailureError, QuadratureBundle,
                    RadialSpec, SmoothnessParams, cli_main,
                    directional_profile)
from affsob.seminorms import higher_difference_energy

# the benchmark's base tier: 36 box nodes, 32 sphere nodes, 16 panels
BASE_TIER = {"box_nodes": 36, "sphere_nodes": 32, "t_panels": 16}


@pytest.fixture(scope="module")
def base():
    return QuadratureBundle.default(
        2, box_nodes=BASE_TIER["box_nodes"],
        sphere_resolution=BASE_TIER["sphere_nodes"],
        radial_spec=RadialSpec(panels=BASE_TIER["t_panels"]))


# even p has a closed form and no sweep, so the swept exponents are odd and
# non-integer
@pytest.mark.parametrize("p", [3.0, 2.5])
@pytest.mark.parametrize("s", [0.5, 1.5])
@pytest.mark.parametrize("member", ["radial", "twobump", "hermite"])
def test_profile_is_identical_for_every_thread_count(monkeypatch, family,
                                                     base, member, s, p):
    profiles = []
    for threads in ("1", "2", "7"):
        monkeypatch.setenv("AFFSOB_THREADS", threads)
        profiles.append(directional_profile(family[member],
                                            SmoothnessParams(s, p), base))
    for other in profiles[1:]:
        assert np.array_equal(other.values, profiles[0].values)
        assert np.array_equal(other.tail_interval, profiles[0].tail_interval)


def test_profile_survives_frequent_thread_switches(monkeypatch, radial, base):
    # more threads than cores, switching every microsecond: a result stored
    # at the wrong index or lost would change the profile
    params = SmoothnessParams(0.5, 3.0)
    monkeypatch.setenv("AFFSOB_THREADS", "1")
    want = directional_profile(radial, params, base).values
    monkeypatch.setenv("AFFSOB_THREADS", "7")
    threads_before = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = directional_profile(radial, params, base).values
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(got, want)
    # the helpers have finished and been joined when the profile returns
    assert threading.active_count() == threads_before


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_boosted_energy_is_identical_for_every_thread_count(monkeypatch,
                                                            radial, base, s):
    # in 2-D the boosted difference orders are 2 (s = 0.5) and 4 (s = 1.5),
    # the even orders whose middle line is evaluated once per direction
    values = []
    for threads in ("1", "2", "7"):
        monkeypatch.setenv("AFFSOB_THREADS", threads)
        values.append(higher_difference_energy(radial,
                                               SmoothnessParams(s, 3.0), base))
    assert values[1] == values[0] and values[2] == values[0]


def test_field_without_terms_sweeps_to_zeros(monkeypatch, base):
    monkeypatch.setenv("AFFSOB_THREADS", "2")
    empty = AnalyticField(2, [])
    nodes = np.array([[0.0, 0.0], [1.0, -1.0]])
    samples = empty.difference_lp_samples(np.array([1.0, 0.0]),
                                          np.array([0.1, 1.0]), 2, 3.0,
                                          nodes, np.ones(2))
    assert np.array_equal(samples, np.zeros(2))
    profile = directional_profile(empty, SmoothnessParams(1.5, 3.0), base)
    assert np.array_equal(profile.values, np.zeros_like(profile.values))


def _spy_sweep(monkeypatch, before):
    """Replace difference_lp_samples by a wrapper that calls before(),
    then the original."""
    original = AnalyticField.difference_lp_samples

    def spy(self, *args):
        before()
        return original(self, *args)

    monkeypatch.setattr(AnalyticField, "difference_lp_samples", spy)


def test_every_share_keeps_the_callers_error_state(monkeypatch, radial, base):
    # np.errstate is a context variable, which a new thread does not inherit
    monkeypatch.setenv("AFFSOB_THREADS", "2")
    seen = []
    _spy_sweep(monkeypatch, lambda: seen.append(
        (threading.get_ident(), np.geterr()["over"])))
    with np.errstate(over="ignore"):
        directional_profile(radial, SmoothnessParams(0.5, 3.0), base)
    assert len({ident for ident, _ in seen}) == 2
    assert {state for _, state in seen} == {"ignore"}


def _fail_in_helpers(monkeypatch, raised):
    def before():
        if threading.current_thread() is not threading.main_thread():
            raised.append(NumericalFailureError("helper share failed"))
            raise raised[-1]

    monkeypatch.setenv("AFFSOB_THREADS", "2")
    _spy_sweep(monkeypatch, before)


def test_helper_failure_reaches_the_caller_unchanged(monkeypatch, radial,
                                                     base):
    raised = []
    _fail_in_helpers(monkeypatch, raised)
    with pytest.raises(NumericalFailureError) as info:
        directional_profile(radial, SmoothnessParams(0.5, 3.0), base)
    assert len(raised) == 1 and info.value is raised[0]


def test_helper_failure_exits_the_cli_with_code_3(monkeypatch, tmp_path,
                                                  capsys):
    raised = []
    _fail_in_helpers(monkeypatch, raised)
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"dimension": 2, "s": 0.5, "p": 3.0,
                                  "field": "radial", "quadrature": BASE_TIER}),
                      encoding="utf-8")
    assert cli_main(["energy", "--config", str(config)]) == 3
    assert raised
    assert "numerical failure: helper share failed" in capsys.readouterr().err
