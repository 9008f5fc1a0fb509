"""Timing samples scaled to the reference speed by the latest calibration
of the kind the metric's work matches."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import machine  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def bare_run(workload):
    r = object.__new__(run.Run)
    r.wl = WORKLOADS[workload]
    r.samples = {name: [] for name in run.END_TO_END}
    r.scaled = {name: [] for name in run.TIMINGS}
    return r


def test_samples_are_scaled_by_latest_calibration_of_their_kind():
    loop_ref = machine.CALIBRATIONS["loop"][1]
    array_ref = machine.CALIBRATIONS["array"][1]
    r = bare_run("wide-fast")
    # The loop work now runs at half the reference speed, the array work at
    # twice it; only the latest calibration counts.
    r.calibration = {"loop": [loop_ref, 2 * loop_ref], "array": [array_ref / 2]}
    r.record("cli_predict_s", 1.0)  # loop-bound
    r.record("train_s", 1.0)  # array-bound on wide-fast
    r.record("predict_rows_per_s", 100.0)  # array-bound rate
    assert r.samples["cli_predict_s"] == [1.0]
    assert r.scaled["cli_predict_s"] == [pytest.approx(0.5)]
    assert r.scaled["train_s"] == [pytest.approx(2.0)]
    assert r.scaled["predict_rows_per_s"] == [pytest.approx(50.0)]


def test_sweep_scales_every_timing_by_the_loop_calibration():
    loop_ref = machine.CALIBRATIONS["loop"][1]
    r = bare_run("subspace-sweep")
    r.calibration = {"loop": [loop_ref / 2]}
    r.record("train_s", 1.0)
    r.record("predict_rows_per_s", 100.0)
    assert r.scaled["train_s"] == [pytest.approx(2.0)]
    assert r.scaled["predict_rows_per_s"] == [pytest.approx(50.0)]


def test_a_bracketed_sample_is_scaled_by_the_mean_of_its_calibrations():
    loop_ref = machine.CALIBRATIONS["loop"][1]
    r = bare_run("subspace-sweep")
    r.calibration = {"loop": [loop_ref, loop_ref / 2, 3 * loop_ref / 2]}
    r.record("train_s", 1.0, calibrations=2)  # speed over the fit: reference
    assert r.scaled["train_s"] == [pytest.approx(1.0)]
