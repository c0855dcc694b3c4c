import pytest

import calibrate
from calibrate import REFERENCE_S, WINDOW_S, Calibrator


def _with_samples(points):
    calibrator = Calibrator()
    for at, cost in points:
        calibrator.at.append(at)
        calibrator.costs.append(cost)
    return calibrator


def test_scale_is_reference_over_the_mean_sample_in_the_window():
    calibrator = _with_samples([(0.0, 1e-3), (0.2, 3e-3), (5.0, 100e-3)])
    assert calibrator.scale(0.1) == pytest.approx(REFERENCE_S / 2e-3)
    # An interval's window reaches WINDOW_S beyond both of its ends.
    assert calibrator.scale(5.0 - WINDOW_S - 1.0, 5.0 - WINDOW_S) == pytest.approx(
        REFERENCE_S / 100e-3
    )


def test_scale_falls_back_to_the_nearest_sample():
    calibrator = _with_samples([(0.0, 1e-3), (10.0, 4e-3)])
    assert calibrator.scale(8.0) == pytest.approx(REFERENCE_S / 4e-3)
    assert calibrator.scale(-3.0) == pytest.approx(REFERENCE_S / 1e-3)


def test_a_host_twice_as_slow_gives_the_same_scaled_time():
    fast = _with_samples([(0.0, REFERENCE_S)])
    slow = _with_samples([(0.0, 2 * REFERENCE_S)])
    assert 0.010 * fast.scale(0.0) == pytest.approx(0.020 * slow.scale(0.0))


def test_disabled_calibrator_takes_no_samples_and_scales_by_one():
    calibrator = Calibrator(enabled=False)
    calibrator.tick(force=True)
    assert calibrator.costs == [] and calibrator.scale(0.0) == 1.0


def test_tick_samples_at_most_once_per_interval_unless_forced():
    calibrator = Calibrator()
    calibrator.tick()
    calibrator.tick()
    assert len(calibrator.costs) == 1
    calibrator.tick(force=True)
    assert len(calibrator.costs) == 2
    assert calibrator.spent_s > 0 and all(cost > 0 for cost in calibrator.costs)


def test_sampling_restores_the_collector_state():
    import gc

    assert gc.isenabled()
    calibrate.sample()
    assert gc.isenabled()
    gc.disable()
    try:
        calibrate.sample()
        assert not gc.isenabled()
    finally:
        gc.enable()
