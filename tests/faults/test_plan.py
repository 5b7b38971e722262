"""FaultPlan / StallWindow / CrashWindow validation and the named presets."""

import pytest

from repro.errors import ExperimentError, SimulationError
from repro.faults import FAULT_PRESETS, CrashWindow, FaultPlan, StallWindow


def test_default_plan_is_disabled():
    plan = FaultPlan()
    assert not plan.enabled
    assert not plan.connection_faults_enabled
    assert plan.describe() == "no faults"


def test_plan_is_hashable_and_value_comparable():
    assert FaultPlan(segment_loss_prob=0.1) == FaultPlan(segment_loss_prob=0.1)
    assert hash(FaultPlan()) == hash(FaultPlan())
    assert FaultPlan() != FaultPlan(latency_spike_prob=0.5)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"segment_loss_prob": -0.1},
        {"segment_loss_prob": 1.5},
        {"segment_corrupt_prob": 2.0},
        {"latency_spike_prob": -1.0},
        {"reset_request_prob": 1.01},
        {"client_abort_prob": -0.5},
        {"latency_spike": -0.001},
        {"client_abort_delay": 0.0},
        {"rto": 0.0},
        {"rto": -1.0},
        {"reset_after_requests": 0},
    ],
)
def test_plan_rejects_bad_values(kwargs):
    with pytest.raises(ExperimentError):
        FaultPlan(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"segment_loss_prob": 0.01},
        {"segment_corrupt_prob": 0.01},
        {"latency_spike_prob": 0.01},
        {"reset_request_prob": 0.01},
        {"reset_after_requests": 5},
    ],
)
def test_connection_faults_enable_both_flags(kwargs):
    plan = FaultPlan(**kwargs)
    assert plan.enabled
    assert plan.connection_faults_enabled


def test_client_and_server_faults_do_not_touch_the_data_path():
    aborts = FaultPlan(client_abort_prob=0.5)
    stalls = FaultPlan(server_stalls=(StallWindow(1.0, 0.1),))
    assert aborts.enabled and not aborts.connection_faults_enabled
    assert stalls.enabled and not stalls.connection_faults_enabled


def test_stall_window_validation():
    with pytest.raises(ExperimentError):
        StallWindow(start=-1.0, duration=0.1)
    with pytest.raises(ExperimentError):
        StallWindow(start=0.0, duration=0.0)


def test_describe_lists_only_non_default_knobs():
    plan = FaultPlan(segment_loss_prob=0.03, server_stalls=(StallWindow(1.0, 0.1),))
    summary = plan.describe()
    assert "segment_loss_prob" in summary
    assert "stalls=1" in summary
    assert "latency_spike_prob" not in summary


def test_crash_windows_enable_the_plan_but_not_the_data_path():
    plan = FaultPlan(crash_windows=(CrashWindow(start=1.0, end=2.0),))
    assert plan.enabled
    assert not plan.connection_faults_enabled
    assert "crashes=1" in plan.describe()


@pytest.mark.parametrize(
    "window",
    [
        CrashWindow(start=-0.5, end=1.0),
        CrashWindow(start=1.0, end=1.0),
        CrashWindow(start=2.0, end=1.0),
        CrashWindow(start=0.0, end=1.0, instance=-1),
        CrashWindow(start=0.0, end=1.0, warmup=-0.1),
    ],
)
def test_validate_rejects_malformed_crash_windows(window):
    with pytest.raises(SimulationError):
        FaultPlan(crash_windows=(window,)).validate()


def test_validate_rejects_overlapping_windows_on_one_instance():
    plan = FaultPlan(
        crash_windows=(
            CrashWindow(start=1.0, end=3.0),
            CrashWindow(start=2.0, end=4.0),
        )
    )
    with pytest.raises(SimulationError):
        plan.validate()
    # Declaration order must not matter: the validator sorts per instance.
    reordered = FaultPlan(
        crash_windows=(
            CrashWindow(start=2.0, end=4.0),
            CrashWindow(start=1.0, end=3.0),
        )
    )
    with pytest.raises(SimulationError):
        reordered.validate()


def test_validate_accepts_back_to_back_and_cross_instance_overlap():
    plan = FaultPlan(
        crash_windows=(
            CrashWindow(start=1.0, end=2.0),
            # Touching windows are legal: the instance restarts at 2.0 and
            # crashes again in the same instant.
            CrashWindow(start=2.0, end=3.0),
            # Concurrent crash of a *different* instance is legal too.
            CrashWindow(start=1.5, end=2.5, instance=1),
        )
    )
    assert plan.validate() is plan


def test_presets_escalate():
    assert list(FAULT_PRESETS) == ["none", "mild", "moderate", "severe"]
    assert not FAULT_PRESETS["none"].enabled
    for name in ("mild", "moderate", "severe"):
        assert FAULT_PRESETS[name].enabled, name
    assert (
        FAULT_PRESETS["mild"].segment_loss_prob
        < FAULT_PRESETS["moderate"].segment_loss_prob
        < FAULT_PRESETS["severe"].segment_loss_prob
    )
    assert len(FAULT_PRESETS["severe"].server_stalls) > len(
        FAULT_PRESETS["moderate"].server_stalls
    )


# ----------------------------------------------------------------------
# Gray-failure DegradeWindows
# ----------------------------------------------------------------------

def test_degrade_windows_enable_the_plan_but_not_the_data_path():
    from repro.faults import DegradeWindow

    plan = FaultPlan(degrade_windows=(DegradeWindow(start=1.0, end=2.0),))
    assert plan.enabled
    assert not plan.connection_faults_enabled
    assert "degrades=1" in plan.describe()


def test_validate_rejects_malformed_degrade_windows():
    from repro.faults import DegradeWindow

    for window in (
        DegradeWindow(start=-0.5, end=1.0),
        DegradeWindow(start=1.0, end=1.0),
        DegradeWindow(start=2.0, end=1.0),
        DegradeWindow(start=0.0, end=1.0, instance=-1),
        DegradeWindow(start=0.0, end=1.0, share=0.0),
        DegradeWindow(start=0.0, end=1.0, share=1.0),
        DegradeWindow(start=0.0, end=1.0, share=-0.2),
    ):
        with pytest.raises(SimulationError):
            FaultPlan(degrade_windows=(window,)).validate()


def test_validate_rejects_overlapping_degrade_windows_on_one_instance():
    from repro.faults import DegradeWindow

    plan = FaultPlan(
        degrade_windows=(
            DegradeWindow(start=1.0, end=3.0),
            DegradeWindow(start=2.0, end=4.0),
        )
    )
    with pytest.raises(SimulationError):
        plan.validate()


def test_validate_rejects_crash_degrade_overlap_on_one_instance():
    """Regression: a crash and a gray failure cannot hit the same
    instance at the same time — the injector's plain set/restore of the
    CPU slowdown (and the crash path's down flag) rely on it."""
    from repro.faults import DegradeWindow

    plan = FaultPlan(
        crash_windows=(CrashWindow(start=1.0, end=3.0),),
        degrade_windows=(DegradeWindow(start=2.0, end=4.0),),
    )
    with pytest.raises(SimulationError, match="overlapping"):
        plan.validate()
    # Order of the pair must not matter.
    reordered = FaultPlan(
        crash_windows=(CrashWindow(start=2.0, end=4.0),),
        degrade_windows=(DegradeWindow(start=1.0, end=3.0),),
    )
    with pytest.raises(SimulationError, match="overlapping"):
        reordered.validate()


def test_validate_accepts_crash_and_degrade_on_different_instances():
    from repro.faults import DegradeWindow

    plan = FaultPlan(
        crash_windows=(CrashWindow(start=1.0, end=3.0),),
        degrade_windows=(
            DegradeWindow(start=2.0, end=4.0, instance=1),
            # Back-to-back with the crash on instance 0 is legal too.
            DegradeWindow(start=3.0, end=4.0),
        ),
    )
    assert plan.validate() is plan
