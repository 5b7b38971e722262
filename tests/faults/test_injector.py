"""FaultInjector unit behaviour: streams, counters, hooks, stalls."""

import pytest

from repro.faults import FaultInjector, FaultPlan, StallWindow
from repro.faults import injector as injector_module
from repro.sim.core import Environment
from repro.sim.rng import SeedStreams


def make_injector(plan, seed=42):
    env = Environment()
    return FaultInjector(env, plan, SeedStreams(seed).fork("faults"))


def test_for_connection_none_when_data_path_clean():
    inj = make_injector(FaultPlan(client_abort_prob=0.5))
    assert inj.for_connection(0) is None


def test_for_client_none_without_abort_probability():
    inj = make_injector(FaultPlan(segment_loss_prob=0.5))
    assert inj.for_client(0) is None


def test_connection_streams_are_deterministic_per_index():
    plan = FaultPlan(segment_loss_prob=0.3, latency_spike_prob=0.3)
    one = make_injector(plan).for_connection(7)
    two = make_injector(plan).for_connection(7)
    draws_one = [one.chunk_delay(1448) for _ in range(50)]
    draws_two = [two.chunk_delay(1448) for _ in range(50)]
    assert draws_one == draws_two


def test_reconnects_get_fresh_streams():
    plan = FaultPlan(segment_loss_prob=0.3)
    inj = make_injector(plan)
    first = inj.for_connection(3)
    second = inj.for_connection(3)  # the slot's replacement connection
    assert first.where == "conn[3.0]"
    assert second.where == "conn[3.1]"
    assert [first.chunk_delay(1448) for _ in range(20)] != [
        second.chunk_delay(1448) for _ in range(20)
    ]


def test_zero_probability_faults_draw_no_randomness():
    # Only a count-based reset: every probabilistic knob is zero, so the
    # hook must not consume a single draw from its stream.
    plan = FaultPlan(reset_after_requests=100)
    conn = make_injector(plan).for_connection(0)
    before = conn.rng.getstate()
    assert conn.chunk_delay(1448) == 0.0
    assert conn.on_request_arrival() is False
    assert conn.rng.getstate() == before


def test_chunk_delay_components_accumulate():
    plan = FaultPlan(
        segment_loss_prob=1.0,
        segment_corrupt_prob=1.0,
        latency_spike_prob=1.0,
        latency_spike=0.007,
        rto=0.1,
    )
    inj = make_injector(plan)
    conn = inj.for_connection(0)
    assert conn.chunk_delay(1448) == pytest.approx(0.1 + 0.1 + 0.007)
    assert inj.segments_lost == 1
    assert inj.segments_corrupted == 1
    assert inj.latency_spikes == 1


def test_reset_after_requests_counts_arrivals():
    inj = make_injector(FaultPlan(reset_after_requests=3))
    conn = inj.for_connection(0)
    assert [conn.on_request_arrival() for _ in range(3)] == [False, False, True]
    assert inj.connection_resets == 1


def test_client_abort_hooks():
    inj = make_injector(FaultPlan(client_abort_prob=1.0, client_abort_delay=0.02))
    client = inj.for_client(5)
    assert client.abort_delay == 0.02
    assert client.should_abort() is True
    client.record_abort()
    assert inj.client_aborts == 1
    report = inj.report()
    assert report.client_aborts == 1
    assert report.events[-1].kind == "abort"
    assert report.events[-1].where == "client[5]"


def test_trace_is_capped_and_drops_are_counted(monkeypatch):
    monkeypatch.setattr(injector_module, "TRACE_CAP", 3)
    inj = make_injector(FaultPlan())
    for i in range(5):
        inj.record("loss", f"conn[{i}]")
    report = inj.report()
    assert len(report.events) == 3
    assert report.events_dropped == 2


def test_report_totals():
    inj = make_injector(FaultPlan(segment_loss_prob=1.0))
    conn = inj.for_connection(0)
    conn.chunk_delay(1448)
    conn.chunk_delay(1448)
    report = inj.report()
    assert report.segments_lost == 2
    assert report.total_faults == 2
    assert report == inj.report()  # frozen + value-comparable


def test_stall_window_delays_other_work(calib):
    from repro.cpu.scheduler import CPU

    def finish_time(with_stall):
        env = Environment()
        cpu = CPU(env, calib)
        if with_stall:
            plan = FaultPlan(server_stalls=(StallWindow(start=0.05, duration=0.2),))
            inj = FaultInjector(env, plan, SeedStreams(1).fork("faults"))
            inj.start_stalls(cpu)
        finished = []

        def probe():
            yield env.timeout(0.06)  # arrive mid-stall
            thread = cpu.thread("probe")
            yield thread.run(0.01, "user")
            thread.close()
            finished.append(env.now)

        env.process(probe())
        env.run(until=1.0)
        return finished[0]

    assert finish_time(with_stall=True) > finish_time(with_stall=False) + 0.05


def test_stall_is_counted_once_per_window(cpu, env, calib):
    plan = FaultPlan(
        server_stalls=(StallWindow(0.01, 0.02), StallWindow(0.05, 0.02))
    )
    inj = FaultInjector(env, plan, SeedStreams(1).fork("faults"))
    inj.start_stalls(cpu)
    env.run(until=0.2)
    assert inj.report().stall_windows == 2


# ----------------------------------------------------------------------
# Gray-failure degrade windows
# ----------------------------------------------------------------------

class _DegradeTarget:
    """The slice of the fault-target surface ``_degrade`` touches."""

    def __init__(self):
        class _Cpu:
            slowdown = 1.0

        self.cpu = _Cpu()


def test_degrade_window_stretches_and_restores_the_cpu():
    from repro.faults import DegradeWindow

    plan = FaultPlan(degrade_windows=(
        DegradeWindow(start=0.5, end=1.0, share=0.75),
    ))
    env = Environment()
    inj = FaultInjector(env, plan, SeedStreams(42).fork("faults"))
    target = _DegradeTarget()
    inj.start_degrades([target])
    samples = {}

    def sampler(env):
        yield env.timeout(0.25)
        samples["before"] = target.cpu.slowdown
        yield env.timeout(0.5)  # t=0.75, mid-window
        samples["during"] = target.cpu.slowdown
        yield env.timeout(0.5)  # t=1.25, after recovery
        samples["after"] = target.cpu.slowdown

    env.process(sampler(env))
    env.run()
    assert samples["before"] == 1.0
    # share=0.75 -> every burst stretched 4x while the window is open.
    assert samples["during"] == pytest.approx(4.0)
    assert samples["after"] == 1.0
    report = inj.report()
    assert report.degrade_windows == 1
    assert report.total_faults >= 1
    kinds = [event.kind for event in report.events]
    assert "degrade" in kinds and "recover" in kinds


def test_degrade_window_rejects_missing_instance():
    from repro.faults import DegradeWindow

    plan = FaultPlan(degrade_windows=(
        DegradeWindow(start=0.5, end=1.0, instance=3),
    ))
    env = Environment()
    inj = FaultInjector(env, plan, SeedStreams(42).fork("faults"))
    with pytest.raises(Exception):
        inj.start_degrades([_DegradeTarget()])
