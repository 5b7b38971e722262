"""Basic CPU scheduler behaviour: bursts, accounting, thread lifecycle."""

import pytest

from repro.calibration import default_calibration
from repro.cpu.scheduler import CPU
from repro.errors import SimulationError
from repro.sim.core import Environment


def run_burst(env, thread, duration, kind="user"):
    def worker(env, thread):
        yield thread.run(duration, kind)

    process = env.process(worker(env, thread))
    env.run()
    return process


def test_single_burst_takes_its_duration_plus_switch(env, cpu, calib):
    thread = cpu.thread()
    run_burst(env, thread, 1e-3)
    # One context switch onto the idle core, then the burst.
    expected = 1e-3 + calib.context_switch_cost(1)
    assert env.now == pytest.approx(expected)


def test_burst_charges_user_time(env, cpu):
    thread = cpu.thread()
    run_burst(env, thread, 2e-3, "user")
    assert cpu.counters.busy_user == pytest.approx(2e-3)


def test_burst_charges_system_time(env, cpu, calib):
    thread = cpu.thread()
    run_burst(env, thread, 2e-3, "system")
    # busy_system includes the switch cost.
    assert cpu.counters.busy_system == pytest.approx(2e-3 + calib.context_switch_cost(1))
    assert cpu.counters.busy_user == 0.0


def test_run_split_charges_both_kinds(env, cpu):
    thread = cpu.thread()

    def worker(env, thread):
        yield thread.run_split(1e-3, 0.5e-3)

    env.process(worker(env, thread))
    env.run()
    assert cpu.counters.busy_user == pytest.approx(1e-3)
    assert cpu.counters.busy_system >= 0.5e-3


def test_zero_burst_completes_without_core(env, cpu):
    thread = cpu.thread()
    event = thread.run(0.0)
    assert event.triggered
    assert cpu.counters.context_switches == 0


def test_unknown_kind_rejected(env, cpu):
    thread = cpu.thread()
    with pytest.raises(ValueError):
        thread.run(1e-3, "wizard")


def test_negative_duration_rejected(env, cpu):
    thread = cpu.thread()
    with pytest.raises(ValueError):
        thread.run_split(-1.0, 0.0)


def test_double_outstanding_burst_rejected(env, cpu):
    thread = cpu.thread()
    thread.run(1e-3)
    with pytest.raises(SimulationError):
        thread.run(1e-3)


def test_closed_thread_rejects_bursts(env, cpu):
    thread = cpu.thread()
    thread.close()
    with pytest.raises(SimulationError):
        thread.run(1e-3)


def test_close_updates_live_thread_count(env, cpu):
    t1 = cpu.thread()
    t2 = cpu.thread()
    assert cpu.live_threads == 2
    t1.close()
    assert cpu.live_threads == 1
    t1.close()  # idempotent
    assert cpu.live_threads == 1
    del t2


def test_syscall_counts_and_charges(env, cpu, calib):
    thread = cpu.thread()

    def worker(env, thread):
        yield thread.syscall(bytes_copied=1000)

    env.process(worker(env, thread))
    env.run()
    assert cpu.counters.syscalls == 1
    assert cpu.counters.busy_user == pytest.approx(calib.syscall_user_cost)
    assert cpu.counters.busy_system >= calib.syscall_kernel_cost + 1000 * calib.copy_cost_per_byte


def test_multicore_runs_in_parallel():
    env = Environment()
    calib = default_calibration(cores=4)
    cpu = CPU(env, calib)

    def worker(env, thread):
        yield thread.run(1e-3)

    for _ in range(4):
        env.process(worker(env, cpu.thread()))
    env.run()
    # Four 1ms bursts on four cores finish in ~1ms, not 4ms.
    assert env.now < 2e-3


def test_run_until_burst_keeps_the_core_running(env, cpu):
    """Stopping the run inside a burst completion (the completion's
    callbacks raise StopSimulation) must not strand the core busy."""
    t1, t2 = cpu.thread(), cpu.thread()
    env.run(until=t1.run(1e-4))
    done = t2.run(2e-4)
    env.run()
    assert done.processed
    assert cpu.runnable_count == 0


def test_failing_completion_callback_keeps_the_core_running(env, cpu):
    """A completion callback that raises escapes run(); the core still
    dispatches the next burst in the following run."""
    t1, t2 = cpu.thread(), cpu.thread()

    def boom(event):
        raise RuntimeError("callback failed")

    t1.run(1e-4).callbacks.append(boom)
    with pytest.raises(RuntimeError):
        env.run()
    done = t2.run(2e-4)
    env.run()
    assert done.processed
    assert cpu.counters.bursts == 2


@pytest.mark.parametrize(
    "created, closed",
    [(200, 0), (200, 150), (20, 10), (17, 0)],
)
def test_footprint_factor_inflates_user_work(calib, created, closed):
    """User work is inflated by the factor of the live-thread count at
    submit time, counting closed threads out (20 created, 10 closed is
    back under the footprint-free limit: factor 1)."""
    env = Environment()
    cpu = CPU(env, calib)
    threads = [cpu.thread() for _ in range(created)]
    for thread in threads[1 : closed + 1]:
        thread.close()
    live = created - closed

    def worker(env, thread):
        yield thread.run(1e-3)

    env.process(worker(env, threads[0]))
    env.run()
    assert cpu.live_threads == live
    assert cpu.counters.busy_user == 1e-3 * calib.thread_footprint_factor(live)


def test_snapshot_usage_since(env, cpu):
    thread = cpu.thread()
    start = cpu.snapshot()

    def worker(env, thread):
        yield thread.run(3e-3)
        yield env.timeout(7e-3)

    env.process(worker(env, thread))
    env.run()
    usage = cpu.snapshot().usage_since(start, cpu.cores)
    assert usage.user_time == pytest.approx(3e-3)
    assert 0.0 < usage.utilization < 1.0
