"""Property-based tests of the DES kernel (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.core import Environment
from repro.sim.resources import Store


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
@settings(max_examples=60, deadline=None)
def test_timeouts_process_in_nondecreasing_time_order(delays):
    env = Environment()
    processed = []
    for delay in delays:
        event = env.timeout(delay)
        event.callbacks.append(lambda ev, d=delay: processed.append(env.now))
    env.run()
    assert processed == sorted(processed)
    assert env.now == max(delays)


@given(delays=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_every_process_completes_and_clock_is_final_max(delays):
    env = Environment()

    def worker(env, delay):
        yield env.timeout(delay)
        return delay

    procs = [env.process(worker(env, d)) for d in delays]
    env.run()
    assert all(not p.is_alive for p in procs)
    assert [p.value for p in procs] == delays


@given(items=st.lists(st.integers(), min_size=1, max_size=50))
@settings(max_examples=50, deadline=None)
def test_store_preserves_order_and_conserves_items(items):
    env = Environment()
    store = Store(env)
    received = []

    def producer(env, store):
        for item in items:
            yield store.put(item)
            yield env.timeout(0.1)

    def consumer(env, store):
        for _ in items:
            value = yield store.get()
            received.append(value)

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert received == items
    assert store.size == 0


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_simulation_replay_is_identical(seed):
    import random

    def run_once():
        env = Environment()
        rng = random.Random(seed)
        log = []

        def worker(env, name):
            for _ in range(5):
                yield env.timeout(rng.random())
                log.append((round(env.now, 12), name))

        for i in range(3):
            env.process(worker(env, i))
        env.run()
        return log

    assert run_once() == run_once()
