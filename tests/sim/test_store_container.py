"""Store semantics."""

from repro.sim.resources import Store


def test_store_fifo_order(env):
    store = Store(env)
    for i in range(3):
        store.put(i)
    got = [store.get() for _ in range(3)]
    env.run()
    assert [g.value for g in got] == [0, 1, 2]


def test_store_get_blocks_until_put(env):
    store = Store(env)
    get = store.get()
    assert not get.triggered

    def producer(env, store):
        yield env.timeout(2)
        yield store.put("item")

    env.process(producer(env, store))
    env.run()
    assert get.value == "item"


def test_store_size_tracks_items(env):
    store = Store(env)
    store.put("x")
    store.put("y")
    assert store.size == 2
    store.get()
    assert store.size == 1


def test_store_interleaved_producers_consumers(env):
    store = Store(env)
    consumed = []

    def producer(env, store):
        for i in range(5):
            yield env.timeout(1)
            yield store.put(i)

    def consumer(env, store):
        for _ in range(5):
            item = yield store.get()
            consumed.append((env.now, item))

    env.process(producer(env, store))
    env.process(consumer(env, store))
    env.run()
    assert consumed == [(float(i + 1), i) for i in range(5)]
