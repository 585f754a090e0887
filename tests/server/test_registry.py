"""Registry-layer tests: RW lock semantics, lifecycle, LRU eviction."""

from __future__ import annotations

import asyncio

import pytest

from repro.server.registry import (
    AsyncRWLock,
    SessionRegistry,
    snapshot_path_for,
)

from server_testlib import make_dataset


def run(coro):
    return asyncio.run(coro)


class TestAsyncRWLock:
    def test_readers_interleave(self):
        async def scenario():
            lock = AsyncRWLock()
            inside = asyncio.Event()
            release = asyncio.Event()

            async def reader():
                async with lock.read():
                    inside.set()
                    await release.wait()

            task = asyncio.create_task(reader())
            await inside.wait()
            # A second reader gets in while the first still holds it.
            await asyncio.wait_for(lock.acquire_read(), timeout=1.0)
            await lock.release_read()
            release.set()
            await task
            assert lock.idle

        run(scenario())

    def test_writer_excludes_readers_and_writers(self):
        async def scenario():
            lock = AsyncRWLock()
            order: list[str] = []

            async def writer(tag):
                async with lock.write():
                    order.append(f"{tag}:in")
                    await asyncio.sleep(0.01)
                    order.append(f"{tag}:out")

            async def reader():
                async with lock.read():
                    order.append("r:in")
                    order.append("r:out")

            await asyncio.gather(writer("w1"), writer("w2"), reader())
            # No interleaving: every :in is immediately followed by its
            # own :out.
            for i in range(0, len(order), 2):
                assert order[i].split(":")[0] == order[i + 1].split(":")[0]
            assert lock.idle

        run(scenario())

    def test_waiting_writer_blocks_new_readers(self):
        async def scenario():
            lock = AsyncRWLock()
            await lock.acquire_read()
            writer_started = asyncio.Event()

            async def writer():
                writer_started.set()
                async with lock.write():
                    pass

            task = asyncio.create_task(writer())
            await writer_started.wait()
            await asyncio.sleep(0)  # let the writer reach the wait
            assert not lock.idle
            # A new reader must now queue behind the waiting writer.
            second = asyncio.create_task(lock.acquire_read())
            await asyncio.sleep(0.01)
            assert not second.done()
            await lock.release_read()
            await task  # writer ran
            await asyncio.wait_for(second, timeout=1.0)
            await lock.release_read()
            assert lock.idle

        run(scenario())


class TestSessionRegistry:
    def test_unknown_dataset_raises_keyerror(self, dataset):
        async def scenario():
            registry = SessionRegistry(executor="serial")
            registry.add_dataset("default", dataset)
            with pytest.raises(KeyError):
                await registry.get("nope")

        run(scenario())

    def test_default_dataset_is_first_registered(self, dataset):
        async def scenario():
            registry = SessionRegistry(executor="serial")
            registry.add_dataset("alpha", dataset)
            registry.add_dataset("beta", make_dataset(30, 2, seed=1))
            managed = await registry.get(None)
            assert managed.name == "alpha"
            assert registry.names() == ("alpha", "beta")

        run(scenario())

    def test_duplicate_name_rejected(self, dataset):
        registry = SessionRegistry(executor="serial")
        registry.add_dataset("default", dataset)
        with pytest.raises(ValueError):
            registry.add_dataset("default", dataset)

    def test_sessions_are_shared_across_gets(self, dataset):
        async def scenario():
            registry = SessionRegistry(executor="serial")
            registry.add_dataset("default", dataset)
            first = await registry.get("default")
            second = await registry.get("default")
            assert first is second

        run(scenario())

    def test_lru_eviction_checkpoints_and_restores(self, tmp_path):
        ds_a = make_dataset(40, 2, seed=1)
        ds_b = make_dataset(40, 2, seed=2)

        async def scenario():
            registry = SessionRegistry(
                state_dir=tmp_path, max_active=1, seed=5, executor="serial"
            )
            registry.add_dataset("a", ds_a)
            registry.add_dataset("b", ds_b)
            managed_a = await registry.get("a")
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None,
                lambda: managed_a.session.top_stable(
                    1, kind="topk_set", k=3, backend="randomized", budget=200
                ),
            )
            managed_a.mark_dirty()
            samples_before = managed_a.session.stats()["configs"]
            # Activating b evicts idle, dirty a — checkpointing it first.
            await registry.get("b")
            assert registry.evictions == 1
            path_a = snapshot_path_for(tmp_path, ds_a, managed_a.region)
            assert path_a.exists()
            # b is now the resident session; a restores warm on demand.
            restored = await registry.get("a")
            assert restored is not managed_a
            assert restored.restored
            assert restored.session.stats()["configs"] == samples_before
            assert registry.restores == 1

        run(scenario())

    def test_busy_sessions_are_not_evicted(self, tmp_path):
        ds_a = make_dataset(30, 2, seed=1)
        ds_b = make_dataset(30, 2, seed=2)

        async def scenario():
            registry = SessionRegistry(
                state_dir=tmp_path, max_active=1, executor="serial"
            )
            registry.add_dataset("a", ds_a)
            registry.add_dataset("b", ds_b)
            managed_a = await registry.get("a")
            async with managed_a.lock.read():  # a is in use
                await registry.get("b")
                assert registry.evictions == 0  # over cap rather than evict
            assert "a" in registry.stats()["active"]

        run(scenario())

    def test_close_sync_checkpoints_only_dirty_durable(self, tmp_path, dataset):
        async def scenario():
            registry = SessionRegistry(
                state_dir=tmp_path, seed=5, executor="serial"
            )
            registry.add_dataset("default", dataset)
            managed = await registry.get("default")
            managed.session.top_stable(
                1, kind="topk_set", k=3, backend="randomized", budget=150
            )
            managed.mark_dirty()
            report = registry.close_sync()
            assert [entry["dataset"] for entry in report] == ["default"]
            assert managed.state_path.exists()
            assert registry.stats()["active"] == {}
            # Nothing dirty on a second pass.
            assert registry.close_sync() == []

        run(scenario())

    def test_untrusted_snapshot_starts_cold(self, tmp_path, dataset):
        async def scenario():
            registry = SessionRegistry(
                state_dir=tmp_path, seed=5, executor="serial"
            )
            registry.add_dataset("default", dataset)
            managed = await registry.get("default")
            managed.session.top_stable(
                1, kind="topk_set", k=3, backend="randomized", budget=150
            )
            managed.mark_dirty()
            registry.close_sync()
            managed.state_path.write_bytes(
                b"garbage" + managed.state_path.read_bytes()
            )
            fresh = SessionRegistry(
                state_dir=tmp_path, seed=5, executor="serial"
            )
            fresh.add_dataset("default", dataset)
            reopened = await fresh.get("default")
            assert not reopened.restored  # cold, but serving

        run(scenario())

    def test_snapshot_path_is_region_and_data_qualified(self, tmp_path):
        from repro.core.region import Cone, FullSpace

        ds = make_dataset(10, 2)
        other = make_dataset(10, 2, seed=99)
        full = FullSpace(2)
        paths = {
            snapshot_path_for(tmp_path, ds, full),
            snapshot_path_for(tmp_path, ds, Cone([1.0, 1.0], 0.3)),
            snapshot_path_for(tmp_path, other, full),
        }
        assert len(paths) == 3
        assert snapshot_path_for(tmp_path, ds, full) == snapshot_path_for(
            tmp_path, ds, full
        )

    def test_prewarm_restores_before_traffic(self, tmp_path, dataset):
        async def warm_then_restart():
            registry = SessionRegistry(
                state_dir=tmp_path, seed=5, executor="serial"
            )
            registry.add_dataset("default", dataset)
            assert await registry.prewarm() == []  # nothing on disk yet
            managed = await registry.get("default")
            managed.session.top_stable(
                1, kind="topk_set", k=3, backend="randomized", budget=150
            )
            managed.mark_dirty()
            registry.close_sync()
            fresh = SessionRegistry(
                state_dir=tmp_path, seed=5, executor="serial"
            )
            fresh.add_dataset("default", dataset)
            assert await fresh.prewarm() == ["default"]
            resident = fresh.stats()["active"]["default"]
            assert resident["restored"] and resident["configs"] == 1

        run(warm_then_restart())

    def test_eviction_hook_fires(self, tmp_path):
        ds_a = make_dataset(30, 2, seed=1)
        ds_b = make_dataset(30, 2, seed=2)

        async def scenario():
            registry = SessionRegistry(
                state_dir=tmp_path, max_active=1, executor="serial"
            )
            fired = []
            registry.on_evict = lambda: fired.append(1)
            registry.add_dataset("a", ds_a)
            registry.add_dataset("b", ds_b)
            await registry.get("a")
            await registry.get("b")
            assert registry.evictions == 1 and fired == [1]

        run(scenario())

    def test_failed_eviction_checkpoint_cannot_livelock(self, tmp_path):
        """Unsaveable victims are skipped in one pass, never re-tried
        in a loop that can starve every request."""
        ds_a = make_dataset(30, 2, seed=1)
        ds_b = make_dataset(30, 2, seed=2)

        async def scenario():
            registry = SessionRegistry(
                state_dir=tmp_path, max_active=1, executor="serial"
            )
            registry.add_dataset("a", ds_a)
            registry.add_dataset("b", ds_b)
            managed_a = await registry.get("a")
            managed_a.mark_dirty()
            managed_a.session.save = None  # any checkpoint attempt raises
            # Must return (over cap) instead of spinning on the victim.
            await asyncio.wait_for(registry.get("b"), timeout=5.0)
            assert registry.evictions == 0
            assert set(registry.stats()["active"]) == {"a", "b"}

        run(scenario())
