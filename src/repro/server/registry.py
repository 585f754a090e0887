"""The session registry: shared, durable serving state behind the server.

One :class:`~repro.service.StabilitySession` per *named dataset*, shared
by every connection — which is the whole point of the network front-end:
the Monte-Carlo pools, enumeration cursors, k-skyband index, and result
cache a session accumulates become reachable by every client instead of
exactly one stdio process.

Concurrency model
-----------------
Each managed session carries an :class:`AsyncRWLock`:

- **reads** (warm-pool ``top_stable`` / ``stability_of``, ``stats``)
  interleave freely — they only look at the cumulative pool and the
  thread-safe result cache;
- **writes** (``get_next`` cursor advances, pool growth, invalidation,
  checkpointing) hold the lock exclusively, so one observe pass grows a
  pool exactly once no matter how many clients asked for it — the
  second writer finds the pool at target and answers without sampling.

The classification lives in :func:`repro.server.protocol.needs_write`;
misclassification toward "write" costs parallelism, never correctness.

Durability
----------
With a ``state_dir`` the registry is the rolling-restart story: cold
sessions are restored from their snapshot on first access, dirty
sessions are checkpointed on eviction and on drain, and snapshot files
are named by dataset fingerprint + region (the same scheme as
``cli.py serve --state-dir``), so a stdio server, a TCP server, and the
``snapshot``/``restore`` commands all share warm state.
"""

from __future__ import annotations

import asyncio
import zlib
from contextlib import asynccontextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.dataset import Dataset
from repro.core.region import FullSpace, RegionOfInterest
from repro.errors import SnapshotError
from repro.obs import log_event
from repro.service.cache import dataset_fingerprint
from repro.service.config import SessionConfig
from repro.service.session import StabilitySession

__all__ = [
    "AsyncRWLock",
    "ManagedSession",
    "SessionRegistry",
    "snapshot_path_for",
]


def snapshot_path_for(state_dir, dataset: Dataset, region) -> Path:
    """The durable snapshot path of one ``(dataset, region)`` identity.

    The filename carries the full serving identity — dataset
    fingerprint *and* region — so serving the same data under a
    different region of interest warms its own snapshot instead of
    fighting over one file.  Shared by ``cli.py serve --state-dir`` and
    the TCP registry, which is what makes a stdio-warmed snapshot a
    valid TCP warm start (and vice versa).
    """
    region_tag = f"{zlib.crc32(repr(region).encode()):08x}"
    return Path(state_dir) / f"{dataset_fingerprint(dataset)}-{region_tag}.snap"


class AsyncRWLock:
    """A writer-preferring asyncio read/write lock.

    Any number of readers hold the lock together; a writer holds it
    alone.  Arriving writers block *new* readers (no writer
    starvation), which matters here because pool-growth writes are what
    turn a cold dataset warm — a stream of cheap cache-hit reads must
    not postpone them forever.
    """

    def __init__(self):
        self._cond = asyncio.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    @property
    def idle(self) -> bool:
        """Nobody holds or awaits the lock (safe-to-evict probe)."""
        return self._readers == 0 and not self.writer_pending

    @property
    def writer_pending(self) -> bool:
        """A writer holds or awaits the lock (only the loop changes it)."""
        return self._writer or self._writers_waiting > 0

    async def acquire_read(self) -> None:
        async with self._cond:
            while self.writer_pending:
                await self._cond.wait()
            self._readers += 1

    async def release_read(self) -> None:
        async with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    async def acquire_write(self) -> None:
        async with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    await self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    async def release_write(self) -> None:
        async with self._cond:
            self._writer = False
            self._cond.notify_all()

    @asynccontextmanager
    async def read(self):
        await self.acquire_read()
        try:
            yield self
        finally:
            await self.release_read()

    @asynccontextmanager
    async def write(self):
        await self.acquire_write()
        try:
            yield self
        finally:
            await self.release_write()


@dataclass
class ManagedSession:
    """One activated session plus its serving bookkeeping."""

    name: str
    dataset: Dataset
    region: RegionOfInterest
    session: StabilitySession
    lock: AsyncRWLock = field(default_factory=AsyncRWLock)
    state_path: Path | None = None
    #: Write-ish requests since the last successful checkpoint.
    dirty: int = 0
    #: Whether activation restored a snapshot (observability).
    restored: bool = False
    #: Monotone use counter (LRU eviction order).
    last_used: int = 0
    #: Requests currently holding a reference to this session (event
    #: loop only).  A session handed out by :meth:`SessionRegistry.get`
    #: but not yet locked is invisible to ``lock.idle``; the pin keeps
    #: eviction from closing it out from under that request.
    pins: int = 0

    def mark_dirty(self) -> None:
        self.dirty += 1

    def checkpoint(self) -> dict | None:
        """Durably snapshot the session now (blocking; call off-loop).

        Returns ``{"path", "bytes"}``, or ``None`` when not durable.
        Resets the dirty counter on success.
        """
        if self.state_path is None:
            return None
        info = self.session.save(self.state_path)
        self.dirty = 0
        return {"path": info.path, "bytes": info.file_bytes}


class SessionRegistry:
    """Named datasets -> shared sessions, with restore/evict lifecycle.

    Parameters
    ----------
    state_dir:
        Directory of durable snapshots (``None`` serves non-durably).
    max_active:
        Soft cap on concurrently materialised sessions.  Activating a
        session beyond the cap evicts the least-recently-used *idle*
        session — checkpointing it first when durable — so a server
        over many datasets bounds its memory by warm working set, not
        catalogue size.
    config:
        The :class:`~repro.service.config.SessionConfig` of every
        session (field keywords override it; without a ``config`` the
        seed defaults to 0, not fresh entropy).
        Cold starts use all of it; restored sessions take the durable
        fields from their snapshot and only the runtime ones from here.
    """

    def __init__(
        self,
        *,
        state_dir=None,
        max_active: int = 8,
        config: SessionConfig | None = None,
        **fields,
    ):
        self.state_dir = Path(state_dir) if state_dir is not None else None
        if self.state_dir is not None:
            self.state_dir.mkdir(parents=True, exist_ok=True)
        self.max_active = max(1, int(max_active))
        self.config = SessionConfig.of(
            config if config is not None else SessionConfig(seed=0), **fields
        )
        self._datasets: dict[str, tuple[Dataset, RegionOfInterest]] = {}
        self._active: dict[str, ManagedSession] = {}
        self._mutex = asyncio.Lock()
        # Per-dataset activation locks: a slow snapshot restore must
        # stall only requests for *that* dataset, never warm traffic
        # on the others (the registry mutex is held for map updates
        # only, not across the blocking open).
        self._opening: dict[str, asyncio.Lock] = {}
        self._use_counter = 0
        self._default_name: str | None = None
        self.evictions = 0
        self.restores = 0
        #: Optional zero-argument eviction hook (the server wires its
        #: metrics counter here; the registry stays transport-agnostic).
        self.on_evict = None

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------
    def add_dataset(
        self,
        name: str,
        dataset: Dataset,
        *,
        region: RegionOfInterest | None = None,
    ) -> None:
        """Register a dataset under ``name`` (first one becomes default)."""
        if not name or not isinstance(name, str):
            raise ValueError(f"dataset name must be a non-empty string, got {name!r}")
        if name in self._datasets:
            raise ValueError(f"dataset {name!r} is already registered")
        self._datasets[name] = (
            dataset,
            region if region is not None else FullSpace(dataset.n_attributes),
        )
        if self._default_name is None:
            self._default_name = name

    def names(self) -> tuple[str, ...]:
        return tuple(self._datasets)

    @property
    def default_name(self) -> str | None:
        return self._default_name

    # ------------------------------------------------------------------
    # Activation / eviction
    # ------------------------------------------------------------------
    def _open(self, name: str) -> ManagedSession:
        """Materialise one session (blocking: restore can do real work)."""
        dataset, region = self._datasets[name]
        state_path = (
            snapshot_path_for(self.state_dir, dataset, region)
            if self.state_dir is not None
            else None
        )
        session = None
        restored = False
        if state_path is not None and state_path.exists():
            try:
                session = StabilitySession.restore(
                    state_path, dataset, region=region, config=self.config
                )
                restored = True
                self.restores += 1
                log_event(
                    "session.restore",
                    dataset=name,
                    path=str(state_path),
                    configs=len(session._states),
                )
            except SnapshotError:
                # A snapshot that cannot be trusted costs the warmth,
                # never the server; the next checkpoint overwrites it.
                session = None
        if session is None:
            session = StabilitySession(
                dataset, region=region, config=self.config
            )
        return ManagedSession(
            name=name,
            dataset=dataset,
            region=region,
            session=session,
            state_path=state_path,
            restored=restored,
        )

    def _touch(self, managed: ManagedSession) -> ManagedSession:
        self._use_counter += 1
        managed.last_used = self._use_counter
        return managed

    def active(self, name: str | None = None) -> ManagedSession | None:
        """The active session for ``name``, LRU-touched, or ``None``
        (never activates; the mutex guards no lookup, so no await)."""
        if name is None:
            name = self._default_name
        managed = self._active.get(name) if isinstance(name, str) else None
        return self._touch(managed) if managed is not None else None

    async def get(self, name: str | None = None) -> ManagedSession:
        """The managed session for ``name`` (activate/restore lazily).

        Raises :class:`KeyError` for unregistered names.  May evict the
        least-recently-used *idle, unpinned* session beyond
        ``max_active``.
        """
        if name is None:
            name = self._default_name
        if name not in self._datasets:
            raise KeyError(name)
        managed = self.active(name)
        if managed is not None:
            return managed
        # Cold: serialize activation per dataset, off the global mutex.
        loop = asyncio.get_running_loop()
        opening = self._opening.setdefault(name, asyncio.Lock())
        async with opening:
            managed = self.active(name)
            if managed is not None:  # raced another activator
                return managed
            managed = await loop.run_in_executor(None, self._open, name)
            async with self._mutex:
                self._active[name] = managed
                self._touch(managed)
                victims = self._select_victims(keep=name)
            # Eviction checkpoints happen *off* the registry mutex — a
            # multi-second snapshot of the victim must stall only this
            # activation, never warm traffic on other datasets.
            await self._evict(loop, victims)
            return managed

    async def prewarm(self) -> list[str]:
        """Activate every dataset whose snapshot already exists on disk.

        The rolling-restart half-step between bind and serve: snapshot
        replay happens *before* the first request arrives, so a
        restarted server's first answer is a cache hit, not a restore.
        Returns the names restored (capped by ``max_active``).
        """
        warmed = []
        for name in self._datasets:
            if len(self._active) >= self.max_active:
                break
            dataset, region = self._datasets[name]
            if self.state_dir is None or not snapshot_path_for(
                self.state_dir, dataset, region
            ).exists():
                continue
            managed = await self.get(name)
            if managed.restored:
                warmed.append(name)
        return warmed

    def _select_victims(self, keep: str) -> list[ManagedSession]:
        """Pick (and pin) the idle LRU sessions beyond ``max_active``.

        Runs under the registry mutex; the pin keeps a selected victim
        from being chosen twice while its checkpoint runs off-mutex.
        When every candidate is busy the registry stays over cap
        rather than block — selection is one pass, never a spin.
        """
        over = len(self._active) - self.max_active
        if over <= 0:
            return []
        candidates = sorted(
            (
                m
                for m in self._active.values()
                if m.name != keep and m.lock.idle and m.pins == 0
            ),
            key=lambda m: m.last_used,
        )
        victims = candidates[:over]
        for victim in victims:
            victim.pins += 1
        return victims

    async def _evict(self, loop, victims: list[ManagedSession]) -> None:
        """Checkpoint and release pinned victims (mutex *not* held).

        Each victim's write lock is taken around the save, so a
        request that re-acquired the session meanwhile can never
        mutate a pool mid-snapshot.  A victim whose checkpoint fails —
        or that came back into use — simply stays resident: losing
        warmth is acceptable, losing the server (or snapshot
        integrity) is not.
        """
        for victim in victims:
            try:
                async with victim.lock.write():
                    if victim.dirty and victim.state_path is not None:
                        try:
                            await loop.run_in_executor(
                                None, victim.checkpoint
                            )
                        except Exception:
                            continue  # unsaveable: stays resident
                    async with self._mutex:
                        if (
                            self._active.get(victim.name) is victim
                            and victim.pins == 1  # nobody else holds it
                        ):
                            victim.session.close()
                            del self._active[victim.name]
                            self.evictions += 1
                            log_event(
                                "session.evict",
                                dataset=victim.name,
                                durable=victim.state_path is not None,
                            )
                            if self.on_evict is not None:
                                self.on_evict()
            finally:
                victim.pins -= 1

    # ------------------------------------------------------------------
    # Durability
    # ------------------------------------------------------------------
    def checkpoint_dirty_sync(self) -> list[dict]:
        """Checkpoint every dirty durable session (blocking).

        The drain path calls this once all in-flight writes finished;
        per-session failures are reported, not raised — one read-only
        filesystem must not abort the rest of the drain.
        """
        saved = []
        for managed in list(self._active.values()):
            if managed.state_path is None or managed.dirty == 0:
                continue
            try:
                info = managed.checkpoint()
            except Exception as exc:
                saved.append(
                    {
                        "dataset": managed.name,
                        "error": f"{type(exc).__name__}: {exc}",
                    }
                )
                continue
            saved.append({"dataset": managed.name, **(info or {})})
        return saved

    def close_sync(self) -> list[dict]:
        """Checkpoint dirty sessions, then release every session.

        The caller must guarantee no request is still executing
        against any session (drivers with in-flight work use
        :meth:`close`, which serializes against the session locks).
        """
        saved = self.checkpoint_dirty_sync()
        for managed in list(self._active.values()):
            managed.session.close()
        self._active.clear()
        return saved

    async def close(self, *, grace: float = 30.0) -> list[dict]:
        """Drain-safe shutdown: checkpoint under each session's write
        lock, then release everything.

        A request that is still executing when the drain deadline
        passes holds its session lock; waiting up to ``grace`` seconds
        for it keeps the snapshot consistent (a save never interleaves
        with an observe pass).  On timeout that session's checkpoint is
        *skipped* and reported — losing warmth is acceptable, a torn
        snapshot restoring wrong stability estimates is not.
        """
        loop = asyncio.get_running_loop()
        saved: list[dict] = []
        log_event(
            "server.drain",
            sessions=len(self._active),
            grace=grace,
            durable=self.state_dir is not None,
        )
        for managed in list(self._active.values()):
            try:
                await asyncio.wait_for(
                    managed.lock.acquire_write(), timeout=max(grace, 0.001)
                )
            except asyncio.TimeoutError:
                # A straggler past the drain deadline keeps its session:
                # closing (or snapshotting) under its feet would race
                # still-executing work.  The process is exiting anyway —
                # it loses durability for this session, not integrity.
                if managed.state_path is not None and managed.dirty:
                    saved.append(
                        {
                            "dataset": managed.name,
                            "error": "still executing at the drain "
                            "deadline; checkpoint skipped to keep the "
                            "snapshot consistent",
                        }
                    )
                self._active.pop(managed.name, None)
                continue
            try:
                if managed.state_path is not None and managed.dirty:
                    try:
                        info = await loop.run_in_executor(
                            None, managed.checkpoint
                        )
                    except Exception as exc:
                        saved.append(
                            {
                                "dataset": managed.name,
                                "error": f"{type(exc).__name__}: {exc}",
                            }
                        )
                    else:
                        saved.append({"dataset": managed.name, **(info or {})})
                await loop.run_in_executor(None, managed.session.close)
            finally:
                await managed.lock.release_write()
            self._active.pop(managed.name, None)
        return saved

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Registry-level serving state (one section of the stats op)."""
        return {
            "datasets": list(self._datasets),
            "default": self._default_name,
            "active": {
                name: self._session_stats(managed)
                # Snapshot first: stats() runs on executor threads
                # while the event loop activates/evicts concurrently.
                for name, managed in list(self._active.items())
            },
            "max_active": self.max_active,
            "evictions": self.evictions,
            "restores": self.restores,
        }

    @staticmethod
    def _session_stats(managed: ManagedSession) -> dict:
        """One active session's serving identity and cache behaviour."""
        sstats = managed.session.stats()
        return {
            "dirty": managed.dirty,
            "restored": managed.restored,
            "durable": managed.state_path is not None,
            "configs": len(managed.session._states),
            "uptime_seconds": sstats["uptime_seconds"],
            "executor": sstats["executor"],
            "kernel": sstats["kernel"],
            "sampling": sstats["sampling"],
            "cache_hit_rate": sstats["cache_session"]["hit_rate"],
            "pool_samples": sum(
                pool.get("total_samples", 0)
                for pool in sstats["configs"].values()
            ),
            "pool_bytes": sstats["pool_bytes"],
        }

    def __repr__(self) -> str:
        return (
            f"SessionRegistry(datasets={len(self._datasets)}, "
            f"active={len(self._active)}, "
            f"durable={self.state_dir is not None})"
        )
