"""The write-ahead journal that makes batch personalization crash-safe.

A :class:`repro.serve.BatchServer` run used to live entirely in memory: a
process crash, an OOM-killed parent, or a Ctrl-C threw away every finished
personalization in the batch.  The journal fixes that with the standard
write-ahead contract:

- **append-only JSONL**, one event per line, each line carrying a
  truncated-SHA-256 checksum of its own canonical serialization.  Events
  are ``submitted`` / ``started`` / ``done`` / ``failed``, keyed by
  :meth:`repro.serve.job.Job.spec_key` — the stable identity of the
  *computation*, so a resumed batch recognizes finished work even if job
  ids were renumbered;
- **fsync per append** (the default): once :meth:`append` returns, the
  event survives power loss.  ``fsync=False`` keeps the format and
  atomicity guarantees but trades durability for speed (tests, tmpfs);
- **replay** that is paranoid by construction: a truncated final line (the
  signature of a crash mid-write) or any checksum mismatch quarantines the
  line into ``<path>.quarantine`` and keeps going — a corrupt journal
  degrades to re-running some jobs, it never crash-loops the batch;
- **atomic checkpoint compaction** (:meth:`checkpoint`): the live state —
  terminal records plus still-pending submissions — is rewritten through
  ``tmp + fsync + os.replace`` so the journal stays bounded by the batch
  size instead of growing with every retry and restart.

Because ``done`` payloads are pure functions of the spec (the serve
layer's determinism contract), replaying a ``done`` record is
*bit-identical* to re-running the job — which is what lets a resumed
batch produce the same ``BatchReport`` deterministic fields and golden
table digests as an uninterrupted run.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Sequence

from repro.errors import ReproError
from repro.ioutil import atomic_write, fsync_dir
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv

__all__ = ["EVENTS", "Journal", "JournalState", "merge_journals", "replay_journal"]

_log = get_logger("serve.journal")

#: Every event kind a journal line may carry.
EVENTS = ("submitted", "started", "done", "failed", "checkpoint")

#: Hex digits of SHA-256 kept per line — 64 bits, far beyond what line-level
#: torn-write detection needs.
_CRC_HEX = 16


def _crc(record: Mapping[str, Any]) -> str:
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:_CRC_HEX]


def _encode(record: Mapping[str, Any]) -> str:
    sealed = dict(record)
    sealed["crc"] = _crc(record)
    return json.dumps(sealed, sort_keys=True, separators=(",", ":"))


def _decode(line: str) -> dict[str, Any]:
    """Parse + verify one journal line; raises ``ValueError`` when bad."""
    record = json.loads(line)
    if not isinstance(record, dict):
        raise ValueError("journal line is not an object")
    stated = record.pop("crc", None)
    if stated is None:
        raise ValueError("journal line has no checksum")
    actual = _crc(record)
    if stated != actual:
        raise ValueError(f"checksum mismatch ({stated} != {actual})")
    if record.get("event") not in EVENTS:
        raise ValueError(f"unknown journal event {record.get('event')!r}")
    return record


@dataclass
class JournalState:
    """What a replayed journal says about a batch.

    ``done`` maps spec keys to their recorded terminal result — status
    ``ok`` *or* a permanent (dead-letter) failure; both are deterministic
    outcomes of the spec and are never re-executed.  ``transient`` holds
    the latest transient failure per spec key (crashed / timed out after
    retries) — informational only, those specs re-run on resume.
    ``submitted`` maps spec keys to the job ids that asked for them;
    anything submitted (or started) without a terminal record is
    in-flight and must be re-enqueued.
    """

    done: dict[str, dict[str, Any]] = field(default_factory=dict)
    transient: dict[str, dict[str, Any]] = field(default_factory=dict)
    submitted: dict[str, list[str]] = field(default_factory=dict)
    started: set[str] = field(default_factory=set)
    corrupt: list[tuple[int, str]] = field(default_factory=list)
    n_records: int = 0
    last_seq: int = 0

    @property
    def dead_letters(self) -> dict[str, dict[str, Any]]:
        """Terminal records that are permanent failures."""
        return {
            key: record
            for key, record in self.done.items()
            if record.get("status") != "ok"
        }

    def pending(self) -> list[str]:
        """Spec keys journaled as submitted/started but not terminal."""
        keys = set(self.submitted) | self.started
        return sorted(keys - set(self.done))

    def apply(self, record: Mapping[str, Any]) -> None:
        """Fold one verified record into the state (replay step)."""
        self.n_records += 1
        self.last_seq = max(self.last_seq, int(record.get("seq", 0)))
        event = record["event"]
        key = record.get("spec_key")
        if event == "submitted" and key is not None:
            ids = self.submitted.setdefault(key, [])
            job_id = record.get("job_id")
            if job_id is not None and job_id not in ids:
                ids.append(job_id)
        elif event == "started" and key is not None:
            self.started.add(key)
        elif event == "done" and key is not None:
            self.done[key] = dict(record)
            self.transient.pop(key, None)
        elif event == "failed" and key is not None:
            if record.get("classification") == "permanent":
                # A dead letter is terminal: the runner is a pure function
                # of the spec, re-running cannot change a permanent verdict.
                self.done[key] = dict(record)
            else:
                self.transient[key] = dict(record)

    def absorb(self, other: "JournalState") -> None:
        """Fold another journal's state into this one (the merge rule).

        A ``done`` record anywhere wins and an ``ok`` outranks a dead
        letter; otherwise the first transient failure seen is kept;
        ``submitted`` job ids and ``started`` flags are unioned.
        """
        for key, ids in other.submitted.items():
            known = self.submitted.setdefault(key, [])
            known.extend(job_id for job_id in ids if job_id not in known)
        self.started |= other.started
        for key, record in other.transient.items():
            self.transient.setdefault(key, dict(record))
        for key, record in other.done.items():
            current = self.done.get(key)
            if current is None or (
                current.get("status") != "ok" and record.get("status") == "ok"
            ):
                self.done[key] = dict(record)
        self.corrupt.extend(other.corrupt)


def replay_journal(path: str | os.PathLike) -> JournalState:
    """Replay a journal file into a :class:`JournalState`.

    Corrupt or truncated lines are counted, logged, appended verbatim to
    ``<path>.quarantine``, and skipped — never fatal.  A missing file
    replays to an empty state.
    """
    state = JournalState()
    target = os.fspath(path)
    if not os.path.exists(target):
        return state
    quarantined: list[tuple[int, str]] = []
    with open(target) as handle:
        for lineno, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                record = _decode(stripped)
            except (ValueError, json.JSONDecodeError) as error:
                state.corrupt.append((lineno, str(error)))
                quarantined.append((lineno, stripped))
                obs_metrics.counter("serve.journal.corrupt_lines").inc()
                _log.warning(
                    kv(
                        "serve.journal.corrupt_line",
                        path=target,
                        lineno=lineno,
                        error=str(error),
                    )
                )
                continue
            state.apply(record)
    if quarantined:
        with open(target + ".quarantine", "a") as handle:
            for lineno, line in quarantined:
                handle.write(f"# line {lineno}\n{line}\n")
    return state


def merge_journals(
    paths: Sequence[str | os.PathLike],
    output: str | os.PathLike,
    *,
    fsync: bool = True,
) -> JournalState:
    """Merge several shard journals into one compacted journal at ``output``.

    The inverse of sharding: a :class:`repro.serve.server.BatchServer`
    with ``shards > 1`` writes one journal per partition (and may finish a
    spec on a *different* partition than the one that first accepted it,
    after a brownout reroute);
    this folds them back into a single journal in the exact checkpoint
    format :meth:`Journal.checkpoint` writes, so a plain single-server
    ``--resume`` can replay a sharded run — and, by the determinism
    contract, produce bit-identical results to the uninterrupted batch.

    Merge rules, per spec key:

    - a ``done`` record anywhere wins; an ``ok`` outranks a dead letter
      (a reroute can leave a stale transient verdict in one journal and
      the real result in another);
    - otherwise the latest ``transient`` failure is kept (informational);
    - ``submitted`` job-id mappings are unioned, ``started`` flags too.

    Records are re-sequenced under a fresh ``checkpoint`` header and
    written atomically (``tmp + fsync + os.replace``).  Missing input
    files are skipped (an ejected shard that never came back may have an
    empty journal).  Returns the merged state.
    """
    merged = JournalState()
    for path in paths:
        merged.absorb(replay_journal(path))
    for key in merged.done:
        merged.transient.pop(key, None)

    records: list[dict[str, Any]] = []
    seq = 0

    def add(event: str, **fields: Any) -> None:
        nonlocal seq
        seq += 1
        records.append({"event": event, "seq": seq, **fields})

    add(
        "checkpoint",
        merged_from=len(paths),
        done=len(merged.done),
        pending=len(merged.pending()),
    )
    for key in sorted(merged.submitted):
        for job_id in merged.submitted[key]:
            add("submitted", spec_key=key, job_id=job_id)
    for key in sorted(merged.started - set(merged.done)):
        add("started", spec_key=key)
    for key in sorted(merged.transient):
        record = {k: v for k, v in merged.transient[key].items() if k != "seq"}
        add(**record)
    for key in sorted(merged.done):
        record = {k: v for k, v in merged.done[key].items() if k != "seq"}
        add(**record)

    with atomic_write(output, "w", durable=fsync) as handle:
        for record in records:
            handle.write(_encode(record) + "\n")
    if fsync:
        fsync_dir(os.path.dirname(os.path.abspath(os.fspath(output))))

    final = JournalState()
    for record in records:
        final.apply(record)
    final.corrupt = list(merged.corrupt)
    obs_metrics.counter("serve.journal.merges").inc()
    _log.info(
        kv(
            "serve.journal.merged",
            output=os.fspath(output),
            inputs=len(paths),
            records=len(records),
            done=len(final.done),
            pending=len(final.pending()),
        )
    )
    return final


class Journal:
    """An append-only, fsync'd, checksummed event journal (see module doc).

    Thread-safe: the batch server appends from its scheduler thread and
    from executor callback threads concurrently.

    Parameters
    ----------
    path:
        Journal file; created on first append, replayed if it exists.
    fsync:
        Flush every append to disk (default).  The format and atomic
        checkpoints are unaffected when off; only power-loss durability is.
    compact_every:
        Auto-checkpoint after this many appends since the last compaction
        (``None`` disables; explicit :meth:`checkpoint` calls always work).
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        compact_every: int | None = None,
    ) -> None:
        if compact_every is not None and compact_every < 1:
            raise ReproError(f"compact_every must be >= 1, got {compact_every}")
        self.path = os.fspath(path)
        self.fsync = bool(fsync)
        self.compact_every = compact_every
        self._lock = threading.RLock()
        self._state = replay_journal(self.path)
        self._seq = self._state.last_seq
        self._since_compact = 0
        self._handle = open(self.path, "a")

    # -- introspection ------------------------------------------------------

    @property
    def state(self) -> JournalState:
        """The live state mirror (replayed + everything appended since)."""
        return self._state

    def done_record(self, spec_key: str) -> dict[str, Any] | None:
        """The terminal record for ``spec_key``, if the journal has one."""
        with self._lock:
            return self._state.done.get(spec_key)

    # -- appending ----------------------------------------------------------

    def append(self, event: str, **fields: Any) -> dict[str, Any]:
        """Durably append one event; returns the sealed record."""
        if event not in EVENTS:
            raise ReproError(f"unknown journal event {event!r}; known: {EVENTS}")
        with self._lock:
            if self._handle.closed:
                raise ReproError(f"journal {self.path} is closed")
            self._seq += 1
            record = {"event": event, "seq": self._seq, **fields}
            self._handle.write(_encode(record) + "\n")
            self._handle.flush()
            if self.fsync:
                os.fsync(self._handle.fileno())
            self._state.apply(record)
            self._since_compact += 1
            obs_metrics.counter("serve.journal.appends").inc()
            if (
                self.compact_every is not None
                and self._since_compact >= self.compact_every
            ):
                self._checkpoint_locked()
            return record

    # -- checkpoint compaction ----------------------------------------------

    def checkpoint(self) -> int:
        """Compact the journal to its live state, atomically.

        Keeps one terminal record per finished spec key, the latest
        transient failure per unfinished one, and every ``submitted``
        job-id mapping, under a fresh ``checkpoint`` header.  Written via ``tmp + fsync + os.replace`` — a crash during
        compaction leaves the previous journal intact.  Returns the number
        of records in the compacted journal.
        """
        with self._lock:
            return self._checkpoint_locked()

    def _checkpoint_locked(self) -> int:
        state = self._state
        records: list[dict[str, Any]] = []
        seq = 0

        def add(event: str, **fields: Any) -> None:
            nonlocal seq
            seq += 1
            records.append({"event": event, "seq": seq, **fields})

        add(
            "checkpoint",
            compacted_from=state.n_records,
            done=len(state.done),
            pending=len(state.pending()),
        )
        for key in sorted(state.submitted):
            for job_id in state.submitted[key]:
                add("submitted", spec_key=key, job_id=job_id)
        for key in sorted(set(state.started) - set(state.done)):
            add("started", spec_key=key)
        for key in sorted(state.transient):
            if key not in state.done:
                record = {
                    k: v for k, v in state.transient[key].items() if k != "seq"
                }
                add(**record)
        for key in sorted(state.done):
            record = {k: v for k, v in state.done[key].items() if k != "seq"}
            add(**record)

        self._handle.flush()
        if self.fsync:
            os.fsync(self._handle.fileno())
        with atomic_write(self.path, "w", durable=self.fsync) as handle:
            for record in records:
                handle.write(_encode(record) + "\n")
        # The old inode is gone; keep appending to the new one.
        self._handle.close()
        self._handle = open(self.path, "a")
        if self.fsync:
            fsync_dir(os.path.dirname(os.path.abspath(self.path)))

        fresh = JournalState()
        for record in records:
            fresh.apply(record)
        fresh.corrupt = list(state.corrupt)
        self._state = fresh
        self._seq = fresh.last_seq
        self._since_compact = 0
        obs_metrics.counter("serve.journal.checkpoints").inc()
        _log.info(
            kv(
                "serve.journal.checkpoint",
                path=self.path,
                records=len(records),
                compacted_from=state.n_records,
            )
        )
        return len(records)

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if not self._handle.closed:
                self._handle.flush()
                if self.fsync:
                    os.fsync(self._handle.fileno())
                self._handle.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
