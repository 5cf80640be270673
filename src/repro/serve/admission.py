"""The multi-tenant admission policy: quotas, fair dequeue, load shedding.

An :class:`Admission` handed to :class:`~repro.serve.server.BatchServer`
(``BatchServer(admission=Admission(...))``) makes the three admission
decisions a shared tier owes its tenants:

- **quota** — each tenant's arrivals pass through a token bucket
  (:class:`TokenBucket`, refill ``rate_per_s``, capacity ``burst``);
  an empty bucket turns the job away immediately with a typed
  ``over_quota`` rejection.  Quotas bound *admission*, not throughput:
  a tenant under its rate is never throttled by another's burst;
- **fair dequeue** — admitted jobs wait in per-tenant FIFO backlogs and
  are released to the server's partitions by stride scheduling: each
  tenant carries a virtual ``pass`` advanced by ``1 / weight`` per
  release, the smallest pass (ties: tenant name) goes next.  Over any
  window, tenant throughput converges to the weight ratio regardless of
  arrival skew;
- **shedding** — the combined backlog is bounded; when it is full and
  shedding is enabled, the *lowest-value* job (:func:`repro.serve.shed
  .job_value`: priority first, then expected confidence) is dropped with
  a typed ``shed_overload`` rejection — whether that is the incoming job
  or one already waiting.  Every decision yields a ``shed`` event payload
  carrying the victim's value and the minimum value kept, so
  :func:`repro.serve.shed.verify_shed_ordering` can prove a recorded run
  shed lowest-value-first.  With shedding off, a full backlog rejects the
  newcomer as ``queue_full`` (plain bounded-queue behavior).

The policy is plain state: no thread, no results, no lifecycle.  The
server calls it under its own lock, resolves the rejections it names, and
releases the backlog it holds.  Time is whatever the caller passes as
``now`` — the load generator (:mod:`repro.eval.loadgen`) passes virtual
schedule time, so quota decisions replay exactly.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ReproError
from repro.serve.job import Job
from repro.serve.shed import job_value

__all__ = ["Admission", "DEFAULT_QUOTA", "TenantQuota", "TokenBucket"]


class TokenBucket:
    """A deterministic token bucket: ``rate_per_s`` refill, ``burst`` cap.

    Purely arithmetic — tokens accrue as ``rate * elapsed`` against the
    timestamps the caller supplies — so two replays of one arrival
    schedule admit exactly the same jobs.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ReproError(f"rate_per_s must be > 0, got {rate_per_s}")
        if burst < 1:
            raise ReproError(f"burst must be >= 1, got {burst}")
        self.rate_per_s = float(rate_per_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last: float | None = None

    def take(self, now: float) -> bool:
        """Consume one token at time ``now``; ``False`` when empty."""
        if self._last is not None and now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate_per_s
            )
        self._last = max(now, self._last or now)
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission contract.

    ``rate_per_s``/``burst`` parameterize the token bucket; ``weight``
    sets the tenant's share of dequeue bandwidth under contention (a
    weight-2 tenant drains twice as fast as a weight-1 one).
    """

    rate_per_s: float
    burst: float
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ReproError(f"weight must be > 0, got {self.weight}")

    def to_dict(self) -> dict[str, float]:
        return {
            "rate_per_s": self.rate_per_s,
            "burst": self.burst,
            "weight": self.weight,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "TenantQuota":
        return cls(
            rate_per_s=float(record["rate_per_s"]),
            burst=float(record["burst"]),
            weight=float(record.get("weight", 1.0)),
        )


#: Quota for tenants without an explicit entry; ``None`` leaves them
#: unmetered.
DEFAULT_QUOTA: TenantQuota | None = None


class Admission:
    """Admission policy for a :class:`~repro.serve.server.BatchServer`.

    Not thread-safe on its own: the server calls :meth:`offer`,
    :meth:`pop` and :meth:`drain` under its lock.

    Parameters
    ----------
    quotas:
        Per-tenant :class:`TenantQuota` mapping.  Tenants absent from the
        mapping fall back to :data:`DEFAULT_QUOTA`; with neither,
        admission is unmetered for that tenant.
    backlog_limit:
        Bound on the combined (all-tenant) admitted-but-unreleased
        backlog — the shed point.  ``None`` leaves the backlog unbounded.
    shed:
        Enable value-based shedding at the backlog bound.  Off, a full
        backlog rejects newcomers as ``queue_full``.
    """

    def __init__(
        self,
        quotas: Mapping[str, TenantQuota] | None = None,
        backlog_limit: int | None = None,
        shed: bool = False,
    ) -> None:
        if backlog_limit is not None and backlog_limit < 1:
            raise ReproError(f"backlog_limit must be >= 1, got {backlog_limit}")
        self.quotas = dict(quotas or {})
        self.backlog_limit = backlog_limit
        self.shed = bool(shed)
        self._buckets: dict[str, TokenBucket] = {}
        self._weights: dict[str, float] = {}
        self._backlog: dict[str, deque[tuple[Job, int]]] = {}
        self._passes: dict[str, float] = {}
        self._seq = 0
        #: Jobs waiting in the backlog now, and the high-water mark.
        self.depth = 0
        self.peak = 0
        self.n_over_quota = 0
        self.n_shed = 0

    def _quota_for(self, tenant: str) -> TenantQuota | None:
        return self.quotas.get(tenant, DEFAULT_QUOTA)

    def offer(
        self, job: Job, now: float
    ) -> tuple[Job | None, str | None, dict[str, Any] | None]:
        """Decide on one arrival at time ``now``.

        Returns ``(victim, reason, shed_event)``: ``(None, None, None)``
        when ``job`` joined the backlog; otherwise the job to reject
        (``job`` itself, or a waiting job ``job`` displaced), its typed
        reason, and the ``shed`` event payload when the reason is
        ``shed_overload``.
        """
        bucket = self._buckets.get(job.tenant)
        if bucket is None:
            quota = self._quota_for(job.tenant)
            if quota is not None:
                bucket = self._buckets[job.tenant] = TokenBucket(
                    quota.rate_per_s, quota.burst
                )
        if bucket is not None and not bucket.take(now):
            self.n_over_quota += 1
            return job, "over_quota", None
        if self.backlog_limit is None or self.depth < self.backlog_limit:
            self._admit(job)
            return None, None, None
        if not self.shed:
            return job, "queue_full", None
        victim, event = self._shed_pick(job)
        if victim is not job:
            self._admit(job)
        self.n_shed += 1
        return victim, "shed_overload", event

    def _admit(self, job: Job) -> None:
        self._seq += 1
        if job.tenant not in self._passes:
            # A new tenant starts at the current minimum pass so it cannot
            # burst ahead of tenants that have been dispatching all along.
            self._passes[job.tenant] = min(self._passes.values(), default=0.0)
            quota = self._quota_for(job.tenant)
            self._weights[job.tenant] = quota.weight if quota else 1.0
        self._backlog.setdefault(job.tenant, deque()).append((job, self._seq))
        self.depth += 1
        self.peak = max(self.peak, self.depth)

    def _shed_pick(self, incoming: Job) -> tuple[Job, dict[str, Any]]:
        """Pick the overflow victim: the minimum-value job, incoming included.

        Ties break toward the newest admission (largest sequence number),
        so long-waiting work keeps its place.  A waiting victim leaves the
        backlog here; the caller admits the incoming job in its place.
        """
        victim_tenant: str | None = None
        victim = (incoming, self._seq + 1)
        victim_key = (job_value(incoming), -(self._seq + 1))
        for tenant, waiting in self._backlog.items():
            for entry in waiting:
                key = (job_value(entry[0]), -entry[1])
                if key < victim_key:
                    victim_key = key
                    victim = entry
                    victim_tenant = tenant
        if victim_tenant is not None:
            self._backlog[victim_tenant].remove(victim)
            self.depth -= 1
        kept = [
            job_value(entry[0])
            for waiting in self._backlog.values()
            for entry in waiting
        ]
        if victim[0] is not incoming:
            kept.append(job_value(incoming))
        event: dict[str, Any] = {
            "job_id": victim[0].job_id,
            "tenant": victim[0].tenant,
            "value": job_value(victim[0]),
            "backlog": self.depth,
        }
        if kept:
            event["backlog_min_value"] = min(kept)
        return victim[0], event

    def pop(self) -> Job | None:
        """Release the next job by stride order (``None`` when empty)."""
        best: str | None = None
        for tenant, waiting in self._backlog.items():
            if waiting and (
                best is None
                or (self._passes[tenant], tenant) < (self._passes[best], best)
            ):
                best = tenant
        if best is None:
            return None
        job, _ = self._backlog[best].popleft()
        self.depth -= 1
        self._passes[best] += 1.0 / self._weights.get(best, 1.0)
        return job

    def drain(self) -> list[Job]:
        """Empty the backlog (graceful drain); returns the waiting jobs."""
        jobs = [job for waiting in self._backlog.values() for job, _ in waiting]
        for waiting in self._backlog.values():
            waiting.clear()
        self.depth = 0
        return jobs

    def stats(self) -> dict[str, Any]:
        return {
            "backlog_depth": self.depth,
            "backlog_peak": self.peak,
            "backlog_limit": self.backlog_limit,
            "n_over_quota": self.n_over_quota,
            "n_shed": self.n_shed,
            "tenants": sorted(self._passes),
        }
