"""Classified retries: transient vs permanent, capped backoff, a per-task cap.

The old pool behavior — "retry at most once, only on a crash" — treated
every failure the same.  :class:`RetryPolicy` splits them the way a
production queue must:

- **transient** failures are properties of *this execution*, not of the
  job: the worker process died (:class:`repro.errors.WorkerDiedError`),
  the watchdog killed a hung worker, the task timed out.  A lost worker is
  retried with capped exponential backoff and deterministic seeded jitter,
  up to a per-task cap (so one poison job cannot burn retries forever); a
  timeout is never retried;
- **permanent** failures are properties of the *spec*: the job function
  raised (:class:`repro.errors.CalibrationError`, any
  :class:`repro.errors.ReproError`, a validation failure).  Re-running
  cannot change a deterministic outcome, so they go straight to a
  dead-letter record with zero retries.

The jitter is a pure function of ``(seed, token, attempt)`` — two runs of
the same batch back off at the same instants, which keeps chaos tests and
journal replays reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.obs import metrics as obs_metrics

__all__ = ["RetryPolicy", "TRANSIENT_STATUSES"]

#: Task outcome statuses classified transient (see :class:`repro.serve.pool
#: .TaskOutcome`): the execution failed, the spec was never judged.
TRANSIENT_STATUSES = frozenset({"crashed", "timeout"})


@dataclass
class RetryPolicy:
    """When and how the pool retries a failed task.

    Parameters
    ----------
    max_transient_retries:
        Extra attempts granted per task after a transient failure.
    base_backoff_s / backoff_factor / max_backoff_s:
        Capped exponential schedule: retry ``n`` (1-based) waits
        ``min(base * factor**(n-1), max)`` seconds, plus jitter.
    jitter_frac:
        Uniform jitter added on top, as a fraction of the delay
        (``0.25`` adds 0–25 %), derived deterministically from
        ``(seed, token, attempt)``.
    seed:
        Jitter seed; fixed seed + fixed tokens = bit-identical schedule.
    """

    max_transient_retries: int = 3
    base_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 2.0
    jitter_frac: float = 0.25
    seed: int = 0

    # -- classification -----------------------------------------------------

    def classify(self, status: str, exception: BaseException | None = None) -> str:
        """``"transient"`` or ``"permanent"`` for a task outcome status.

        ``crashed`` (worker death, watchdog kill) and ``timeout`` are
        transient; ``error`` — the job function itself raised — is
        permanent regardless of the exception type, because the runner is
        a pure function of the spec.
        """
        kind = "transient" if status in TRANSIENT_STATUSES else "permanent"
        obs_metrics.counter(f"serve.retry.{kind}").inc()
        return kind

    def should_retry(self, status: str, attempts: int) -> bool:
        """Decide a retry for a task that has already run ``attempts`` times."""
        # Only a crash is retried.  A timeout is transient, but a
        # deterministic job that blew its budget once would blow it again.
        return status == "crashed" and attempts <= self.max_transient_retries

    # -- backoff ------------------------------------------------------------

    def backoff_s(self, attempt: int, token: str = "") -> float:
        """Delay before retry number ``attempt`` (1-based) of ``token``.

        Pure function of ``(seed, token, attempt)`` — deterministic
        jitter, so a replayed batch backs off identically.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        delay = min(
            self.base_backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter_frac > 0.0:
            digest = hashlib.sha256(
                f"{self.seed}:{token}:{attempt}".encode()
            ).digest()
            unit = int.from_bytes(digest[:8], "big") / 2**64
            delay *= 1.0 + self.jitter_frac * unit
        return delay
