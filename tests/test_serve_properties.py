"""Property tests: the service's results are invariant to scheduling.

The :class:`repro.serve.BatchServer` contract is that the deterministic
part of every result (:meth:`JobResult.deterministic`) is a pure function
of the job spec — worker count, submission order and coalescing only
decide *when and where* jobs run.  Hypothesis generates job lists (with
duplicate specs and injected failures) and
the tests assert the invariance across worker counts 1, 2, and 4 and across
permutations.  The cheap :func:`repro.testing.workloads.digest_runner`
keeps each example in the milliseconds; profiles are pinned in
``tests/conftest.py``.
"""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.serve import BatchServer, Job
from repro.testing.workloads import FAILING_FAULT, digest_runner

WORKER_COUNTS = (1, 2, 4)

# Small seed/step domains on purpose: collisions are the interesting case
# (they exercise coalescing and the done-cache), and hypothesis finds them
# immediately in a tight domain.
_specs = st.fixed_dictionaries(
    {
        "subject_seed": st.integers(min_value=0, max_value=3),
        "angle_step_deg": st.sampled_from([5.0, 15.0]),
        "fault": st.sampled_from([None, FAILING_FAULT]),
    }
)
_job_lists = st.lists(_specs, min_size=1, max_size=8)


@st.composite
def _job_lists_and_orders(draw):
    raw = draw(_job_lists)
    order = draw(st.permutations(range(len(raw))), label="submission order")
    return raw, order


_FAILING_SPEC = {
    "subject_seed": 0, "angle_step_deg": 5.0, "fault": FAILING_FAULT,
}


def _jobs(raw: list[dict]) -> list[Job]:
    return [Job(job_id=f"j{i}", **spec) for i, spec in enumerate(raw)]


def _run(jobs: list[Job], workers: int, coalesce: bool = True) -> list[dict]:
    with BatchServer(
        workers=workers, runner=digest_runner, coalesce=coalesce
    ) as server:
        report = server.run_batch(jobs)
    return [result.deterministic() for result in report.results]


@given(raw=_job_lists)
@settings(max_examples=8)
def test_results_invariant_to_worker_count(raw):
    jobs = _jobs(raw)
    baseline = _run(jobs, workers=WORKER_COUNTS[0])
    for workers in WORKER_COUNTS[1:]:
        assert _run(jobs, workers=workers) == baseline


# Two identical failing specs submitted in reverse: the second coalesces
# onto the first and inherits its error, which must not name the leader.
@example(case=([_FAILING_SPEC, _FAILING_SPEC], [1, 0]))
@given(case=_job_lists_and_orders())
@settings(max_examples=8)
def test_results_invariant_to_submission_order(case):
    raw, order = case
    jobs = _jobs(raw)
    shuffled = [jobs[i] for i in order]
    by_id = {
        result["job_id"]: result for result in _run(shuffled, workers=2)
    }
    baseline = _run(jobs, workers=1)
    assert [by_id[result["job_id"]] for result in baseline] == baseline


@given(raw=_job_lists)
@settings(max_examples=6)
def test_coalescing_never_changes_results(raw):
    jobs = _jobs(raw)
    assert _run(jobs, workers=2, coalesce=True) == _run(
        jobs, workers=2, coalesce=False
    )


@given(raw=_job_lists)
@settings(max_examples=6)
def test_every_job_gets_exactly_one_terminal_result(raw):
    jobs = _jobs(raw)
    results = _run(jobs, workers=4)
    assert [result["job_id"] for result in results] == [
        job.job_id for job in jobs
    ]
    for job, result in zip(jobs, results):
        expected = "failed" if job.fault == FAILING_FAULT else "ok"
        assert result["status"] == expected
        if expected == "ok":
            assert result["payload"]["digest"]
        else:
            assert "synthetic failure" in result["error"]
