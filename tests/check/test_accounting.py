"""Tests for the serving-accounting oracle and its fuzz rotation."""

import dataclasses

import pytest

from repro.check.accounting import (
    FATES,
    check_service_accounting,
    random_service_run,
)
from repro.check.fuzz import generate_scenario, run_case


@pytest.fixture(scope="module")
def run():
    # A seed whose run has every kind of outcome but "degraded".
    return random_service_run(3)


def _replace_outcome(result, index, **changes):
    outcomes = list(result.outcomes)
    outcomes[index] = dataclasses.replace(outcomes[index], **changes)
    return dataclasses.replace(result, outcomes=outcomes)


def _first(result, status):
    return next(
        i for i, o in enumerate(result.outcomes) if o.status == status
    )


class TestHealthyRuns:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_runs_account_every_submission(self, seed):
        result, rerun = random_service_run(seed), random_service_run(seed)
        assert check_service_accounting(result, rerun) == []

    def test_random_runs_cover_every_terminal_status(self):
        statuses = {
            o.status
            for seed in range(12)
            for o in random_service_run(seed).outcomes
        }
        assert statuses == set(FATES)


class TestTamperedRuns:
    def test_duplicate_outcome(self, run):
        tampered = dataclasses.replace(
            run, outcomes=run.outcomes + run.outcomes[:1]
        )
        failures = check_service_accounting(tampered)
        assert any("has 2 outcomes" in f for f in failures)

    def test_non_terminal_status(self, run):
        tampered = _replace_outcome(run, 0, status="running")
        assert any(
            "non-terminal status" in f
            for f in check_service_accounting(tampered)
        )

    def test_status_that_contradicts_the_fragment_fates(self, run):
        index = _first(run, "rejected")
        tampered = _replace_outcome(run, index, status="completed")
        assert any(
            "completed with fragment fates" in f
            for f in check_service_accounting(tampered)
        )

    def test_wrong_finish_time(self, run):
        index = _first(run, "completed")
        finished = run.outcomes[index].finished_at
        tampered = _replace_outcome(run, index, finished_at=finished + 1.0)
        assert any(
            "finished_at is not its last finish" in f
            for f in check_service_accounting(tampered)
        )

    def test_counter_mismatch(self):
        # A fresh run: the tenant digests are mutated in place.
        result = random_service_run(3)
        tenant = next(iter(result.metrics.tenants.values()))
        tenant.admitted += 1
        assert any(
            f"tenant {tenant.tenant}: admitted counter" in f
            for f in check_service_accounting(result)
        )

    def test_nondeterministic_rerun(self, run):
        failures = check_service_accounting(run, random_service_run(4))
        assert "the same seeded run digested differently twice" in failures


class TestFuzzRotation:
    def test_odd_seeds_run_the_serving_oracle(self, monkeypatch):
        import repro.check.fuzz as fuzz

        monkeypatch.setattr(
            fuzz, "check_service_accounting", lambda result, rerun: ["boom"]
        )
        odd = generate_scenario(1)
        assert "serving: boom" in run_case(odd)
        even = generate_scenario(2)
        assert not any(f.startswith("serving:") for f in run_case(even))
