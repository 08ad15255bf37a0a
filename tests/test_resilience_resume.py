"""Kill-mid-run resume determinism (the PR 5 acceptance property).

Three escalating proofs that a sweep killed mid-run and resumed from its
journal merges to the *bit-identical* result of an uninterrupted run:

1. a real ``SIGKILL`` of the sweep process while workers are in flight —
   the journal (or run catalog) left on disk parses cleanly (atomic
   flush), the catalog's fsync'd prefix comes back as verified cache
   hits, and the resumed merge hash equals an uninterrupted serial run's;
2. the Fig. 4 experiment sweep with an injected point crash (the CI chaos
   hook), salvaged, then resumed — at ``jobs`` 1, 2, and 4;
3. the faults-resilience sweep likewise, proving keyed-hash fault draws
   carry no schedule-dependent state across the kill/resume boundary
   (referenced from docs/FAULTS.md).
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Tuple

import pytest

from repro.catalog import RunCatalog
from repro.errors import ConfigError
from repro.experiments.faults_resilience import run_faults_resilience
from repro.experiments.fig4_bandwidth import run_fig4
from repro.parallel import CHAOS_ENV
from repro.resilience import (
    FailurePolicy,
    ResilienceOptions,
    RetryPolicy,
    RunJournal,
    journal_hashes,
)

_REPO_SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Driver script for the SIGKILL test. Runs in its own interpreter so the
#: test can kill it outright; the worker lives in ``__main__`` in every
#: invocation, keeping the journal's point keys stable across runs.
_SWEEP_SCRIPT = """\
import argparse
import time

from repro.catalog import RunCatalog
from repro.parallel import SweepExecutor, SweepPoint, result_hash
from repro.resilience import ResilienceOptions, RunJournal


def work(point):
    time.sleep(point.param("sleep_s"))
    return (point.index, point.seed * point.seed + 3 * point.index)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--journal")
    parser.add_argument("--catalog")
    parser.add_argument("--resume", action="store_true")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--sleep", type=float, required=True)
    args = parser.parse_args()
    points = [
        SweepPoint.make(i, f"pt@{i}", seed=100 + i, sleep_s=args.sleep)
        for i in range(8)
    ]
    journal = None
    if args.journal:
        journal = RunJournal(args.journal, resume=args.resume)
    catalog = RunCatalog(args.catalog) if args.catalog else None
    options = ResilienceOptions(journal=journal, catalog=catalog)
    executor = SweepExecutor(jobs=args.jobs, resilience=options)
    results = executor.map(work, points)
    print(f"cached={options.outcomes[-1].cache_hits}")
    print(result_hash([r.value for r in results]))


if __name__ == "__main__":
    main()
"""


def _run_sweep_script(script: Path, *args: str) -> Tuple[str, int]:
    """Run the driver to completion -> (printed merge hash, cache hits)."""
    env = dict(os.environ, PYTHONPATH=_REPO_SRC)
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
        check=True,
    )
    cached, digest = proc.stdout.strip().splitlines()[-2:]
    return digest, int(cached.split("=", 1)[1])


def _kill_after_two(script: Path, store: Path, record_kind: str, *args: str) -> None:
    """Run the driver, SIGKILL it once ``store`` holds two ``record_kind``
    lines (two fsync'd completions), and reap it."""
    env = dict(os.environ, PYTHONPATH=_REPO_SRC)
    victim = subprocess.Popen(
        [sys.executable, str(script), *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=env,
    )
    try:
        # Wait for at least two checkpoints, then kill without warning.
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            if store.exists() and store.read_text(
                encoding="utf-8"
            ).count(f'"kind": "{record_kind}"') >= 2:
                break
            time.sleep(0.02)
        else:
            pytest.fail(f"sweep never stored two {record_kind} records")
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=30)
    finally:
        if victim.poll() is None:
            victim.kill()
            victim.wait(timeout=30)


class TestSigkillMidSweep:
    def test_sigkill_then_resume_is_bit_identical_to_serial(
        self, tmp_path: Path
    ) -> None:
        script = tmp_path / "sweep_driver.py"
        script.write_text(_SWEEP_SCRIPT, encoding="utf-8")
        journal = tmp_path / "killed.journal"
        sleep = "0.2"

        _kill_after_two(
            script, journal, "point",
            "--journal", str(journal), "--jobs", "2", "--sleep", sleep,
        )

        # The half-written journal must parse cleanly (atomic appends) and
        # must actually be partial — the kill landed mid-run.
        partial = RunJournal(journal, resume=True)
        assert 2 <= partial.point_count < 8

        resumed_hash, _ = _run_sweep_script(
            script,
            "--journal",
            str(journal),
            "--resume",
            "--jobs",
            "4",
            "--sleep",
            sleep,
        )
        clean_journal = tmp_path / "clean.journal"
        clean_hash, _ = _run_sweep_script(
            script,
            "--journal",
            str(clean_journal),
            "--jobs",
            "1",
            "--sleep",
            sleep,
        )
        assert resumed_hash == clean_hash
        assert journal_hashes(journal) == journal_hashes(clean_journal)

    def test_sigkill_then_catalog_rerun_serves_the_prefix(
        self, tmp_path: Path
    ) -> None:
        script = tmp_path / "sweep_driver.py"
        script.write_text(_SWEEP_SCRIPT, encoding="utf-8")
        catalog = tmp_path / "killed.catalog"
        sleep = "0.2"

        _kill_after_two(
            script, catalog, "entry",
            "--catalog", str(catalog), "--jobs", "2", "--sleep", sleep,
        )

        # The fsync'd prefix survives the kill: the catalog opens cleanly
        # (a torn tail is salvaged) and is genuinely partial.
        survived = RunCatalog(catalog).entry_count
        assert 2 <= survived < 8

        # A re-run on the same catalog serves exactly that prefix as
        # verified hits, computes the rest, and merges to the hash of an
        # uninterrupted serial run.
        resumed_hash, cached = _run_sweep_script(
            script, "--catalog", str(catalog), "--jobs", "4", "--sleep", sleep
        )
        assert cached == survived
        clean_hash, clean_cached = _run_sweep_script(
            script,
            "--catalog",
            str(tmp_path / "clean.catalog"),
            "--jobs",
            "1",
            "--sleep",
            sleep,
        )
        assert clean_cached == 0
        assert resumed_hash == clean_hash
        assert RunCatalog(catalog).entry_count == 8

    def test_resume_without_a_journal_fails_loudly(self, tmp_path: Path) -> None:
        with pytest.raises(ConfigError, match="cannot resume"):
            RunJournal(tmp_path / "never-written.journal", resume=True)


#: Small-but-real sweep shapes shared by the experiment-level tests.
_FIG4_RATES = (0.05, 0.1, 0.2, 0.4)
_FIG4_HORIZON = 4_000
_FAULT_SCENARIOS = ("none", "input-stall", "packet-drop")
_FAULT_HORIZON = 2_000


@pytest.fixture(scope="module")
def fig4_clean(tmp_path_factory: pytest.TempPathFactory):
    """Uninterrupted serial fig4 run, journaled, computed once."""
    path = tmp_path_factory.mktemp("fig4") / "clean.journal"
    options = ResilienceOptions(journal=RunJournal(path))
    result = run_fig4(
        "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=1, resilience=options
    )
    return result, path


@pytest.fixture(scope="module")
def faults_clean(tmp_path_factory: pytest.TempPathFactory):
    """Uninterrupted serial faults-resilience run, journaled, computed once."""
    path = tmp_path_factory.mktemp("faults") / "clean.journal"
    options = ResilienceOptions(journal=RunJournal(path))
    result = run_faults_resilience(
        horizon=_FAULT_HORIZON,
        jobs=1,
        scenarios=list(_FAULT_SCENARIOS),
        resilience=options,
    )
    return result, path


@pytest.mark.parametrize("jobs", [1, 2, 4])
class TestExperimentCrashResume:
    def test_fig4_salvage_then_resume_matches_clean_serial(
        self,
        jobs: int,
        tmp_path: Path,
        fig4_clean,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        clean_result, clean_journal = fig4_clean
        journal = tmp_path / "chaos.journal"

        monkeypatch.setenv(CHAOS_ENV, "fig4:ssvc@0.2")
        salvage = ResilienceOptions(
            journal=RunJournal(journal),
            on_failure=FailurePolicy.SALVAGE,
            retry=RetryPolicy(retries=1, backoff_base=0.001, backoff_cap=0.01),
        )
        partial = run_fig4(
            "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=jobs, resilience=salvage
        )
        assert partial.completed_rates == (0.05, 0.1, 0.4)
        assert salvage.outcomes[0].failures[0].kind == "chaos"

        monkeypatch.delenv(CHAOS_ENV)
        resume = ResilienceOptions(journal=RunJournal(journal, resume=True))
        resumed = run_fig4(
            "ssvc", _FIG4_RATES, horizon=_FIG4_HORIZON, jobs=jobs, resilience=resume
        )
        assert resume.outcomes[0].resumed == len(_FIG4_RATES) - 1

        assert resumed.accepted == clean_result.accepted
        assert resumed.total_throughput == clean_result.total_throughput
        assert resumed.grants == clean_result.grants
        assert journal_hashes(journal) == journal_hashes(clean_journal)

    def test_faults_salvage_then_resume_matches_clean_serial(
        self,
        jobs: int,
        tmp_path: Path,
        faults_clean,
        monkeypatch: pytest.MonkeyPatch,
    ) -> None:
        clean_result, clean_journal = faults_clean
        journal = tmp_path / "chaos.journal"

        monkeypatch.setenv(CHAOS_ENV, "faults:packet-drop")
        salvage = ResilienceOptions(
            journal=RunJournal(journal), on_failure=FailurePolicy.SALVAGE
        )
        partial = run_faults_resilience(
            horizon=_FAULT_HORIZON,
            jobs=jobs,
            scenarios=list(_FAULT_SCENARIOS),
            resilience=salvage,
        )
        assert [o.name for o in partial.outcomes] == ["none", "input-stall"]
        assert salvage.outcomes[0].failures[0].kind == "chaos"

        monkeypatch.delenv(CHAOS_ENV)
        resume = ResilienceOptions(journal=RunJournal(journal, resume=True))
        resumed = run_faults_resilience(
            horizon=_FAULT_HORIZON,
            jobs=jobs,
            scenarios=list(_FAULT_SCENARIOS),
            resilience=resume,
        )
        assert resume.outcomes[0].resumed == len(_FAULT_SCENARIOS) - 1

        assert [o.name for o in resumed.outcomes] == list(_FAULT_SCENARIOS)
        for got, want in zip(resumed.outcomes, clean_result.outcomes):
            assert got.worst_gb_shortfall == want.worst_gb_shortfall
            assert got.gl_max_waiting == want.gl_max_waiting
            assert got.abuser_rate == want.abuser_rate
        assert journal_hashes(journal) == journal_hashes(clean_journal)
    # The journal-hash equalities above are exactly the merged result_hash
    # identity: journal_hashes digests repr(value) + NUL in index order,
    # byte-for-byte what repro.parallel.result_hash computes live.
