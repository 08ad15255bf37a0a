"""RP201–RP204 behaviour on the good/bad fixture packages, the baseline
workflow, and the ``repro-lint --project`` CLI wiring.

The core acceptance assertion of the issue lives here: every project
rule demonstrably fires on the bad mini-project and stays silent on the
good one.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import apply_baseline, load_baseline, write_baseline
from repro.analysis.cli import main as lint_main
from repro.analysis.project import all_project_rules, analyze_project
from repro.errors import ConfigError

REPO = Path(__file__).resolve().parent.parent
GOOD_ROOT = str(REPO / "tests" / "fixtures" / "project_good")
BAD_ROOT = str(REPO / "tests" / "fixtures" / "project_bad")
SRC_ROOT = str(REPO / "src")

PROJECT_RULE_IDS = ("RP201", "RP202", "RP203", "RP204")


@pytest.fixture(scope="module")
def bad_report():
    return analyze_project([BAD_ROOT], select=set(PROJECT_RULE_IDS))


@pytest.fixture(scope="module")
def good_report():
    return analyze_project([GOOD_ROOT], select=set(PROJECT_RULE_IDS))


def _rule_findings(report, rule_id):
    return [f for f in report.open_findings if f.rule_id == rule_id]


def test_all_project_rules_are_registered():
    assert {cls.id for cls in all_project_rules()} >= set(PROJECT_RULE_IDS)


@pytest.mark.parametrize("rule_id", PROJECT_RULE_IDS)
def test_rule_fires_on_bad_and_is_silent_on_good(rule_id, bad_report, good_report):
    assert _rule_findings(bad_report, rule_id), f"{rule_id} silent on bad fixture"
    assert not _rule_findings(good_report, rule_id), (
        f"{rule_id} false positives on good fixture: "
        f"{[f.render() for f in _rule_findings(good_report, rule_id)]}"
    )


# -------------------------------------------------------------- RP201 shape


def test_rp201_finds_the_three_unseeded_paths(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP201"))
    assert "omits seed parameter" in messages
    assert "passes seed=None" in messages
    assert "provenance unknown" in messages
    assert "SeedSequence() without entropy" in messages


def test_rp201_respects_none_guards(good_report):
    # goodpkg.rng.verified(seed=None) raises on None before the RNG; callers
    # omitting the seed must not be flagged.
    assert not _rule_findings(good_report, "RP201")


# -------------------------------------------------------------- RP202 shape


def test_rp202_finds_transitive_and_shape_violations(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP202"))
    assert "lambda" in messages
    assert "nested function" in messages
    assert "'global _TOTAL'" in messages  # two hops below the submission
    assert "_SEEN" in messages
    assert "_CACHE" in messages
    assert "file handle 'LOG'" in messages


# -------------------------------------------------------------- RP203 shape


def test_rp203_taxonomy_and_cause_chain(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP203"))
    assert "RuntimeError" in messages
    assert "LocalError" in messages
    assert "drops the caught exception 'exc'" in messages
    assert "severs a broad failure context" in messages


# -------------------------------------------------------------- RP204 shape


def test_rp204_missing_flush_and_early_exit(bad_report):
    messages = "\n".join(f.message for f in _rule_findings(bad_report, "RP204"))
    assert "never flushes" in messages
    assert "exits before the probe flush" in messages
    assert "run_tally_early_exit() exits before the probe flush" in messages


# ---------------------------------------------------------- real-tree state


def test_src_tree_is_clean_under_project_rules():
    report = analyze_project([SRC_ROOT], select=set(PROJECT_RULE_IDS))
    assert not report.open_findings, [f.render() for f in report.open_findings]


def test_committed_baseline_matches_tree():
    # CI contract: the committed baseline keeps `repro-lint --project` green.
    report = analyze_project([SRC_ROOT])
    baseline = load_baseline(REPO / "analysis" / "baseline.json")
    apply_baseline(report, baseline)
    assert report.exit_code == 0, [f.render() for f in report.open_findings]


# ---------------------------------------------------------------- baseline


def test_baseline_round_trip(tmp_path, bad_report):
    path = tmp_path / "baseline.json"
    count = write_baseline(bad_report, path)
    assert count == len(bad_report.open_findings) > 0
    fresh = analyze_project([BAD_ROOT], select=set(PROJECT_RULE_IDS))
    stale = apply_baseline(fresh, load_baseline(path))
    assert stale == 0
    assert fresh.exit_code == 0  # everything grandfathered
    assert len(fresh.baselined_findings) == count


def test_baseline_multiset_semantics(tmp_path, bad_report):
    path = tmp_path / "baseline.json"
    write_baseline(bad_report, path)
    payload = json.loads(path.read_text())
    # Drop one entry: the matching finding must come back as a regression.
    dropped = payload["entries"].pop()
    path.write_text(json.dumps(payload))
    fresh = analyze_project([BAD_ROOT], select=set(PROJECT_RULE_IDS))
    apply_baseline(fresh, load_baseline(path))
    regressions = fresh.open_findings
    assert len(regressions) == 1
    assert regressions[0].rule_id == dropped["rule_id"]
    assert regressions[0].message == dropped["message"]


def test_stale_baseline_entries_are_reported_not_fatal(tmp_path, good_report):
    path = tmp_path / "baseline.json"
    path.write_text(
        json.dumps(
            {
                "tool": "reprolint-baseline",
                "version": 1,
                "entries": [
                    {"rule_id": "RP201", "path": "gone.py", "message": "old"}
                ],
            }
        )
    )
    fresh = analyze_project([GOOD_ROOT], select=set(PROJECT_RULE_IDS))
    stale = apply_baseline(fresh, load_baseline(path))
    assert stale == 1
    assert fresh.exit_code == 0


@pytest.mark.parametrize(
    "payload",
    [
        "not json at all",
        json.dumps({"tool": "other-tool", "version": 1, "entries": []}),
        json.dumps({"tool": "reprolint-baseline", "version": 99, "entries": []}),
        json.dumps({"tool": "reprolint-baseline", "version": 1}),
        json.dumps(
            {"tool": "reprolint-baseline", "version": 1, "entries": [{"rule_id": 3}]}
        ),
    ],
)
def test_malformed_baseline_raises_config_error(tmp_path, payload):
    path = tmp_path / "baseline.json"
    path.write_text(payload)
    with pytest.raises(ConfigError):
        load_baseline(path)


def test_missing_baseline_raises_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_baseline(tmp_path / "absent.json")


# --------------------------------------------------------------------- CLI


def test_cli_project_mode_exit_codes(capsys):
    assert lint_main(["--project", BAD_ROOT]) == 1
    assert lint_main(["--project", GOOD_ROOT]) == 0
    out = capsys.readouterr().out
    assert "findings per rule:" in out
    assert "RP202" in out


def test_cli_project_json_format(capsys):
    assert lint_main(["--project", BAD_ROOT, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    rule_ids = {f["rule_id"] for f in payload["findings"]}
    assert set(PROJECT_RULE_IDS) <= rule_ids
    assert all("baselined" in f for f in payload["findings"])


def test_cli_baseline_flow(tmp_path, capsys):
    baseline = tmp_path / "baseline.json"
    assert lint_main(["--project", BAD_ROOT, "--write-baseline", str(baseline)]) == 0
    capsys.readouterr()
    assert lint_main(["--project", BAD_ROOT, "--baseline", str(baseline)]) == 0
    out = capsys.readouterr().out
    assert "baselined" in out.lower()


def test_cli_baseline_requires_project():
    with pytest.raises(SystemExit):
        lint_main(["src", "--baseline", "x.json"])


def test_cli_rejects_baseline_with_write_baseline():
    with pytest.raises(SystemExit):
        lint_main(["--project", "--baseline", "a.json", "--write-baseline", "b.json"])


def test_cli_select_limits_project_rules(capsys):
    assert lint_main(["--project", BAD_ROOT, "--select", "RP204"]) == 1
    out = capsys.readouterr().out
    assert "RP204" in out
    assert "RP201" not in out
