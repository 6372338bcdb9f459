"""Self-test of the benchmark harness (not of weilkit's speed).

Run from the repository root:  python -m pytest bench/tests -q

Runs tiny workloads end to end and checks that a deliberately wrong
expected value is counted as a failed operation.  No time bound is
asserted anywhere.
"""

import json
import os
import random
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import cli_workloads  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_chart_sweep_end_to_end(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    assert run.main(["--workload", "chart-sweep", "--seed", "7", "--seconds", "0"]) == 0
    result = _last_json(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    argv = ["--workload", "chart-sweep", "--seed", "7", "--seconds", "0", "--trace", "1"]
    assert run.main(argv) == 0
    metrics = _last_json(capsys)["metrics"]
    assert list(metrics) == spans.per_layer_names()
    assert metrics["foliation.distribution_at.calls"]["value"] > 0
    assert metrics["setup.derivations.bracket.calls"]["value"] == 18 * 17 / 2


def test_wrong_expected_value_shows_in_fail_ratio(monkeypatch, tmp_path):
    original = gen.sparse_entry

    def corrupted(name):
        entry = original(name)
        if name == "t1k3":
            entry["expected"] = {**entry["expected"], "r": entry["expected"]["r"] + 1}
        return entry

    monkeypatch.setattr(gen, "sparse_entry", corrupted)
    monkeypatch.setattr(run, "MIN_OPS", 1)
    result = run.run_cli("cli-sparse", 5, 0.0, False, str(tmp_path))
    failed_cards = {card for card, _ in result.failures}
    # derivations and foliation report r; check reports only dim, height, width.
    assert failed_cards == {"08:derivations t1k3", "17:foliation t1k3"}
    assert 0 < len(result.failures) / result.attempted < 1


def test_invalid_table_must_name_its_axiom(tmp_path):
    cards = cli_workloads.dense_deck(random.Random(3), str(tmp_path))
    card = next(c for c in cards if c.key.endswith("check bad-NotLocal"))
    argv = [sys.executable, "-m", "weilkit.cli", *card.argv]
    _, _, code, out, err, timed_out = run._spawn(argv, run.child_env(), str(tmp_path))
    assert not timed_out
    assert card.check(code, out, err) is None
    assert cli_workloads.check_rejected("NoUnit", as_json=True)(code, out, err) is not None


def test_float_rank_and_leibniz_oracles():
    assert checks.float_rank([[1, 2], [2, 4]]) == 1
    assert checks.float_rank([[0, 0], [0, 0]]) == 0
    assert checks.float_rank([[1, 0, 0], [0, 1e-3, 0]]) == 2
    entry = gen.sparse_entry("t1k3")
    euler = [[0] * 4 for _ in range(4)]
    for k in range(4):
        euler[k][k] = k  # x d/dx on R[x]/x^4
    assert checks.leibniz_ok(entry["table"], euler)
    euler[1][1] = 2
    assert not checks.leibniz_ok(entry["table"], euler)
