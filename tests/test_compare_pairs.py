"""``benchmarks/compare_pairs.py``: pairing, statistics and verdicts on synthetic run output."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "compare_pairs.py"
spec = importlib.util.spec_from_file_location("compare_pairs", SCRIPT)
compare_pairs = importlib.util.module_from_spec(spec)
sys.modules[spec.name] = compare_pairs  # dataclasses resolve annotations through it
spec.loader.exec_module(compare_pairs)

END_TO_END = [
    {"name": "resp_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "work_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mib", "unit": "MiB", "better": "lower", "bound": 0.1},
]


def run_output(
    workload, seed, metrics, failed=0, attempted=100, correct=True, digest=None, ledger=None
):
    """The lines ``perfbench/run.py`` prints for one run (metric table included)."""
    detail = {"detail": {"workload": workload, "seed": seed, "seconds": 12, "trace": 0}}
    if digest is not None:
        detail["detail"]["inputs_digest"] = digest(seed)
    if ledger is not None:
        detail["detail"].update(ledger(seed))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "x"} for name, value in metrics.items()},
    }
    table = [f"  {name:34s} {value:14.6f} x n=1" for name, value in metrics.items()]
    return [json.dumps(detail), *table, json.dumps(result)]


def write_side(path, workload, seeds, metrics_of_seed, **kwargs):
    lines = []
    for seed in seeds:
        lines += run_output(workload, seed, metrics_of_seed(seed), **kwargs)
    path.write_text("\n".join(lines) + "\n")
    return path


def parent_metrics(seed):
    jitter = (seed % 5) * 0.01  # quartile spread of a few percent
    return {
        "resp_p50_ms": 2.4 * (1 + jitter),
        "work_s": 10.0 * (1 + jitter),
        # setup_s spreads far wider than its bound; peak_rss_mib is tight.
        "setup_s": 1.0 + (seed % 5) * 0.3,
        "peak_rss_mib": 200.0 * (1 + jitter / 10),
    }


def change_metrics(seed):
    parent = parent_metrics(seed)
    return {
        "resp_p50_ms": parent["resp_p50_ms"] * 0.6,  # gain
        "work_s": parent["work_s"] * 1.5,  # regression
        "setup_s": parent["setup_s"] * 1.1,  # inside a spread wider than the bound
        "peak_rss_mib": parent["peak_rss_mib"] * 1.01,  # within bound
    }


@pytest.fixture()
def reports(tmp_path):
    seeds = range(101, 111)
    parent = write_side(tmp_path / "parent.txt", "serve-dense", seeds, parent_metrics)
    # An extra seed on the change side only is not paired.
    change = write_side(tmp_path / "change.txt", "serve-dense", [*seeds, 999], change_metrics)
    return compare_pairs.compare(
        compare_pairs.read_runs([parent]), compare_pairs.read_runs([change]), END_TO_END
    )


def test_pairs_by_workload_and_seed(reports):
    (report,) = reports
    assert report.workload == "serve-dense"
    assert report.pairs == 10
    assert report.failed == (0, 0) and report.attempted == (1000, 1000)
    assert report.incorrect == (0, 0)
    assert not report.failure_share_rose


def test_verdicts(reports):
    rows = {row.name: row for row in reports[0].rows}
    assert rows["resp_p50_ms"].verdict == "gain"
    assert rows["resp_p50_ms"].wins == 10
    assert rows["resp_p50_ms"].difference == pytest.approx(-0.4)
    assert rows["work_s"].verdict == "regression"
    assert rows["work_s"].wins == 0
    assert rows["setup_s"].spread > 0.25
    assert rows["setup_s"].verdict == "unresolved"
    assert rows["peak_rss_mib"].verdict == "within bound"


def test_quartiles_and_spread():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    label, wins, difference, spread = compare_pairs.verdict(parent, parent, "lower", 0.25)
    assert (label, wins, difference) == ("unresolved", 0, 0.0)
    assert spread == pytest.approx((4.0 - 2.0) / 3.0)


def test_gain_needs_nine_of_ten_wins_and_the_spread():
    parent = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    better = [value * 0.5 for value in parent]
    assert compare_pairs.verdict(parent, better, "lower", 0.25)[0] == "gain"
    two_losses = better[:8] + [20.0, 20.0]
    assert compare_pairs.verdict(parent, two_losses, "lower", 0.25)[0] == "within bound"
    # Nine of ten pairs is not enough when fewer than ten pairs ran.
    assert compare_pairs.verdict(parent[:9], better[:9], "lower", 0.25)[0] == "within bound"
    # Higher-is-better metrics win the other way round.
    assert compare_pairs.verdict(parent, better, "higher", 0.25)[0] == "regression"


def test_wide_spread_is_resolved_when_every_change_run_is_better():
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]
    change = [0.5, 0.6, 0.7, 0.8, 0.9]
    assert compare_pairs.verdict(parent, change, "lower", 0.25)[0] == "within bound"


def test_failures_and_incorrect_runs_are_counted(tmp_path):
    parent = write_side(tmp_path / "p.txt", "train-publish", [1, 2], parent_metrics)
    change = write_side(
        tmp_path / "c.txt", "train-publish", [1, 2], change_metrics, failed=3, correct=False
    )
    (report,) = compare_pairs.compare(
        compare_pairs.read_runs([parent]), compare_pairs.read_runs([change]), END_TO_END
    )
    assert report.failed == (0, 6)
    assert report.incorrect == (0, 2)
    assert report.failure_share_rose
    assert "FAILURE SHARE ROSE" in compare_pairs.format_report([report])


def test_a_seed_run_twice_on_one_side_is_rejected(tmp_path):
    path = write_side(tmp_path / "p.txt", "serve-dense", [1, 1], parent_metrics)
    with pytest.raises(ValueError, match="twice"):
        compare_pairs.read_runs([path])


def test_cli_prints_one_row_per_metric(tmp_path, capsys):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    parent = write_side(tmp_path / "p.txt", "serve-dense", range(10), parent_metrics)
    change = write_side(tmp_path / "c.txt", "serve-dense", range(10), change_metrics)
    argv = ["--parent", str(parent), "--change", str(change), "--benchmark", str(benchmark)]
    # change_metrics regresses work_s, so the comparison fails.
    assert compare_pairs.main(argv) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("serve-dense: 10 pairs")
    assert [line.split()[0] for line in out[2:]] == [m["name"] for m in END_TO_END]
    assert out[2].rstrip().endswith("gain")


def _cli(tmp_path, change_metrics_of_seed, workload="serve-dense", parent_digest=None, **kwargs):
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    parent = write_side(
        tmp_path / "p.txt", "serve-dense", range(10), parent_metrics, digest=parent_digest
    )
    change = write_side(tmp_path / "c.txt", workload, range(10), change_metrics_of_seed, **kwargs)
    return compare_pairs.main(
        ["--parent", str(parent), "--change", str(change), "--benchmark", str(benchmark)]
    )


def clean_metrics(seed):
    parent = parent_metrics(seed)
    return {**parent, "resp_p50_ms": parent["resp_p50_ms"] * 0.9, "work_s": parent["work_s"] * 1.02}


def test_cli_exits_zero_on_clean_pairs(tmp_path, capsys):
    assert _cli(tmp_path, clean_metrics) == 0
    out = capsys.readouterr().out
    assert "regression" not in out


def test_cli_exits_one_on_an_incorrect_run_or_a_risen_failed_share(tmp_path):
    assert _cli(tmp_path, clean_metrics, correct=False) == 1
    assert _cli(tmp_path, clean_metrics, failed=1) == 1


def test_cli_exits_two_when_no_pair_matched(tmp_path, capsys):
    assert _cli(tmp_path, clean_metrics, workload="train-publish") == 2
    assert "no (workload, seed) pair" in capsys.readouterr().err


def _digest(seed):
    return f"{seed:016x}"


def test_cli_exits_one_when_a_pair_ran_different_inputs(tmp_path, capsys):
    # Seed 3 ran other inputs on the change side (say, another --seconds).
    def change_digest(seed):
        return "feedfacefeedface" if seed == 3 else _digest(seed)

    assert _cli(tmp_path, clean_metrics, parent_digest=_digest, digest=change_digest) == 1
    out = capsys.readouterr().out
    assert out.count("INPUTS DIFFER") == 1
    assert "INPUTS DIFFER: serve-dense seed 3: parent inputs_digest 0000000000000003, " in out
    assert "change feedfacefeedface" in out


def test_cli_exits_zero_when_every_pair_ran_the_same_inputs(tmp_path, capsys):
    assert _cli(tmp_path, clean_metrics, parent_digest=_digest, digest=_digest) == 0
    assert "INPUTS DIFFER" not in capsys.readouterr().out


def test_a_missing_digest_counts_as_unknown(tmp_path):
    # Older outputs carry no digest: only one side having one is no mismatch.
    assert _cli(tmp_path, clean_metrics, parent_digest=_digest) == 0


FAILED_KINDS = ("shed", "deadline", "error")


def _phases(baseline=(0, 0, 0), burst=(0, 0, 0), burst_not_run=0):
    """A ``phases`` ledger with ``(shed, deadline, error)`` counts per phase.

    ``burst_not_run`` burst requests never ran: sent, in no outcome column.
    """
    book = {
        phase: {"sent": 50, "ok": 50 - sum(counts), **dict(zip(FAILED_KINDS, counts))}
        for phase, counts in (("baseline", baseline), ("burst", burst))
    }
    book["burst"]["ok"] -= burst_not_run
    return book


def test_failed_operations_are_named_by_side_seed_phase_and_kind(tmp_path, capsys):
    def parent_ledger(seed):
        # Seed 3: two sheds and a deadline in the stream, plus one failed publish.
        return {"phases": _phases(baseline=(2, 0, 0), burst=(0, 1, 0)) if seed == 3 else _phases()}

    def change_ledger(seed):
        if seed == 5:
            return {}  # an older output: no ledger, so its stream failures are unknown
        pool = {"phases": _phases(burst=(0, 0, 2), burst_not_run=1)} if seed == 7 else None
        return {"phases": _phases(), **({"pool": pool} if pool else {})}

    failures = {("parent", 3): 4, ("change", 5): 3, ("change", 7): 3}
    benchmark = tmp_path / "BENCHMARK.json"
    benchmark.write_text(json.dumps({"end_to_end": END_TO_END}))
    sides = {}
    for side, ledger in (("parent", parent_ledger), ("change", change_ledger)):
        lines = []
        for seed in range(10):
            metrics = parent_metrics(seed) if side == "parent" else clean_metrics(seed)
            failed = failures.get((side, seed), 0)
            lines += run_output("serve-dense", seed, metrics, failed=failed, ledger=ledger)
        sides[side] = tmp_path / f"{side}.txt"
        sides[side].write_text("\n".join(lines) + "\n")
    argv = ["--parent", str(sides["parent"]), "--change", str(sides["change"])]
    # The change fails 6 of 1000 operations against the parent's 4: the
    # verdict and the exit code are the failed share's, as before.
    assert compare_pairs.main(argv + ["--benchmark", str(benchmark)]) == 1
    failed = [line.strip() for line in capsys.readouterr().out.splitlines() if "FAILED " in line]
    assert failed == [
        "FAILED parent seed 3: 4 failed: baseline shed 2, burst deadline 1, publishes and training 1",
        "FAILED change seed 5: 3 failed; stream failures unknown (no phases ledger)",
        "FAILED change seed 7: 3 failed: pool.burst error 2, pool.burst not run 1, "
        "publishes and training 0",
    ]


def test_clean_runs_print_no_failure_lines(tmp_path, capsys):
    assert _cli(tmp_path, clean_metrics, ledger=lambda seed: {"phases": _phases()}) == 0
    assert "FAILED " not in capsys.readouterr().out
