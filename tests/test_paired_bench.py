"""scripts/paired_bench.py: the paired-run summary on synthetic numbers."""

import importlib.util
import resource
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "paired_bench.py"
_spec = importlib.util.spec_from_file_location("paired_bench", _PATH)
paired_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(paired_bench)

METRICS = {"wall_norm_s": "lower", "peak_rss_mb": "lower"}


def pairs_of(parent, change, reference=None, wall=None, minflt=None):
    """Pairs from per-seed wall_norm_s values; peak_rss_mb ties at 64.
    ``reference``, ``wall`` and ``minflt`` give each side's raw
    reference_s, wall_s and page-fault count per seed."""
    out = []
    for i, (p, c) in enumerate(zip(parent, change)):
        pair = {"parent": {"wall_norm_s": p, "peak_rss_mb": 64.0},
                "change": {"wall_norm_s": c, "peak_rss_mb": 64.0}}
        for name, raw in (("reference_s", reference), ("wall_s", wall),
                          ("minflt", minflt)):
            if raw:
                pair["parent"][name] = raw[0][i]
                pair["change"][name] = raw[1][i]
        out.append(pair)
    return out


def test_medians_quartiles_and_wins():
    parent = [1.00, 1.02, 0.98, 1.04, 0.96]
    change = [0.93, 0.95, 0.99, 0.90, 0.92]
    s = paired_bench.summarize(pairs_of(parent, change), METRICS)
    m = s["metrics"]["wall_norm_s"]
    assert s["pairs"] == 5
    assert m["parent"] == {"median": 1.00, "q1": pytest.approx(0.98),
                           "q3": pytest.approx(1.02), "iqr": pytest.approx(0.04),
                           "runs": 5}
    assert m["change"]["median"] == 0.93
    # seed 2 is the one pair the parent won
    assert m["change_won"] == 4
    assert m["gap"] == pytest.approx(0.07)
    assert m["gap_exceeds_parent_iqr"]
    assert m["ratio"] == pytest.approx(0.93)


def test_pair_ratios_cancel_drift_between_pairs():
    # the host runs each pair 1.5x slower than the last; within every pair
    # the change takes 0.9 of the parent's time, so the side medians overlap
    # but every pair ratio reads 0.9
    parent = [1.0, 1.5, 2.25, 3.375, 5.0625]
    change = [0.9 * p for p in parent]
    s = paired_bench.summarize(pairs_of(parent, change), METRICS)
    m = s["metrics"]["wall_norm_s"]
    assert not m["gap_exceeds_parent_iqr"]
    assert m["pair_ratio"] == {"median": pytest.approx(0.9), "q1": pytest.approx(0.9),
                               "q3": pytest.approx(0.9), "iqr": pytest.approx(0.0),
                               "runs": 5}
    uneven = paired_bench.summarize(pairs_of([1.0, 1.0, 2.0], [0.5, 1.0, 3.0]),
                                    METRICS)["metrics"]["wall_norm_s"]["pair_ratio"]
    assert (uneven["q1"], uneven["median"], uneven["q3"]) == (0.75, 1.0, 1.25)
    line = paired_bench.format_summary("poc_heavy", s).splitlines()[1]
    assert "pair ratio 0.9000 [0.9000, 0.9000]" in line


def test_ties_count_for_neither_side():
    s = paired_bench.summarize(pairs_of([1.0, 1.0], [1.0, 0.9]), METRICS)
    assert s["metrics"]["wall_norm_s"]["change_won"] == 1
    rss = s["metrics"]["peak_rss_mb"]
    assert rss["change_won"] == 0 and rss["gap"] == 0.0
    assert not rss["gap_exceeds_parent_iqr"]


def test_gap_within_the_parent_spread_is_no_gain():
    parent = [1.0, 1.2, 0.8, 1.1, 0.9]
    change = [0.95, 1.15, 0.75, 1.05, 0.85]
    m = paired_bench.summarize(pairs_of(parent, change), METRICS)["metrics"]["wall_norm_s"]
    assert m["change_won"] == 5
    assert m["gap"] == pytest.approx(0.05) and m["parent"]["iqr"] == pytest.approx(0.2)
    assert not m["gap_exceeds_parent_iqr"]


def test_regression_beyond_the_parent_spread_exceeds_it():
    # the change's median is 0.06 worse, more than the parent's IQR of 0.04
    parent = [1.00, 1.02, 0.98, 1.04, 0.96]
    change = [1.06, 1.08, 1.04, 1.10, 1.02]
    s = paired_bench.summarize(pairs_of(parent, change), METRICS)
    m = s["metrics"]["wall_norm_s"]
    assert m["change_won"] == 0
    assert m["gap"] == pytest.approx(-0.06) and m["parent"]["iqr"] == pytest.approx(0.04)
    assert m["gap_exceeds_parent_iqr"]
    line = paired_bench.format_summary("wide_d", s).splitlines()[1]
    assert "(regression)" in line and line.endswith("(exceeds)")


def test_higher_is_better_flips_the_sign():
    m = paired_bench.summarize(pairs_of([1.0, 2.0], [3.0, 1.0]),
                               {"wall_norm_s": "higher"})["metrics"]["wall_norm_s"]
    assert m["change_won"] == 1
    assert m["gap"] == pytest.approx(0.5)


def test_reference_medians_per_side():
    pairs = pairs_of([1, 1, 1], [1, 1, 1], reference=([0.40, 0.50, 0.45], [0.30, 0.35, 0.6]))
    assert paired_bench.summarize(pairs, METRICS)["reference_s"] == {
        "parent": 0.45, "change": 0.35}
    assert paired_bench.summarize(pairs_of([1], [1]), METRICS)["reference_s"] == {
        "parent": None, "change": None}


def test_page_fault_medians_per_side():
    pairs = pairs_of([1, 1, 1], [1, 1, 1], minflt=([3000, 2000, 2500], [600, 400, 500]))
    s = paired_bench.summarize(pairs, METRICS)
    assert s["minflt"] == {"parent": 2500, "change": 500}
    # page faults gate nothing: the metrics tie
    assert s["metrics"]["wall_norm_s"]["change_won"] == 0
    assert "  minflt median: parent 2500  change 500" in paired_bench.format_summary(
        "wide_d", s).splitlines()
    del pairs[0]["change"]["minflt"]
    assert paired_bench.summarize(pairs, METRICS)["minflt"]["change"] == 450
    assert paired_bench.summarize(pairs_of([1], [1]), METRICS)["minflt"] == {
        "parent": None, "change": None}


def test_run_once_counts_the_run_page_faults(tmp_path):
    # a stand-in perfbench/run.py that touches 4 MB: its faults, and its
    # interpreter's, are the run's
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import json\n"
        "b = b'x' * (4 << 20)\n"
        "print('wall_s = 0.5 s')\n"
        "print(json.dumps({'metrics': {'wall_norm_s': {'value': 0.4}}}))\n",
        encoding="utf-8")
    values, why = paired_bench.run_once(tmp_path, "wide_d", 0, 1)
    assert why is None
    assert values["wall_norm_s"] == 0.4 and values["wall_s"] == 0.5
    assert values["minflt"] >= (4 << 20) // resource.getpagesize()


def test_raw_wall_time_summarised_beside_the_reference():
    # the normalised metric ties in every pair, while the raw pass time and
    # the reference kernel both read 10% lower on the change: a moved
    # reference, not a gain in the program
    wall = ([0.50, 0.52, 0.48, 0.54, 0.46], [0.45, 0.468, 0.432, 0.486, 0.47])
    reference = ([0.40, 0.41, 0.39, 0.42, 0.38], [0.36, 0.369, 0.351, 0.378, 0.342])
    s = paired_bench.summarize(pairs_of([1.25] * 5, [1.25] * 5, reference, wall),
                               METRICS)
    raw = s["wall_s"]
    assert s["metrics"]["wall_norm_s"]["change_won"] == 0
    assert raw["parent"]["median"] == 0.50 and raw["change"]["median"] == 0.468
    assert raw["parent"]["q1"] == pytest.approx(0.48)
    assert raw["change"]["q3"] == pytest.approx(0.47)
    assert raw["change_won"] == 4  # seed 4: 0.47 against 0.46
    assert raw["pair_ratio"]["median"] == pytest.approx(0.9)
    assert raw["pair_ratio"]["runs"] == 5
    line = paired_bench.format_summary("cls_budget", s).splitlines()[-1]
    assert line.startswith("  wall_s (raw): parent 0.5 [0.48, 0.52]  change 0.468")
    assert "pair ratio 0.9000" in line and line.endswith("change won 4 of 5")


def test_raw_wall_time_over_the_pairs_that_report_it():
    pairs = pairs_of([1.0, 1.0, 1.0], [0.9, 0.9, 0.9], wall=([2.0, 2.0, 3.0],
                                                             [1.0, 1.5, 2.0]))
    del pairs[1]["change"]["wall_s"]
    raw = paired_bench.summarize(pairs, METRICS)["wall_s"]
    assert raw["parent"]["runs"] == 2 and raw["change"]["median"] == 1.5
    assert raw["pair_ratio"]["median"] == pytest.approx(0.5833333333333334)
    none = paired_bench.summarize(pairs_of([1.0], [0.9]), METRICS)
    assert none["wall_s"] is None
    assert "wall_s" not in paired_bench.format_summary("wide_d", none)


def test_single_pair_has_no_spread():
    m = paired_bench.summarize(pairs_of([1.0], [0.9]), METRICS)["metrics"]["wall_norm_s"]
    assert m["parent"]["q1"] == m["parent"]["q3"] == 1.0 and m["parent"]["iqr"] == 0.0


def test_summary_text_names_every_metric():
    s = paired_bench.summarize(pairs_of([1.0, 1.1], [0.9, 0.95]), METRICS)
    text = paired_bench.format_summary("cls_budget", s)
    assert text.splitlines()[0] == "cls_budget: 2 pairs"
    assert "wall_norm_s:" in text and "peak_rss_mb:" in text
    assert "change won 2 of 2" in text and "reference_s median" in text
    assert "minflt median" in text
    assert "(gain)" in text and "(tie)" in text


@pytest.mark.parametrize("text, seeds", [("0-3", [0, 1, 2, 3]), ("5", [5]),
                                         ("0-1, 7", [0, 1, 7])])
def test_parse_seeds(text, seeds):
    assert paired_bench.parse_seeds(text) == seeds


@pytest.mark.parametrize("text", ["", "3-1", "1,1", "-2", "a"])
def test_parse_seeds_rejects(text):
    with pytest.raises(ValueError):
        paired_bench.parse_seeds(text)
