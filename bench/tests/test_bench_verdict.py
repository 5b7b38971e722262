"""The A/B verdict rules on synthetic paired samples."""

from compare import verdict

BASE = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]


def test_nine_of_ten_wins_with_a_clear_gap_is_improved():
    head = [0.80] * 9 + [1.05]
    assert verdict(BASE, head, "lower", 0.10) == "improved"


def test_eight_of_ten_wins_is_not_improved():
    head = [0.80] * 8 + [1.05, 1.05]
    assert verdict(BASE, head, "lower", 0.10) == "unchanged"


def test_direction_follows_better():
    head = [1.20] * 10
    assert verdict(BASE, head, "higher", 0.25) == "improved"
    assert verdict(BASE, head, "lower", 0.25) == "unchanged"
    assert verdict(BASE, head, "lower", 0.10) == "worse"


def test_spread_wider_than_the_bound_is_unresolved():
    wide = [0.7, 1.3, 0.8, 1.2, 1.0, 0.75, 1.25, 0.9, 1.1, 1.0]
    head = [v * 1.02 for v in reversed(wide)]
    assert verdict(wide, head, "lower", 0.10) == "unresolved"


def test_unresolved_unless_every_head_run_beats_every_base_run():
    wide = [1.0] * 5 + [1.4] * 5
    assert verdict(wide, [0.99] * 10, "lower", 0.10) == "unchanged"
    assert verdict(wide, [v - 0.01 for v in wide], "lower", 0.10) == "unresolved"


def test_an_error_rate_rise_is_worse_whatever_the_timings():
    assert verdict(BASE, BASE, "lower", 0.10, base_error_rate=0.0, head_error_rate=0.1) == "worse"
    assert verdict(BASE, BASE, "lower", 0.10) == "unchanged"


def test_identical_exact_counts_are_unchanged():
    counts = [57.1] * 10
    assert verdict(counts, counts, "lower", 0.0) == "unchanged"
    assert verdict(counts, [57.2] * 10, "lower", 0.0) == "worse"
