"""Frozen order-stability classification for every registered app.

This is the static analyzer's headline claim, pinned as data: the
labels must agree with the runtime probe verdicts measured by the
replay ladder (docs/replay.md) — asp and barnes replay with frozen
orders, fft and water are order-unstable, tsp and awari are
timing-dependent and must be simulated.  CI runs this table on every
push; a classification drift is a behavior change, not noise.

Note on the ladder (the labels themselves are unchanged): since the
vectorized-adaptive rung landed, an ``unstable`` label no longer maps
one-to-one onto the per-point evaluator.  It predicts that the frozen
orders drift and per-point re-sorting is needed — fft's re-sorted
orders then converge under the adaptive engine (rung
"vectorized-adaptive"), while water's deep value feedback does not and
falls through to "predict".  tests/replay/test_fallback.py pins the
rung each app actually lands on.
"""

from repro.lint.proto import classify, classification_table
from repro.lint.proto.report import analyze_all, order_stability_label

EXPECTED = {
    ("asp", "optimized"): "stable",
    ("asp", "unoptimized"): "stable",
    ("awari", "optimized"): "timing-sensitive",
    ("awari", "unoptimized"): "timing-sensitive",
    ("barnes", "optimized"): "stable",
    ("barnes", "unoptimized"): "stable",
    ("fft", "optimized"): "unstable",
    ("fft", "unoptimized"): "unstable",
    ("tsp", "optimized"): "timing-sensitive",
    ("tsp", "unoptimized"): "timing-sensitive",
    ("water", "optimized"): "unstable",
    ("water", "unoptimized"): "unstable",
}


def test_every_registered_app_gets_the_frozen_label():
    skeletons = analyze_all()
    got = {(s.app, s.variant): classify(s) for s in skeletons}
    assert set(got) == set(EXPECTED), "app registry drifted"
    mismatches = {key: c.label for key, c in got.items()
                  if c.label != EXPECTED[key]}
    assert mismatches == {}, mismatches


def test_all_skeletons_interpret_completely():
    # No app needs the widening fallback: every label above is backed
    # by a fully interpreted skeleton, not the conservative bottom rung.
    assert [(s.app, s.variant) for s in analyze_all() if s.incomplete] == []


def test_labels_come_with_evidence():
    for skeleton in analyze_all():
        got = classify(skeleton)
        if got.label != "stable":
            assert got.reasons, f"{got.app}/{got.variant} lacks evidence"


def test_replay_hint_lookup_matches_and_never_raises():
    for key, label in EXPECTED.items():
        assert order_stability_label(*key) == label
    # Unknown apps degrade to None, not an exception: a caller must keep
    # working when the analyzer cannot label an app.
    assert order_stability_label("no-such-app", "v") is None


def test_classification_table_renders_every_row():
    table = classification_table(
        [classify(s) for s in analyze_all()])
    lines = table.splitlines()
    assert lines[0].split()[:3] == ["app", "variant", "label"]
    # header + separator + 12 rows
    assert len(lines) == 2 + len(EXPECTED)
    for app, variant in EXPECTED:
        assert any(line.startswith(app) and variant in line
                   for line in lines[2:])
