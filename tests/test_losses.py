"""Partition scoring: group-aware MITRE, plain MITRE, pairwise disagreement."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from crowdgroups import (
    Partition,
    gmitre_loss,
    gmitre_score,
    mitre_loss,
    mitre_score,
    pairwise_loss,
    positive_pairwise_metric,
)

from oracles import iter_set_partitions, pair_scores, random_partition, spanning_score


def P(*clusters):
    return Partition([list(c) for c in clusters])


# ---------------------------------------------------------------------------
# Frozen reference values


def test_gmitre_pair_vs_singletons():
    pred = P("ab", "c")
    truth = P("a", "b", "c")
    assert gmitre_loss(truth, pred) == pytest.approx(0.6, abs=1e-12)


def test_gmitre_merge_of_pair_and_singleton():
    pred = P("abc")
    truth = P("ab", "c")
    assert gmitre_loss(truth, pred) == pytest.approx(0.5, abs=1e-12)


def test_mitre_two_pairs_merged():
    pred = P("abcd")
    truth = P("ab", "cd")
    assert mitre_loss(truth, pred) == pytest.approx(0.2, abs=1e-12)


def test_gmitre_vs_mitre_disagree_on_singletons():
    # singleton-aware scoring punishes absorbing loners, plain MITRE cannot
    truth = P("a", "b", "cd")
    pred = P("ab", "cd")
    assert mitre_score(truth, pred).f1 == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert gmitre_score(truth, pred).f1 == pytest.approx(2.0 / 5.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Degenerate and exact cases


@pytest.mark.parametrize("clusters", [("a",), ("ab", "c"), ("abc", "de", "f")])
def test_perfect_prediction_scores_one(clusters):
    p = P(*clusters)
    for score in (gmitre_score, mitre_score):
        s = score(p, p)
        assert s.precision == 1.0 and s.recall == 1.0 and s.f1 == 1.0
    assert gmitre_loss(p, p) == 0.0
    assert mitre_loss(p, p) == 0.0
    assert pairwise_loss(p, p) == 0.0


def test_member_mismatch_rejected():
    with pytest.raises(ValueError):
        gmitre_score(P("ab"), P("abc"))
    with pytest.raises(ValueError):
        mitre_score(P("ab"), P("ac"))
    with pytest.raises(ValueError):
        pairwise_loss(P("ab"), P("cd"))


def test_single_member_universe():
    p = P("a")
    assert gmitre_score(p, p).f1 == 1.0
    assert mitre_score(p, p).f1 == 1.0


def test_pairwise_loss_counts_disagreements():
    truth = P("ab", "cd")
    pred = P("ac", "bd")
    # all four positive pairs disagree: 2 truth pairs lost + 2 pred pairs wrong
    assert pairwise_loss(truth, pred) == pytest.approx(4.0 / 6.0)
    assert pairwise_loss(truth, P("a", "b", "c", "d")) == pytest.approx(2.0 / 6.0)


def test_positive_pairwise_metric_values():
    truth = P("ab", "cd")
    s = positive_pairwise_metric(truth, P("ab", "c", "d"))
    assert s.recall == pytest.approx(0.5)
    assert s.precision == pytest.approx(1.0)
    assert s.f1 == pytest.approx(2 / 3)


def test_positive_pairwise_metric_vacuous_cases():
    # no positive pairs anywhere: vacuously perfect
    singles = P("a", "b")
    s = positive_pairwise_metric(singles, singles)
    assert s.precision == 1.0 and s.recall == 1.0 and s.f1 == 1.0
    # truth has pairs, prediction has none: zero recall, vacuous precision
    s = positive_pairwise_metric(P("ab"), P("a", "b"))
    assert s.recall == 0.0
    assert s.precision == 1.0
    assert s.f1 == 0.0


def test_f1_zero_when_nothing_matches():
    truth = P("a", "b")
    pred = P("ab")
    s = gmitre_score(truth, pred)
    assert s.recall == 0.0 and s.precision == 0.0 and s.f1 == 0.0


# ---------------------------------------------------------------------------
# Against the independent spanning-forest oracle


def test_gmitre_matches_bfs_oracle_randomized():
    rng = np.random.default_rng(7)
    members = list(range(1, 9))
    for _ in range(400):
        truth = random_partition(members, rng)
        pred = random_partition(members, rng)
        want_r, want_p, want_f = spanning_score(
            truth.clusters, pred.clusters, augmented=True
        )
        got = gmitre_score(truth, pred)
        assert (got.recall, got.precision, got.f1) == (want_r, want_p, want_f)


def test_mitre_matches_bfs_oracle_randomized():
    rng = np.random.default_rng(8)
    members = list(range(1, 9))
    for _ in range(400):
        truth = random_partition(members, rng)
        pred = random_partition(members, rng)
        want_r, want_p, want_f = spanning_score(
            truth.clusters, pred.clusters, augmented=False
        )
        got = mitre_score(truth, pred)
        assert (got.recall, got.precision, got.f1) == (want_r, want_p, want_f)


def test_pairwise_scores_match_pair_enumeration_randomized():
    rng = np.random.default_rng(10)
    for _ in range(300):
        members = list(range(1, int(rng.integers(1, 10)) + 1))
        truth = random_partition(members, rng)
        pred = random_partition(members, rng)
        want_loss, want_r, want_p, want_f = pair_scores(truth.clusters, pred.clusters)
        assert pairwise_loss(truth, pred) == want_loss
        got = positive_pairwise_metric(truth, pred)
        assert (got.recall, got.precision, got.f1) == (want_r, want_p, want_f)


@pytest.mark.parametrize("kind", ["gmitre", "mitre", "pairwise"])
def test_scores_match_references_on_every_pair_of_partitions(kind):
    # every (truth, prediction) pair over 0 to 5 members (52 x 52 at 5): the
    # empty partition and all-singletons on either or both sides are the cases
    # where a side needs no link (or no pair) and scores 1 by convention
    for n in range(6):
        partitions = [Partition(p) for p in iter_set_partitions(range(1, n + 1))]
        for truth, pred in itertools.product(partitions, repeat=2):
            if kind == "pairwise":
                want_loss, *want = pair_scores(truth.clusters, pred.clusters)
                got = positive_pairwise_metric(truth, pred)
                assert pairwise_loss(truth, pred) == want_loss
            else:
                want = spanning_score(truth.clusters, pred.clusters, augmented=kind == "gmitre")
                got = (gmitre_score if kind == "gmitre" else mitre_score)(truth, pred)
                assert (gmitre_loss if kind == "gmitre" else mitre_loss)(truth, pred) == 1.0 - want[2]
            assert [got.recall, got.precision, got.f1] == list(want)


def test_losses_bounded_and_symmetric_universe():
    rng = np.random.default_rng(9)
    members = list(range(1, 8))
    for _ in range(200):
        truth = random_partition(members, rng)
        pred = random_partition(members, rng)
        for loss in (gmitre_loss, mitre_loss, pairwise_loss):
            v = loss(truth, pred)
            assert 0.0 <= v <= 1.0
            assert loss(truth, truth) == 0.0
