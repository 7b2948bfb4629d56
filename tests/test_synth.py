"""Synthetic scene generation with planted group structure."""

from __future__ import annotations

import numpy as np
import pytest

import crowdgroups.synth as synth

from crowdgroups import (
    ConfigError,
    SynthSpec,
    load_dataset,
    synth_generate,
    write_dataset,
)
from crowdgroups.synth import _leader_walk, _replay, _sample_starts
from oracles import leader_walk_loop, replay_loop, rows_loop, sample_starts_loop


def test_spec_validation():
    with pytest.raises(ConfigError):
        SynthSpec(n_groups=-1)
    with pytest.raises(ConfigError):
        SynthSpec(group_size_min=1)
    with pytest.raises(ConfigError):
        SynthSpec(group_size_max=5)
    with pytest.raises(ConfigError):
        SynthSpec(spacing=0.0)
    with pytest.raises(ConfigError):
        SynthSpec(lag=-1)
    with pytest.raises(ConfigError):
        SynthSpec(behavior="circling")
    with pytest.raises(ConfigError):
        SynthSpec(noise_std=-0.1)
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        synth_generate(SynthSpec(), seed=-1)


def test_generation_is_deterministic():
    spec = SynthSpec(n_groups=2, n_singletons=2, duration=20.0)
    t1, g1 = synth_generate(spec, seed=42)
    t2, g2 = synth_generate(spec, seed=42)
    assert g1.groups == g2.groups
    assert len(t1) == len(t2)
    for a, b in zip(t1, t2):
        assert a.pedestrian_id == b.pedestrian_id
        assert np.array_equal(a.points, b.points)
    t3, _ = synth_generate(spec, seed=43)
    assert not np.array_equal(t1[0].points, t3[0].points)


def test_generation_counts_and_ids():
    spec = SynthSpec(n_groups=3, group_size_min=2, group_size_max=2,
                     n_singletons=4, duration=20.0)
    trajs, labels = synth_generate(spec, seed=0)
    assert len(trajs) == 3 * 2 + 4
    assert [t.pedestrian_id for t in trajs] == list(range(1, 11))
    assert len(labels.groups) == 3
    assert labels.members == frozenset(range(1, 7))


def test_no_groups_only_singletons():
    spec = SynthSpec(n_groups=0, n_singletons=3, duration=20.0)
    trajs, labels = synth_generate(spec, seed=1)
    assert len(trajs) == 3
    assert labels.groups == ()


def test_zero_lag_zero_noise_is_rigid_translation():
    spec = SynthSpec(n_groups=1, group_size_min=2, group_size_max=2,
                     n_singletons=0, lag=0, noise_std=0.0, duration=20.0,
                     extent=200.0, spacing=0.5)
    trajs, labels = synth_generate(spec, seed=2)
    leader, mate = trajs[0], trajs[1]
    offset = mate.points - leader.points
    assert np.allclose(offset, offset[0], atol=1e-12)
    assert np.allclose(np.linalg.norm(offset[0]), 0.5)


def test_follower_replays_leader_with_delay():
    lag = 3
    spec = SynthSpec(n_groups=1, group_size_min=2, group_size_max=2,
                     n_singletons=0, lag=lag, noise_std=0.0, duration=20.0,
                     extent=500.0)
    trajs, _ = synth_generate(spec, seed=3)
    leader, mate = trajs[0], trajs[1]
    d_leader = np.diff(leader.points, axis=0)
    d_mate = np.diff(mate.points, axis=0)
    # after the initial hold, follower steps repeat leader steps `lag` back
    assert np.allclose(d_mate[lag:], d_leader[:-lag], atol=1e-12)
    assert np.allclose(d_mate[:lag], 0.0, atol=1e-12)


@pytest.mark.parametrize("lag", [0, 1, 2, 3])
def test_replay_matches_the_per_sample_loop(lag):
    # the one-cumsum replay adds the same displacements in the same order
    spec = SynthSpec(extent=40.0)
    rng = np.random.default_rng(lag)
    leader_path = _leader_walk(rng, spec, np.array([20.0, 20.0]), 120, 0.4)
    assert np.array_equal(_replay(leader_path, lag), replay_loop(leader_path, lag))


def test_converging_offsets_decay():
    spec = SynthSpec(n_groups=1, group_size_min=2, group_size_max=2,
                     n_singletons=0, lag=0, noise_std=0.0, duration=40.0,
                     behavior="converging", extent=500.0, spacing=0.4)
    trajs, _ = synth_generate(spec, seed=4)
    leader, mate = trajs[0], trajs[1]
    gap = np.linalg.norm(mate.points - leader.points, axis=1)
    # starts dispersed, ends near the formation spacing; the planted scatter
    # decays to exp(-4) of itself by the end of the sequence
    assert gap[0] > 1.5
    assert gap[-1] == pytest.approx(0.4, abs=0.12)
    assert gap[-1] < gap[0] / 3.0
    # smoothed trend is non-increasing
    k = 20
    smooth = np.convolve(gap, np.ones(k) / k, mode="valid")
    assert smooth[0] > smooth[-1]


def test_positions_clipped_to_extent():
    spec = SynthSpec(n_groups=2, n_singletons=4, extent=12.0, duration=60.0)
    trajs, _ = synth_generate(spec, seed=5)
    for tr in trajs:
        assert tr.points.min() >= 0.0
        assert tr.points.max() <= 12.0


def test_duration_too_short_for_lag():
    with pytest.raises(ConfigError):
        synth_generate(SynthSpec(duration=1.0, fps=1.0, lag=5), seed=0)


def test_write_then_load_round_trip(tmp_path):
    spec = SynthSpec(n_groups=2, n_singletons=2, duration=20.0, fps=2.5)
    trajs, labels = synth_generate(spec, seed=6)
    write_dataset(tmp_path, trajs, labels, fps=spec.fps, seed=6)
    ds = load_dataset(tmp_path)
    assert ds.fps == spec.fps
    assert ds.units == "meters"
    assert ds.descriptor["seed"] == "6"
    assert ds.labels is not None
    assert set(ds.labels.groups) == set(labels.groups)
    by_id = {t.pedestrian_id: t for t in ds.trajectories}
    assert set(by_id) == {t.pedestrian_id for t in trajs}
    for tr in trajs:
        back = by_id[tr.pedestrian_id]
        # text format keeps 6 decimals; times reconstruct from frame/fps
        assert np.allclose(back.points, tr.points, atol=1e-5)
        assert np.allclose(back.times, tr.times, atol=1e-9)


def test_write_dataset_without_labels(tmp_path):
    spec = SynthSpec(n_groups=0, n_singletons=2, duration=20.0)
    trajs, _ = synth_generate(spec, seed=7)
    write_dataset(tmp_path, trajs, None, fps=spec.fps)
    assert not (tmp_path / "groups.txt").exists()
    ds = load_dataset(tmp_path)
    assert ds.labels is None


def test_crowded_scene_still_places_everyone():
    # extent far too small for the nominal 6 m gap: placement must degrade
    # the gap instead of failing
    spec = SynthSpec(n_groups=2, n_singletons=8, extent=10.0, duration=20.0)
    trajs, _ = synth_generate(spec, seed=8)
    assert len(trajs) >= 10
    # at most 4 starts fit 6 m apart in dense12m's 8 m x 8 m walkable square,
    # so its 24 starts in the reference scenes below go through the halving
    starts = _sample_starts(np.random.default_rng(0), SynthSpec(extent=12.0), 24, min_gap=6.0)
    gaps = np.hypot(*(starts[:, None, :] - starts[None, :, :]).transpose(2, 0, 1))
    assert gaps[np.triu_indices(24, 1)].min() < 6.0


_SIZE3 = dict(group_size_min=3, group_size_max=3)
REFERENCE_SPECS = {
    "defaults": SynthSpec(),
    "perf-default": SynthSpec(**_SIZE3),
    "perf-dense": SynthSpec(n_groups=20, n_singletons=40, extent=60.0, duration=10.0, **_SIZE3),
    "perf-ragged": SynthSpec(n_groups=4, n_singletons=8, duration=54.0, **_SIZE3),
    "conv-noise": SynthSpec(behavior="converging", noise_std=0.3),
    "dense12m": SynthSpec(n_groups=8, n_singletons=16, extent=12.0, **_SIZE3),
    "conv100": SynthSpec(n_groups=20, n_singletons=40, extent=30.0, behavior="converging",
                         **_SIZE3),
    "no-wander": SynthSpec(wander_std=0.0),
    "lag0": SynthSpec(lag=0),
    "fps7": SynthSpec(fps=7.0, duration=60.0),
    "reflect": SynthSpec(n_groups=1, n_singletons=2, extent=8.0, speed=6.0, duration=60.0),
}


@pytest.mark.parametrize("name", list(REFERENCE_SPECS))
def test_generation_and_files_match_the_per_sample_references(name, tmp_path, monkeypatch):
    # the float-stepping walk, the vectorised gap test and the list formatting
    # draw the same numbers in the same order and do the same float operations
    # as the loops they replaced, so scenes and written bytes are identical
    spec = REFERENCE_SPECS[name]
    bounces = set()
    for seed in range(5):
        trajs, labels = synth_generate(spec, seed=seed)
        write_dataset(tmp_path / f"new{seed}", trajs, labels, fps=spec.fps, seed=seed)
        with monkeypatch.context() as m:
            m.setattr(synth, "_sample_starts", sample_starts_loop)
            m.setattr(synth, "_leader_walk",
                      lambda *args: leader_walk_loop(*args, bounces=bounces))
            m.setattr(synth, "_rows", rows_loop)
            ref_trajs, ref_labels = synth_generate(spec, seed=seed)
            write_dataset(tmp_path / f"ref{seed}", ref_trajs, ref_labels, fps=spec.fps, seed=seed)
        assert labels.groups == ref_labels.groups, seed
        assert len(trajs) == len(ref_trajs), seed
        for a, b in zip(trajs, ref_trajs):
            assert a.pedestrian_id == b.pedestrian_id
            assert np.array_equal(a.times, b.times), (seed, a.pedestrian_id)
            assert np.array_equal(a.points, b.points), (seed, a.pedestrian_id)
        for file in sorted((tmp_path / f"ref{seed}").iterdir()):
            assert (tmp_path / f"new{seed}" / file.name).read_bytes() == file.read_bytes(), (
                seed, file.name)
    if name == "reflect":
        assert bounces == {(0, "low"), (0, "high"), (1, "low"), (1, "high")}


def test_start_placement_fails_when_even_the_smallest_gap_does_not_fit():
    spec = SynthSpec(n_groups=0, n_singletons=50, extent=4.5)
    with pytest.raises(ConfigError, match=r"^could not place 50 starts in extent 4\.5$"):
        synth_generate(spec, seed=0)
    with pytest.raises(ConfigError, match="extent too small for the walk margin"):
        synth_generate(SynthSpec(extent=4.0), seed=0)


def test_thousand_starts_stay_inside_the_margin_and_apart():
    spec = SynthSpec(extent=190.0)
    starts = _sample_starts(np.random.default_rng(0), spec, 1_000, min_gap=6.0)
    assert starts.shape == (1_000, 2)
    assert starts.min() >= 2.0 and starts.max() <= spec.extent - 2.0
    gaps = np.hypot(*(starts[:, None, :] - starts[None, :, :]).transpose(2, 0, 1))
    assert gaps[np.triu_indices(1_000, 1)].min() >= 0.25
