"""Trajectory containers, dataset parsing, windowing, and scene statistics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from crowdgroups import (
    ConfigError,
    DataError,
    DegenerateProjectionError,
    Homography,
    Partition,
    Trajectory,
    TrajectoryParseError,
    apply_homography,
    load_dataset,
    load_ground_truth,
    load_homography,
    load_trajectories,
    parse_descriptor,
    restrict_labels,
    scene_stats,
    slice_windows,
    window_ground_truth,
)
from crowdgroups.errors import SAMPLE_BOUND
from crowdgroups.trajectories import _SPAN_EPS, align_segments

import oracles


def make_traj(ped, times, xy=None):
    times = np.asarray(times, dtype=float)
    if xy is None:
        xy = np.column_stack([times, np.zeros_like(times)])
    return Trajectory(ped, times, np.asarray(xy, dtype=float))


# ---------------------------------------------------------------------------
# Trajectory


def test_trajectory_requires_increasing_times():
    with pytest.raises(DataError):
        make_traj(1, [0.0, 1.0, 1.0])
    with pytest.raises(DataError):
        make_traj(1, [2.0, 1.0])


def test_trajectory_rejects_non_finite():
    with pytest.raises(DataError):
        Trajectory(1, np.array([0.0, 1.0]), np.array([[0.0, 0.0], [np.nan, 1.0]]))
    with pytest.raises(DataError):
        Trajectory(1, np.array([0.0, np.inf]), np.zeros((2, 2)))


def test_trajectory_samples_lie_within_the_sample_bound():
    edge = np.array([[-SAMPLE_BOUND, SAMPLE_BOUND], [SAMPLE_BOUND, -SAMPLE_BOUND]])
    assert Trajectory(1, np.array([-SAMPLE_BOUND, SAMPLE_BOUND]), edge).points.tolist() == edge.tolist()
    past = math.nextafter(SAMPLE_BOUND, math.inf)
    for times, points in (([0.0, past], np.zeros((2, 2))), ([-past, 0.0], np.zeros((2, 2))),
                          ([0.0, 1.0], [[0.0, 0.0], [0.0, -past]]), ([0.0, 1.0], [[past, 0.0], [0.0, 0.0]])):
        with pytest.raises(DataError, match=r"^pedestrian 1: sample values must be finite and within ±1e\+100"):
            Trajectory(1, np.array(times), np.array(points))


@pytest.mark.parametrize("ped", [1.5, True, "1", None])
def test_trajectory_pedestrian_id_is_an_integer(ped):
    # an id that is not an integer would be cast by the affinity matrix and
    # reported as another pedestrian (1.5 as 1) or collide with one (1.2, 1.7)
    with pytest.raises(ConfigError, match=r"^'pedestrian_id' must be an integer, got "):
        Trajectory(ped, np.array([0.0, 1.0]), np.zeros((2, 2)))


def test_trajectory_stores_an_integral_id_as_int():
    tr = Trajectory(np.int64(7), np.array([0.0, 1.0]), np.zeros((2, 2)))
    assert type(tr.pedestrian_id) is int and tr.pedestrian_id == 7


def test_trajectory_arrays_read_only():
    tr = make_traj(1, [0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        tr.times[0] = 5.0
    with pytest.raises(ValueError):
        tr.points[0, 0] = 5.0


def test_trajectory_and_homography_copy_the_callers_arrays():
    # the caller's float64 arrays stay writable, and writing them changes neither object
    times, points, h = np.arange(5.0), np.zeros((5, 2)), np.diag([2.0, 3.0, 1.0])
    tr, hom = Trajectory(1, times, points), Homography(h)
    times[0], points[0, 0], h[0, 0] = -1.0, 3.0, 7.0
    assert tr.times.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0] and tr.points.tolist() == [[0.0, 0.0]] * 5
    assert hom.h.tolist() == np.diag([2.0, 3.0, 1.0]).tolist()


def test_trajectory_span_properties():
    tr = make_traj(4, [0.5, 1.5, 2.5])
    assert tr.start_t == 0.5
    assert tr.end_t == 2.5


# ---------------------------------------------------------------------------
# Homography


def test_apply_homography_identity_and_scale():
    ident = Homography.identity()
    assert np.allclose(apply_homography(ident, (1.0, 2.0)), [1.0, 2.0])
    scale = Homography(np.diag([2.0, 3.0, 1.0]))
    assert np.allclose(apply_homography(scale, (1.0, 2.0)), [2.0, 6.0])


def test_apply_homography_perspective_divide():
    h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 2.0]]))
    assert np.allclose(apply_homography(h, (4.0, 8.0)), [2.0, 4.0])


def test_apply_homography_degenerate_point():
    # invertible but sends x = -1 to homogeneous w = 0
    h = Homography(np.array([[1.0, 0, 0], [0, 1.0, 0], [1.0, 0, 1.0]]))
    assert np.allclose(apply_homography(h, (1.0, 3.0)), [0.5, 1.5])
    with pytest.raises(DegenerateProjectionError):
        apply_homography(h, (-1.0, 3.0))


def test_singular_homography_rejected():
    with pytest.raises(DataError):
        Homography(np.ones((3, 3)))
    for bad in (math.inf, math.nan):
        # a non-finite entry can pass the determinant test (det(diag(1, 1, inf)) = inf)
        with pytest.raises(DataError, match="finite"):
            Homography(np.diag([1.0, 1.0, bad]))
    with pytest.raises(ValueError):
        Homography(np.eye(4))


# ---------------------------------------------------------------------------
# File parsing


def test_load_trajectories_basic(tmp_path):
    f = tmp_path / "trajectories.txt"
    f.write_text(
        "# frame id x y\n"
        "0 1 0.0 0.0\n"
        "1 1 1.0 0.5\n"
        "0 2 5.0 5.0\n"
        "\n"
        "2 1 2.0 1.0\n"
    )
    trajs = load_trajectories(f, fps=2.0)
    assert [t.pedestrian_id for t in trajs] == [1, 2]
    assert trajs[0].times.tolist() == [0.0, 0.5, 1.0]
    assert trajs[0].points[1].tolist() == [1.0, 0.5]


@pytest.mark.parametrize("fps", [0.0, -2.5, math.nan, math.inf])
def test_load_trajectories_requires_finite_positive_fps(tmp_path, fps):
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 0.0 0.0\n1 1 1.0 0.5\n")
    with pytest.raises(ConfigError, match=r"^('fps' must be a finite number|fps must be positive), got "):
        load_trajectories(f, fps=fps)


def test_load_trajectories_field_count_error(tmp_path):
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 0.0\n")
    with pytest.raises(TrajectoryParseError) as err:
        load_trajectories(f)
    assert ":1" in str(err.value)


def test_load_trajectories_duplicate_sample(tmp_path):
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 0.0 0.0\n0 1 1.0 1.0\n")
    with pytest.raises(DataError):
        load_trajectories(f)


def test_load_trajectories_bad_number(tmp_path):
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 zero 0.0\n")
    with pytest.raises(TrajectoryParseError):
        load_trajectories(f)


@pytest.mark.parametrize("line, reason", [
    ("1 inf 1.0 0.5", "whole number"),
    ("1 nan 1.0 0.5", "whole number"),
    ("1 2.7 1.0 0.5", "whole number"),
    ("1 -1e400 1.0 0.5", "whole number"),
    ("nan 1 1.0 0.5", "finite"),
    ("-inf 1 1.0 0.5", "finite"),
    ("1e160 1 1.0 0.5", "within ±1e\\+100"),
    ("1 1 1e160 0.5", "within ±1e\\+100"),
    ("1 1 1.0 -1.0000000000000002e100", "within ±1e\\+100"),
    ("1 1 nan 0.5", "finite"),
    ("1 1 1.0 inf", "finite"),
])
def test_load_trajectories_rejects_bad_ids_and_frames(tmp_path, line, reason):
    f = tmp_path / "trajectories.txt"
    f.write_text(f"0 1 0.0 0.0\n{line}\n")
    with pytest.raises(TrajectoryParseError, match=rf"trajectories.txt:2: .*{reason}"):
        load_trajectories(f)


def test_load_trajectories_bounds_each_time_by_its_frame_rate(tmp_path):
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 0.0 0.0\n1e99 1 1.0 0.5\n")
    assert load_trajectories(f, fps=10.0)[0].times.tolist() == [0.0, 1e98]
    with pytest.raises(TrajectoryParseError, match=r"trajectories.txt:2: .*got t = 1e\+101"):
        load_trajectories(f, fps=0.01)


def test_load_trajectories_bounds_pixel_files_after_projection(tmp_path):
    # 1e95 pixels are fine as read; a homography scaling by 1e10 puts them at 1e105 m
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 0.0 0.0\n1 1 1e95 0.0\n0 2 0.0 0.0\n")
    assert len(load_trajectories(f, homography=Homography.identity())) == 2
    with pytest.raises(DataError, match=r"trajectories.txt: pedestrian 1: sample values must be finite and within"):
        load_trajectories(f, homography=Homography(np.diag([1e10, 1e10, 1.0])))


def test_load_trajectories_refuses_each_line_in_its_own_units(tmp_path):
    # a line is refused in the units it is written in; a projected position, in meters
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1 0.0 0.0\n1 1 1e308 0.0\n")
    with pytest.raises(TrajectoryParseError, match=r"trajectories.txt:2: .*\(seconds, meters\), got t = 1.0, x = 1e\+308"):
        load_trajectories(f)
    with pytest.raises(TrajectoryParseError, match=r"trajectories.txt:2: .*\(seconds, pixels\), got t = 1.0, x = 1e\+308"):
        load_trajectories(f, homography=Homography.identity())
    f.write_text("0 1 0.0 0.0\n1 1 1e95 0.0\n")
    with pytest.raises(DataError, match=r"trajectories.txt: pedestrian 1: .*\(seconds, meters\)$"):
        load_trajectories(f, homography=Homography(np.diag([1e10, 1e10, 1.0])))


def test_load_trajectories_reads_float_written_ids(tmp_path):
    f = tmp_path / "trajectories.txt"
    f.write_text("0 1.0000000e+00 0.0 0.0\n0 2.0 1.0 0.5\n1 -3 2.0 1.0\n")
    assert [t.pedestrian_id for t in load_trajectories(f)] == [-3, 1, 2]


def test_load_homography(tmp_path):
    f = tmp_path / "H.txt"
    f.write_text("2 0 0\n0 2 0\n0 0 1\n")
    h = load_homography(f)
    assert np.allclose(h.h, np.diag([2.0, 2.0, 1.0]))
    f.write_text("1 2 3 4\n")
    with pytest.raises(TrajectoryParseError):
        load_homography(f)


def test_files_that_are_not_utf8_name_the_file_and_line(tmp_path):
    trajectories = tmp_path / "trajectories.txt"
    trajectories.write_bytes(b"0 1 0.0 0.0\r\n1 1 \xff 0.0\n")
    with pytest.raises(TrajectoryParseError, match=r"trajectories\.txt:2: not UTF-8 text"):
        load_trajectories(trajectories)
    homography = tmp_path / "H.txt"
    homography.write_bytes(b"# ground plane\n1 0 0\n0 1 0\n0 0 \xfe\n")
    with pytest.raises(TrajectoryParseError, match=r"H\.txt:4: not UTF-8 text"):
        load_homography(homography)
    homography.write_bytes(b"# ground plane\r1 0 0\r0 1 0\r0 0 1\r")
    assert np.array_equal(load_homography(homography).h, np.eye(3))


def test_load_ground_truth(tmp_path):
    f = tmp_path / "groups.txt"
    f.write_text("# groups\n1 2 3\n4 5\n")
    labels = load_ground_truth(f)
    assert labels.groups == ((1, 2, 3), (4, 5))
    assert labels.members == frozenset({1, 2, 3, 4, 5})


@pytest.mark.parametrize("token", ["inf", "nan", "2.7"])
def test_load_ground_truth_rejects_ids_that_are_not_whole_numbers(tmp_path, token):
    f = tmp_path / "groups.txt"
    f.write_text(f"1 2\n3 {token}\n")
    with pytest.raises(TrajectoryParseError, match=r"groups.txt:2: .*whole number"):
        load_ground_truth(f)
    f.write_text("1.0000000e+00 2.0000000e+00\n")
    assert load_ground_truth(f).groups == ((1, 2),)


def test_load_ground_truth_ignores_singleton_lines(tmp_path):
    f = tmp_path / "groups.txt"
    f.write_text("7\n1 2\n")
    labels = load_ground_truth(f)
    assert labels.groups == ((1, 2),)


def test_load_ground_truth_ignores_line_and_id_order(tmp_path):
    f = tmp_path / "groups.txt"
    f.write_text("1 2 3\n4 5\n")
    ordered = load_ground_truth(f)
    f.write_text("5 4\n3 1 2\n")
    assert load_ground_truth(f) == ordered == Partition([[1, 2, 3], [4, 5]])


def test_load_ground_truth_duplicate_member(tmp_path):
    f = tmp_path / "groups.txt"
    f.write_text("1 2\n2 3\n")
    with pytest.raises(DataError):
        load_ground_truth(f)
    f.write_text("1 1 2\n")
    with pytest.raises(DataError):
        load_ground_truth(f)


def test_parse_descriptor(tmp_path):
    f = tmp_path / "descriptor.txt"
    f.write_text("# meta\nfps = 2.5\nunits meters\n")
    d = parse_descriptor(f)
    assert d["fps"] == "2.5"
    assert d["units"] == "meters"
    f.write_text("fps = 1\nfps = 2\n")
    with pytest.raises(TrajectoryParseError):
        parse_descriptor(f)


def test_load_dataset_defaults(tmp_path):
    (tmp_path / "trajectories.txt").write_text("0 1 0.0 0.0\n1 1 1.0 0.0\n")
    ds = load_dataset(tmp_path)
    assert ds.fps == 1.0
    assert ds.units == "meters"
    assert ds.labels is None
    assert len(ds.trajectories) == 1


def test_load_dataset_missing_trajectories(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path)


def test_load_dataset_pixels_requires_homography(tmp_path):
    (tmp_path / "trajectories.txt").write_text("0 1 10 10\n1 1 20 10\n")
    (tmp_path / "descriptor.txt").write_text("units = pixels\n")
    with pytest.raises(ConfigError):
        load_dataset(tmp_path)
    (tmp_path / "descriptor.txt").write_text("units = pixels\nhomography = H.txt\n")
    (tmp_path / "H.txt").write_text("0.5 0 0\n0 0.5 0\n0 0 1\n")
    ds = load_dataset(tmp_path)
    assert np.allclose(ds.trajectories[0].points, [[5.0, 5.0], [10.0, 5.0]])


# ---------------------------------------------------------------------------
# Windowing


def test_slice_windows_exact_tiling():
    # spans [0, 30) at 10 Hz: windows of 10 s at stride 10 tile it three times
    times = np.arange(0.0, 30.0, 0.1)
    trajs = [make_traj(1, times)]
    windows = slice_windows(trajs, 10.0, 10.0)
    assert len(windows) == 3
    assert [w.start_t for w in windows] == [0.0, 10.0, 20.0]
    assert all(w.members == frozenset({1}) for w in windows)


def test_slice_windows_overlapping_stride():
    times = np.arange(0.0, 20.0, 0.1)
    trajs = [make_traj(2, times)]
    windows = slice_windows(trajs, 10.0, 5.0)
    assert [w.start_t for w in windows] == [0.0, 5.0, 10.0]


def test_slice_windows_validation():
    trajs = [make_traj(1, [0.0, 1.0])]
    with pytest.raises(ConfigError):
        slice_windows(trajs, 0.0, 1.0)
    with pytest.raises(ConfigError):
        slice_windows(trajs, 1.0, -1.0)
    bad = ((math.nan, 10.0), (10.0, math.nan), (math.inf, 10.0), (10.0, math.inf))
    for window_len, stride in bad:
        with pytest.raises(ConfigError, match="must be a finite number"):
            slice_windows(trajs, window_len, stride)
    # True was a 1 s window: the lengths follow the rule of every float setting
    with pytest.raises(ConfigError, match="^'window_len' must be a finite number, got True$"):
        slice_windows(trajs, True, 10)


def test_slice_windows_starts_at_most_one_window_per_sample():
    # 10 samples 1 s apart span [0, 10): stride 1 starts 10 windows of 1 s, as
    # many as there are samples; a shorter stride, or a tiny one, is refused
    trajs = [make_traj(1, np.arange(10.0))]
    assert len(slice_windows(trajs, 1.0, 1.0)) == 10
    for stride in (0.5, 1e-300, 5e-324):
        with pytest.raises(ConfigError, match="more windows than the data's 10 samples"):
            slice_windows(trajs, 1.0, stride)


def test_slice_windows_drops_single_sample_members():
    a = make_traj(1, np.arange(0.0, 10.0))
    b = make_traj(2, [4.0])  # one sample only
    windows = slice_windows([a, b], 10.0, 10.0)
    assert len(windows) == 1
    assert windows[0].members == frozenset({1})
    assert windows[0].dropped == frozenset({2})


def test_slice_windows_segments_match_members():
    a = make_traj(1, np.arange(0.0, 20.0))
    b = make_traj(2, np.arange(12.0, 20.0))
    windows = slice_windows([a, b], 10.0, 10.0)
    assert windows[0].members == frozenset({1})
    assert windows[1].members == frozenset({1, 2})
    seg = windows[1].segments[2]
    assert seg.start_t >= 10.0
    assert seg.end_t < 20.0 + 1e-9


def _ragged_trajectories(rng, frame=0.4):
    """4-12 pedestrians who enter and leave a 60-frame scene, with about one
    frame in five dropped; some keep a single sample."""
    trajs = []
    for ped in range(1, int(rng.integers(4, 13)) + 1):
        first = int(rng.integers(0, 50))
        frames = np.arange(first, min(60, first + int(rng.integers(1, 40))))
        frames = frames[(rng.random(frames.size) >= 0.2) | (frames == first)]
        trajs.append(Trajectory(ped, frames * frame, rng.normal(size=(frames.size, 2))))
    return trajs


def _check_slicing(trajs, window_len, stride):
    """slice_windows equals the per-window loop, and its segments are read-only
    views of the trajectories they come from."""
    got = slice_windows(trajs, window_len, stride)
    want = oracles.slice_windows_loop(trajs, window_len, stride)
    layout = [[(w.index, w.start_t, w.end_t, w.members, w.dropped) for w in ws] for ws in (got, want)]
    assert layout[0] == layout[1]
    parent = {tr.pedestrian_id: tr for tr in trajs}
    for window, ref in zip(got, want):
        for m, seg in window.segments.items():
            assert np.array_equal(seg.times, ref.segments[m].times)
            assert np.array_equal(seg.points, ref.segments[m].points)
            for part, whole in ((seg.times, parent[m].times), (seg.points, parent[m].points)):
                assert np.shares_memory(part, whole)
                with pytest.raises(ValueError, match="read-only"):
                    part[0] = 0.0
    return got


def test_slice_windows_matches_the_per_window_loop():
    rng = np.random.default_rng(21)
    dropped = members = 0
    for _ in range(30):
        window_len = float(rng.choice([2.0, 4.0, 6.4]))
        windows = _check_slicing(_ragged_trajectories(rng), window_len, window_len * float(rng.choice([0.25, 0.5, 1.0])))
        dropped += sum(len(w.dropped) for w in windows)
        members += len({len(w.members) for w in windows})
    assert dropped and members > 100  # single-sample drops, windows of many sizes
    # the span is [0, 5): a window may end up to _SPAN_EPS past it
    trajs = [make_traj(1, np.arange(10) * 0.5), make_traj(2, [4.5])]
    assert len(_check_slicing(trajs, 2.5 + _SPAN_EPS / 2, 2.5)) == 2
    assert len(_check_slicing(trajs, 2.5 + 2 * _SPAN_EPS, 2.5)) == 1
    # 1, 3 and 4 leave before 2 enters: the windows between are empty, and
    # scene_stats reads them as windows without samples
    trajs = [make_traj(1, np.arange(0.0, 4.0, 0.5)), make_traj(2, np.arange(8.0, 10.0, 0.5)),
             make_traj(3, np.arange(0.0, 4.0, 0.5), np.ones((8, 2))), make_traj(4, [0.0, 0.5], [[3.0, 0.0]] * 2)]
    windows = _check_slicing(trajs, 2.0, 1.0)
    assert sum(not w.members for w in windows) == 3
    labels = Partition([[1, 3]])
    stats = scene_stats(windows, labels)
    assert None not in (stats.d_in, stats.d_out, stats.d_io)
    assert (stats.d_in, stats.d_out, stats.d_io) == pytest.approx(oracles.scalar_scene_stats(windows, labels))


def test_window_ground_truth_restriction():
    a = make_traj(1, np.arange(0.0, 10.0))
    b = make_traj(2, np.arange(0.0, 10.0))
    c = make_traj(4, np.arange(0.0, 10.0))
    labels = Partition([{1, 2, 3}, {5, 6}])
    window = slice_windows([a, b, c], 10.0, 10.0)[0]
    truth = window_ground_truth(window, labels)
    assert truth == Partition([[1, 2], [4]])


def test_restrict_labels_all_singletons():
    labels = Partition([{1, 2}])
    assert restrict_labels({3, 4}, labels) == Partition([[3], [4]])


def test_restrict_labels_splits_a_group_down_to_one_member():
    labels = Partition([[1, 2, 3], [4, 5, 6]])
    assert restrict_labels({1, 4, 5}, labels) == Partition([[1], [4, 5]])


# ---------------------------------------------------------------------------
# Scene statistics


def test_scene_stats_hand_case():
    # two mates 1 m apart, one singleton exactly 2 m from each, two frames
    y = math.sqrt(4.0 - 0.25)
    times = [0.0, 1.0]
    a = make_traj(1, times, [[0.0, 0.0], [0.0, 0.0]])
    b = make_traj(2, times, [[1.0, 0.0], [1.0, 0.0]])
    c = make_traj(3, times, [[0.5, y], [0.5, y]])
    labels = Partition([{1, 2}])
    windows = slice_windows([a, b, c], 2.0, 2.0)
    stats = scene_stats(windows, labels)
    assert stats.d_in == pytest.approx(1.0)
    assert stats.d_out == pytest.approx(2.0)
    assert stats.d_io == pytest.approx(0.5)


def test_scene_stats_no_groups():
    a = make_traj(1, [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
    b = make_traj(2, [0.0, 1.0], [[3.0, 0.0], [3.0, 0.0]])
    labels = Partition([])
    stats = scene_stats(slice_windows([a, b], 2.0, 2.0), labels)
    assert stats.d_in is None
    assert stats.d_io is None
    assert stats.d_out == pytest.approx(3.0)


def test_scene_stats_no_unrelated():
    a = make_traj(1, [0.0, 1.0], [[0.0, 0.0], [0.0, 0.0]])
    b = make_traj(2, [0.0, 1.0], [[2.0, 0.0], [2.0, 0.0]])
    labels = Partition([{1, 2}])
    stats = scene_stats(slice_windows([a, b], 2.0, 2.0), labels)
    assert stats.d_in == pytest.approx(2.0)
    assert stats.d_out is None
    assert stats.d_io is None


def test_scene_stats_requires_windows():
    with pytest.raises(ValueError):
        scene_stats([], Partition([]))


def test_scene_stats_matches_scalar_loop_on_random_ragged_windows():
    rng = np.random.default_rng(8)
    for _ in range(40):
        windows = [oracles.random_ragged_window(rng) for _ in range(int(rng.integers(1, 4)))]
        ids = list(range(1, 16))
        rng.shuffle(ids)
        cut = np.sort(rng.choice(np.arange(1, 15), size=3, replace=False))
        labels = Partition([g for g in np.split(ids, cut) if len(g) >= 2])
        stats = scene_stats(windows, labels)
        want = oracles.scalar_scene_stats(windows, labels)
        for got, ref in zip((stats.d_in, stats.d_out, stats.d_io), want):
            assert (got is None) == (ref is None)
            if ref is not None:
                assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_align_segments_marks_exact_common_timestamps():
    a = make_traj(1, [0.0, 0.4, 1.2], [[0, 0], [1, 1], [2, 2]])
    b = make_traj(2, [0.4, 0.8], [[5, 5], [6, 6]])
    times, points, present = align_segments([a, b])
    assert times.tolist() == [0.0, 0.4, 0.8, 1.2]
    assert present.tolist() == [[True, True, False, True], [False, True, True, False]]
    assert points[0, 3].tolist() == [2.0, 2.0] and points[1, 2].tolist() == [6.0, 6.0]
    assert points[1, 0].tolist() == [0.0, 0.0]
    empty_times, empty_points, empty_present = align_segments([])
    assert empty_times.shape == (0,) and empty_points.shape == (0, 0, 2) and empty_present.shape == (0, 0)

