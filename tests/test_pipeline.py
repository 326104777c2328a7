import hashlib
import math
import random

import pytest

from drowsebench.pipeline import (
    STAGE_ORDER,
    Distribution,
    SessionTrace,
    StageName,
    StageProfile,
    _normal_draws,
    _stage_columns,
    average_stage_set,
    clamped_normal_moments,
    clamped_normal_params,
    load_stage_sets,
    queue_stability,
    read_timings_csv,
    simulate_session,
    summarize_timings,
    write_timings_csv,
)


def det_profiles(face=1.0, landmark=1.0, blink=1.0):
    return [
        StageProfile(StageName.FACE, face, 0.0, Distribution.DETERMINISTIC),
        StageProfile(StageName.LANDMARK, landmark, 0.0, Distribution.DETERMINISTIC),
        StageProfile(StageName.BLINK, blink, 0.0, Distribution.DETERMINISTIC),
    ]


def per_call_columns(profiles, n_frames, seed):
    """Stage times in microseconds, one ``rng.gauss`` call per Gaussian stage and frame."""
    rng = random.Random(seed)
    columns = [[] for _ in profiles]
    for _ in range(n_frames):
        for column, profile in zip(columns, profiles):
            if profile.dist is Distribution.DETERMINISTIC:
                ms = profile.mean_ms
            else:
                a, b = clamped_normal_params(profile.mean_ms, profile.std_ms)
                ms = max(0.0, rng.gauss(a, b))
            column.append(ms * 1000.0)
    return columns


class TestClampedNormal:
    def test_narrow_profile_passes_through(self):
        assert clamped_normal_params(17.177, 0.816) == (17.177, 0.816)
        assert clamped_normal_params(5.0, 0.0) == (5.0, 0.0)

    def test_wide_profile_moments_match(self):
        # std twice the mean: clamping at zero is heavy, so the
        # underlying gaussian must differ from the targets
        a, b = clamped_normal_params(2.645, 5.164)
        assert (a, b) != (2.645, 5.164)
        mean, std = clamped_normal_moments(a, b)
        assert mean == pytest.approx(2.645, abs=1e-9)
        assert std == pytest.approx(5.164, abs=1e-9)

    def test_sampled_moments_converge(self):
        face, landmark, _ = det_profiles()
        profiles = [face, landmark, StageProfile(StageName.BLINK, 2.645, 5.164)]
        *_, blink_us = _stage_columns(profiles, 200_000, random.Random(99))
        xs = [us / 1000.0 for us in blink_us]
        n = len(xs)
        mean = sum(xs) / n
        std = math.sqrt(sum((x - mean) ** 2 for x in xs) / n)
        assert mean == pytest.approx(2.645, abs=0.05)
        assert std == pytest.approx(5.164, abs=0.05)
        assert min(xs) >= 0.0

    def test_degenerate_width(self):
        assert clamped_normal_moments(3.0, 0.0) == (3.0, 0.0)
        assert clamped_normal_moments(-3.0, 0.0) == (0.0, 0.0)

    def test_narrow_width_keeps_its_std(self):
        # second moment minus squared mean cancels to 0 at this width
        assert clamped_normal_moments(1.0, 1e-9) == (1.0, 1e-9)

    def test_rejects_bad_targets(self):
        with pytest.raises(ValueError):
            clamped_normal_params(0.0, 1.0)
        with pytest.raises(ValueError):
            clamped_normal_params(1.0, -0.1)
        with pytest.raises(ValueError):
            clamped_normal_params(1.0, 1000.0)

    def test_solved_gaussian_has_the_target_moments(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # a spread beyond about 246 (alpha = -4) is rejected
        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(mean=st.floats(1e-3, 1e3), spread=st.floats(0.0, 250.0))
        def check(mean, spread):
            try:
                a, b = clamped_normal_params(mean, mean * spread)
            except ValueError:
                hypothesis.reject()
            moments = clamped_normal_moments(a, b)
            assert moments == pytest.approx((mean, mean * spread), rel=1e-9, abs=0.0)

        check()


class TestStageProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            StageProfile(StageName.FACE, 0.0)
        with pytest.raises(ValueError):
            StageProfile(StageName.FACE, 1.0, -1.0)
        # a deterministic stage always takes its mean, so its std is 0
        with pytest.raises(ValueError, match="^stage landmark: a deterministic stage needs std_ms"):
            StageProfile(StageName.LANDMARK, 2.0, 0.5, Distribution.DETERMINISTIC)

    def test_non_finite_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="^stage face: mean_ms must be positive and"):
                StageProfile(StageName.FACE, bad)
            with pytest.raises(ValueError, match="^stage face: std_ms must be non-negative and"):
                StageProfile(StageName.FACE, 1.0, bad)

    def test_deterministic_sampler_is_constant(self):
        rng = random.Random(0)
        columns = _stage_columns(det_profiles(4.25, 1.0, 0.5), 5, rng)
        assert [list(c) for c in columns] == [[4250.0] * 5, [1000.0] * 5, [500.0] * 5]
        # a deterministic stage draws nothing
        assert rng.random() == random.Random(0).random()


class TestBatchedDraws:
    @pytest.mark.parametrize("count", [0, 1, 2, 3, 1000, 1001])
    def test_equal_sequential_gauss_calls(self, count):
        rng = random.Random(7)
        assert _normal_draws(random.Random(7), count) == [rng.gauss(0.0, 1.0) for _ in range(count)]

    def test_equal_sequential_gauss_calls_on_random_seeds(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(seed=st.integers(0, 2**64), count=st.integers(0, 257))
        def check(seed, count):
            rng = random.Random(seed)
            expected = [rng.gauss(0.0, 1.0) for _ in range(count)]
            assert _normal_draws(random.Random(seed), count) == expected

        check()

    def test_stage_columns_equal_per_call_draws(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def stage(name):
            return st.builds(
                # a deterministic stage has std 0
                lambda mean, spread, dist: StageProfile(
                    name, mean, 0.0 if dist is Distribution.DETERMINISTIC else mean * spread, dist
                ),
                st.floats(0.1, 150.0),
                st.floats(0.0, 2.0),
                st.sampled_from(Distribution),
            )

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            profiles=st.tuples(*(stage(name) for name in STAGE_ORDER)),
            n_frames=st.integers(0, 64),
            seed=st.integers(0, 2**32),
        )
        def check(profiles, n_frames, seed):
            columns = _stage_columns(list(profiles), n_frames, random.Random(seed))
            assert [list(c) for c in columns] == per_call_columns(profiles, n_frames, seed)

        check()


class TestFramePipeline:
    def test_deterministic_millisecond_stages(self):
        trace = simulate_session(1, 1, det_profiles(), seed=0)
        assert trace.recv_ts_us == (0.0,)
        assert trace.face_done_ts_us == (1000.0,)
        assert trace.landmark_done_ts_us == (2000.0,)
        assert trace.blink_done_ts_us == (3000.0,)
        assert trace.durations_ms() == [[1.0], [1.0], [1.0], [3.0]]

    def test_missing_stage_rejected(self):
        face, landmark, blink = det_profiles()
        with pytest.raises(ValueError, match="missing stages: landmark$"):
            simulate_session(30, 1, [face, blink], seed=0)
        with pytest.raises(ValueError, match="missing stages: face, blink$"):
            simulate_session(30, 1, [landmark], seed=0)
        with pytest.raises(ValueError, match="missing stages: landmark$"):
            queue_stability([face, blink], 30)

    def test_repeated_stage_rejected(self):
        # one check for both: the simulator would keep the last face profile
        # while the verdict summed both
        face, landmark, blink = det_profiles()
        slow_face = StageProfile(StageName.FACE, 50.0, 0.0, Distribution.DETERMINISTIC)
        repeated = [face, slow_face, landmark, blink]
        once_each = "must define face, landmark and blink once each: face, face, landmark, blink"
        with pytest.raises(ValueError, match=once_each):
            simulate_session(30, 1, repeated, seed=0)
        with pytest.raises(ValueError, match=once_each):
            queue_stability(repeated, 30)


class TestSimulateSession:
    def test_fast_service_never_queues(self):
        trace = simulate_session(30, 5, det_profiles(1.0, 1.0, 1.0), seed=0)
        assert trace.arrived == 150
        assert trace.completed == 150
        assert trace.backlog == 0
        assert trace.max_queue_length == 0

    def test_overloaded_service_backlog_is_exact(self):
        # 100 ms of service against a 33.3 ms frame period: the worker
        # finishes frame k at (k+1)*100 ms, so 100 frames complete in
        # 10 s and the backlog matches the analytic growth rate
        profiles = det_profiles(60.0, 30.0, 10.0)
        trace = simulate_session(30, 10, profiles, seed=0)
        assert trace.arrived == 300
        assert trace.completed == 100
        assert trace.backlog == 200
        assert trace.max_queue_length == 200
        verdict = queue_stability(profiles, 30)
        assert verdict.backlog_growth_rate * 10 == pytest.approx(trace.backlog)

    def test_finishing_at_next_arrival_is_not_queued(self):
        # service equals the frame period, so each frame ends exactly when
        # the next one arrives: a frame done at an arrival is out of the system
        trace = simulate_session(10, 3, det_profiles(50.0, 30.0, 20.0), seed=0)
        assert list(trace.recv_ts_us) == [k * 1e5 for k in range(30)]
        assert trace.max_queue_length == 0
        assert trace.backlog == 0

    def test_start_times_follow_fifo_recurrence(self):
        profiles = [
            StageProfile(StageName.FACE, 20.0, 4.0),
            StageProfile(StageName.LANDMARK, 10.0, 2.0),
            StageProfile(StageName.BLINK, 5.0, 1.0),
        ]
        trace = simulate_session(30, 3, profiles, seed=11)
        period_us = 1e6 / 30
        for k, (recv, done) in enumerate(zip(trace.recv_ts_us, trace.blink_done_ts_us)):
            arrival = k * period_us
            expected = arrival if k == 0 else max(arrival, trace.blink_done_ts_us[k - 1])
            assert recv == expected
            assert done >= recv

    def test_same_seed_reproduces_trace(self):
        profiles = [
            StageProfile(StageName.FACE, 5.0, 1.0),
            StageProfile(StageName.LANDMARK, 2.0, 0.5),
            StageProfile(StageName.BLINK, 1.0, 0.2),
        ]
        a = simulate_session(30, 2, profiles, seed=42)
        b = simulate_session(30, 2, profiles, seed=42)
        c = simulate_session(30, 2, profiles, seed=43)
        assert a == b
        assert a != c

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            simulate_session(0, 1, det_profiles(), seed=0)
        with pytest.raises(ValueError):
            simulate_session(30, 0, det_profiles(), seed=0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_rates(self, value):
        with pytest.raises(ValueError, match="^fps must be positive and finite, got"):
            simulate_session(value, 1, det_profiles(), seed=0)
        with pytest.raises(ValueError, match="^duration_s must be positive and finite, got"):
            simulate_session(30, value, det_profiles(), seed=0)


# SHA-256 of repr((rows, queue_length_at_arrival)) of a 10 s session at
# 30 fps, one row (frame_id, recv, face_done, landmark_done, blink_done) per
# frame.  A change in sampling order or in float rounding changes them.
GOLDEN_TRACE_SHA256 = {
    ("desktop-pc", "320x240", 0):
        "6936d4f00d28c4df0071f3b70ca9836f1d9d70129ecb561080228c96182fee39",
    ("desktop-pc", "320x240", 1):
        "a8d0961fe8667c399b8eeb8e20c93b1216c984c1843ce8e45882a5a566fcb8f9",
    ("desktop-pc", "640x480", 0):
        "4f6e09ee8edd96f9ab3444626f00de804f9f017f5e9fd8fb616275023972e761",
    ("desktop-pc", "640x480", 1):
        "b21d12eea48c437e3287a6afd17303ee80eb5212b302c79e2e13e0624d6325a2",
    ("desktop-pc", "960x540", 0):
        "e36a6f9cf3aeba7b61106d42f4c1d0a82f428f1ff037a9d46419688d8829c712",
    ("desktop-pc", "960x540", 1):
        "fffa0c3ffd92fde6275ab7017f57fedca9f035ae8e16e0ea7e1976cb5b1064e5",
    ("desktop-pc", "1280x720", 0):
        "76f3dc164731ffb8c7706c9d2772c954a5b5e217af021ecae0b3ce597fe94fd7",
    ("desktop-pc", "1280x720", 1):
        "db73e0f44278f8aaed8ce44ea77d1bd64e12019fac1fa06be817fdc7aa7e7c2b",
    ("desktop-pc", "average", 0):
        "44be1eb1dfd7e136f6e1269ae0ee4d21a432655ce3959b0877410b159ba14e25",
    ("desktop-pc", "average", 1):
        "ccc435b53081aa106d857a8caadc5d16f309ec13a909ee845716ef0763f4ebf1",
    ("jetson-nano", "320x240", 0):
        "30df0fe89c09dc5758d3bacb3d1a7b2f910cc972161e8ca2a3370eec3a063a43",
    ("jetson-nano", "320x240", 1):
        "a84b3901fe2c96cfe6ba043b8dec88b9e49772b781ee2ce433b4b5146168acc7",
    ("jetson-nano", "640x480", 0):
        "68a96421bcc788aad4067b4edc00c0e83b74c492d896ec1040bb0a0c39485df7",
    ("jetson-nano", "640x480", 1):
        "793849da968a60ef4add91cfdef36c558fc3a02773d3f605df882fdfa69e21d4",
    ("jetson-nano", "960x540", 0):
        "97fcb870f9b458ddab7b7106a63251d54c83ac54289cdc6d73865d73547692bd",
    ("jetson-nano", "960x540", 1):
        "3d9fa49cceedee2f476d898397d4dd7ebe02162c968b97946a967e8b67e4a8f3",
    ("jetson-nano", "1280x720", 0):
        "0405f588cc3c493463804bb0b410f38facc619bb20c0ef921eb10fa6dc16fa8b",
    ("jetson-nano", "1280x720", 1):
        "3ebd14f36466695af66ecccbb0be643fdea80b8ba99052e6116e5c5d47376468",
    ("jetson-nano", "average", 0):
        "530b90c15ba70fb29a578ca814717f99666c9afbd23663a8adbcf6da54ce5f3c",
    ("jetson-nano", "average", 1):
        "f726011c698d9a3abe69a14e123501b0afbc5f44d68eee8d5646f76e7950cb71",
    ("mini-pc", "320x240", 0):
        "5e622cd9fa4fb99797d5c2b5c35865932b2601a7926b058ee9c44e3a361c0477",
    ("mini-pc", "320x240", 1):
        "f91019b889bc2a9aaef809a2086ec5be6b40b7bb265cc5cdbd3390fab0048cec",
    ("mini-pc", "640x480", 0):
        "4ef27f9be2aec5e677779b5c2e471f1070c7333dfe82634fc0e8fc5e374e1ffb",
    ("mini-pc", "640x480", 1):
        "be2850c0b6a014bc0a0e95306a1de73878fc38e46642175fcf735f8695f5f2ff",
    ("mini-pc", "960x540", 0):
        "cad67ec11aabddd73e4f4f203ec50b0956a24c2e9af88de162ceb244a66fc562",
    ("mini-pc", "960x540", 1):
        "65472c5a609e284b1a81fd45bd38d26602c41d7dbb9c0299ce41ee69029a57d8",
    ("mini-pc", "1280x720", 0):
        "83ef2a8097f7519961b59e93cd3138f089f3bc36e837f6fc0acbedda1f75a24b",
    ("mini-pc", "1280x720", 1):
        "f1f19da3aa875633e792b0398f335b309c090cb828615b141f515d8abaf4c051",
    ("mini-pc", "average", 0):
        "d3d548ef9a2ba8420ec7fca15b65062438840827c21231a10209af5d2a4c28b4",
    ("mini-pc", "average", 1):
        "e717a21a3e687fe9e77ea661481a57cc699054087cd04cdb18e9f4a43524d1ab",
}


def trace_digest(trace):
    rows = list(
        zip(
            range(trace.arrived),
            trace.recv_ts_us,
            trace.face_done_ts_us,
            trace.landmark_done_ts_us,
            trace.blink_done_ts_us,
        )
    )
    return hashlib.sha256(repr((rows, list(trace.queue_length_at_arrival))).encode()).hexdigest()


class TestSeededTraces:
    def test_shipped_profiles_match_recorded_digests(self, profiles_dir):
        digests = {}
        for device in ("desktop-pc", "jetson-nano", "mini-pc"):
            sets = load_stage_sets(profiles_dir / f"{device}.json")
            sets["average"] = average_stage_set(sets)
            for name, profiles in sets.items():
                for seed in (0, 1):
                    trace = simulate_session(30, 10, profiles, seed)
                    digests[(device, name, seed)] = trace_digest(trace)
        assert digests == GOLDEN_TRACE_SHA256

    def test_lindley_invariants_on_random_profiles(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def stage(name):
            return st.builds(
                # a deterministic stage has std 0
                lambda mean, spread, dist: StageProfile(
                    name, mean, 0.0 if dist is Distribution.DETERMINISTIC else mean * spread, dist
                ),
                st.floats(0.1, 150.0),
                st.floats(0.0, 2.0),
                st.sampled_from(Distribution),
            )

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            profiles=st.tuples(*(stage(name) for name in STAGE_ORDER)),
            fps=st.floats(1.0, 240.0),
            n_frames=st.integers(1, 200),
            seed=st.integers(0, 2**32),
        )
        def check(profiles, fps, n_frames, seed):
            duration_s = n_frames / fps
            trace = simulate_session(fps, duration_s, profiles, seed)
            done = trace.blink_done_ts_us
            period_us = 1e6 / fps
            assert trace.arrived == len(trace.queue_length_at_arrival) == round(fps * duration_s)
            done_prev = 0.0
            columns = zip(trace.recv_ts_us, trace.face_done_ts_us, trace.landmark_done_ts_us, done)
            for k, (recv, face, landmark, blink) in enumerate(columns):
                arrival_us = k * period_us
                assert recv == max(arrival_us, done_prev)
                assert recv <= face <= landmark <= blink
                in_system = sum(1 for d in done[:k] if d > arrival_us)
                assert trace.queue_length_at_arrival[k] == in_system
                done_prev = blink
            end_us = duration_s * 1e6
            assert trace.completed == sum(1 for d in done if d <= end_us)
            assert trace.completed + trace.backlog == trace.arrived
            assert [len(column) for column in trace.durations_ms()] == [trace.arrived] * 4

        check()


class TestQueueStability:
    def test_light_load_is_stable(self):
        verdict = queue_stability(det_profiles(10.0, 2.0, 1.0), fps=30)
        assert verdict.stable
        assert verdict.backlog_growth_rate == 0.0
        assert verdict.service_ms == 13.0
        assert verdict.budget_ms == pytest.approx(1000 / 30)

    def test_overload_growth_rate(self):
        verdict = queue_stability(det_profiles(60.0, 30.0, 10.0), fps=30)
        assert not verdict.stable
        assert verdict.backlog_growth_rate == pytest.approx(30 - 10.0)

    def test_exact_boundary_is_unstable(self):
        # utilisation exactly 1 has no linear backlog growth, but no slack
        # either: with any service-time spread the backlog is unbounded
        profiles = det_profiles(50.0, 30.0, 20.0)
        verdict = queue_stability(profiles, fps=10)
        assert verdict.service_ms == verdict.budget_ms == 100.0
        assert not verdict.stable
        assert verdict.backlog_growth_rate == 0.0

        just_below = queue_stability(profiles, fps=math.nextafter(10.0, 0.0))
        assert just_below.service_ms == 100.0 < just_below.budget_ms
        assert just_below.stable
        assert just_below.backlog_growth_rate == 0.0

    def test_stable_iff_service_below_budget(self):
        # the exact boundary is covered above; here the verdict is checked
        # against a simulated session on either side of it
        for fps in (5, 10, 24, 30, 60):
            for total in (5.0, 33.0, 99.0, 101.0, 250.0):
                profiles = det_profiles(total - 2, 1.0, 1.0)
                verdict = queue_stability(profiles, fps)
                assert verdict.stable == (verdict.service_ms < verdict.budget_ms)
                trace = simulate_session(fps, 2, profiles, seed=0)
                if verdict.stable:
                    assert verdict.backlog_growth_rate == 0.0
                    assert trace.max_queue_length == 0
                else:
                    assert verdict.backlog_growth_rate > 0.0
                    assert trace.backlog > 0

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            queue_stability(det_profiles(), fps=0)

    @pytest.mark.parametrize("fps", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_fps(self, fps):
        with pytest.raises(ValueError, match="^fps must be positive and finite, got"):
            queue_stability(det_profiles(), fps=fps)


def two_frame_trace(**columns):
    """A hand-built trace of two frames; ``columns`` replaces any of its columns."""
    defaults = dict(
        recv_ts_us=(0, 10000),
        face_done_ts_us=(2000, 14000),
        landmark_done_ts_us=(3000, 16000),
        blink_done_ts_us=(3500, 17500),
        queue_length_at_arrival=(0, 0),
    )
    return SessionTrace(fps=100.0, duration_s=0.02, **{**defaults, **columns})


class TestSummarizeTimings:
    def test_hand_computed_summary(self):
        trace = two_frame_trace()
        assert trace.durations_ms() == [[2.0, 4.0], [1.0, 2.0], [0.5, 1.5], [3.5, 7.5]]
        summary = summarize_timings(trace.durations_ms())
        assert summary.count == 2
        assert (summary.face.mean_ms, summary.face.std_ms) == (3.0, 1.0)
        assert (summary.landmark.mean_ms, summary.landmark.std_ms) == (1.5, 0.5)
        assert (summary.blink.mean_ms, summary.blink.std_ms) == (1.0, 0.5)
        assert (summary.total.mean_ms, summary.total.std_ms) == (5.5, 2.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_timings(SessionTrace(1.0, 1.0, (), (), (), (), ()).durations_ms())
        empty = simulate_session(1, 0.1, det_profiles(), seed=0)
        assert empty.arrived == 0
        with pytest.raises(ValueError):
            summarize_timings(empty.durations_ms())

    def test_a_short_timestamp_column_raises(self):
        # zip would stop at the short column: count from one column,
        # statistics from a truncated one
        with pytest.raises(ValueError, match="zip"):
            two_frame_trace(landmark_done_ts_us=(3000,)).durations_ms()

    def test_duration_columns_of_unequal_length_raise(self):
        durations = [[2.0, 4.0], [1.0], [0.5, 1.5], [3.5, 7.5]]
        with pytest.raises(ValueError, match=r"^duration columns differ in length: \[2, 1, 2, 2\]$"):
            summarize_timings(durations)

    def test_simulated_session_recovers_profile_means(self):
        profiles = [
            StageProfile(StageName.FACE, 89.799, 1.064),
            StageProfile(StageName.LANDMARK, 8.533, 0.348),
            StageProfile(StageName.BLINK, 2.645, 5.164),
        ]
        trace = simulate_session(30, 15, profiles, seed=12345)
        summary = summarize_timings(trace.durations_ms())
        assert summary.count == 450
        for profile, stat in zip(profiles, (summary.face, summary.landmark, summary.blink)):
            tol = 3 * profile.std_ms / math.sqrt(450)
            assert stat.mean_ms == pytest.approx(profile.mean_ms, abs=tol)


class TestStageSetFiles:
    DEVICES = ["desktop-pc", "jetson-nano", "mini-pc"]
    RESOLUTIONS = ["320x240", "640x480", "960x540", "1280x720"]

    def test_shipped_files_parse(self, profiles_dir):
        for device in self.DEVICES:
            sets = load_stage_sets(profiles_dir / f"{device}.json")
            assert sorted(sets) == sorted(self.RESOLUTIONS)
            for profiles in sets.values():
                assert [p.name for p in profiles] == list(STAGE_ORDER)
                assert all(p.mean_ms > 0 and p.std_ms >= 0 for p in profiles)

    def test_spot_values(self, profiles_dir):
        mini = load_stage_sets(profiles_dir / "mini-pc.json")
        face = mini["640x480"][0]
        assert (face.mean_ms, face.std_ms) == (21.935, 1.928)
        jetson = load_stage_sets(profiles_dir / "jetson-nano.json")
        blink = jetson["320x240"][2]
        assert (blink.mean_ms, blink.std_ms) == (2.645, 5.164)
        desktop = load_stage_sets(profiles_dir / "desktop-pc.json")
        assert desktop["1280x720"][0].mean_ms == 13.082

    def test_single_set_file(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(
            '{"stages": [{"name": "face", "mean_ms": 5.0},'
            ' {"name": "landmark", "mean_ms": 2.0},'
            ' {"name": "blink", "mean_ms": 1.0, "dist": "deterministic"}]}'
        )
        sets = load_stage_sets(path)
        assert list(sets) == ["default"]
        assert sets["default"][2].dist is Distribution.DETERMINISTIC
        assert sets["default"][0].std_ms == 0.0

    def test_rejects_bad_files(self, tmp_path):
        missing_stage = tmp_path / "missing.json"
        missing_stage.write_text(
            '{"stages": [{"name": "face", "mean_ms": 5.0}, {"name": "blink", "mean_ms": 1.0}]}'
        )
        with pytest.raises(ValueError):
            load_stage_sets(missing_stage)

        duplicate = tmp_path / "dup.json"
        duplicate.write_text(
            '{"stages": [{"name": "face", "mean_ms": 5.0}, {"name": "face", "mean_ms": 4.0},'
            ' {"name": "blink", "mean_ms": 1.0}]}'
        )
        with pytest.raises(ValueError):
            load_stage_sets(duplicate)

        unknown = tmp_path / "unknown.json"
        unknown.write_text('{"stages": [{"name": "nose", "mean_ms": 5.0}]}')
        with pytest.raises(ValueError):
            load_stage_sets(unknown)

        no_key = tmp_path / "nokey.json"
        no_key.write_text('{"device": "x"}')
        with pytest.raises(ValueError):
            load_stage_sets(no_key)

    def test_average_stage_set(self, profiles_dir):
        mini = average_stage_set(load_stage_sets(profiles_dir / "mini-pc.json"))
        assert [p.name for p in mini] == list(STAGE_ORDER)
        assert sum(p.mean_ms for p in mini) == pytest.approx(22.73225)
        jetson = average_stage_set(load_stage_sets(profiles_dir / "jetson-nano.json"))
        assert sum(p.mean_ms for p in jetson) == pytest.approx(94.267)
        assert jetson[0].mean_ms == pytest.approx(83.25475)

    def test_average_is_deterministic_only_when_every_set_is(self):
        trunc = [StageProfile(name, 2.0, 1.0) for name in STAGE_ORDER]
        # the result must not depend on which set comes first
        for sets in ({"a": det_profiles(), "b": trunc}, {"b": trunc, "a": det_profiles()}):
            averaged = average_stage_set(sets)
            assert [p.dist for p in averaged] == [Distribution.TRUNC_NORMAL] * 3
            assert [(p.mean_ms, p.std_ms) for p in averaged] == [(1.5, 0.5)] * 3
        averaged = average_stage_set({"a": det_profiles(), "b": det_profiles(2.0, 2.0, 2.0)})
        assert [p.dist for p in averaged] == [Distribution.DETERMINISTIC] * 3
        assert [(p.mean_ms, p.std_ms) for p in averaged] == [(1.5, 0.0)] * 3

    def test_average_rejects_empty(self):
        with pytest.raises(ValueError):
            average_stage_set({})


class TestTimingsCsv:
    def test_roundtrip(self, tmp_path):
        durations = two_frame_trace().durations_ms()
        path = tmp_path / "timings.csv"
        write_timings_csv(durations, path)
        assert path.read_text().splitlines()[1] == "0,2.0,1.0,0.5,3.5"
        assert read_timings_csv(path) == [[0, 1], *durations]

    def test_rejects_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError):
            write_timings_csv([[2.0, 4.0], [1.0], [0.5, 1.5], [3.5, 7.5]], tmp_path / "t.csv")

    def test_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "other.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError):
            read_timings_csv(path)
