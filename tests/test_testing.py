import dataclasses

import numpy as np
import pytest

from markov_id import (
    EdgeSet,
    ExclusionRegionError,
    PreconditionFailedError,
    RandomSource,
    ReferenceClassError,
    TestConfig,
    TestVerdict,
    Trajectory,
    TransitionMatrix,
    contrast,
    estimate_risk,
    plugin_symmetric_tester,
    rationalize,
    reduced_identity_test,
    sample_complexity_scan,
    simulate,
    stationary_distribution,
    validate,
)


@pytest.fixture
def rational(ref_three_state):
    return rationalize(stationary_distribution(ref_three_state), 64)


@pytest.fixture
def config():
    return TestConfig(epsilon=0.15, delta=0.2, n=2000, seed=101)


class TestConfigValidation:
    def test_threshold_default(self, config):
        assert config.threshold == pytest.approx(0.075)

    def test_threshold_with_low_edge(self):
        cfg = TestConfig(epsilon=0.3, delta=0.1, n=10, epsilon_low=0.1)
        assert cfg.threshold == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(epsilon=0.0, delta=0.1, n=10),
            dict(epsilon=1.0, delta=0.1, n=10),
            dict(epsilon=0.5, delta=0.0, n=10),
            dict(epsilon=0.5, delta=0.1, n=0),
            dict(epsilon=0.5, delta=0.1, n=10, seed=-1),
            dict(epsilon=0.5, delta=0.1, n=10, epsilon_low=0.5),
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            TestConfig(**kwargs)

    def test_verdict_decision_domain(self):
        with pytest.raises(ValueError):
            TestVerdict(2)


class TestPluginTester:
    def symmetric_ref(self):
        return TransitionMatrix.from_dense(
            np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        )

    def test_requires_symmetric_reference(self, two_state, config):
        traj = Trajectory(np.array([0, 1, 0, 1]), 2)
        with pytest.raises(PreconditionFailedError):
            plugin_symmetric_tester(two_state, traj, config)

    def test_accepts_own_data(self, config):
        ref = self.symmetric_ref()
        traj = simulate(ref, 4000, RandomSource(5))
        verdict = plugin_symmetric_tester(ref, traj, config)
        assert verdict.decision == 0
        assert verdict.diagnostics["contrast_estimate"] < config.threshold
        assert not verdict.diagnostics["insufficient_data"]

    def test_rejects_far_data(self, config):
        ref = self.symmetric_ref()
        far = TransitionMatrix.from_dense(
            np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05], [0.05, 0.05, 0.9]])
        )
        traj = simulate(far, 4000, RandomSource(5))
        assert plugin_symmetric_tester(ref, traj, config).decision == 1

    def test_short_trajectory_falls_back_to_reference(self, config):
        ref = self.symmetric_ref()
        verdict = plugin_symmetric_tester(ref, Trajectory(np.array([0, 1, 2]), 3), config)
        assert verdict.decision == 0
        assert verdict.diagnostics["insufficient_data"]
        assert verdict.diagnostics["contrast_estimate"] == 0.0

    def test_off_edge_transitions_count_against_identity(self, config):
        ref = TransitionMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        states = np.array([0, 1] * 20 + [0, 0])
        verdict = plugin_symmetric_tester(ref, Trajectory(states, 2), config)
        assert verdict.diagnostics["contrast_estimate"] > 0.0

    def test_single_observation_accepts_with_flag(self, config):
        verdict = plugin_symmetric_tester(
            self.symmetric_ref(), Trajectory(np.array([1]), 3), config
        )
        assert verdict.decision == 0
        assert verdict.diagnostics["insufficient_data"]

    def test_decision_frequencies_at_long_horizon(self):
        # both sides of the guarantee over 100 seeded runs
        ref = self.symmetric_ref()
        far = TransitionMatrix.from_dense(
            np.array([[0.96, 0.02, 0.02], [0.02, 0.96, 0.02], [0.02, 0.02, 0.96]])
        )
        cfg = TestConfig(epsilon=0.15, delta=0.1, n=100_000, seed=0)
        assert contrast(ref, far).k > cfg.epsilon
        accepts = rejects = 0
        for t in range(100):
            own = simulate(ref, cfg.n, RandomSource(900 + t))
            other = simulate(far, cfg.n, RandomSource(1900 + t))
            accepts += plugin_symmetric_tester(ref, own, cfg).decision == 0
            rejects += plugin_symmetric_tester(ref, other, cfg).decision == 1
        assert accepts >= 90
        assert rejects >= 90


class TestReducedTest:
    def test_accepts_reference_trajectory(self, ref_three_state, rational, config):
        traj = simulate(ref_three_state, config.n, RandomSource(config.seed))
        verdict = reduced_identity_test(ref_three_state, rational, traj, config)
        assert verdict.decision == 0
        assert verdict.diagnostics["delta_states"] == 4
        assert verdict.diagnostics["symmetry_defect"] <= 1e-12

    def test_rejects_alternative_trajectory(
        self, ref_three_state, alt_three_state, rational, config
    ):
        traj = simulate(alt_three_state, config.n, RandomSource(config.seed))
        verdict = reduced_identity_test(ref_three_state, rational, traj, config)
        assert verdict.decision == 1

    def test_deterministic(self, ref_three_state, rational, config):
        traj = simulate(ref_three_state, config.n, RandomSource(55))
        a = reduced_identity_test(ref_three_state, rational, traj, config)
        b = reduced_identity_test(ref_three_state, rational, traj, config)
        assert a.decision == b.decision
        assert a.diagnostics["contrast_estimate"] == b.diagnostics["contrast_estimate"]

    def test_rejects_non_member_reference(self, rational, config):
        skew = TransitionMatrix.from_dense(
            [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        )
        traj = Trajectory(np.array([0, 1, 2, 0]), 3)
        rat = rationalize(stationary_distribution(skew), 64)
        with pytest.raises(ReferenceClassError):
            reduced_identity_test(skew, rat, traj, config)

    def test_rejects_wrong_alphabet(self, ref_three_state, rational, config, two_state):
        traj = simulate(two_state, 100, RandomSource(1))
        from markov_id import IncompatibleStateCountError

        with pytest.raises(IncompatibleStateCountError):
            reduced_identity_test(ref_three_state, rational, traj, config)

    def test_uniform_law_degenerates_to_direct_delegation(self, config):
        # identity symmetrizer: the embedded data is the data itself
        from markov_id import RationalStationary

        ref = TransitionMatrix.from_dense(
            np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.25, 0.25, 0.5]])
        )
        rat = RationalStationary.from_counts([1, 1, 1])
        traj = simulate(ref, config.n, RandomSource(404))
        reduced = reduced_identity_test(ref, rat, traj, config)
        direct = plugin_symmetric_tester(ref, traj, config)
        assert reduced.decision == direct.decision
        assert reduced.diagnostics["contrast_estimate"] == direct.diagnostics["contrast_estimate"]
        assert reduced.diagnostics["delta_states"] == 3


class TestRisk:
    def test_small_risk_at_moderate_length(
        self, ref_three_state, alt_three_state, rational, config
    ):
        report = estimate_risk(
            ref_three_state, rational, [alt_three_state],
            dataclasses.replace(config, n=400), trials=40,
        )
        assert report.type1 == 0.0
        assert report.type2_by_alternative == (0.0,)
        assert report.risk == 0.0
        assert report.n == 400 and report.trials == 40

    def test_workers_do_not_change_results(
        self, ref_three_state, alt_three_state, rational, config
    ):
        cfg = dataclasses.replace(config, n=150)
        serial = estimate_risk(ref_three_state, rational, [alt_three_state], cfg, trials=12)
        parallel = estimate_risk(
            ref_three_state, rational, [alt_three_state], cfg, trials=12, workers=3
        )
        assert serial == parallel

    def test_gate_rejects_close_alternative(self, ref_three_state, rational, config):
        near = validate(
            3,
            EdgeSet.complete(3),
            [[0.86, 0.06, 0.08], [0.06, 0.86, 0.08], [0.04, 0.04, 0.92]],
        )
        assert contrast(ref_three_state, near).k <= config.epsilon
        with pytest.raises(ExclusionRegionError):
            estimate_risk(ref_three_state, rational, [near], config, trials=5)

    def test_gate_rejects_the_reference_itself(self, ref_three_state, rational, config):
        with pytest.raises(ExclusionRegionError):
            estimate_risk(ref_three_state, rational, [ref_three_state], config, trials=5)

    def test_no_alternatives_gives_type_one_only(self, ref_three_state, rational, config):
        report = estimate_risk(
            ref_three_state, rational, [], dataclasses.replace(config, n=400), trials=20
        )
        assert report.type2_by_alternative == ()
        assert report.type2_max == 0.0
        assert report.risk == report.type1

    def test_slow_mixing_two_state_pair(self, two_state):
        # same stationary law (1/3, 2/3), contrast about 0.112
        alt = TransitionMatrix.from_dense([[0.98, 0.02], [0.01, 0.99]])
        assert contrast(two_state, alt).k == pytest.approx(0.1118, abs=5e-4)
        rat = rationalize(stationary_distribution(two_state), 16)
        cfg = TestConfig(epsilon=0.05, delta=0.2, n=2000, seed=77)
        report = estimate_risk(two_state, rat, [alt], cfg, trials=40)
        assert report.risk < cfg.delta

    def test_gate_rejects_non_member_alternative(self, ref_three_state, rational, config):
        skew = TransitionMatrix.from_dense(
            [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        )
        with pytest.raises(ReferenceClassError):
            estimate_risk(ref_three_state, rational, [skew], config, trials=5)


class TestScan:
    def test_stop_early_finds_first_success(
        self, ref_three_state, alt_three_state, rational, config
    ):
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[100, 200, 400], trials=30,
        )
        assert result.found_n == 100
        assert len(result.reports) == 1

    def test_full_grid_when_not_stopping(
        self, ref_three_state, alt_three_state, rational, config
    ):
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[100, 200], trials=10, stop_early=False,
        )
        assert [r.n for r in result.reports] == [100, 200]

    def test_csv_shape(self, ref_three_state, alt_three_state, rational, config):
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[100], trials=10,
        )
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "n,type1_freq,type2_freq_max,risk_estimate"
        assert lines[1].startswith("100,")

    def test_deterministic_across_runs(
        self, ref_three_state, alt_three_state, rational, config
    ):
        runs = [
            sample_complexity_scan(
                ref_three_state, rational, [alt_three_state], config,
                n_grid=[50, 100], trials=15, stop_early=False,
            )
            for _ in range(2)
        ]
        assert runs[0].reports == runs[1].reports

    def test_single_observation_always_accepts(
        self, ref_three_state, alt_three_state, rational, config
    ):
        # one state carries no transition: type II error stays at one
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[1], trials=10,
        )
        report = result.reports[0]
        assert report.type1 == 0.0
        assert report.type2_max == 1.0
        assert report.risk == 1.0
        assert result.found_n is None

    def test_risk_does_not_grow_along_the_grid(
        self, ref_three_state, alt_three_state, rational, config
    ):
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[25, 400], trials=30, stop_early=False,
        )
        assert result.reports[-1].risk <= result.reports[0].risk

    def test_setup_runs_once_per_scan(
        self, monkeypatch, ref_three_state, alt_three_state, rational, config
    ):
        import markov_id.embedding as embedding
        import markov_id.markov_core as markov_core
        import markov_id.testing as testing

        calls = {}

        def count(module, name, original):
            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted, raising=False)

        for name in ("check_reference_class", "build_symmetrizer", "embed_matrix"):
            count(testing, name, getattr(testing, name))
        count(testing, "symmetry_defect", embedding.symmetry_defect)
        count(markov_core, "stationary_distribution", markov_core.stationary_distribution)
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[50, 100, 200], trials=5, stop_early=False,
        )
        assert len(result.reports) == 3
        assert calls.get("check_reference_class") == 2
        assert calls.get("build_symmetrizer") == 1
        assert calls.get("embed_matrix") == 1
        assert "symmetry_defect" not in calls
        # one solve per chain (reference and alternative); no trial solves
        assert calls.get("stationary_distribution") == 2

    def test_stream_layout(
        self, monkeypatch, ref_three_state, alt_three_state, rational, config
    ):
        import markov_id.testing as testing

        drawn = []

        class Recording(RandomSource):
            def generator(self):
                drawn.append((self.seed, self.stream))
                return super().generator()

        monkeypatch.setattr(testing, "RandomSource", Recording)
        trials, chains = 3, 2
        result = sample_complexity_scan(
            ref_three_state, rational, [alt_three_state], config,
            n_grid=[50, 100], trials=trials, stop_early=False,
        )
        # trial t of chain c at grid position i: trajectory on stream
        # 2*((i*chains + c)*trials + t), embedding on the next one
        expected = [
            (config.seed, 2 * ((i * chains + c) * trials + t) + k)
            for i in range(2) for c in range(chains) for t in range(trials) for k in (0, 1)
        ]
        assert drawn == expected
        first = estimate_risk(
            ref_three_state, rational, [alt_three_state],
            dataclasses.replace(config, n=50), trials=trials,
        )
        assert result.reports[0] == first
