import warnings

import numpy as np
import pytest

from markov_id import (
    IncompatibleStateCountError,
    RandomSource,
    Trajectory,
    build_symmetrizer,
    embed_matrix,
    embed_trajectory,
    rationalize,
    simulate,
    stationary_distribution,
)
from markov_id.sampling import (
    trajectory_from_json_obj,
    trajectory_from_text,
    trajectory_to_json_obj,
    trajectory_to_text,
)


def empirical_transitions(states, d):
    counts = np.zeros((d, d))
    np.add.at(counts, (states[:-1], states[1:]), 1.0)
    rows = counts.sum(axis=1, keepdims=True)
    rows[rows == 0] = 1.0
    return counts / rows


class TestRandomSource:
    def test_same_source_same_draws(self):
        a = RandomSource(42, 3).generator().random(5)
        b = RandomSource(42, 3).generator().random(5)
        assert (a == b).all()

    def test_streams_differ(self):
        a = RandomSource(42, 0).generator().random(5)
        b = RandomSource(42, 1).generator().random(5)
        assert (a != b).any()

    def test_rejects_negative_stream(self):
        with pytest.raises(ValueError):
            RandomSource(1, stream=-1)


class TestSimulate:
    def test_deterministic_given_source(self, two_state):
        a = simulate(two_state, 200, RandomSource(7))
        b = simulate(two_state, 200, RandomSource(7))
        assert (a.states == b.states).all()
        assert (a.seed, a.stream) == (7, 0)

    def test_streams_give_different_paths(self, two_state):
        a = simulate(two_state, 200, RandomSource(7, 0))
        b = simulate(two_state, 200, RandomSource(7, 1))
        assert (a.states != b.states).any()

    def test_stationary_occupancy(self, ref_three_state):
        traj = simulate(ref_three_state, 100_000, RandomSource(11))
        freq = np.bincount(traj.states, minlength=3) / len(traj)
        pi = stationary_distribution(ref_three_state).probs
        assert np.abs(freq - pi).max() < 0.01

    def test_transition_frequencies(self, ref_three_state):
        traj = simulate(ref_three_state, 100_000, RandomSource(13))
        hat = empirical_transitions(traj.states, 3)
        assert np.abs(hat - ref_three_state.matrix).max() < 0.02

    def test_point_mass_start(self, two_state):
        traj = simulate(two_state, 50, RandomSource(3), initial=np.array([1.0, 0.0]))
        assert traj.states[0] == 0

    def test_deterministic_cycle(self):
        from markov_id import TransitionMatrix

        flip = TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        traj = simulate(flip, 4, RandomSource(0), initial=np.array([1.0, 0.0]))
        assert traj.states.tolist() == [0, 1, 0, 1]

    def test_single_step_draws_from_initial(self, two_state):
        traj = simulate(two_state, 1, RandomSource(2), initial=np.array([0.0, 1.0]))
        assert traj.states.tolist() == [1]

    def test_respects_missing_edges(self, rng):
        from markov_id import EdgeSet, validate

        P = validate(
            2,
            EdgeSet.from_pairs(2, [(0, 0), (0, 1), (1, 0)]),
            [[0.5, 0.5], [1.0, 0.0]],
        )
        traj = simulate(P, 5000, RandomSource(5))
        pairs = set(zip(traj.states[:-1].tolist(), traj.states[1:].tolist()))
        assert (1, 1) not in pairs

    def test_uniform_past_row_total_stays_on_edges(self, monkeypatch):
        # row 0 sums to 1 - 5e-13, within ROW_SUM_TOL; a uniform just below 1
        # lies past its float total and must clamp to the row's last edge
        from markov_id import TransitionMatrix

        P = TransitionMatrix.from_dense(
            [[0.5, 0.4999999999995, 0.0], [0.3, 0.3, 0.4], [0.0, 0.5, 0.5]]
        )

        class AlmostOne:
            def random(self, n):
                return np.full(n, np.nextafter(1.0, 0.0))

        monkeypatch.setattr(RandomSource, "generator", lambda self: AlmostOne())
        traj = simulate(P, 5, RandomSource(0), initial=np.array([1.0, 0.0, 0.0]))
        assert traj.states.tolist() == [0, 1, 2, 2, 2]
        short = simulate(P, 1, RandomSource(0), initial=P.matrix[0])
        assert short.states.tolist() == [1]


class TestEmbedTrajectory:
    def test_lumps_back_exactly(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        traj = simulate(two_state, 2000, RandomSource(19))
        big = embed_trajectory(traj, sym.embedding, RandomSource(19, 1))
        assert (sym.embedding.lumping.assignment[big.states] == traj.states).all()

    def test_deterministic_given_source(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        traj = simulate(two_state, 500, RandomSource(19))
        a = embed_trajectory(traj, sym.embedding, RandomSource(23, 5))
        b = embed_trajectory(traj, sym.embedding, RandomSource(23, 5))
        assert (a.states == b.states).all()

    def test_matches_embedded_chain_statistics(self, ref_three_state):
        rat = rationalize(stationary_distribution(ref_three_state), 16)
        sym = build_symmetrizer(rat, ref_three_state.edges)
        traj = simulate(ref_three_state, 100_000, RandomSource(29))
        big = embed_trajectory(traj, sym.embedding, RandomSource(29, 1))
        hat = empirical_transitions(big.states, sym.delta)
        target = embed_matrix(ref_three_state, sym.embedding).matrix
        assert np.abs(hat - target).max() < 0.02

    def test_identity_embedding_copies_the_input(self, two_state):
        from markov_id import MemorylessEmbedding

        traj = simulate(two_state, 300, RandomSource(31))
        big = embed_trajectory(traj, MemorylessEmbedding.identity(2), RandomSource(31, 1))
        assert (big.states == traj.states).all()

    def test_singleton_blocks_are_fixed_points(self, ref_three_state):
        # blocks for states 0 and 1 have one element each, only state 2 splits
        rat = rationalize(stationary_distribution(ref_three_state), 16)
        sym = build_symmetrizer(rat, ref_three_state.edges)
        traj = simulate(ref_three_state, 2000, RandomSource(37))
        big = embed_trajectory(traj, sym.embedding, RandomSource(37, 1))
        for x in (0, 1):
            (target,) = sym.embedding.lumping.blocks[x]
            assert (big.states[traj.states == x] == target).all()

    def test_embedded_paths_follow_the_pushforward_law(self, two_state):
        from markov_id import PathMorphism, path_distribution
        from markov_id.paths import index_paths

        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        n, m = 3, 100_000
        small = path_distribution(two_state, n)
        draws = np.random.default_rng(41).choice(small.probs.size, size=m, p=small.probs)
        flat = index_paths(2, n)[draws].reshape(-1)
        big = embed_trajectory(
            Trajectory(flat, state_count=2), sym.embedding, RandomSource(43, 1)
        )
        codes = big.states.reshape(m, n)
        flat_index = codes[:, 0] * 9 + codes[:, 1] * 3 + codes[:, 2]
        empirical = np.bincount(flat_index, minlength=27) / m
        target = PathMorphism(sym.embedding, n).pushforward(small).probs
        assert 0.5 * np.abs(empirical - target).sum() <= 0.02

    def test_rejects_alphabet_mismatch(self, ref_three_state, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        traj = simulate(ref_three_state, 100, RandomSource(1))
        with pytest.raises(IncompatibleStateCountError):
            embed_trajectory(traj, sym.embedding, RandomSource(1, 1))


class TestTrajectoryIO:
    def test_text_round_trip_with_provenance(self):
        traj = Trajectory(np.array([0, 2, 1, 2]), 3, seed=5, stream=2)
        back = trajectory_from_text(trajectory_to_text(traj))
        assert (back.states == traj.states).all()
        assert (back.state_count, back.seed, back.stream) == (3, 5, 2)

    def test_text_without_header(self):
        back = trajectory_from_text("0\n1\n1\n0\n")
        assert back.states.tolist() == [0, 1, 1, 0]
        assert back.state_count == 2 and back.seed is None

    def test_text_headers_anywhere_and_blank_lines(self):
        back = trajectory_from_text("\n 2\n# seed=4\n\n0\r\n  # stream=1 states=5 note\n1\n")
        assert back.states.tolist() == [2, 0, 1]
        assert (back.state_count, back.seed, back.stream) == (5, 4, 1)

    @pytest.mark.parametrize("text", ["", "# seed=1 states=3\n", "\n  \n"])
    def test_text_without_states_is_refused(self, text):
        # no numpy "input contained no data" warning: warnings are errors here
        with pytest.raises(ValueError, match="states must be a nonempty vector"):
            trajectory_from_text(text)

    @pytest.mark.parametrize(
        "text",
        ["0\n1.5\n", "2.9\n", "1e0\n", "0\nx\n", "0\n1 2\n", "0 1\n1 0\n", "0 1 1\n"],
    )
    def test_malformed_text_is_refused(self, text):
        # numpy only warns when it parses "1.5" as an int; the refusal must not
        # depend on the caller's warning filters.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ValueError):
                trajectory_from_text(text)

    def test_json_round_trip(self):
        traj = Trajectory(np.array([1, 0, 1]), 2, seed=9)
        back = trajectory_from_json_obj(trajectory_to_json_obj(traj))
        assert (back.states == traj.states).all()
        assert back.seed == 9 and back.stream is None

    def test_file_round_trip(self, tmp_path, two_state):
        from markov_id import load_trajectory, save_trajectory

        traj = simulate(two_state, 64, RandomSource(77))
        for name in ("t.txt", "t.json"):
            path = tmp_path / name
            save_trajectory(traj, path)
            back = load_trajectory(path)
            assert (back.states == traj.states).all()
            assert back.seed == 77

    def test_rejects_out_of_range_state(self):
        with pytest.raises(ValueError):
            Trajectory(np.array([0, 3]), 3)
