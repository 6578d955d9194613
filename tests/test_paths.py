import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_id import (
    PathDistribution,
    PathMorphism,
    TooLargeError,
    build_symmetrizer,
    path_distribution,
    path_divergence_invariance,
    pushforward_defect,
    rationalize,
    stationary_distribution,
)
from markov_id.generate import (
    random_memoryless_embedding,
    random_reversible_pair,
    random_stochastic,
)
from markov_id.paths import block_lumping, index_paths, path_index


class TestIndexing:
    def test_row_major(self):
        assert path_index((1, 2), 3) == 5
        assert path_index((0, 0, 1), 2) == 1

    def test_index_paths_enumerates_in_order(self):
        table = index_paths(2, 3)
        assert table.shape == (8, 3)
        assert table[0].tolist() == [0, 0, 0]
        assert table[5].tolist() == [1, 0, 1]
        for i in range(8):
            assert path_index(table[i], 2) == i

    def test_guard(self):
        with pytest.raises(TooLargeError):
            index_paths(10, 7)


class TestPathDistribution:
    def test_two_state_length_two_table(self, two_state):
        # stationary law (1/3, 2/3); by hand the four path masses are
        # (1/6, 1/6, 1/6, 1/2)
        q = path_distribution(two_state, 2)
        assert np.abs(q.probs - np.array([1 / 6, 1 / 6, 1 / 6, 1 / 2])).max() <= 1e-14
        assert q.probs[path_index((1, 1), 2)] == pytest.approx(0.5, abs=1e-14)

    def test_length_one_is_the_initial_law(self, two_state):
        q = path_distribution(two_state, 1)
        assert np.abs(q.probs - stationary_distribution(two_state).probs).max() <= 1e-12

    def test_explicit_initial_law(self, two_state):
        q = path_distribution(two_state, 2, initial=np.array([1.0, 0.0]))
        assert q.probs.tolist() == [0.5, 0.5, 0.0, 0.0]

    def test_marginals_are_stationary(self, rng):
        for _ in range(20):
            nx = int(rng.integers(2, 5))
            P = random_stochastic(rng, nx)
            pi = stationary_distribution(P).probs
            q = path_distribution(P, 3).probs.reshape(nx, nx, nx)
            assert np.abs(q.sum(axis=(1, 2)) - pi).max() <= 1e-12
            assert np.abs(q.sum(axis=(0, 1)) - pi).max() <= 1e-12

    def test_rejects_bad_table(self):
        with pytest.raises(ValueError):
            PathDistribution(2, 2, np.array([0.5, 0.5, 0.5, 0.5]))


class TestBlockLumping:
    def test_digitwise(self):
        from markov_id import LumpingMap

        lm = LumpingMap(2, np.array([0, 1, 1]))
        idx = block_lumping(lm, 2)
        # big path (1, 2) sits at flat index 5 and lumps to (1, 1) = index 3
        assert idx[5] == 3
        assert idx[0] == 0
        assert idx.shape == (9,)

    def test_identity_lumping_gives_identity_on_sequences(self):
        from markov_id import LumpingMap

        lm = LumpingMap(3, np.arange(3))
        assert (block_lumping(lm, 2) == np.arange(9)).all()

    def test_merged_block_fiber_size(self):
        from markov_id import LumpingMap

        lm = LumpingMap(2, np.array([0, 1, 1]))
        idx = block_lumping(lm, 2)
        # the block over small path (1, 1) holds the 2 x 2 big choices
        assert (idx == 3).sum() == 4
        # blocks partition the big sequence space
        assert np.bincount(idx, minlength=4).sum() == 9


class TestPushforward:
    def test_hand_value(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        small = path_distribution(two_state, 2)
        pushed = PathMorphism(sym.embedding, 2).pushforward(small)
        # big path (1, 2) lumps to (1, 1) with weight product 1/4:
        # mass = Q(1,1) * 1/4 = 1/2 * 1/4 = 1/8
        assert pushed.probs[path_index((1, 2), 3)] == pytest.approx(1 / 8, abs=1e-14)
        assert pushed.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identity_embedding_leaves_law_unchanged(self, two_state):
        from markov_id import MemorylessEmbedding

        small = path_distribution(two_state, 3)
        pushed = PathMorphism(MemorylessEmbedding.identity(2), 3).pushforward(small)
        assert (pushed.probs == small.probs).all()
        assert pushforward_defect(two_state, MemorylessEmbedding.identity(2), 3) == 0.0

    def test_symmetrizer_defect_at_machine_precision(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        assert pushforward_defect(two_state, sym.embedding, 2) <= 1e-15

    def test_fibers_conserve_mass(self, rng):
        for _ in range(20):
            nx = int(rng.integers(2, 4))
            ny = nx + int(rng.integers(1, 3))
            n = int(rng.integers(2, 4))
            P = random_stochastic(rng, nx)
            emb = random_memoryless_embedding(rng, ny, nx)
            small = path_distribution(P, n)
            pushed = PathMorphism(emb, n).pushforward(small)
            idx = block_lumping(emb.lumping, n)
            recovered = np.bincount(idx, weights=pushed.probs, minlength=small.probs.size)
            assert np.abs(recovered - small.probs).max() <= 1e-12

    @given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_pushforward_equals_embedded_path_law(self, seed, nx, extra, n):
        rng = np.random.default_rng(seed)
        P = random_stochastic(rng, nx)
        emb = random_memoryless_embedding(rng, nx + extra, nx)
        assert pushforward_defect(P, emb, n) <= 1e-12

    def test_pushforward_through_symmetrizer(self, rng):
        for _ in range(15):
            nx = int(rng.integers(2, 4))
            P, _, rat, edges = random_reversible_pair(rng, nx, int(rng.integers(nx, 7)))
            sym = build_symmetrizer(rat, edges)
            for n in (2, 3, 4):
                assert pushforward_defect(P, sym.embedding, n) <= 1e-12


class TestDivergenceInvariance:
    def test_equal_chains_give_zero_zero(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        small, big = path_divergence_invariance(two_state, two_state, sym.embedding, 3)
        assert small <= 1e-12 and big <= 1e-12

    def test_two_state_pair_hand_check(self, two_state):
        from markov_id import TransitionMatrix

        other = TransitionMatrix.from_dense([[0.7, 0.3], [0.15, 0.85]])
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        small, big = path_divergence_invariance(two_state, other, sym.embedding, 3)
        assert big == pytest.approx(small, abs=1e-12)
        assert small > 0.0

    def test_length_one_reduces_to_stationary_divergence(self, two_state, rng):
        from markov_id import TransitionMatrix, renyi_half

        other = TransitionMatrix.from_dense([[0.7, 0.3], [0.15, 0.85]])
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        small, big = path_divergence_invariance(two_state, other, sym.embedding, 1)
        pi_p = stationary_distribution(two_state).probs
        pi_q = stationary_distribution(other).probs
        assert small == pytest.approx(renyi_half(pi_p, pi_q), abs=1e-12)
        assert big == pytest.approx(small, abs=1e-12)

    def test_embedding_preserves_path_divergence(self, rng):
        for _ in range(15):
            nx = int(rng.integers(2, 4))
            P, Q, rat, edges = random_reversible_pair(rng, nx, int(rng.integers(nx, 7)))
            sym = build_symmetrizer(rat, edges)
            for n in (2, 3, 4):
                small, big = path_divergence_invariance(P, Q, sym.embedding, n)
                assert big == pytest.approx(small, abs=1e-10)

    def test_per_step_divergence_matches_rate_helper(self, rng):
        from markov_id import MemorylessEmbedding, renyi_rate_via_paths

        P, Q, _, _ = random_reversible_pair(rng, 3, 8)
        small, _ = path_divergence_invariance(P, Q, MemorylessEmbedding.identity(3), 4)
        assert renyi_rate_via_paths(P, Q, 4) == pytest.approx(small / 4, abs=1e-14)

    def test_requires_shared_edges(self, two_state, rng):
        from markov_id import EdgeMismatchError, EdgeSet, validate

        other = validate(
            2,
            EdgeSet.from_pairs(2, [(0, 0), (0, 1), (1, 0)]),
            [[0.5, 0.5], [1.0, 0.0]],
        )
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        with pytest.raises(EdgeMismatchError):
            path_divergence_invariance(two_state, other, sym.embedding, 2)
