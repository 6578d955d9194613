import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_id import (
    EdgeSet,
    IncompatibleStateCountError,
    LumpingMap,
    MemorylessEmbedding,
    NotLumpableError,
    PreconditionFailedError,
    StationaryDistribution,
    TransitionMatrix,
    build_symmetrizer,
    embed_distribution,
    embed_matrix,
    embedded_edge_set,
    induced_edge_image,
    is_lumpable,
    is_reversible,
    lump,
    rationalize,
    stationary_distribution,
    symmetry_defect,
)
from markov_id.embedding import symmetrizer_from_json_obj, symmetrizer_to_json_obj
from markov_id.generate import (
    random_memoryless_embedding,
    random_reversible_pair,
    random_stochastic,
)


class TestLumpingMap:
    def test_blocks(self):
        lm = LumpingMap(2, np.array([0, 1, 1]))
        assert lm.blocks == ((0,), (1, 2))
        assert lm(2) == 1

    def test_rejects_non_surjective(self):
        with pytest.raises(ValueError):
            LumpingMap(3, np.array([0, 1, 1]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            LumpingMap(2, np.array([0, 1, 2]))


class TestMemorylessEmbedding:
    def test_block_normalization_enforced(self):
        lm = LumpingMap(2, np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            MemorylessEmbedding(lm, np.array([1.0, 0.5, 0.6]))

    def test_rejects_zero_weight(self):
        lm = LumpingMap(2, np.array([0, 1, 1]))
        with pytest.raises(ValueError):
            MemorylessEmbedding(lm, np.array([1.0, 0.0, 1.0]))

    def test_identity(self, two_state):
        emb = MemorylessEmbedding.identity(2)
        assert (embed_matrix(two_state, emb).matrix == two_state.matrix).all()


class TestLumpability:
    def test_constant_block_rows_are_lumpable(self):
        P = TransitionMatrix.from_dense(
            [[0.2, 0.4, 0.4], [0.3, 0.35, 0.35], [0.3, 0.35, 0.35]]
        )
        lm = LumpingMap(2, np.array([0, 1, 1]))
        assert is_lumpable(P, lm)
        small = lump(P, lm)
        assert small.matrix == pytest.approx(np.array([[0.2, 0.8], [0.3, 0.7]]), abs=1e-15)

    def test_generic_matrix_is_not_lumpable(self):
        P = TransitionMatrix.from_dense(
            [[0.2, 0.3, 0.5], [0.1, 0.6, 0.3], [0.4, 0.4, 0.2]]
        )
        lm = LumpingMap(2, np.array([0, 1, 1]))
        assert not is_lumpable(P, lm)
        with pytest.raises(NotLumpableError):
            lump(P, lm)

    def test_cyclic_permutation_not_lumpable_when_blocks_split_the_cycle(self):
        P = TransitionMatrix.from_dense([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert not is_lumpable(P, LumpingMap(2, np.array([0, 0, 1])))

    @given(st.integers(0, 2**32 - 1), st.integers(2, 5), st.integers(0, 3))
    @settings(max_examples=80, deadline=None)
    def test_embed_then_lump_returns_original(self, seed, nx, extra):
        rng = np.random.default_rng(seed)
        P = random_stochastic(rng, nx)
        emb = random_memoryless_embedding(rng, nx + extra, nx)
        big = embed_matrix(P, emb)
        assert is_lumpable(big, emb.lumping)
        assert np.abs(lump(big, emb.lumping).matrix - P.matrix).max() <= 1e-12


@st.composite
def edge_sets_with_lumpings(draw):
    """A random edge set on k states and a random surjection onto those k states."""
    k = draw(st.integers(1, 4))
    cycle = draw(st.permutations(range(k)))
    extra = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1)), max_size=8))
    pairs = [(cycle[i], cycle[(i + 1) % k]) for i in range(k)] + extra
    padding = draw(st.lists(st.integers(0, k - 1), max_size=6))
    assignment = draw(st.permutations(list(range(k)) + padding))
    return EdgeSet.from_pairs(k, pairs), LumpingMap(k, np.array(assignment))


class TestEdgeMaps:
    @given(edge_sets_with_lumpings())
    @settings(max_examples=100, deadline=None)
    def test_embedded_edge_set_matches_block_products(self, case):
        edges, lm = case
        assign = lm.assignment.tolist()
        block = {a: [y for y, x in enumerate(assign) if x == a] for a in range(lm.target_count)}
        expected = {
            (y, y2) for a, b in edges.sorted_pairs() for y in block[a] for y2 in block[b]
        }
        got = embedded_edge_set(edges, lm)
        assert got.sorted_pairs() == sorted(expected)
        assert got == EdgeSet.from_pairs(lm.source_count, expected)

    def test_embedded_edge_set_blows_up_blocks(self):
        edges = EdgeSet.from_pairs(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
        lm = LumpingMap(2, np.array([0, 1, 1]))
        assert embedded_edge_set(edges, lm) == EdgeSet.complete(3)
        with pytest.raises(IncompatibleStateCountError):
            embedded_edge_set(EdgeSet.complete(3), lm)

    def test_embedded_edge_set_keeps_missing_edges_missing(self):
        edges = EdgeSet.from_pairs(2, [(0, 0), (0, 1), (1, 0)])
        lm = LumpingMap(2, np.array([0, 1]))
        assert (1, 1) not in embedded_edge_set(edges, lm)

    def test_image_under_identity_is_unchanged(self):
        edges = EdgeSet.from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)])
        lm = LumpingMap(3, np.arange(3))
        assert induced_edge_image(lm, edges) == edges

    def test_image_under_total_merge_is_one_self_loop(self):
        edges = EdgeSet.from_pairs(3, [(0, 1), (1, 2), (2, 0)])
        lm = LumpingMap(1, np.zeros(3, dtype=np.int64))
        assert induced_edge_image(lm, edges) == EdgeSet.from_pairs(1, [(0, 0)])

    def test_image_of_complete_set_is_complete(self):
        lm = LumpingMap(2, np.array([0, 1, 1]))
        assert induced_edge_image(lm, EdgeSet.complete(3)) == EdgeSet.complete(2)

    def test_image_of_embedded_edge_set_recovers_source_edges(self, ref_three_state):
        rat = rationalize(stationary_distribution(ref_three_state), 16)
        sym = build_symmetrizer(rat, ref_three_state.edges)
        lm = sym.embedding.lumping
        assert induced_edge_image(lm, sym.target_edges) == ref_three_state.edges


class TestEmbedMatrix:

    def test_stationary_law_commutes(self, rng):
        # the embedded chain's stationary law is the embedded stationary law
        for _ in range(100):
            nx = int(rng.integers(2, 5))
            P, _, _, _ = random_reversible_pair(rng, nx, 10)
            emb = random_memoryless_embedding(rng, nx + int(rng.integers(1, 4)), nx)
            big = embed_matrix(P, emb)
            expected = embed_distribution(stationary_distribution(P), emb)
            got = stationary_distribution(big)
            assert np.abs(got.probs - expected.probs).max() <= 1e-10

    def test_embedded_distribution_identity_is_unchanged(self):
        mu = np.array([0.3, 0.7])
        out = embed_distribution(mu, MemorylessEmbedding.identity(2))
        assert (out.probs == mu).all()


class TestSymmetrizer:
    def test_two_state_hand_values(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        assert sym.delta == 3
        assert sym.embedding.lumping.assignment.tolist() == [0, 1, 1]
        assert sym.embedding.weights.tolist() == [1.0, 0.5, 0.5]
        big = embed_matrix(two_state, sym.embedding)
        expected = np.array(
            [[1 / 2, 1 / 4, 1 / 4], [1 / 4, 3 / 8, 3 / 8], [1 / 4, 3 / 8, 3 / 8]]
        )
        assert np.abs(big.matrix - expected).max() <= 1e-15
        assert symmetry_defect(sym, two_state) == 0.0
        assert np.abs(lump(big, sym.embedding.lumping).matrix - two_state.matrix).max() <= 1e-15
        lifted = embed_distribution(np.array([1 / 3, 2 / 3]), sym.embedding)
        assert lifted.probs == pytest.approx(np.full(3, 1 / 3), abs=1e-15)

    def test_uniform_law_gives_identity_symmetrizer(self):
        from markov_id import RationalStationary

        sym = build_symmetrizer(RationalStationary.from_counts([1, 1, 1, 1]))
        assert sym.delta == 4
        assert sym.embedding.lumping.assignment.tolist() == [0, 1, 2, 3]
        assert sym.embedding.weights.tolist() == [1.0, 1.0, 1.0, 1.0]

    def test_three_state_block_layout(self, ref_three_state):
        rat = rationalize(stationary_distribution(ref_three_state), 16)
        sym = build_symmetrizer(rat, ref_three_state.edges)
        assert sym.delta == 4
        assert sym.embedding.lumping.assignment.tolist() == [0, 1, 2, 2]
        assert sym.embedding.weights.tolist() == [1.0, 1.0, 0.5, 0.5]

    def test_defect_zero_across_class(self, rng):
        for _ in range(50):
            nx = int(rng.integers(2, 6))
            delta = int(rng.integers(nx, 13))
            P, Q, rat, edges = random_reversible_pair(rng, nx, delta)
            sym = build_symmetrizer(rat, edges)
            assert symmetry_defect(sym, P) <= 1e-12
            assert symmetry_defect(sym, Q) <= 1e-12

    def test_embedded_law_is_uniform(self, rng):
        for _ in range(25):
            nx = int(rng.integers(2, 6))
            P, _, rat, edges = random_reversible_pair(rng, nx, int(rng.integers(nx, 13)))
            sym = build_symmetrizer(rat, edges)
            lifted = embed_distribution(np.asarray(rat.probs), sym.embedding)
            assert np.abs(lifted.probs - 1.0 / sym.delta).max() <= 1e-12

    def test_embedded_chain_is_reversible_with_uniform_law(self, rng):
        # symmetric matrix, so reversible with respect to the uniform law
        for _ in range(20):
            nx = int(rng.integers(2, 6))
            P, _, rat, edges = random_reversible_pair(rng, nx, int(rng.integers(nx, 13)))
            big = embed_matrix(P, build_symmetrizer(rat, edges).embedding)
            uniform = StationaryDistribution(np.full(big.state_count, 1.0 / big.state_count))
            assert is_reversible(big, uniform)

    def test_defect_rejects_non_reversible_reference(self):
        P = TransitionMatrix.from_dense(
            [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        )
        rat = rationalize(stationary_distribution(P), 16)
        sym = build_symmetrizer(rat, P.edges)
        with pytest.raises(PreconditionFailedError):
            symmetry_defect(sym, P)

    def test_defect_rejects_wrong_stationary_law(self, two_state):
        from markov_id import RationalStationary

        sym = build_symmetrizer(RationalStationary.from_counts([1, 1]), two_state.edges)
        with pytest.raises(PreconditionFailedError):
            symmetry_defect(sym, two_state)

    def test_json_round_trip(self, ref_three_state):
        rat = rationalize(stationary_distribution(ref_three_state), 16)
        sym = build_symmetrizer(rat, ref_three_state.edges)
        back = symmetrizer_from_json_obj(symmetrizer_to_json_obj(sym))
        assert back.delta == sym.delta
        assert (back.embedding.lumping.assignment == sym.embedding.lumping.assignment).all()
        assert (back.embedding.weights == sym.embedding.weights).all()
        assert back.source_edges == sym.source_edges

    def test_target_edges_world(self, two_state):
        rat = rationalize(stationary_distribution(two_state), 16)
        sym = build_symmetrizer(rat, two_state.edges)
        assert sym.target_edges == EdgeSet.complete(3)
