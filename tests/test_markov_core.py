import json
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from markov_id import (
    EdgeSet,
    NotIrreducibleError,
    OffEdgeMassError,
    RationalStationary,
    RationalizationFailedError,
    RowSumError,
    TransitionMatrix,
    ZeroOnEdgeError,
    check_reference_class,
    is_irreducible,
    is_reversible,
    rationalize,
    spectral_radius,
    stationary_distribution,
    validate,
)
from markov_id.generate import random_reversible_pair, random_stochastic
from markov_id.markov_core import (
    matrix_from_json_obj,
    matrix_from_text,
    matrix_to_json_obj,
    matrix_to_text,
    strongly_connected,
)


class TestEdgeSet:
    def test_complete(self):
        e = EdgeSet.complete(3)
        assert len(e) == 9 and (2, 2) in e

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            EdgeSet.from_pairs(2, [(0, 0), (0, 2), (1, 1)])

    def test_rejects_isolated_state(self):
        # state 1 never appears as a target
        with pytest.raises(ValueError):
            EdgeSet.from_pairs(2, [(0, 0), (1, 0)])

    def test_mask_round_trip(self):
        pairs = [(0, 1), (1, 2), (2, 0), (0, 0), (1, 1), (2, 2)]
        e = EdgeSet.from_pairs(3, pairs)
        assert EdgeSet.from_mask(e.mask()) == e
        assert e.sorted_pairs() == sorted(pairs)
        assert (0, 2) not in e and (-1, 2) not in e and (3, 0) not in e
        with pytest.raises(ValueError):
            e.mask()[0, 2] = True
        assert (0, 2) not in e
        copy = pickle.loads(pickle.dumps(e))
        assert copy == e and not copy.mask().flags.writeable
        full = [
            EdgeSet.complete(3),
            EdgeSet.from_pairs(3, [(a, b) for b in range(3) for a in range(3)]),
            EdgeSet.from_mask(np.ones((3, 3))),
        ]
        assert all(f == full[0] and hash(f) == hash(full[0]) for f in full)
        assert e != full[0] and len({e, *full}) == 2


class TestValidate:
    def test_accepts_mapping(self):
        P = validate(2, [(0, 1), (1, 0), (0, 0), (1, 1)],
                     {(0, 0): 0.5, (0, 1): 0.5, (1, 0): 0.25, (1, 1): 0.75})
        assert P.matrix[1, 0] == 0.25

    def test_row_sum_violation(self):
        with pytest.raises(RowSumError):
            validate(2, EdgeSet.complete(2), [[0.5, 0.5], [0.3, 0.6]])

    def test_zero_on_declared_edge(self):
        with pytest.raises(ZeroOnEdgeError):
            validate(2, EdgeSet.complete(2), [[0.5, 0.5], [0.0, 1.0]])

    def test_mass_off_edge(self):
        with pytest.raises(OffEdgeMassError):
            validate(2, [(0, 0), (1, 1), (1, 0)], [[0.5, 0.5], [0.5, 0.5]])

    def test_near_one_row_sum_tolerated(self):
        # 0.3 + 0.7 is not exactly 1 in binary floating point
        P = validate(2, EdgeSet.complete(2), [[0.3, 0.7], [0.7, 0.3]])
        assert P.matrix.sum(axis=1) == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_matrix_is_read_only(self, two_state):
        with pytest.raises(ValueError):
            two_state.matrix[0, 0] = 0.9


class TestConnectivity:
    def test_cycle_is_strongly_connected(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 2] = mask[2, 0] = True
        assert strongly_connected(mask)

    def test_one_way_chain_is_not(self):
        mask = np.array([[True, True], [False, True]])
        assert not strongly_connected(mask)

    def test_block_diagonal_is_reducible(self):
        P = TransitionMatrix.from_dense(
            [[0.5, 0.5, 0, 0], [0.5, 0.5, 0, 0], [0, 0, 0.1, 0.9], [0, 0, 0.9, 0.1]]
        )
        assert not is_irreducible(P)
        with pytest.raises(NotIrreducibleError):
            stationary_distribution(P)


class TestStationary:
    def test_two_state_closed_form(self, two_state):
        # balance: pi0 * 0.5 = pi1 * 0.25
        pi = stationary_distribution(two_state)
        assert pi.probs == pytest.approx([1 / 3, 2 / 3], abs=1e-12)
        assert pi.min_prob == pytest.approx(1 / 3, abs=1e-12)

    def test_reversibility(self, two_state):
        pi = stationary_distribution(two_state)
        assert is_reversible(two_state, pi)

    def test_two_cycle_permutation(self):
        P = TransitionMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
        pi = stationary_distribution(P)
        assert pi.probs == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_doubly_stochastic_has_uniform_law(self):
        P = TransitionMatrix.from_dense(
            [[0.2, 0.3, 0.5], [0.5, 0.2, 0.3], [0.3, 0.5, 0.2]]
        )
        pi = stationary_distribution(P)
        assert pi.probs == pytest.approx(np.full(3, 1 / 3), abs=1e-12)

    def test_symmetric_matrix_is_reversible_with_uniform_law(self):
        P = TransitionMatrix.from_dense(
            [[0.6, 0.3, 0.1], [0.3, 0.5, 0.2], [0.1, 0.2, 0.7]]
        )
        pi = stationary_distribution(P)
        assert pi.probs == pytest.approx(np.full(3, 1 / 3), abs=1e-12)
        assert is_reversible(P, pi)

    def test_asymmetric_cycle_not_reversible(self):
        P = TransitionMatrix.from_dense(
            [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        )
        assert not is_reversible(P, stationary_distribution(P))

    def test_reversibility_matches_flow_symmetry(self, rng):
        # reversible holds exactly when diag(pi) P equals its transpose
        for _ in range(30):
            P = random_stochastic(rng, int(rng.integers(2, 6)))
            pi = stationary_distribution(P)
            flow = pi.probs[:, None] * P.matrix
            symmetric = np.abs(flow - flow.T).max() <= 1e-9
            assert is_reversible(P, pi) == symmetric

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    @settings(max_examples=60, deadline=None)
    def test_residual_on_random_chains(self, seed, n):
        P = random_stochastic(np.random.default_rng(seed), n)
        pi = stationary_distribution(P)
        assert np.abs(pi.probs @ P.matrix - pi.probs).max() <= 1e-10
        assert pi.probs.min() > 0


class TestSpectralRadius:
    def test_against_dense_eigensolver(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 9))
            A = rng.uniform(0, 1, (n, n)) * (rng.random((n, n)) < 0.7)
            expected = float(np.abs(np.linalg.eigvals(A)).max())
            assert spectral_radius(A) == pytest.approx(expected, abs=1e-9)

    def test_periodic_matrix(self):
        # eigenvalues are +/-4; plain power iteration would oscillate
        assert spectral_radius(np.array([[0.0, 2.0], [8.0, 0.0]])) == pytest.approx(4.0, abs=1e-10)
        assert spectral_radius(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0, abs=1e-10)

    def test_stochastic_matrix_has_radius_one(self, rng):
        for _ in range(100):
            P = random_stochastic(rng, int(rng.integers(2, 7)))
            assert spectral_radius(P.matrix) == pytest.approx(1.0, abs=1e-11)

    def test_positive_homogeneity(self, rng):
        A = rng.uniform(0, 1, (4, 4))
        base = spectral_radius(A)
        for c in (0.5, 2.0, 10.0):
            assert spectral_radius(c * A) == pytest.approx(c * base, rel=1e-10)

    def test_zero_matrix(self):
        assert spectral_radius(np.zeros((3, 3))) == 0.0

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            spectral_radius(np.array([[0.5, -0.5], [0.5, 0.5]]))


class TestRationalStationary:
    def test_from_counts_sorts_ascending(self):
        r = RationalStationary.from_counts([3, 1, 2])
        assert r.numerators == (1, 2, 3)
        assert r.permutation == (1, 2, 0)
        assert r.probs.tolist() == [0.5, 1 / 6, 1 / 3]
        assert r.count_of(0) == 3

    def test_tie_break_is_stable(self):
        r = RationalStationary.from_counts([2, 1, 1])
        assert r.permutation == (1, 2, 0)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            RationalStationary.from_counts([0, 3])

    def test_rejects_descending(self):
        with pytest.raises(ValueError):
            RationalStationary((2, 1), 3, (0, 1))


class TestRationalize:
    def test_thirds(self, two_state):
        r = rationalize(stationary_distribution(two_state), 64)
        assert (r.numerators, r.denominator) == ((1, 2), 3)

    def test_quarters(self, ref_three_state):
        r = rationalize(stationary_distribution(ref_three_state), 64)
        assert (r.numerators, r.denominator) == ((1, 1, 2), 4)
        assert r.probs.tolist() == [0.25, 0.25, 0.5]

    def test_exact_quarters_vector(self):
        r = rationalize(np.array([0.25, 0.75]), 64)
        assert (r.numerators, r.denominator) == ((1, 3), 4)

    def test_uniform_law_uses_state_count(self):
        r = rationalize(np.full(5, 0.2), 64)
        assert (r.numerators, r.denominator) == ((1, 1, 1, 1, 1), 5)

    def test_cap_too_small(self):
        with pytest.raises(RationalizationFailedError):
            rationalize(np.array([1 / 3, 2 / 3]), 2)

    def test_incommensurable_entries_fail(self):
        x = 1 / np.sqrt(2)
        with pytest.raises(RationalizationFailedError):
            rationalize(np.array([x, 1 - x]), 50)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(2, 40))
    @settings(max_examples=80, deadline=None)
    def test_reconstruction_is_exact(self, seed, n, spread):
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, spread + 1, size=n)
        probs = counts / counts.sum()
        r = rationalize(probs, int(counts.sum()))
        assert np.abs(r.probs - probs).max() <= 1e-12
        assert sum(r.numerators) == r.denominator


class TestReferenceClass:
    def test_member(self, ref_three_state):
        r = rationalize(stationary_distribution(ref_three_state), 64)
        report = check_reference_class(ref_three_state, r, ref_three_state.edges)
        assert report and report.failures == ()

    def test_pair_generator_lands_in_class(self, rng):
        for _ in range(25):
            P, Q, rat, edges = random_reversible_pair(rng, int(rng.integers(2, 6)), 12)
            assert check_reference_class(P, rat, edges)
            assert check_reference_class(Q, rat, edges)

    def test_wrong_stationary_law(self, ref_three_state, two_state):
        r = rationalize(stationary_distribution(two_state), 64)
        P = validate(2, EdgeSet.complete(2), [[0.5, 0.5], [0.5, 0.5]])
        report = check_reference_class(P, r, P.edges)
        assert not report
        assert any("stationary" in f for f in report.failures)

    def test_wrong_edges(self, ref_three_state):
        r = rationalize(stationary_distribution(ref_three_state), 64)
        smaller = EdgeSet.from_pairs(3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 1), (2, 2)])
        report = check_reference_class(ref_three_state, r, smaller)
        assert not report and any("edge" in f for f in report.failures)

    def test_not_reversible(self):
        P = TransitionMatrix.from_dense(
            [[0.1, 0.8, 0.1], [0.1, 0.1, 0.8], [0.8, 0.1, 0.1]]
        )
        r = RationalStationary.from_counts([1, 1, 1])
        report = check_reference_class(P, r, P.edges)
        assert not report and any("reversible" in f for f in report.failures)


class TestMatrixIO:
    def test_json_round_trip_is_bit_exact(self, rng, tmp_path):
        for _ in range(20):
            P = random_stochastic(rng, int(rng.integers(2, 6)))
            obj = json.loads(json.dumps(matrix_to_json_obj(P)))
            Q = matrix_from_json_obj(obj)
            assert (Q.matrix == P.matrix).all()
            assert Q.edges == P.edges

    def test_text_round_trip(self, two_state):
        Q = matrix_from_text(matrix_to_text(two_state))
        assert (Q.matrix == two_state.matrix).all()

    def test_file_round_trip(self, two_state, tmp_path):
        from markov_id import load_matrix, save_matrix

        path = tmp_path / "chain.json"
        save_matrix(two_state, path)
        Q = load_matrix(path)
        assert (Q.matrix == two_state.matrix).all() and Q.edges == two_state.edges
