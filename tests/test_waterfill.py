import numpy as np
import pytest

from bistro.verify import grid_minimax, minimax_value, waterfill_oracle
from bistro.waterfill import waterfill
from test_policies import refusal


class TestWaterfillExamples:
    def test_symmetric(self):
        np.testing.assert_allclose(waterfill(np.zeros(3)), np.full(3, 1 / 3), atol=1e-15)

    def test_single_active_coordinate(self):
        q = waterfill(np.array([2.0, 1.0, 1.0]))
        np.testing.assert_allclose(q, [1.0, 0.0, 0.0], atol=1e-15)
        assert minimax_value(q, np.array([2.0, 1.0, 1.0])) == pytest.approx(-1.0)

    def test_all_active(self):
        psi = np.array([0.5, 0.3, 0.1])
        q = waterfill(psi)
        np.testing.assert_allclose(q, psi + 1.0 / 30.0, atol=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            waterfill(np.array([1.0, np.inf]))
        with pytest.raises(ValueError):
            waterfill(np.array([np.nan]))

    def test_refuses_a_list_as_its_array(self):
        # the empty, non-vector and non-finite refusals, with the same type
        # and message for a list as for its array
        for psi in ([], [[1.0, 2.0]], [[1.0], [2.0]], [1.0, np.inf], [np.nan], [-np.inf, 0.0]):
            with pytest.raises(ValueError, match="nonempty finite vector"):
                waterfill(np.array(psi))
            assert refusal(waterfill, psi) == refusal(waterfill, np.array(psi))


class TestOracleAgreement:
    def test_symmetric(self):
        np.testing.assert_allclose(waterfill_oracle(np.zeros(3)), np.full(3, 1 / 3), atol=1e-12)

    def test_matches_on_random_instances(self):
        rng = np.random.default_rng(11)
        for _ in range(500):
            d = int(rng.integers(1, 17))
            psi = rng.uniform(-16, 16, size=d)
            q1, q2 = waterfill(psi), waterfill_oracle(psi)
            assert np.abs(q1 - q2).max() <= 1e-8
            assert abs(minimax_value(q1, psi) - minimax_value(q2, psi)) <= 1e-10

    def test_translation_invariance_of_oracle(self):
        rng = np.random.default_rng(12)
        psi = rng.uniform(-4, 4, size=5)
        for c in (-7.0, -0.5, 1.0, 12.0):
            np.testing.assert_allclose(
                waterfill_oracle(psi + c), waterfill_oracle(psi), atol=1e-9
            )


class TestWaterfillProperties:
    def test_output_on_simplex(self):
        rng = np.random.default_rng(13)
        for _ in range(300):
            d = int(rng.integers(1, 17))
            q = np.asarray(waterfill(rng.uniform(-32, 32, size=d)))
            assert (q >= 0).all()
            assert abs(q.sum() - 1.0) <= 1e-12

    def test_beats_random_simplex_points(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            d = int(rng.integers(2, 9))
            psi = rng.uniform(-8, 8, size=d)
            value = minimax_value(waterfill(psi), psi)
            others = rng.dirichlet(np.ones(d), size=1000)
            assert value <= (others - psi[None, :]).max(axis=1).min() + 1e-9

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            d = int(rng.integers(2, 10))
            psi = rng.uniform(-5, 5, size=d)
            perm = rng.permutation(d)
            np.testing.assert_array_equal(waterfill(psi[perm]), np.asarray(waterfill(psi))[perm])

    def test_on_simplex_at_any_scale(self):
        # psi of the size the pairwise penalty reaches (|psi| ~ 600 in
        # ordinary play, 1e5 and more at large n) once left the mass off by
        # up to 1e-8, above check_distribution's 1e-12
        rng = np.random.default_rng(19)
        for offset in [sign * 10.0**k for k in range(-3, 8) for sign in (1, -1)]:
            for d in range(1, 7):
                for _ in range(10):
                    u = rng.uniform(-1, 1, size=d)
                    psi = offset + u
                    q = np.asarray(waterfill(psi))
                    assert abs(q.sum() - 1.0) <= 1e-12, (offset, d)
                    np.testing.assert_allclose(q, waterfill_oracle(psi - offset), rtol=0,
                                               atol=1e-9)

    def test_translation_invariance(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            psi = rng.uniform(-5, 5, size=6)
            for c in (-3.0, 0.25, 100.0):
                np.testing.assert_allclose(waterfill(psi + c), waterfill(psi), atol=1e-9)

    def test_ties_get_equal_mass(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            base = rng.uniform(-3, 3, size=4)
            psi = np.concatenate([base, [base[0], base[2]]])
            q = waterfill(psi)
            assert abs(q[0] - q[4]) <= 1e-12
            assert abs(q[2] - q[5]) <= 1e-12

    def test_grid_confirms_optimality(self):
        rng = np.random.default_rng(18)
        for _ in range(30):
            d = int(rng.integers(2, 5))
            psi = rng.uniform(-6, 6, size=d)
            value = minimax_value(waterfill(psi), psi)
            _, grid_value = grid_minimax(psi, resolution=1000)
            assert value <= grid_value + 1e-9
            assert grid_value - value <= 2e-3


def numpy_waterfill(psi):
    """The NumPy sort-and-prefix-sum body ``waterfill`` had before it moved to
    Python floats; the reference for its bits."""
    psi = np.asarray(psi, dtype=float)
    d = psi.size
    psi = psi - psi.max()
    u = np.sort(psi)[::-1]
    levels = (1.0 - np.cumsum(u)) / np.arange(1, d + 1)
    k = int(np.nonzero(u + levels > 0)[0].max()) + 1
    return np.maximum(psi + levels[k - 1], 0.0)


class TestWaterfillBits:
    def test_matches_the_numpy_body_bit_for_bit(self):
        rng = np.random.default_rng(21)
        for scale in 10.0 ** np.arange(-3, 8):
            for d in range(1, 9):
                for trial in range(40):
                    if trial % 4 == 0:  # ties: few distinct values
                        psi = scale * rng.integers(-2, 3, size=d).astype(float)
                    elif trial % 4 == 1:  # the size of play's values, offset by the scale
                        psi = -scale + rng.uniform(-1, 1, size=d)
                    else:
                        psi = scale * rng.uniform(-1, 1, size=d)
                    if trial % 3 == 0:
                        psi[rng.integers(0, d)] = psi[0]
                    assert np.asarray(waterfill(psi)).tobytes() == numpy_waterfill(psi).tobytes(), psi
