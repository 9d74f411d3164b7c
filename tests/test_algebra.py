import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from krslab import algebra
from krslab.algebra import (
    AlgebraError,
    HermitianModel,
    anti_invariant_facts,
    anti_invariant_pairing_vanishes,
    frame_kappa,
    frame_pairing_check,
    fuzz_suite,
    random_anti_invariant,
    random_doubled_c,
    random_invariant,
    random_unitary,
    require_anti_invariant,
    skew_pairing,
    standard_J,
)
from krslab.stability import StabilityError, c_constant


class TestStructure:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_J_squares_to_minus_identity(self, m):
        J = standard_J(m)
        assert np.array_equal(J @ J, -np.eye(2 * m))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_random_generators_have_stated_symmetry(self, rng, m):
        h = random_anti_invariant(rng, m)
        k = random_invariant(rng, m)
        J = standard_J(m)
        assert np.abs(J.T @ h @ J + h).max() < 1e-14
        assert np.abs(J.T @ k @ J - k).max() < 1e-14

    def test_model_validation(self, rng):
        h = random_anti_invariant(rng, 2)
        with pytest.raises(AlgebraError):
            HermitianModel(2, np.array([1.0, 2.0, 1.0, 3.0]), h)  # bad c
        with pytest.raises(AlgebraError):
            # within numpy's default rtol of 1e-5, but not equal
            HermitianModel(1, np.array([1.0, 1.000009]),
                           random_anti_invariant(rng, 1))
        with pytest.raises(AlgebraError):
            HermitianModel(2, random_doubled_c(rng, 2),
                           rng.standard_normal((4, 4)))  # not symmetric

    def test_model_shape_must_match_dimension(self, rng):
        # a 2x2 h is symmetric and c doubled, so only the shape is wrong
        with pytest.raises(AlgebraError, match="shape mismatch"):
            HermitianModel(2, random_doubled_c(rng, 2),
                           random_anti_invariant(rng, 1))


class TestSkewPairing:
    def test_zero_tensor(self):
        model = HermitianModel(2, np.array([1.0, 2.0, 1.0, 2.0]),
                               np.zeros((4, 4)))
        assert skew_pairing(model) == 0.0

    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_cancellation_on_block_variety(self, seed, m):
        rng = np.random.default_rng(seed)
        h = random_anti_invariant(rng, m)
        c = random_doubled_c(rng, m)
        scale = float(np.sum(h * h)) * max(float(np.abs(c).max()), 1.0)
        assert abs(skew_pairing(HermitianModel(m, c, h))) < 1e-12 * scale

    def test_invariant_tensor_rejected_with_index_pair(self, rng):
        k = random_invariant(rng, 2)
        model = HermitianModel(2, random_doubled_c(rng, 2), k)
        with pytest.raises(AlgebraError, match=r"h\[\d+,\d+\]"):
            skew_pairing(model)

    def test_negative_control_invariant_tensor_nonzero(self, rng):
        # on a J-invariant h the cancellation mechanism fails
        k = random_invariant(rng, 2)
        c = random_doubled_c(rng, 2)
        model = HermitianModel(2, c, k)
        assert abs(skew_pairing(model, check=False)) > 1e-6


class TestFramePairing:
    def test_kappa_calibrated_on_probe(self):
        # diag(1, -1) has |h|^2 = 2 and unit complex-frame norm
        assert frame_kappa() == pytest.approx(2.0, abs=1e-14)

    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_identity_with_frozen_kappa(self, seed, m):
        rng = np.random.default_rng(seed)
        h = random_anti_invariant(rng, m)
        ht = random_anti_invariant(rng, m)
        scale = float(np.abs(h).max() * np.abs(ht).max()) * m * m
        assert frame_pairing_check(m, h, ht) < 1e-12 * scale

    def test_unitary_frame_invariance(self, rng):
        m = 3
        h = random_anti_invariant(rng, m)
        ht = random_anti_invariant(rng, m)
        U = random_unitary(rng, m)
        scale = float(np.abs(h).max() * np.abs(ht).max())
        assert frame_pairing_check(m, h, ht, unitary=U) < 1e-12 * scale

    def test_invariant_input_rejected(self, rng):
        k = random_invariant(rng, 2)
        with pytest.raises(AlgebraError):
            frame_pairing_check(2, k, k)

    def test_non_symmetric_input_rejected(self, rng):
        # h plus a skew J-anti-invariant part: anti-invariant, not symmetric
        m = 2
        J = standard_J(m)
        x = rng.standard_normal((2 * m, 2 * m))
        a = (x - J.T @ x @ J) / 2.0
        skew = (a - a.T) / 2.0
        h = random_anti_invariant(rng, m) + skew
        require_anti_invariant(m, h)
        assert not np.array_equal(h, h.T)
        with pytest.raises(AlgebraError, match="must be symmetric"):
            frame_pairing_check(m, h, h)


class TestAntiInvariantFacts:
    def test_probe_case(self):
        tr, pair = anti_invariant_facts(1, np.diag([1.0, -1.0]),
                                        k=np.eye(2))
        assert tr == 0.0 and pair == 0.0

    @given(seed=st.integers(0, 10_000), m=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_trace_free_and_orthogonal(self, seed, m):
        rng = np.random.default_rng(seed)
        h = random_anti_invariant(rng, m)
        k = random_invariant(rng, m)
        tr, pair = anti_invariant_facts(m, h, k)
        hs = float(np.abs(h).max())
        assert abs(tr) < 1e-13 * hs
        assert abs(pair) < 1e-13 * hs * float(np.abs(k).max())

    def test_negative_control_perturbed_tensor(self, rng):
        h = random_anti_invariant(rng, 2)
        h[0, 0] += 1.0  # break anti-invariance
        h[2, 2] += 1.0
        with pytest.raises(AlgebraError):
            require_anti_invariant(2, h)
        with pytest.raises(AlgebraError):
            anti_invariant_facts(2, h)
        # the trace defect the check guards against is visible directly
        assert abs(np.trace(h)) > 0.5

    def test_drawn_partner_is_deterministic(self, monkeypatch):
        # without k the invariant partner is drawn from a fixed seed
        drawn = []

        def recorded(rng, m):
            drawn.append(random_invariant(rng, m))
            return drawn[-1]

        monkeypatch.setattr(algebra, "random_invariant", recorded)
        h = random_anti_invariant(np.random.default_rng(3), 2)
        assert anti_invariant_facts(2, h) == anti_invariant_facts(2, h)
        assert len(drawn) == 2 and np.array_equal(drawn[0], drawn[1])

    def test_pointwise_orthogonality_gate(self):
        assert anti_invariant_pairing_vanishes()

    def test_gate_fails_on_a_pairing_defect(self, kc_momentum, monkeypatch):
        # a defect in the drawn pairing fails the gate, and C(h, g) of an
        # anti-invariant h then refuses; the cached verdict is dropped on
        # both sides so no other test reads it
        monkeypatch.setattr(algebra, "anti_invariant_facts",
                            lambda m, h, k: (0.0, 1.0))
        anti_invariant_pairing_vanishes.cache_clear()
        try:
            assert anti_invariant_pairing_vanishes() is False
            with pytest.raises(StabilityError, match="^pointwise "
                               "orthogonality of invariant against "
                               "anti-invariant tensors failed its algebraic "
                               "check$"):
                c_constant(kc_momentum, "anti_invariant")
        finally:
            anti_invariant_pairing_vanishes.cache_clear()


class TestOnePredicate:
    """skew_pairing, frame_pairing_check and anti_invariant_facts reject
    through require_anti_invariant, |J^T h J + h| within 1e-13 of
    max(max |h|, 1)."""

    @staticmethod
    def _checks(h):
        m = h.shape[0] // 2
        c = np.ones(2 * m)
        return (lambda: skew_pairing(HermitianModel(m, c, h)),
                lambda: frame_pairing_check(m, h, h),
                lambda: anti_invariant_facts(m, h, k=np.eye(2 * m)))

    @pytest.mark.parametrize("defect, accepted", [(1e-12, True),
                                                  (2e-11, False)])
    def test_the_three_checks_share_one_bound(self, defect, accepted):
        # h_00 + h_11 = defect next to |h_01| = 100: within 1e-13 of the
        # largest entry, not of the entry it sits at
        h = np.array([[0.0, 100.0], [100.0, defect]])
        for check in (lambda: require_anti_invariant(1, h),
                      *self._checks(h)):
            if accepted:
                check()
            else:
                with pytest.raises(AlgebraError, match=r"at h\[0,0\]"):
                    check()

    def test_error_names_the_largest_entry(self):
        A = np.array([[1.0, 2.0], [2.0, 3.0]])
        B = np.array([[4.0, 5.0], [5.0, 6.0]])
        h = np.block([[A, B], [B, -A]])
        h[0, 0] += 2.0**-20  # a defect of 2^-20 at (0, 0) and (2, 2)
        h[0, 3] += 0.5  # and of 1/2 at (0, 3), (1, 2), (2, 1), (3, 0)
        h[3, 0] += 0.5
        for check in self._checks(h):
            with pytest.raises(AlgebraError, match=r"5\.000e-01 at h\[0,3\]"):
                check()


class TestFuzzSuite:
    def test_thousand_trials_within_bound(self):
        report = fuzz_suite(seed=0, trials=1000)
        assert report["max_residual"] < 1e-12
        assert report["trials"] == 1000

    def test_deterministic_under_seed(self):
        a = fuzz_suite(seed=3, trials=50)
        b = fuzz_suite(seed=3, trials=50)
        assert a == b
