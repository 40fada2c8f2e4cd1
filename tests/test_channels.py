import numpy as np
import pytest

from effcap.channels import (CHUNK, MAX_EIG_REL_TOL, FixedMatrix,
                             IidComplexGaussian, KroneckerCorrelated,
                             chunk_rng, hermitian_eig,
                             iter_sample_chunks, max_eig_subspace, mean_gram,
                             mean_gram_and_chunks, mean_gram_mc,
                             spectral_moments_mc)
from effcap.errors import DomainError
from oracles import kronecker_sample

# E{lambda_max} and E{lambda_max^2} for the 2x2 i.i.d. complex case, from
# the joint eigenvalue density (l1-l2)^2 exp(-l1-l2): computed analytically
# and cross-checked by high-precision quadrature before the build.
LMAX_MEAN_2X2 = 3.5
LMAX_SQ_2X2 = 15.5


class TestSampling:
    def test_fixed_matrix_is_deterministic(self):
        h = np.eye(2, dtype=complex)
        model = FixedMatrix(h)
        rng = np.random.default_rng(0)
        for _ in range(3):
            assert np.array_equal(model.sample_batch(1, rng)[0], h)

    def test_iid_unit_entry_variance(self):
        model = IidComplexGaussian(2, 2)
        total, n = 0.0, 0
        for h in iter_sample_chunks(model, 100_000, 0):
            total += float((np.abs(h) ** 2).sum())
            n += h.size
        assert abs(total / n - 1.0) < 0.02

    def test_kronecker_identity_matches_iid(self):
        kron = KroneckerCorrelated(np.eye(2, dtype=complex),
                                   np.eye(3, dtype=complex))
        iid = IidComplexGaussian(2, 3)
        mk = spectral_moments_mc(kron, 50_000, 7)
        mi = spectral_moments_mc(iid, 50_000, 7)
        # same seed, same underlying gaussians: identity correlation is a
        # no-op so the draws coincide exactly
        assert mk.e_trace == mi.e_trace
        assert mk.e_lambda_max == mi.e_lambda_max

    def test_kronecker_requires_psd(self):
        with pytest.raises(DomainError):
            KroneckerCorrelated(np.array([[1.0, 2.0], [2.0, 1.0]],
                                         dtype=complex),
                                np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("side", ["r_r", "r_t"])
    def test_kronecker_requires_finite(self, bad, side):
        # a NaN passed the Hermitian and PSD checks, and eigh returned NaNs
        r_bad = np.array([[1.0, bad], [bad, 1.0]], dtype=complex)
        mats = {"r_r": np.eye(2, dtype=complex),
                "r_t": np.eye(2, dtype=complex), side: r_bad}
        with pytest.raises(DomainError, match=f"{side} must be finite"):
            KroneckerCorrelated(**mats)


class TestHermitianEig:
    def test_identity(self):
        w, _ = hermitian_eig(np.eye(2))
        assert np.allclose(w, [1.0, 1.0])

    def test_symmetric_2x2(self):
        w, _ = hermitian_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
        assert np.allclose(w, [3.0, 1.0])

    def test_complex_rank_one_plus_identity(self):
        a = np.array([[1.0, 1j], [-1j, 1.0]])
        w, v = hermitian_eig(a)
        assert np.allclose(w, [2.0, 0.0], atol=1e-12)
        assert np.allclose(a @ v, v * w, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_reconstruction_random_8x8(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a = x + x.conj().T
        w, v = hermitian_eig(a)
        scale = np.abs(a).max()
        assert np.max(np.abs((v * w) @ v.conj().T - a)) < 1e-9 * scale
        assert np.max(np.abs(v.conj().T @ v - np.eye(8))) < 1e-10


class TestMaxEigSubspace:
    def test_simple_diag(self):
        s = max_eig_subspace(np.diag([3.0, 1.0]))
        assert s.lambda_max == 3.0
        assert s.multiplicity_l == 1
        assert abs(abs(s.max_eig_basis[0, 0]) - 1.0) < 1e-12

    def test_scaled_identity_full_multiplicity(self):
        s = max_eig_subspace(2.0 * np.eye(3))
        assert s.multiplicity_l == 3

    def test_mc_mean_gram_is_nearly_scaled_identity(self):
        model = IidComplexGaussian(2, 3)
        mg = mean_gram_mc(model, 100_000, 5)
        assert np.max(np.abs(mg - 2.0 * np.eye(3))) < 0.05
        s = max_eig_subspace(mg)
        assert s.multiplicity_l == 3

    def test_threshold_construction(self):
        tol = MAX_EIG_REL_TOL
        a = np.diag([2.0, 2.0 * (1.0 - tol / 2), 1.0])
        assert max_eig_subspace(a).multiplicity_l == 2
        a = np.diag([2.0, 2.0 * (1.0 - 2.0 * tol), 1.0])
        assert max_eig_subspace(a).multiplicity_l == 1

    def test_zero_matrix(self):
        s = max_eig_subspace(np.zeros((4, 4)))
        assert s.lambda_max == 0.0
        assert s.multiplicity_l == 4


class TestSpectralMoments:
    def test_iid_2x2_identities(self):
        m = spectral_moments_mc(IidComplexGaussian(2, 2), 200_000, 1)
        assert abs(m.e_trace - 4.0) <= 3 * m.std_errs["e_trace"]
        assert abs(m.e_trace_sq - 20.0) <= 3 * m.std_errs["e_trace_sq"]
        assert abs(m.e_trace_gram_sq - 16.0) \
            <= 3 * m.std_errs["e_trace_gram_sq"]

    def test_iid_2x2_lambda_max_oracle(self):
        m = spectral_moments_mc(IidComplexGaussian(2, 2), 200_000, 1)
        assert abs(m.e_lambda_max - LMAX_MEAN_2X2) \
            <= 3 * m.std_errs["e_lambda_max"]
        assert abs(m.e_lambda_max_sq - LMAX_SQ_2X2) \
            <= 3 * m.std_errs["e_lambda_max_sq"]

    def test_fixed_matrix_zero_variance(self):
        m = spectral_moments_mc(FixedMatrix(np.diag([1.0, 2.0]).astype(complex)),
                                2000, 0)
        assert m.e_lambda_max == 4.0
        assert m.std_errs["e_lambda_max"] < 1e-12

    def test_cauchy_schwarz_invariants(self):
        m = spectral_moments_mc(IidComplexGaussian(3, 2), 20_000, 2)
        assert m.e_lambda_max ** 2 <= m.e_lambda_max_sq \
            + 3 * m.std_errs["e_lambda_max_sq"]
        assert m.e_trace ** 2 <= m.e_trace_sq + 3 * m.std_errs["e_trace_sq"]

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            spectral_moments_mc(IidComplexGaussian(1, 1), 100, 0)

    def test_determinism(self):
        a = spectral_moments_mc(IidComplexGaussian(2, 2), 40_000, 9)
        b = spectral_moments_mc(IidComplexGaussian(2, 2), 40_000, 9)
        assert a == b

    def test_per_sample_spectral_bounds(self):
        model = IidComplexGaussian(2, 3)
        for h in iter_sample_chunks(model, 5_000, 4):
            ev = np.linalg.eigvalsh(h @ h.conj().transpose(0, 2, 1))
            lam = ev[:, -1]
            tr = ev.sum(axis=1)
            assert np.all(lam <= tr + 1e-10)
            assert np.all(tr <= ev.shape[1] * lam + 1e-10)


def test_chunk_rng_is_chunk_indexed():
    # drawing chunk 1 directly equals drawing it after chunk 0: the streams
    # depend only on (seed, chunk index), which is what makes the estimates
    # invariant to how chunks are spread over workers
    model = IidComplexGaussian(2, 2)
    chunks = list(iter_sample_chunks(model, 2 * 16384, 13))
    direct = model.sample_batch(16384, chunk_rng(13, 1))
    assert np.array_equal(chunks[1], direct)


def _exponential(n: int, rho: float) -> np.ndarray:
    return rho ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))


def _complex_correlation(n: int, rng: np.random.Generator) -> np.ndarray:
    """A random complex Hermitian PSD matrix with unit diagonal."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    a = x @ x.conj().T
    d = 1.0 / np.sqrt(np.diag(a).real)
    return d[:, None] * a * d[None, :]


class TestKroneckerMixing:
    @pytest.mark.parametrize("n_r", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n_t", [1, 2, 3, 5, 8])
    def test_real_correlations_match_einsum_bitwise(self, n_r, n_t):
        model = KroneckerCorrelated(_exponential(n_r, 0.7),
                                    _exponential(n_t, 0.5))
        for n in (1, 7, CHUNK):
            got = model.sample_batch(n, chunk_rng(11, n))
            assert np.array_equal(got, kronecker_sample(model, n,
                                                        chunk_rng(11, n)))

    @pytest.mark.parametrize("n_r,n_t", [(2, 2), (3, 4), (5, 2), (8, 8)])
    def test_complex_correlations_match_einsum_closely(self, n_r, n_t):
        rng = np.random.default_rng(n_r * 10 + n_t)
        model = KroneckerCorrelated(_complex_correlation(n_r, rng),
                                    _complex_correlation(n_t, rng))
        got = model.sample_batch(CHUNK, chunk_rng(5, 0))
        ref = kronecker_sample(model, CHUNK, chunk_rng(5, 0))
        assert np.max(np.abs(got - ref)) <= 1e-14


class TestMeanGramAndChunks:
    @pytest.mark.parametrize("model", [
        KroneckerCorrelated(_exponential(3, 0.7), _exponential(2, 0.5)),
        IidComplexGaussian(2, 3)])
    def test_matches_mean_gram_and_draws(self, model):
        n = CHUNK + 100  # two chunks, the second partial
        g, chunks = mean_gram_and_chunks(model, n, 4)
        assert np.array_equal(g, mean_gram(model, n, 4))
        for got, ref in zip(chunks, iter_sample_chunks(model, n, 4),
                            strict=True):
            assert np.array_equal(got, ref)
