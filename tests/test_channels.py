import numpy as np
import pytest

from effcap.asymptotics import zero_snr_moments
from effcap.channels import (CHUNK, MAX_EIG_REL_TOL, FixedMatrix,
                             IidComplexGaussian, KroneckerCorrelated,
                             _complex_gaussian, _gram_eigvalsh, chunk_rng,
                             iter_sample_chunks, max_eig_multiplicity,
                             mean_gram_mc)
from effcap.engine import BeamformingCsit, UniformIdentity
from effcap.errors import DomainError
from oracles import (complex_gaussian, hermitian_eig, kronecker_eigen_sample,
                     kronecker_sample)

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf,
                                     complex(1.0, np.nan)])
    def test_fixed_matrix_requires_finite(self, bad):
        # a NaN entry ran a whole Monte Carlo pass and then failed in the
        # log-mean-exp, without naming the matrix
        h = np.array([[1.0, bad], [0.5, 1.0]], dtype=complex)
        with pytest.raises(DomainError, match="FixedMatrix h must be finite"):
            FixedMatrix(h)

    @pytest.mark.parametrize("shape", [(0, 2, 5), (1, 1, 1), (7, 2, 5),
                                       (CHUNK, 1, 1), (CHUNK, 4, 4)])
    def test_complex_gaussian_matches_formula_bitwise(self, shape):
        # one draw of both parts, scaled in place, against the two draws
        # and the complex division by sqrt(2)
        got = _complex_gaussian(np.random.default_rng(11), shape)
        want = complex_gaussian(np.random.default_rng(11), shape)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

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
        both = [UniformIdentity(), BeamformingCsit()]
        mk = zero_snr_moments(kron, both, 50_000, 7)
        mi = zero_snr_moments(iid, both, 50_000, 7)
        # same seed, same underlying gaussians: identity correlation is a
        # no-op so the draws coincide exactly; the uniform gain is the
        # trace over n_T, the beamforming gain lambda_max
        assert mk[0].e_q == mi[0].e_q
        assert mk[1].e_q == mi[1].e_q

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


def _multiplicity(a: np.ndarray) -> int:
    return max_eig_multiplicity(hermitian_eig(a)[0])


class TestMaxEigSubspace:
    """The maximal eigenspace of a Hermitian matrix: its eigenvalue and
    basis, the first of `hermitian_eig`'s descending eigenpairs, and its
    numerical multiplicity, `max_eig_multiplicity`."""

    def test_simple_diag(self):
        w, v = hermitian_eig(np.diag([3.0, 1.0]))
        assert w[0] == 3.0
        assert max_eig_multiplicity(w) == 1
        assert abs(abs(v[0, 0]) - 1.0) < 1e-12

    def test_scaled_identity_full_multiplicity(self):
        assert _multiplicity(2.0 * np.eye(3)) == 3

    def test_mc_mean_gram_is_nearly_scaled_identity(self):
        # the tolerance is a rounding one, for the exact mean: the exact
        # 2I has one maximal eigenvalue of multiplicity 3, and the Monte
        # Carlo estimate is near it but breaks the tie
        model = IidComplexGaussian(2, 3)
        mg = mean_gram_mc(model, 100_000, 5)
        assert np.max(np.abs(mg - 2.0 * np.eye(3))) < 0.05
        assert _multiplicity(model.exact_mean_gram()) == 3
        assert _multiplicity(mg) == 1

    def test_threshold_construction(self):
        tol = MAX_EIG_REL_TOL
        a = np.diag([2.0, 2.0 * (1.0 - tol / 2), 1.0])
        assert _multiplicity(a) == 2
        a = np.diag([2.0, 2.0 * (1.0 - 2.0 * tol), 1.0])
        assert _multiplicity(a) == 1
        # a near-tie of exact eigenvalues, 2.008 against 1.992, is no tie
        assert _multiplicity(np.diag([2.008, 1.992])) == 1

    def test_zero_matrix(self):
        w, _ = hermitian_eig(np.zeros((4, 4)))
        assert w[0] == 0.0
        assert max_eig_multiplicity(w) == 4


class TestSpectralMoments:
    """The gram-spectrum moments that the zero-SNR derivatives read: the
    uniform gain q = tr(HH^dagger)/n_T and the beamforming gain
    q = lambda_max, from `zero_snr_moments`."""

    def test_iid_2x2_identities(self):
        # E{tr} = 4, E{tr^2} = 20 and E{tr (HH^dag)^2} = 16, over n_T^k
        (m,) = zero_snr_moments(IidComplexGaussian(2, 2), [UniformIdentity()],
                                200_000, 1)
        assert abs(m.e_q - 4.0 / 2) <= 3 * m.std_errs["e_q"]
        assert abs(m.e_q_sq - 20.0 / 4) <= 3 * m.std_errs["e_q_sq"]
        assert abs(m.e_r - 16.0 / 4) <= 3 * m.std_errs["e_r"]

    def test_iid_2x2_lambda_max_oracle(self):
        (m,) = zero_snr_moments(IidComplexGaussian(2, 2), [BeamformingCsit()],
                                200_000, 1)
        assert abs(m.e_q - LMAX_MEAN_2X2) <= 3 * m.std_errs["e_q"]
        assert abs(m.e_q_sq - LMAX_SQ_2X2) <= 3 * m.std_errs["e_q_sq"]
        # one mode: r = tr G^2 = lambda_max^2
        assert m.e_r == m.e_q_sq

    def test_fixed_matrix_zero_variance(self):
        (m,) = zero_snr_moments(
            FixedMatrix(np.diag([1.0, 2.0]).astype(complex)),
            [BeamformingCsit()], 2000, 0)
        assert m.e_q == 4.0
        assert m.std_errs["e_q"] < 1e-12

    def test_cauchy_schwarz_invariants(self):
        # Jensen: E{q}^2 <= E{q^2}, for lambda_max and for the trace
        for m in zero_snr_moments(IidComplexGaussian(3, 2),
                                  [BeamformingCsit(), UniformIdentity()],
                                  20_000, 2):
            assert m.e_q ** 2 <= m.e_q_sq + 3 * m.std_errs["e_q_sq"]

    def test_sample_count_validated(self):
        with pytest.raises(DomainError):
            zero_snr_moments(IidComplexGaussian(1, 1), [UniformIdentity()],
                             100, 0)

    def test_determinism(self):
        both = [UniformIdentity(), BeamformingCsit()]
        a = zero_snr_moments(IidComplexGaussian(2, 2), both, 40_000, 9)
        b = zero_snr_moments(IidComplexGaussian(2, 2), both, 40_000, 9)
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
    """The one Kronecker draw path: a public draw is the eigenbasis draw
    rotated back, U_r (L_r^{1/2} o G o L_t^{1/2}) U_t^dagger, the oracle's
    einsum of the eigendecompositions applied to the same G. That H has the
    Kronecker law is tested in `TestKroneckerLaw`."""

    @pytest.mark.parametrize("n_r", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("n_t", [1, 2, 3, 5, 8])
    def test_real_correlations_match_einsum_bitwise(self, n_r, n_t):
        model = KroneckerCorrelated(_exponential(n_r, 0.7),
                                    _exponential(n_t, 0.5))
        for n in (1, 7, CHUNK):
            got = model.sample_batch(n, chunk_rng(11, n))
            want = kronecker_eigen_sample(model, n, chunk_rng(11, n))
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("n_r,n_t", [(2, 2), (3, 4), (5, 2), (8, 8)])
    def test_complex_correlations_match_einsum_closely(self, n_r, n_t):
        rng = np.random.default_rng(n_r * 10 + n_t)
        model = KroneckerCorrelated(_complex_correlation(n_r, rng),
                                    _complex_correlation(n_t, rng))
        got = model.sample_batch(CHUNK, chunk_rng(5, 0))
        ref = kronecker_eigen_sample(model, CHUNK, chunk_rng(5, 0))
        assert np.max(np.abs(got - ref)) <= 1e-14


# Kronecker cases of the law tests: the near-tie 2x2 (rho_t = 0.004), real
# exponential correlations in two shapes, and complex correlations
_LAW_CASES = {
    "2x2-near-tie": lambda: KroneckerCorrelated(_exponential(2, 0.7),
                                                _exponential(2, 0.004)),
    "4x4": lambda: KroneckerCorrelated(_exponential(4, 0.7),
                                       _exponential(4, 0.5)),
    "1x3": lambda: KroneckerCorrelated(_exponential(1, 0.0),
                                       _exponential(3, 0.9)),
    "3x2-complex": lambda: KroneckerCorrelated(
        _complex_correlation(3, np.random.default_rng(32)),
        _complex_correlation(2, np.random.default_rng(23))),
}
# a check of a Monte Carlo mean passes within this many standard errors: a
# two-sided normal false-alarm rate of 2 * Phi(-4.5) = 6.8e-6 per check
_K_SIGMA = 4.5
# the false-alarm rate of one two-sample test, over all its statistics
_TWO_SAMPLE_ALPHA = 1e-3


def _traces(chunks):
    """tr W and tr W^2 of W = H^dagger H, per draw, over chunks of H."""
    tr, tr2 = [], []
    for h in chunks:
        ev = np.clip(_gram_eigvalsh(h), 0.0, None)
        tr.append(ev.sum(axis=1))
        tr2.append((ev * ev).sum(axis=1))
    return np.concatenate(tr), np.concatenate(tr2)


class TestKroneckerLaw:
    """The Kronecker draws, in the eigenbasis (`iter_sample_chunks`) and
    rotated back (`sample_batch`), have the law of R_r^{1/2} G R_t^{1/2}."""

    N = 200_000

    @pytest.mark.parametrize("path", ["eigenbasis", "public"])
    @pytest.mark.parametrize("case", sorted(_LAW_CASES))
    def test_wick_identities(self, case, path):
        # W = H^dagger H, a = tr R_r, b = tr R_t, a2 = tr R_r^2,
        # b2 = tr R_t^2: E tr W = ab, E (tr W)^2 = (ab)^2 + a2 b2 and
        # E tr W^2 = a^2 b2 + a2 b^2 (Isserlis/Wick for circular G)
        model = _LAW_CASES[case]()
        a, b = np.trace(model.r_r).real, np.trace(model.r_t).real
        a2 = np.trace(model.r_r @ model.r_r).real
        b2 = np.trace(model.r_t @ model.r_t).real
        if path == "eigenbasis":
            chunks = iter_sample_chunks(model, self.N, 17)
        else:
            chunks = (model.sample_batch(min(CHUNK, self.N - start),
                                         chunk_rng(17, i))
                      for i, start in enumerate(range(0, self.N, CHUNK)))
        tr, tr2 = _traces(chunks)
        for x, exact in ((tr, a * b), (tr * tr, (a * b) ** 2 + a2 * b2),
                         (tr2, a * a * b2 + a2 * b * b)):
            se = x.std() / np.sqrt(len(x))
            assert abs(x.mean() - exact) <= _K_SIGMA * se, (x.mean(), exact)

    @pytest.mark.parametrize("case", sorted(_LAW_CASES))
    def test_two_sample_against_einsum(self, case):
        # Kolmogorov-Smirnov two-sample tests of the eigenbasis draws
        # against independent draws of the einsum R_r^{1/2} G R_t^{1/2},
        # on what the strategies read: lambda_max and tr of H^dagger H and
        # each per-direction gain |H u_i|^2, u_i the drawn basis (the
        # einsum draws rotated by it). Bonferroni over the statistics.
        from scipy.stats import ks_2samp
        model = _LAW_CASES[case]()
        n = 40_000
        u = model.mean_gram_eig[1]
        drawn = np.concatenate(list(iter_sample_chunks(model, n, 3)))
        mixed = np.concatenate([
            kronecker_sample(model, min(CHUNK, n - start), chunk_rng(4, i))
            for i, start in enumerate(range(0, n, CHUNK))]) @ u

        def stats(h):
            ev = _gram_eigvalsh(h)
            gains = (np.abs(h) ** 2).sum(axis=1)
            return [ev[:, -1], ev.sum(axis=1)] + list(gains.T)
        pairs = list(zip(stats(drawn), stats(mixed)))
        for x, y in pairs:
            assert ks_2samp(x, y).pvalue >= _TWO_SAMPLE_ALPHA / len(pairs)

    def test_exact_mean_gram_against_mc(self):
        # exact_mean_gram = tr(R_r) R_t against the mean of 1e6 public
        # draws of H^dagger H, entry by entry, real and imaginary parts
        model = _LAW_CASES["3x2-complex"]()
        n = 1_000_000
        s1 = np.zeros((2, 2), dtype=complex)
        s2r, s2i = np.zeros((2, 2, 2))
        for i, start in enumerate(range(0, n, CHUNK)):
            h = model.sample_batch(min(CHUNK, n - start), chunk_rng(9, i))
            w = h.conj().transpose(0, 2, 1) @ h
            s1 += w.sum(axis=0)
            s2r += (w.real ** 2).sum(axis=0)
            s2i += (w.imag ** 2).sum(axis=0)
        mean = s1 / n
        se_r = np.sqrt((s2r / n - mean.real ** 2) / n)
        se_i = np.sqrt((s2i / n - mean.imag ** 2) / n)
        exact = model.exact_mean_gram()
        np.testing.assert_allclose(
            exact, np.trace(model.r_r).real * model.r_t, rtol=1e-15)
        assert np.all(np.abs(mean.real - exact.real) <= _K_SIGMA * se_r)
        off = ~np.eye(2, dtype=bool)  # the diagonal's imaginary part is 0
        assert np.all(np.abs(mean.imag - exact.imag)[off]
                      <= _K_SIGMA * se_i[off])


class TestMeanGramAndChunks:
    """Each model's exact E{H^dagger H}, its eigenbasis `mean_gram_eig`,
    and the draws of `iter_sample_chunks`, which come in that basis."""

    @pytest.mark.parametrize("model", [
        KroneckerCorrelated(_exponential(3, 0.7), _exponential(2, 0.5)),
        IidComplexGaussian(2, 3)])
    def test_matches_mean_gram_and_draws(self, model):
        n = CHUNK + 100  # two chunks, the second partial
        g = model.exact_mean_gram()
        if isinstance(model, IidComplexGaussian):
            assert np.array_equal(g, 2.0 * np.eye(3))
        else:
            np.testing.assert_allclose(g, 3.0 * _exponential(2, 0.5),
                                       rtol=1e-15)
        w, u = model.mean_gram_eig
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs(u.conj().T @ u - np.eye(len(w)))) <= 1e-14
        assert np.max(np.abs((u * w) @ u.conj().T - g)) <= 1e-14 * w[0]
        chunks = list(iter_sample_chunks(model, n, 4))
        assert [len(h) for h in chunks] == [CHUNK, 100]
        for i, got in enumerate(chunks):
            ref = model.sample_eigenbasis(len(got), chunk_rng(4, i))
            assert np.array_equal(got, ref)
            if isinstance(model, IidComplexGaussian):
                ref = model.sample_batch(len(got), chunk_rng(4, i))
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("h", [
        np.array([[1.0 + 0.5j, 0.3], [-0.2j, 0.8 - 0.1j]]),
        np.outer([1.0, 0.5j, -2.0], [1.0 - 1.0j, 0.5]),
        np.array([[2.0 + 0j]])], ids=["2x2", "rank1-3x2", "1x1"])
    def test_fixed_matrix_eigenbasis(self, h):
        # E{H^dagger H} = H^dagger H, its eigenbasis from the SVD of H, and
        # every draw is H U
        model = FixedMatrix(h)
        g = model.exact_mean_gram()
        w, u = model.mean_gram_eig
        assert np.all(np.diff(w) <= 0)
        assert np.max(np.abs((u * w) @ u.conj().T - g)) <= 1e-14 * w[0]
        (d,) = list(iter_sample_chunks(model, 3, 0))
        assert np.array_equal(d, np.stack([h @ u] * 3))
        assert np.array_equal(model.sample_batch(3, None), np.stack([h] * 3))
