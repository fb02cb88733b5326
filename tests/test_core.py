import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

import bone.core
from bone.core import (
    PSD_TOL,
    GaussBelief,
    NumericDomainError,
    certify_psd_batch,
    gaussian_log_pdf,
    gaussian_log_pdf_batch,
    logsumexp,
    eigen_floor,
    floor_margin,
    symmetrize_psd,
    symmetrize_psd_batch,
)
from bone.posterior import lg_update_arrays
from oracles import exactly_psd

HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
# every variance v >= PSD_TOL, +inf included, is its own clamp
SCALAR_VARIANCES = [
    PSD_TOL, np.nextafter(PSD_TOL, 0.0), 0.5, 1.0, 1e300, np.inf, np.nan, -1e-12, -1.0
]


class TestGaussianLogPdf:
    def test_standard_normal_at_mode(self):
        assert gaussian_log_pdf([0.0], [0.0], [[1.0]]) == pytest.approx(-HALF_LOG_2PI)

    def test_standard_normal_at_one(self):
        assert gaussian_log_pdf([1.0], [0.0], [[1.0]]) == pytest.approx(-HALF_LOG_2PI - 0.5)

    def test_diagonal_factorizes_into_univariate_terms(self):
        # oracle: independent coordinates multiply, so log densities add
        expected = gaussian_log_pdf([1.0], [0.0], [[1.0]]) + gaussian_log_pdf(
            [2.0], [0.0], [[4.0]]
        )
        got = gaussian_log_pdf([1.0, 2.0], [0.0, 0.0], np.diag([1.0, 4.0]))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_quadrature_integrates_to_one(self):
        grid = np.linspace(-12.0, 12.0, 40001)
        dx = grid[1] - grid[0]
        for mean in (0.0, 0.7):
            dens = np.exp([gaussian_log_pdf([g], [mean], [[1.0]]) for g in grid])
            assert np.trapezoid(dens, dx=dx) == pytest.approx(1.0, abs=1e-4)

    def test_non_psd_raises(self):
        with pytest.raises(NumericDomainError):
            gaussian_log_pdf([0.0], [0.0], [[-1.0]])
        with pytest.raises(NumericDomainError):
            gaussian_log_pdf([0.0, 0.0], [0.0, 0.0], [[1.0, 2.0], [2.0, 1.0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gaussian_log_pdf([0.0, 1.0], [0.0], [[1.0]])

    def test_batch_matches_scipy(self):
        rng = np.random.default_rng(3)
        for d in (1, 3):
            y = rng.normal(size=d)
            means = rng.normal(size=(5, d))
            covs = np.empty((5, d, d))
            for k in range(5):
                a = rng.normal(size=(d, d))
                covs[k] = a @ a.T + 0.5 * np.eye(d)
            got = gaussian_log_pdf_batch(y, means, covs)
            want = [scipy.stats.multivariate_normal.logpdf(y, means[k], covs[k]) for k in range(5)]
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_singular_item_gets_minimal_jitter_alone(self):
        rng = np.random.default_rng(4)
        v = np.array([1.0, 2.0, 3.0])
        singular = np.outer(v, v)  # PSD with rank one: Cholesky fails
        covs = np.stack([_rotated(rng, [0.5, 1.0, 2.0]), singular, _rotated(rng, [1.0, 3.0, 4.0])])
        y = np.array([0.3, -0.2, 1.0])
        means = np.stack([np.zeros(3), y - 0.1 * v, np.ones(3)])  # y - mean lies in range(v)
        got = gaussian_log_pdf_batch(y, means, covs)
        for k in (0, 2):  # the items that factor keep their value when scored alone
            assert got[k] == gaussian_log_pdf(y, means[k], covs[k])
        jitter = max(0.0, -np.linalg.eigvalsh(singular).min()) + PSD_TOL * np.trace(singular)
        s = singular + jitter * np.eye(3)
        e = y - means[1]
        want = -0.5 * (3 * np.log(2 * np.pi) + np.linalg.slogdet(s)[1] + e @ np.linalg.solve(s, e))
        # s has condition number ~1e9, so agree to 1e-6; a jitter off by a
        # factor of 2 would move the log-density by about log 2
        assert got[1] == pytest.approx(want, rel=0, abs=1e-6)

    def test_item_beyond_tolerance_raises_naming_it(self):
        covs = np.stack([np.eye(2), np.outer([1.0, 1.0], [1.0, 1.0]), np.diag([1.0, -1e-3])])
        with pytest.raises(NumericDomainError, match="covariance 2 of batch is not PSD"):
            gaussian_log_pdf_batch(np.zeros(2), np.zeros((3, 2)), covs)

    @pytest.mark.parametrize("first", SCALAR_VARIANCES)
    @pytest.mark.parametrize("second", SCALAR_VARIANCES)
    def test_scalar_density_equals_the_clamped_formula(self, first, second):
        # a pair holding NaN and a variance the clamp moves or rejects fails
        # a guard that sends NaN past the clamp
        y, means = np.array([0.3]), np.array([[0.1], [-0.2]])
        covs = np.array([first, second])[:, None, None]
        try:
            want = _clamped_scalar_log_pdf(y, means, covs)
        except NumericDomainError as err:
            with pytest.raises(NumericDomainError, match=re.escape(str(err))):
                gaussian_log_pdf_batch(y, means, covs)
            return
        assert gaussian_log_pdf_batch(y, means, covs).tobytes() == want.tobytes()


def _clamped_scalar_log_pdf(y, means, covs):
    """The d = 1 log density with the clamp-and-reject pass run on every stack."""
    e = y[None, :] - means
    v = covs[:, 0, 0]
    ta = np.maximum(1.0, np.abs(v)) * PSD_TOL
    if (v < -ta).any():
        k = int(np.flatnonzero(v < -ta)[0])
        raise NumericDomainError(f"negative variance {v[k]:.3e} in batch item {k}")
    v = np.maximum(v, ta)
    return -0.5 * (np.log(2.0 * np.pi * v) + e[:, 0] ** 2 / v)


def _loaded_after(statement: str, package: str) -> str:
    """The modules of ``package`` that a fresh interpreter holds after ``statement``."""
    code = f"{statement}; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r}); {code}"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return done.stdout.strip()


def test_import_loads_no_scipy():
    assert _loaded_after("import bone", "scipy") == "[]"


def test_harness_import_loads_no_multiprocessing():
    # only a --parallel run needs the process pool
    assert _loaded_after("import bone.harness", "multiprocessing") == "[]"


class TestLogSumExp:
    def test_masses_sum_to_one(self):
        assert logsumexp([np.log(0.5), np.log(0.5)]) == pytest.approx(0.0)

    def test_zero_mass_ignored(self):
        assert logsumexp([-np.inf, 0.0]) == pytest.approx(0.0)

    def test_shift_invariance_large(self):
        assert logsumexp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2.0))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            logsumexp([])

    @given(
        st.lists(st.floats(min_value=-50, max_value=50), min_size=1, max_size=20),
        st.floats(min_value=-100, max_value=100),
    )
    def test_shift_property(self, values, c):
        shifted = logsumexp([v + c for v in values])
        assert shifted == pytest.approx(logsumexp(values) + c, abs=1e-12)

    @given(st.lists(st.floats(min_value=-700, max_value=700), min_size=1, max_size=20))
    def test_at_least_max(self, values):
        assert logsumexp(values) >= max(values)


class TestSymmetrizePsd:
    def test_identity(self):
        np.testing.assert_array_equal(symmetrize_psd(np.eye(3)), np.eye(3))

    def test_off_diagonal_average(self):
        got = symmetrize_psd(np.array([[1.0, 0.5], [0.3, 1.0]]))
        np.testing.assert_allclose(got, [[1.0, 0.4], [0.4, 1.0]])

    def test_rank_one_outer_product_unchanged(self):
        v = np.array([1.0, -2.0, 0.5])
        outer = np.outer(v, v)
        np.testing.assert_allclose(symmetrize_psd(outer), outer, atol=1e-15)

    def test_small_negative_eigenvalue_clamped(self):
        a = np.eye(2) * 1e-12 - 1e-13 * np.ones((2, 2))
        out = symmetrize_psd(a)
        assert np.linalg.eigvalsh(out).min() >= -1e-16

    def test_beyond_tolerance_raises(self):
        with pytest.raises(NumericDomainError):
            symmetrize_psd(np.array([[1.0, 0.0], [0.0, -1.0]]))

    @given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=50)
    def test_idempotent(self, d, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(d, d))
        a = a @ a.T  # PSD but numerically asymmetric after products
        once = symmetrize_psd(a)
        twice = symmetrize_psd(once)
        np.testing.assert_allclose(twice, once, atol=1e-15)


def _eigvalsh_psd_batch(covs):
    """Oracle for symmetrize_psd_batch: the smallest eigenvalue of every matrix."""
    s = (covs + covs.transpose(0, 2, 1)) / 2.0
    wmin = np.linalg.eigvalsh(s).min(axis=1)
    traces = np.einsum("kii->k", s)
    bad = wmin < -np.maximum(1.0, np.abs(traces)) * PSD_TOL
    if bad.any():
        k = int(np.flatnonzero(bad)[0])
        raise NumericDomainError(
            f"matrix {k} of batch is not PSD within tolerance "
            f"(min eigenvalue {wmin[k]:.3e}):\n{s[k]}"
        )
    shift = np.where(wmin < 0.0, -wmin, 0.0)
    return s + shift[:, None, None] * np.eye(s.shape[1])


def _rotated(rng, eigenvalues):
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues), len(eigenvalues))))
    return q @ np.diag(eigenvalues) @ q.T


def _same_outcome(covs):
    """symmetrize_psd_batch and the oracle return equal bits or raise the same
    error, and covs is left unchanged."""
    before = covs.copy()
    try:
        want = _eigvalsh_psd_batch(covs)
    except NumericDomainError as err:
        with pytest.raises(NumericDomainError) as got:
            symmetrize_psd_batch(covs)
        assert str(got.value) == str(err)
    else:
        np.testing.assert_array_equal(symmetrize_psd_batch(covs), want)
    np.testing.assert_array_equal(covs, before)


class TestSymmetrizePsdBatch:
    def test_positive_definite_stack_is_symmetrized_only(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 5, 5))
        covs = a @ a.transpose(0, 2, 1) + np.eye(5)
        covs[:, 0, 1] += 1e-3  # asymmetric
        out = symmetrize_psd_batch(covs)
        np.testing.assert_array_equal(out, (covs + covs.transpose(0, 2, 1)) / 2.0)
        np.testing.assert_array_equal(out, _eigvalsh_psd_batch(covs))

    def test_rank_one_matrix_takes_the_eigvalsh_path(self):
        covs = np.stack([2.0 * np.eye(3), np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(covs)
        np.testing.assert_array_equal(symmetrize_psd_batch(covs), _eigvalsh_psd_batch(covs))

    def test_eigenvalue_within_tolerance_gets_minimal_shift(self):
        m = _rotated(np.random.default_rng(1), [1.0, 2.0, -1e-11])
        covs = np.stack([np.eye(3), m])
        s = (covs + covs.transpose(0, 2, 1)) / 2.0
        out = symmetrize_psd_batch(covs)
        np.testing.assert_array_equal(out, _eigvalsh_psd_batch(covs))
        np.testing.assert_array_equal(out[0], np.eye(3))
        shift = -np.linalg.eigvalsh(s[1]).min()
        assert shift == pytest.approx(1e-11, rel=1e-3)
        np.testing.assert_array_equal(out[1], s[1] + shift * np.eye(3))

    def test_beyond_tolerance_raises_naming_the_matrix(self):
        covs = np.stack([np.eye(2), np.eye(2), np.diag([1.0, -1.0])])
        with pytest.raises(NumericDomainError, match="matrix 2 of batch is not PSD"):
            symmetrize_psd_batch(covs)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_matrix_raises_naming_the_matrix(self, d, value):
        covs = np.stack([np.eye(d)] * 3)
        covs[1, 0, d - 1] = value
        with pytest.raises(NumericDomainError, match="matrix 1 of batch is not finite"):
            symmetrize_psd_batch(covs)

    def test_scalar_stack_matches_oracle_bit_for_bit(self):
        rng = np.random.default_rng(2)
        v = np.concatenate([rng.uniform(0.0, 5.0, 20), [0.0, -1e-12, -5e-10, 1e-300]])
        covs = v[:, None, None]
        np.testing.assert_array_equal(symmetrize_psd_batch(covs), _eigvalsh_psd_batch(covs))
        _same_outcome(np.concatenate([covs, [[[-1e-3]]]]))

    # Eigenvalues keep a margin from zero (>= 1e-12 in magnitude) so the sign
    # is decided by the matrix, not by rounding: a matrix singular to working
    # precision may pass Cholesky while eigvalsh reports -1e-16 and shifts it.
    # A long stack (kinds tiled past _PIVOT_STACK) of 2x2 or 3x3 matrices is
    # tried by the pivot pass first.
    @given(
        st.sampled_from([1, 2, 3, 5]),
        st.lists(st.sampled_from(["pd", "within-tol", "beyond-tol"]), min_size=1, max_size=6),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_eigvalsh_oracle(self, d, kinds, sliced, long, seed):
        rng = np.random.default_rng(seed)
        if long:
            kinds = kinds * (bone.core._PIVOT_STACK // len(kinds) + 1)
        mats = []
        for kind in kinds:
            lam = rng.uniform(1e-3, 10.0, d)
            if kind == "within-tol":
                lam[0] = -rng.uniform(1e-12, 5e-10)
            elif kind == "beyond-tol":
                lam[0] = -rng.uniform(1e-3, 1.0)
            m = _rotated(rng, lam)
            mats.append(m + 1e-14 * rng.normal(size=(d, d)))  # asymmetric rounding
        with pytest.MonkeyPatch.context() as mp:
            if sliced:  # one matrix a slice
                mp.setattr(bone.core, "SLICE_BYTES", mats[0].nbytes)
            _same_outcome(np.stack(mats))

    @pytest.mark.parametrize(
        "last,error",
        [
            ("within-tol", None),
            ("beyond-tol", "matrix 4 of batch is not PSD"),
            ("nan", "matrix 4 of batch is not finite"),
        ],
    )
    def test_sliced_certificate_falls_back_on_the_last_slice(self, monkeypatch, last, error):
        # two 3x3 matrices a slice, so the stack of five ends in a slice of one
        monkeypatch.setattr(bone.core, "SLICE_BYTES", 2 * 9 * 8)
        rng = np.random.default_rng(3)
        lam = {"within-tol": -1e-11, "beyond-tol": -0.5, "nan": 1.0}[last]
        mats = [_rotated(rng, rng.uniform(0.5, 2.0, 3)) for _ in range(4)]
        covs = np.stack(mats + [_rotated(rng, [1.0, 2.0, lam])])
        if last == "nan":
            covs[4, 0, 2] = np.nan
        s = (covs + covs.transpose(0, 2, 1)) / 2.0  # certify_psd_batch takes symmetric input
        if error is not None:
            with pytest.raises(NumericDomainError, match=error):
                certify_psd_batch(s)
            return
        out = certify_psd_batch(s)
        np.testing.assert_array_equal(out, _eigvalsh_psd_batch(covs))
        assert np.trace(out[4]) > np.trace(covs[4])  # repaired

    @pytest.mark.parametrize("k,d", [(1, 1), (6, 1), (9, 64), (5, 3)])
    def test_result_is_a_fresh_symmetric_part(self, k, d):
        # (9, 64) spans three certificate slices of the default size
        rng = np.random.default_rng(k * d)
        a = rng.normal(size=(k, d, d))
        covs = a @ a.transpose(0, 2, 1) + 0.1 * np.eye(d) + 1e-9 * rng.normal(size=(k, d, d))
        before = covs.copy()
        fresh = symmetrize_psd_batch(covs)
        np.testing.assert_array_equal(fresh, (covs + covs.transpose(0, 2, 1)) / 2.0)
        assert not np.shares_memory(fresh, covs)
        np.testing.assert_array_equal(covs, before)


def _special_matrix(case, d, rng):
    """One d x d matrix (d in {2, 3}) for TestPivotCertificate: exactly
    symmetric, except that a non-finite case sets one triangle only."""
    tau = bone.core._PIVOT_MARGIN
    if case.startswith("singular"):  # lambda_min = c * trace, c from the name
        lam = np.arange(1.0, d + 1.0)
        lam[0] = float(case.split(":")[1]) * lam[1:].sum()
        m = _rotated(rng, lam)
    elif case.startswith("ratio"):  # second pivot 1 - r^2 = tau (1 +- 1e-3)
        r = np.sqrt(1.0 - tau * (1.0 + (1e-3 if case == "ratio-above" else -1e-3)))
        m = np.eye(d)
        m[0, 1] = m[1, 0] = r
    elif case.startswith("zero-diagonal"):
        m = np.eye(d)
        m[1, 1] = 0.0
        if case == "zero-diagonal-coupled":  # an eigenvalue near -0.2
            m[0, 1] = m[1, 0] = 0.5
    elif case in ("within-tol", "beyond-tol"):
        lam = rng.uniform(0.5, 2.0, d)
        lam[0] = -3e-10 if case == "within-tol" else -0.3
        m = _rotated(rng, lam)
    else:  # a non-finite entry in one triangle; the other keeps its value
        m = _rotated(rng, rng.uniform(0.5, 2.0, d))
        m = (m + m.T) / 2.0
        value = {"nan-lower": np.nan, "inf-lower": np.inf, "-inf-lower": -np.inf}.get(case)
        if value is None:  # nan-upper
            m[0, d - 1] = np.nan
        else:
            m[d - 1, 0] = value
        return m
    return (m + m.T) / 2.0


def _certify_outcome(s, floors=None):
    """certify_psd_batch's result (whether it is s, and its bytes) or its
    exception, with every warning an error; s is left unchanged."""
    before = s.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = certify_psd_batch(s, floors)
        except Exception as err:  # noqa: BLE001 - the exception is the outcome
            outcome = (type(err), str(err))
        else:
            outcome = (out is s, out.tobytes())
    assert s.tobytes() == before
    return outcome


class TestPivotCertificate:
    """The pivot pass of certify_psd_batch against the LAPACK path alone."""

    CASES = [
        "singular:0", "singular:1e-17", "singular:-1e-17", "singular:1e-15",
        "singular:-1e-15", "ratio-above", "ratio-below", "zero-diagonal",
        "zero-diagonal-coupled", "nan-lower", "inf-lower", "-inf-lower",
        "nan-upper", "within-tol", "beyond-tol",
    ]

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("case", CASES)
    def test_same_outcome_as_lapack_alone(self, monkeypatch, case, d):
        threshold = bone.core._PIVOT_STACK
        rng = np.random.default_rng(len(case) * d)
        for k in (threshold - 1, threshold, 500):
            stack = np.stack([_rotated(rng, rng.uniform(0.5, 2.0, d)) for _ in range(k)])
            stack = (stack + stack.transpose(0, 2, 1)) / 2.0
            stack[k // 2] = _special_matrix(case, d, rng)
            both = _certify_outcome(stack)
            with monkeypatch.context() as mp:
                mp.setattr(bone.core, "_PIVOT_STACK", sys.maxsize)
                lapack = _certify_outcome(stack)
            assert both == lapack, (case, d, k)

    @pytest.mark.parametrize("d", [2, 3])
    def test_the_margin_decides_the_pass(self, d):
        # the two ratio cases straddle the margin in the pass itself
        rng = np.random.default_rng(d)
        for case, passes in (("ratio-above", True), ("ratio-below", False)):
            m = _special_matrix(case, d, rng)
            assert bone.core._pivots_certify(np.stack([m] * 100)) is passes
            assert np.isfinite(np.linalg.cholesky(m)).all()  # LAPACK factors both

    @pytest.mark.parametrize("k,calls", [(500, 0), (1, 1)])
    def test_long_stack_makes_no_lapack_call(self, monkeypatch, k, calls):
        rng = np.random.default_rng(k)
        a = rng.normal(size=(k, 3, 3))
        stack = a @ a.transpose(0, 2, 1) + np.eye(3)
        stack = (stack + stack.transpose(0, 2, 1)) / 2.0
        seen = []
        cholesky = np.linalg.cholesky

        def counting(x, *args, **kwargs):
            seen.append(x.shape)
            return cholesky(x, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "cholesky", counting)
        assert certify_psd_batch(stack) is stack
        assert len(seen) == calls


def _floored_stack(rng, d, k, ratio):
    """k exactly symmetric d x d matrices with floors (k,) that are exact
    lower bounds on their smallest eigenvalues, each ``ratio`` times its
    largest diagonal entry: the identity with one correlation block
    [[1, rho], [rho, 1]] at random rows (eigenvalues exactly 1 -+ rho),
    scaled symmetrically by powers of two, which keeps every entry exact."""
    mats, floors = [], []
    for _ in range(k):
        scale = 2.0 ** rng.integers(-3, 4, d)
        spread = (scale.max() / scale.min()) ** 2
        rho = 1.0 - ratio * spread  # 1 - rho is exact for rho in [1/2, 1]
        m = np.eye(d)
        i, j = rng.choice(d, 2, replace=False)
        m[i, j] = m[j, i] = rho
        mats.append(scale[:, None] * m * scale[None, :])
        floors.append((1.0 - rho) * scale.min() ** 2)
    return np.stack(mats), np.array(floors)


def _hard_block(d, rng):
    """A positive definite d x d matrix that LAPACK's Cholesky refuses, and
    a floor under its smallest eigenvalue (about 7e-17).  It is the identity
    with the block [[1, x], [x, a]] at random rows, a = fl(x^2) rounded up:
    a - x^2 > 0 exactly, but Cholesky's second pivot a - fl(x x) is 0."""
    x = 1.0 + 109854639 * 2.0**-52
    block = np.array([[1.0, x], [x, x * x]])
    floor = float((Fraction(x * x) - Fraction(x) ** 2) / 4)
    assert exactly_psd(block, floor)
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(block)
    i = int(rng.integers(d - 1))
    m = np.eye(d)
    m[i : i + 2, i : i + 2] = block
    return m, floor


def _special_row(kind, d, rng, m, floor):
    """Matrix and floor of one special row of TestFloorCertificate."""
    if kind == "floor-0":
        return m, 0.0
    if kind == "hard-block":
        return _hard_block(d, rng)
    if kind in ("within-tol", "beyond-tol"):
        lam = rng.uniform(0.5, 2.0, d)
        lam[0] = -3e-10 if kind == "within-tol" else -0.3
        m = _rotated(rng, lam)
        return (m + m.T) / 2.0, 0.0
    m = m.copy()
    if kind == "nan-lower":  # a floor is a bound for a finite matrix only
        m[d - 1, 0] = np.nan
        return m, 0.0
    m[1, 1] = {"inf-diagonal": np.inf, "-inf-diagonal": -np.inf, "nan-diagonal": np.nan}[kind]
    return m, floor


class TestFloorCertificate:
    """The floor certificate of certify_psd_batch against the same stack
    certified without floors."""

    CASES = {
        "certified": [],
        "floor-0": [(3, "floor-0")],
        "hard-block": [(3, "hard-block")],
        "nan-lower": [(3, "nan-lower")],
        "inf-diagonal": [(3, "inf-diagonal")],
        "-inf-diagonal": [(3, "-inf-diagonal")],  # as from an overflowing update
        "nan-diagonal": [(3, "nan-diagonal")],
        "within-tol": [(3, "within-tol")],
        "beyond-tol": [(3, "beyond-tol")],
        "mixed-repair": [(1, "floor-0"), (3, "hard-block"), (5, "within-tol")],
        "mixed-error": [(1, "floor-0"), (3, "within-tol"), (5, "beyond-tol"), (6, "nan-lower")],
    }

    @pytest.mark.parametrize("d", [4, 97])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_same_outcome_as_without_floors(self, case, d):
        rng = np.random.default_rng(len(case) * d)
        stack, floors = _floored_stack(rng, d, 8, 1e-6)
        stack[2][stack[2] == 0.0] = -0.0  # a repair of another row turns these to +0.0
        for j, kind in self.CASES[case]:
            stack[j], floors[j] = _special_row(kind, d, rng, stack[j], floors[j])
        certified = bone.core._floors_certify(stack, floors)
        assert certified.sum() == 8 - len(self.CASES[case])
        assert _certify_outcome(stack, floors) == _certify_outcome(stack), (case, d)

    @pytest.mark.parametrize("d", [4, 97])
    def test_floor_certified_matrices_factor(self, d):
        # Demmel's condition, checked empirically: every matrix the floors
        # certify, down to just above the margin, factors with LAPACK
        rng = np.random.default_rng(d)
        tau = floor_margin(d)
        stacks = [_floored_stack(rng, d, 20, c * tau) for c in (1.01, 1.1, 2.0, 1e3)]
        stacks.append(tuple(np.stack(x) for x in zip(*[_hard_block(d, rng) for _ in range(3)])))
        # and the floors of the d = 1 update, from a prior's eigen_floor
        a = rng.normal(size=(20, d, d))
        covs = a @ a.transpose(0, 2, 1) / d + rng.uniform(1e-6, 1.0, (20, 1, 1)) * np.eye(d)
        covs = (covs + covs.transpose(0, 2, 1)) / 2.0
        jacs = rng.normal(size=(20, 1, d)) * 10.0 ** rng.uniform(-2, 2, (20, 1, 1))
        _, post, _, floors = lg_update_arrays(
            np.zeros((20, d)), covs, jacs, np.zeros((20, 1)), np.zeros(1),
            10.0 ** rng.uniform(-4, 1, (20, 1, 1)),
            floors=np.array([eigen_floor(c) for c in covs]),
        )
        stacks.append((post, floors))
        seen = 0
        for stack, floors in stacks:
            certified = bone.core._floors_certify(stack, floors)
            seen += certified.sum()
            if certified.any():
                assert np.isfinite(np.linalg.cholesky(stack[certified])).all()
        assert seen >= 80 + 10  # every scaled matrix, and most updates


class TestTypes:
    def test_belief_shape_validation(self):
        with pytest.raises(ValueError):
            GaussBelief([0.0, 1.0], [[1.0]])
        with pytest.raises(ValueError):
            GaussBelief([np.nan], [[1.0]])
        b = GaussBelief([0.0, 0.0], np.eye(2))
        assert b.dim == 2

    @pytest.mark.parametrize("m", [1, 3])
    def test_belief_stores_the_symmetric_part(self, m):
        a = np.random.default_rng(m).normal(size=(m, m))
        sym = (a + a.T) / 2.0
        np.testing.assert_array_equal(GaussBelief(np.zeros(m), a).cov, sym)
        assert GaussBelief(np.zeros(m), sym).cov.tobytes() == sym.tobytes()
