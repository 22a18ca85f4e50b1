import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import betainc_series, ols_normal_equations, t_two_sided_p_series
from wmhkit.cohort import SubjectRecord, synthetic_cohort
from wmhkit.errors import (
    LengthMismatch,
    NoCompleteRows,
    RankDeficient,
    TooFewPairs,
    TooFewRows,
    ZeroMeanReference,
)
from wmhkit.stats import (
    DEFAULT_COVARIATES,
    bland_altman,
    bland_altman_points,
    build_design_matrix,
    ols_regress,
    paired_ttest,
    regularized_incomplete_beta,
    t_two_sided_p,
)


class TestIncompleteBeta:
    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (1.0, 2.0), (5.0, 0.5), (50.0, 0.5), (2.5, 7.5)])
    def test_against_series_oracle(self, a, b):
        for x in np.linspace(0.01, 0.99, 25):
            mine = regularized_incomplete_beta(a, b, float(x))
            want = betainc_series(a, b, float(x))
            assert mine == pytest.approx(want, abs=1e-12)

    def test_against_scipy(self):
        small = [(0.01, 1.0), (1.0, 0.01), (0.01, 0.01), (0.01, 50.0), (50.0, 0.01)]
        for a, b in [(1.0, 0.5), (5.0, 0.5), (50.0, 0.5), (0.7, 3.0), *small]:
            for x in np.linspace(0.005, 0.995, 40):
                assert regularized_incomplete_beta(a, b, float(x)) == pytest.approx(
                    float(scipy.stats.beta.cdf(x, a, b)), abs=1e-12
                )

    def test_bounds(self):
        assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0

    @pytest.mark.parametrize("dfs", [range(1, 1001), [2000, 5000, 10**4, 3 * 10**4, 10**5]],
                             ids=["df1-1000", "df2000-1e5"])
    def test_t_distribution_shapes_against_scipy(self, dfs):
        # a = df/2, b = 1/2, as t_two_sided_p asks; at the larger df a log-beta
        # of plain lgamma differences misses this tolerance (2e-11 at df = 1e5)
        for df in dfs:
            for t in np.linspace(0.0, 12.0, 10):
                x = df / (df + t * t)
                assert regularized_incomplete_beta(df / 2, 0.5, x) == pytest.approx(
                    float(scipy.special.betainc(df / 2, 0.5, x)), abs=1e-12
                ), (df, t)

    @pytest.mark.parametrize("a,b", [(0.5, 0.5), (2.5, 7.5), (50.0, 0.5), (0.5, 50.0), (5e4, 0.5), (0.01, 1.0)])
    def test_either_side_of_the_symmetry_switch(self, a, b):
        switch = (a + 1.0) / (a + b + 2.0)
        for step in (1e-12, 1e-6, 1e-3, 1e-1):
            for x in (switch * (1 - step), switch * (1 + step)):
                if x < 1.0:
                    assert regularized_incomplete_beta(a, b, x) == pytest.approx(
                        float(scipy.special.betainc(a, b, x)), abs=1e-12
                    ), (step, x)

    def test_fraction_ends_at_large_shapes(self):
        # the t-distribution at df = 1e6 converges well within the bound on terms
        for t in np.linspace(0.0, 12.0, 10):
            x = 1e6 / (1e6 + t * t)
            assert regularized_incomplete_beta(5e5, 0.5, x) == pytest.approx(
                float(scipy.special.betainc(5e5, 0.5, x)), abs=1e-12
            ), t
        # shapes both this large, and a NaN x, stop at the bound
        assert 0.0 <= regularized_incomplete_beta(1e10, 3e10, 0.25) <= 1.0
        assert math.isnan(regularized_incomplete_beta(2.0, 3.0, math.nan))


class TestTDistribution:
    @pytest.mark.parametrize("df", [2, 10, 100])
    def test_two_sided_p_matches_monte_carlo(self, df):
        rng = np.random.default_rng(900 + df)
        samples = np.abs(rng.standard_t(df, size=10**6))
        for t in (-2.0, -0.5, 0.0, 0.5, 1.0, 2.0):
            emp = float((samples >= abs(t)).mean())
            se = math.sqrt(max(emp * (1 - emp), 1e-12) / samples.size)
            assert abs(t_two_sided_p(t, df) - emp) < 3 * se, (df, t)

    @pytest.mark.parametrize("df", [1, 2, 5, 30, 250])
    def test_two_sided_p_matches_series_and_scipy(self, df):
        for t in (-4.0, -1.3, -0.2, 0.0, 0.7, 2.1, 6.0):
            mine = t_two_sided_p(t, df)
            assert mine == pytest.approx(t_two_sided_p_series(t, df), abs=1e-12)
            assert mine == pytest.approx(2 * float(scipy.stats.t.sf(abs(t), df)), abs=1e-12)

    def test_extremes(self):
        assert t_two_sided_p(0.0, 5) == 1.0
        assert t_two_sided_p(math.inf, 5) == 0.0


class TestBlandAltman:
    def test_identical_series(self):
        a = [3.0, 7.0, 11.0]
        result = bland_altman(a, a)
        assert result.bias == 0.0
        assert result.loa_low == 0.0 and result.loa_high == 0.0
        assert result.cv_percent == 0.0 and result.rpc_percent == 0.0
        assert result.r_squared == 1.0

    def test_three_pair_worked_example(self):
        result = bland_altman([10.0, 20.0, 30.0], [12.0, 18.0, 33.0])
        assert result.n == 3
        assert result.bias == pytest.approx(1.0)
        assert result.sd_diff == pytest.approx(math.sqrt(7.0), abs=1e-12)
        assert result.loa_low == pytest.approx(1.0 - 1.96 * math.sqrt(7.0), abs=1e-9)
        assert result.loa_high == pytest.approx(1.0 + 1.96 * math.sqrt(7.0), abs=1e-9)

    def test_matches_independent_recomputation(self, rng):
        for _ in range(20):
            n = int(rng.integers(3, 40))
            a = rng.normal(20.0, 5.0, n)
            b = a + rng.normal(1.0, 2.0, n)
            r = bland_altman(a, b)
            d = (b - a).astype(np.longdouble)
            mean_l = float(d.mean())
            sd_l = float(np.sqrt((np.abs(d - d.mean()) ** 2).sum() / (n - 1)))
            assert r.bias == pytest.approx(mean_l, rel=1e-12, abs=1e-12)
            assert r.sd_diff == pytest.approx(sd_l, rel=1e-10)
            gm = float(((a + b) / 2.0).mean())
            assert r.cv_percent == pytest.approx(100.0 * sd_l / gm, rel=1e-9)
            assert r.rpc_percent == pytest.approx(1.96 * r.cv_percent, abs=1e-9)
            r_scipy = scipy.stats.pearsonr(a, b).statistic
            assert r.r_squared == pytest.approx(r_scipy**2, abs=1e-10)

    def test_rpc_is_196_cv(self, rng):
        a = rng.normal(10, 2, 25)
        b = a + rng.normal(0, 1, 25)
        r = bland_altman(a, b)
        assert abs(r.rpc_percent - 1.96 * r.cv_percent) < 1e-9

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10**6), st.floats(-50, 50), st.floats(0.1, 20))
    def test_shift_and_scale_invariances(self, seed, shift, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(30.0, 4.0, 12)
        b = a + rng.normal(0.5, 1.5, 12)
        base = bland_altman(a, b)
        shifted = bland_altman(a + shift, b + shift)
        assert shifted.bias == pytest.approx(base.bias, abs=1e-9)
        assert shifted.sd_diff == pytest.approx(base.sd_diff, abs=1e-9)
        assert shifted.r_squared == pytest.approx(base.r_squared, abs=1e-9)
        scaled = bland_altman(a * scale, b * scale)
        assert scaled.bias == pytest.approx(base.bias * scale, rel=1e-9, abs=1e-9)
        assert scaled.cv_percent == pytest.approx(base.cv_percent, rel=1e-9)
        assert scaled.rpc_percent == pytest.approx(base.rpc_percent, rel=1e-9)
        assert scaled.r_squared == pytest.approx(base.r_squared, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            bland_altman([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_too_few_pairs(self):
        with pytest.raises(TooFewPairs):
            bland_altman([1.0, 2.0], [1.0, 2.0])

    def test_zero_mean_reference(self):
        with pytest.raises(ZeroMeanReference):
            bland_altman([-1.0, 0.0, 1.0], [1.0, 0.0, -1.0])

    def test_points(self):
        pts = bland_altman_points([10.0, 20.0], [12.0, 18.0])
        assert pts == [(11.0, 2.0), (19.0, -2.0)]


class TestPairedTTest:
    def test_identical(self):
        r = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert r.t == 0.0 and r.p == 1.0 and not r.degenerate

    def test_hand_example(self):
        # d = [1, -1, 2]
        r = paired_ttest([2.0, 1.0, 5.0], [1.0, 2.0, 3.0])
        assert r.df == 2
        assert r.t == pytest.approx(0.7559289, abs=1e-6)
        assert r.p == pytest.approx(0.5286, abs=2e-4)
        ref = scipy.stats.ttest_rel([2.0, 1.0, 5.0], [1.0, 2.0, 3.0])
        assert r.t == pytest.approx(float(ref.statistic), abs=1e-12)
        assert r.p == pytest.approx(float(ref.pvalue), abs=1e-12)

    def test_antisymmetric(self, rng):
        a = rng.normal(5, 2, 15)
        b = rng.normal(5, 2, 15)
        fwd = paired_ttest(a, b)
        rev = paired_ttest(b, a)
        assert fwd.t == pytest.approx(-rev.t, abs=1e-12)
        assert fwd.p == pytest.approx(rev.p, abs=1e-12)

    def test_constant_nonzero_difference_degenerate(self):
        r = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert r.degenerate and r.p == 0.0 and math.isinf(r.t)

    def test_matches_scipy_random(self, rng):
        for _ in range(20):
            n = int(rng.integers(2, 50))
            a = rng.normal(0, 1, n)
            b = a + rng.normal(0.3, 1, n)
            mine = paired_ttest(a, b)
            ref = scipy.stats.ttest_rel(a, b)
            assert mine.t == pytest.approx(float(ref.statistic), rel=1e-10)
            assert mine.p == pytest.approx(float(ref.pvalue), abs=1e-10)


class TestDesignMatrix:
    def _records(self, n=40, seed=5):
        return synthetic_cohort(
            n_per_group=(n - 10, 6, 4), f_per_group=(n // 3, 3, 2), seed=seed
        )

    def test_full_design_shape_and_names(self):
        records = synthetic_cohort(seed=1)
        dm = build_design_matrix(records, "adni_ef", "wmh_stackgen", DEFAULT_COVARIATES)
        assert dm.X.shape == (290, 9)
        assert dm.names == (
            "intercept",
            "wmh_stackgen",
            "age",
            "icv",
            "sex",
            "education",
            "apoe4",
            "diagnosis_MCI",
            "diagnosis_AD",
        )
        assert dm.n_dropped == 0
        assert np.all(dm.X[:, 0] == 1.0)

    def test_missing_rows_dropped_and_counted(self):
        records = self._records()
        records[3].apoe4 = None
        records[7].adni_ef = None
        dm = build_design_matrix(records, "adni_ef", "wmh_stackgen", DEFAULT_COVARIATES)
        assert dm.n_dropped == 2
        assert dm.X.shape[0] == len(records) - 2

    def test_all_cn_cohort_collinear_dummies(self):
        records = synthetic_cohort(n_per_group=(30, 0, 0), f_per_group=(15, 0, 0), seed=2)
        dm = build_design_matrix(records, "adni_ef", "wmh_stackgen", DEFAULT_COVARIATES)
        assert np.all(dm.X[:, 7:] == 0.0)
        with pytest.raises(RankDeficient):
            ols_regress(dm.X, dm.y, dm.names)

    def test_sex_coding(self):
        records = [
            SubjectRecord(id="a", age=70, sex="F", education=12, apoe4=0, diagnosis="CN",
                          icv_ml=1400, wmh_stackgen_ml=2.0, adni_ef=0.1),
            SubjectRecord(id="b", age=71, sex="M", education=13, apoe4=1, diagnosis="CN",
                          icv_ml=1500, wmh_stackgen_ml=3.0, adni_ef=0.2),
            SubjectRecord(id="c", age=72, sex="M", education=14, apoe4=2, diagnosis="MCI",
                          icv_ml=1450, wmh_stackgen_ml=4.0, adni_ef=-0.1),
        ]
        dm = build_design_matrix(records, "adni_ef", "wmh_stackgen", ("sex",))
        assert dm.names == ("intercept", "wmh_stackgen", "sex")
        assert dm.X[:, 2].tolist() == [0.0, 1.0, 1.0]

    def test_unknown_covariate(self):
        with pytest.raises(ValueError):
            build_design_matrix(self._records(), "adni_ef", "wmh_stackgen", ("height",))

    def test_no_complete_rows(self):
        records = [SubjectRecord(id="a", diagnosis="CN")]
        with pytest.raises(NoCompleteRows):
            build_design_matrix(records, "adni_ef", "wmh_stackgen", ("age",))


class TestOLS:
    def test_exact_fit(self):
        x = np.arange(10.0)
        X = np.column_stack([np.ones(10), x])
        y = 1.0 + 2.0 * x
        r = ols_regress(X, y, names=("intercept", "x"))
        assert r.exact_fit
        assert r.estimates == pytest.approx([1.0, 2.0], abs=1e-10)
        assert r.r_squared == 1.0
        assert np.all(r.p_values == 0.0)

    def test_matches_normal_equations_oracle(self, rng):
        for _ in range(20):
            n = int(rng.integers(30, 80))
            k = int(rng.integers(2, 6))
            X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
            beta_true = rng.normal(size=k)
            y = X @ beta_true + rng.normal(0, 0.7, n)
            mine = ols_regress(X, y)
            beta_o, se_o, t_o, p_o, r2_o = ols_normal_equations(X, y)
            np.testing.assert_allclose(mine.estimates, beta_o, rtol=1e-8)
            np.testing.assert_allclose(mine.std_errors, se_o, rtol=1e-7)
            np.testing.assert_allclose(mine.p_values, p_o, atol=1e-6)
            assert mine.r_squared == pytest.approx(r2_o, abs=1e-9)

    def test_residuals_orthogonal_to_design(self, rng):
        n, k = 60, 5
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = rng.normal(size=n)
        r = ols_regress(X, y)
        resid = y - X @ r.estimates
        rel = np.abs(X.T @ resid).max() / max(np.abs(y).max(), 1.0)
        assert rel < 1e-6

    def test_random_50x4_system(self, rng):
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 3))])
        y = rng.normal(size=50)
        mine = ols_regress(X, y)
        beta_o, *_ = ols_normal_equations(X, y)
        np.testing.assert_allclose(mine.estimates, beta_o, rtol=1e-8)

    def test_rank_deficient(self, rng):
        x = rng.normal(size=20)
        X = np.column_stack([np.ones(20), x, 2.0 * x])
        with pytest.raises(RankDeficient):
            ols_regress(X, rng.normal(size=20))

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            ols_regress(np.ones((3, 3)), np.ones(3))


class TestSyntheticAssociation:
    def test_negative_effect_detected(self):
        records = synthetic_cohort(seed=17, target_exposure_t=3.0)
        for outcome in ("adni_ef", "adni_mem", "adni_lan"):
            dm = build_design_matrix(records, outcome, "wmh_stackgen", DEFAULT_COVARIATES)
            r = ols_regress(dm.X, dm.y, dm.names, dm.n_dropped)
            c = r.coefficient("wmh_stackgen")
            assert c["estimate"] < 0, outcome
            assert c["p"] < 0.05, outcome

    def test_null_effect_p_uniform(self):
        ps = []
        for seed in range(60):
            records = synthetic_cohort(
                n_per_group=(40, 15, 5), f_per_group=(20, 8, 2), seed=seed, wmh_effect=0.0
            )
            dm = build_design_matrix(records, "adni_mem", "wmh_stackgen", DEFAULT_COVARIATES)
            r = ols_regress(dm.X, dm.y, dm.names)
            ps.append(r.coefficient("wmh_stackgen")["p"])
        stat = scipy.stats.kstest(ps, "uniform")
        assert stat.pvalue > 0.01
