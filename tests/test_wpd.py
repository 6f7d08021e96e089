"""Gamma-ratio weighted Poisson family: normalizer, recursions, dispersion."""

import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from countfam import wpd
from countfam import (
    ConvergenceError,
    DomainError,
    EvaluationError,
    SpecialCase,
    WpdParams,
    dispersion_classify,
    eta,
    log_weight,
    make_special_case,
    sufficient_condition_check,
    turan_check,
    weight,
    weight_fn,
    wpd_factorial_moments,
    wpd_factorial_moments_faa,
    wpd_pmf,
    wpd_pmf_recursive,
    wpd_pmf_table,
    wpd_summary,
)
from countfam.wpd import SLICE_PARAMS, pmf_multiplier, slice_jacobian


def brute_eta(p, kmax=400):
    return math.fsum(
        math.exp(k * math.log(p.lam) - math.lgamma(k + 1) + log_weight(p, k))
        for k in range(kmax)
        if log_weight(p, k) > -math.inf
    )


class _SignedLogSum:
    """Accumulates sum of sign_j * exp(logmag_j) in a max-shifted frame.

    Uses Neumaier compensation; tracks the magnitude pile-up so the caller
    can detect catastrophic cancellation.
    """

    def __init__(self):
        self.shift = -math.inf
        self.s = 0.0
        self.comp = 0.0
        self.abs_s = 0.0

    def add(self, logmag: float, sign: float):
        if sign == 0.0 or logmag == -math.inf:
            return
        if logmag > self.shift:
            scale = math.exp(self.shift - logmag) if self.shift > -math.inf else 0.0
            self.s *= scale
            self.comp *= scale
            self.abs_s *= scale
            self.shift = logmag
        t = sign * math.exp(logmag - self.shift)
        new = self.s + t
        if abs(self.s) >= abs(t):
            self.comp += (self.s - new) + t
        else:
            self.comp += (t - new) + self.s
        self.s = new
        self.abs_s += abs(t)

    @property
    def total_scaled(self) -> float:
        return self.s + self.comp

    def value(self) -> float:
        if self.shift == -math.inf:
            return 0.0
        t = self.total_scaled
        return math.copysign(math.exp(self.shift + math.log(abs(t))), t) if t != 0.0 else 0.0

    def cancel_ratio(self) -> float:
        t = abs(self.total_scaled)
        if self.abs_s == 0.0:
            return 1.0
        return self.abs_s / max(t, 5e-324 / max(math.exp(min(self.shift, 0.0)), 5e-324))


def loop_eta(p):
    """The per-term loop that summed eta before the blocked sum: the oracle
    for its truncation point, its refusals and its value."""
    acc = _SignedLogSum()
    prev_ratio = math.inf
    dec_run = 0
    certified = False
    k = 0
    lt = wpd._log_term(p, 0)
    if lt == -math.inf:
        k = 1
        lt = wpd._log_term(p, 1)
    acc.add(lt, 1.0)
    while k < wpd._ETA_BUDGET:
        next_lt = wpd._log_term(p, k + 1)
        ratio = math.exp(min(next_lt - lt, 700.0))
        if ratio <= prev_ratio * (1.0 + 1e-12):
            dec_run += 1
        else:
            dec_run = 0
            certified = False
        if dec_run >= wpd._DEC_RUN and ratio < wpd._ETA_EPS:
            certified = True
        if certified:
            log_bound = next_lt - math.log1p(-ratio)
            if log_bound < math.log(1e-15) + acc.shift + math.log(max(acc.total_scaled, 1e-300)):
                log_sum = acc.shift + math.log(acc.total_scaled)
                if log_sum > 709.0:
                    raise EvaluationError("eta overflows float64")
                bound = math.exp(log_bound) if log_bound > -745.0 else 5e-324
                return wpd.EtaValue(math.exp(log_sum) + bound, k, bound, log_sum)
        k += 1
        acc.add(next_lt, 1.0)
        prev_ratio = ratio
        lt = next_lt
    raise ConvergenceError("eta budget")


def _outcome(f, p):
    try:
        return f(p)
    except (ConvergenceError, EvaluationError) as exc:
        return type(exc)


def assert_same_eta(p, f=eta):
    """eta(p) stops where the loop stops, refuses as it refuses, and agrees
    with its log value within 1e-12, or within the rounding of the log terms
    where that is larger."""
    want, got = _outcome(loop_eta, p), _outcome(f, p)
    if isinstance(want, type) or isinstance(got, type):
        assert got == want, p
        return
    assert got.k_trunc == want.k_trunc, p
    # a log term is the difference of parts as large as k |log lam| and
    # log k!, each rounded on its own: past some thousand terms one ulp of
    # them exceeds 1e-12 (alt_generalized_ml, alpha = 0.11, gamma = 1.77,
    # lam = 2 sums 13,545 terms to log eta = 574; there the loop is 3.1e-12
    # and the blocked sum 1.5e-12 off a 40-digit mpmath sum)
    k = got.k_trunc
    tol = max(1e-12, 2.0**-52 * (k * abs(math.log(p.lam)) + math.lgamma(k + 1)))
    assert abs(got.log_value - want.log_value) <= tol, p
    assert math.isclose(got.value, want.value, rel_tol=2 * tol)
    assert math.isclose(got.remainder_bound, want.remainder_bound, rel_tol=1e-9)


_BOX = {
    "lam": st.floats(0.05, 60.0),
    "nu": st.floats(0.05, 5.0),
    "beta": st.floats(0.05, 5.0),
    "gamma": st.floats(0.05, 5.0),
    "alpha": st.floats(0.1, 1.0),
}


@st.composite
def slice_params(draw):
    tag = draw(st.sampled_from(list(SpecialCase)))
    free = {name: draw(_BOX[name]) for name in wpd.SLICE_PARAMS[tag]}
    if tag is SpecialCase.MODEL_I and draw(st.booleans()):
        # the beta = 0 limit, admitted for nu >= 1
        free["beta"], free["nu"] = 0.0, draw(st.floats(1.0, 5.0))
    return make_special_case(tag, **free)


# COM-Poisson near nu = 0.055, lam = 1.59 needs about 31k terms, the longest
# sum a compare of the benchmark's data asks for
LONG_SUM = make_special_case("com_poisson", lam=1.59, nu=0.055)
# lam^(1/nu) astronomically large: certificate unreachable within budget
BUDGET_REFUSAL = make_special_case("model_i", lam=10.0, beta=0.5, nu=0.1)


# model I and its two-parameter form at their moment starts on FPD(0.85, 50)
# data: lam^(1/nu) far beyond the budget, and no ratio below 0.9 after k = 0
MOMENT_START_I = make_special_case("model_i", lam=52.6, beta=1.0, nu=0.05)
MOMENT_START_I2 = make_special_case("model_i_2param", lam=52.6, beta=0.05)
# ratios below 0.9 only in the first 85 steps (rising to 0.91), and only from
# k = 50,000 on (lam (k + 1)^-nu)
EARLY_ONLY = WpdParams(1.0, 1.0, 0.05, 0.0, 0.91)
LATE_ONLY = make_special_case("model_i", lam=0.9 * 50_000.5**0.05, beta=1.0, nu=0.05)
# the cells of criterion 11 whose certificate is out of reach
CRITERION_11_REFUSALS = [
    make_special_case("model_i", lam=lam, beta=beta, nu=0.1)
    for beta in (0.1, 0.5, 2.0) for lam in (5.0, 10.0)
]


@st.composite
def long_sums(draw):
    """Laws whose eta sum outlives its first block: the moment starts of
    model I and its two-parameter form on FPD(0.85, 50)-like data, nu = 0
    with 0.901 <= lam < 1, and model I whose ratio falls below 0.9 only late
    in the budget.

    At nu = 0 and gamma < 1 the ratio lam (k + gamma) / (k + 1) rises to lam.
    For lam within about 1e-5 above 0.9 and below it stays under 0.9 through
    the budget and the sum stops where rounding has flattened the ratio,
    which the loop and the blocked sum reach at different steps (lam = 0.9,
    gamma = 0.5: k = 64,594 and 64,397, log values 2e-16 apart)."""
    kind = draw(st.sampled_from(["model_i", "model_i_2param", "nu_zero", "late"]))
    lam = draw(st.floats(30.0, 70.0))
    small = draw(st.floats(0.05, 0.3))
    if kind == "model_i":
        return make_special_case("model_i", lam=lam, beta=1.0, nu=small)
    if kind == "model_i_2param":
        return make_special_case("model_i_2param", lam=lam, beta=small)
    if kind == "nu_zero":
        return WpdParams(draw(_BOX["alpha"]), draw(_BOX["beta"]), draw(_BOX["gamma"]), 0.0,
                         draw(st.floats(0.901, 1.0, exclude_max=True)))
    # at beta = 1 the ratio is lam (k + 1)^-nu; it crosses 0.9 half way
    # between two steps, where rounding cannot move the crossing
    crossing = draw(st.integers(1_000, 99_000)) + 0.5
    return make_special_case("model_i", lam=0.9 * crossing**small, beta=1.0, nu=small)


CATALOG = [
    make_special_case("poisson", lam=2.0),
    make_special_case("com_poisson", lam=2.0, nu=2.0),
    make_special_case("com_poisson", lam=2.0, nu=0.5),
    make_special_case("hyper_poisson", lam=2.0, beta=3.0),
    make_special_case("alt_mittag_leffler", lam=2.0, alpha=0.6, beta=0.8),
    make_special_case("fractional_com_poisson", lam=2.0, alpha=0.6, beta=0.8, nu=1.3),
    make_special_case("alt_generalized_ml", lam=2.0, alpha=0.7, beta=0.9, gamma=1.5),
    make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1),
    make_special_case("model_i", lam=2.0, beta=0.1, nu=1.1),
    make_special_case("model_i_2param", lam=2.0, beta=2.0),
    make_special_case("model_ii", lam=2.0, beta=2.0, gamma=1.0),
    make_special_case("model_ii_2param", beta=2.0, gamma=1.0),
]


# the ten slices written out by hand: their free parameters, in the order
# they are passed, and (alpha, beta, gamma, nu, lam) in terms of them
HAND_FORMS = {
    "poisson": (("lam",), lambda f: (1.0, 1.0, 1.0, 1.0, f["lam"])),
    "com_poisson": (("lam", "nu"), lambda f: (1.0, 1.0, 1.0, f["nu"], f["lam"])),
    "hyper_poisson": (("lam", "beta"), lambda f: (1.0, f["beta"], 1.0, 1.0, f["lam"])),
    "alt_mittag_leffler": (
        ("lam", "alpha", "beta"), lambda f: (f["alpha"], f["beta"], 1.0, 1.0, f["lam"])),
    "fractional_com_poisson": (
        ("lam", "alpha", "beta", "nu"), lambda f: (f["alpha"], f["beta"], 1.0, f["nu"], f["lam"])),
    "alt_generalized_ml": (
        ("lam", "alpha", "beta", "gamma"),
        lambda f: (f["alpha"], f["beta"], f["gamma"], 1.0, f["lam"])),
    "model_i": (("lam", "beta", "nu"), lambda f: (1.0, f["beta"], f["beta"], f["nu"], f["lam"])),
    "model_i_2param": (("lam", "beta"), lambda f: (1.0, f["beta"], f["beta"], f["beta"], f["lam"])),
    "model_ii": (
        ("lam", "beta", "gamma"), lambda f: (1.0, f["beta"], f["gamma"], 1.0, f["lam"])),
    "model_ii_2param": (("beta", "gamma"), lambda f: (1.0, f["beta"], f["gamma"], 1.0, 1.0)),
}


class TestParams:
    def test_special_cases(self):
        # every tag against its hand-written form, with float and int arguments
        for tag in SpecialCase:
            names, form = HAND_FORMS[tag.value]
            assert SLICE_PARAMS[tag] == names
            for values in [(2.5, 0.7, 1.3, 0.4), (3, 1, 2, 5)]:
                free = dict(zip(names, values))
                p = make_special_case(tag.value, **free)
                got = (p.alpha, p.beta, p.gamma, p.nu, p.lam)
                assert got == form(free)
                assert [type(v) for v in got] == [type(v) for v in form(free)]
                assert p.tag is tag

    @pytest.mark.parametrize("tag", [t.value for t in SpecialCase])
    def test_slice_jacobian_is_the_unit_steps(self, tag):
        # column j is the change of (lam, beta, gamma, nu) under a unit step
        # of the j-th free parameter
        names, form = HAND_FORMS[tag]

        def at(theta):
            alpha, beta, gamma, nu, lam = form(dict(zip(names, theta)))
            return np.array([lam, beta, gamma, nu])

        base = (2.0,) * len(names)
        steps = [base[:j] + (3.0,) + base[j + 1:] for j in range(len(names))]
        want = np.column_stack([at(step) - at(base) for step in steps])
        jac = slice_jacobian(SpecialCase(tag))
        assert jac.dtype == want.dtype and np.array_equal(jac, want)
        assert not jac.flags.writeable

    def test_validation(self):
        with pytest.raises(DomainError):
            WpdParams(0.0, 0.0, 1.0, 1.0, 1.0)  # alpha + beta = 0
        with pytest.raises(DomainError):
            WpdParams(1.0, 1.0, 0.0, 1.0, 1.0)  # gamma = 0 with beta > 0
        with pytest.raises(DomainError):
            WpdParams(1.0, 1.0, 1.0, -0.1, 1.0)
        with pytest.raises(DomainError):
            WpdParams(1.0, 1.0, 1.0, 1.0, 0.0)

    def test_beta_zero_model_i_limit(self):
        p = WpdParams(1.0, 0.0, 0.0, 1.5, 1.0, tag=SpecialCase.MODEL_I)
        assert log_weight(p, 0) == -math.inf  # zero cell carries no weight
        assert weight(p, 1) == pytest.approx(1.0)
        with pytest.raises(DomainError):
            WpdParams(1.0, 0.0, 0.0, 0.5, 1.0)  # nu < 1 not admitted

    def test_special_case_rejects_bad_args(self):
        with pytest.raises(DomainError):
            make_special_case("poisson", lam=2.0, nu=1.0)
        with pytest.raises(DomainError):
            make_special_case("com_poisson", lam=2.0)


class TestWeight:
    def test_poisson_unity(self):
        p = make_special_case("poisson", lam=3.0)
        for k in (0, 1, 5, 20):
            assert weight(p, k) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_ratio(self):
        p = WpdParams(1.0, 2.0, 1.0, 1.0, 1.0)
        assert weight(p, 3) == pytest.approx(math.gamma(4.0) / math.gamma(5.0), rel=1e-14)

    def test_half_powers(self):
        p = WpdParams(1.0, 0.5, 0.5, 2.0, 1.0)
        assert weight(p, 0) == pytest.approx(1.0 / math.sqrt(math.pi), rel=1e-13)

    def test_overflow_guard(self):
        p = WpdParams(1.0, 1.0, 1.0, 0.0, 1.0)  # w(k) = k!
        with pytest.raises(EvaluationError):
            weight(p, 200)


class TestEta:
    def test_poisson(self):
        e = eta(make_special_case("poisson", lam=2.0))
        assert e.value == pytest.approx(math.exp(2.0), rel=1e-13)
        assert e.remainder_bound < 1e-12
        assert e.value >= math.exp(e.log_value) - 1e-12

    def test_model_i_squared_factorials(self):
        p = make_special_case("model_i", lam=1.0, beta=1.0, nu=2.0)
        brute = math.fsum(1.0 / math.factorial(k) ** 2 for k in range(60))
        assert eta(p).value == pytest.approx(brute, rel=1e-13)

    @pytest.mark.parametrize("p", CATALOG, ids=lambda p: f"{p.tag}-{p.lam}")
    def test_remainder_bound_dominates(self, p):
        e = eta(p)
        extended = brute_eta(p, kmax=10 * max(e.k_trunc, 4) + 20)
        assert abs(e.value - extended) <= e.remainder_bound + 1e-13 * extended

    def test_budget_refusal(self):
        t0 = time.perf_counter()
        with pytest.raises(ConvergenceError):
            eta(BUDGET_REFUSAL)
        assert time.perf_counter() - t0 < 1.0


class TestEtaMatchesLoop:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(p=slice_params())
    def test_box(self, p):
        assert_same_eta(p)

    @pytest.mark.parametrize("p", [LONG_SUM, BUDGET_REFUSAL], ids=["long_sum", "budget"])
    def test_across_blocks(self, p):
        assert_same_eta(p)
        if p is LONG_SUM:
            assert eta(p).k_trunc > 4 * wpd._ETA_BLOCK

    @pytest.mark.parametrize("first,block", [(2, 2), (5, 7)])
    def test_narrow_blocks(self, monkeypatch, first, block):
        # every few steps carry the sum, ratio, run and certificate across a
        # block boundary
        monkeypatch.setattr(wpd, "_ETA_FIRST", first)
        monkeypatch.setattr(wpd, "_ETA_BLOCK", block)
        for p in CATALOG + [make_special_case("model_i", lam=2.0, beta=0.0, nu=1.5),
                            make_special_case("model_i", lam=3.0, beta=0.0, nu=1.0),
                            make_special_case("com_poisson", lam=1.5, nu=0.2)]:
            assert_same_eta(p, eta.__wrapped__)

    def test_memory_bounded(self):
        tracemalloc.start()
        try:
            eta.__wrapped__(LONG_SUM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    @settings(max_examples=24, deadline=None, derandomize=True)
    @given(p=long_sums())
    @example(p=MOMENT_START_I)
    @example(p=MOMENT_START_I2)
    @example(p=EARLY_ONLY)
    @example(p=LATE_ONLY)
    def test_long_sums(self, p):
        assert_same_eta(p, eta.__wrapped__)

    @pytest.mark.parametrize("p", CRITERION_11_REFUSALS, ids=str)
    def test_criterion_11_refusals(self, p):
        assert_same_eta(p, eta.__wrapped__)

    @pytest.mark.parametrize("p,refused", [
        *((p, True) for p in [BUDGET_REFUSAL, MOMENT_START_I, MOMENT_START_I2,
                              *CRITERION_11_REFUSALS]),
        (EARLY_ONLY, False),
        (LATE_ONLY, False),
    ])
    def test_refused_without_walking(self, monkeypatch, p, refused):
        # a sum no step of which could certify is refused after its first
        # block; a sum with such a step, however early or late, is walked
        folds = []

        def counted(*args):
            folds.append(1)
            return fold(*args)

        fold = wpd._fold
        monkeypatch.setattr(wpd, "_fold", counted)
        if refused:
            with pytest.raises(ConvergenceError, match="within"):
                eta.__wrapped__(p)
            assert len(folds) == 1
        else:
            _outcome(eta.__wrapped__, p)
            assert len(folds) > 1

    @pytest.mark.parametrize("alpha,beta,gamma,lam", [
        (1.0, 0.5, 0.3, 1.0),
        (1.0, 2.0, 4.0, 1.0),
        (0.6, 0.05, 1.0, 1.5),
        (0.25, 3.0, 0.7, 40.0),
    ])
    def test_divergent_nu_zero_refused_at_once(self, monkeypatch, alpha, beta, gamma, lam):
        # at nu = 0 the term ratio lam (k + gamma) / (k + 1) rises to lam >= 1:
        # the loop runs its whole budget and refuses; eta refuses before it
        # evaluates a term
        p = WpdParams(alpha, beta, gamma, 0.0, lam)
        with pytest.raises(ConvergenceError):
            loop_eta(p)

        def no_terms(*args):
            raise AssertionError("eta evaluated terms of a divergent sum")

        monkeypatch.setattr(wpd, "_log_terms", no_terms)
        with pytest.raises(ConvergenceError, match="within"):
            eta.__wrapped__(p)


class TestPmf:
    def test_poisson_value(self):
        p = make_special_case("poisson", lam=1.0)
        assert wpd_pmf(p, 0) == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_com_poisson_brute(self):
        p = make_special_case("com_poisson", lam=1.0, nu=2.0)
        brute = (1.0 / math.factorial(2) ** 2) / math.fsum(
            1.0 / math.factorial(j) ** 2 for j in range(60)
        )
        assert wpd_pmf(p, 2) == pytest.approx(brute, rel=1e-12)

    def test_hyper_poisson_brute(self):
        p = make_special_case("hyper_poisson", lam=1.0, beta=2.0)
        # w(k) = 1/(k+1), eta = sum 1/(k+1)! = e - 1
        assert wpd_pmf(p, 0) == pytest.approx(1.0 / (math.e - 1.0), rel=1e-12)

    @pytest.mark.parametrize("p", CATALOG, ids=lambda p: f"{p.tag}-{p.lam}")
    def test_normalization(self, p):
        table = wpd_pmf_table(p)
        assert float(table.sum()) == pytest.approx(1.0, abs=1e-8)

    def test_matches_brute_normalizer(self):
        for p in CATALOG[:6]:
            brute = brute_eta(p)
            for x in (0, 1, 4):
                lw = log_weight(p, x)
                expect = math.exp(x * math.log(p.lam) - math.lgamma(x + 1) + lw) / brute
                assert wpd_pmf(p, x) == pytest.approx(expect, rel=1e-10)


class TestRecursion:
    def test_model_i_poisson_degenerate(self):
        p = make_special_case("model_i", lam=2.0, beta=1.0, nu=1.0)
        table = wpd_pmf_recursive(p, 12)
        for x in range(13):
            assert table[x] == pytest.approx(
                math.exp(-2.0 + x * math.log(2.0) - math.lgamma(x + 1)), rel=1e-12
            )

    def test_model_ii_gamma_cancel(self):
        p = make_special_case("model_ii", lam=2.0, beta=1.3, gamma=1.3)
        table = wpd_pmf_recursive(p, 12)
        for x in range(13):
            assert table[x] == pytest.approx(
                math.exp(-2.0 + x * math.log(2.0) - math.lgamma(x + 1)), rel=1e-12
            )

    @pytest.mark.parametrize(
        "p",
        [c for c in CATALOG if c.tag in (
            SpecialCase.POISSON, SpecialCase.COM_POISSON, SpecialCase.HYPER_POISSON,
            SpecialCase.MODEL_I, SpecialCase.MODEL_I_2PARAM, SpecialCase.MODEL_II,
            SpecialCase.MODEL_II_2PARAM,
        )],
        ids=lambda p: f"{p.tag}-{p.nu}-{p.beta}",
    )
    def test_recursive_matches_direct(self, p):
        table = wpd_pmf_recursive(p, 25)
        direct = np.array([wpd_pmf(p, x) for x in range(26)])
        np.testing.assert_allclose(table, direct, rtol=1e-12, atol=1e-300)

    def test_unsupported_tag(self):
        p = make_special_case("fractional_com_poisson", lam=1.0, alpha=0.5, beta=1.0, nu=2.0)
        with pytest.raises(DomainError):
            wpd_pmf_recursive(p, 5)

    def test_vanishing_zero_cell(self):
        # P(0) = 0 when beta = 0 and nu > 1, so no multiplier reaches P(1)
        with pytest.raises(DomainError):
            wpd_pmf_recursive(make_special_case("model_i", lam=2.0, beta=0.0, nu=1.5), 5)

    @pytest.mark.parametrize("p", [
        make_special_case("poisson", lam=3.0),
        make_special_case("com_poisson", lam=5.0, nu=2.0),
        make_special_case("com_poisson", lam=2.0, nu=0.3),
        make_special_case("hyper_poisson", lam=2.0, beta=0.7),
        make_special_case("model_i", lam=2.0, beta=0.4, nu=1.7),
        make_special_case("model_i", lam=2.0, beta=0.0, nu=1.0),
        make_special_case("model_i_2param", lam=2.0, beta=0.6),
        make_special_case("model_ii", lam=2.0, beta=2.0, gamma=1.0),
        make_special_case("model_ii_2param", beta=0.5, gamma=3.0),
    ], ids=lambda p: f"{p.tag.value}-{p.beta}")
    def test_table_matches_step_loop(self, p):
        x_max = 60
        step = np.empty(x_max + 1)
        step[0] = math.exp(log_weight(p, 0) - eta(p).log_value)
        for x in range(x_max):
            step[x + 1] = step[x] * pmf_multiplier(p, x)
        table = wpd_pmf_recursive(p, x_max)
        if p.tag in (SpecialCase.COM_POISSON, SpecialCase.MODEL_I, SpecialCase.MODEL_I_2PARAM):
            # NumPy's and Python's fractional powers may differ in the last bit
            np.testing.assert_allclose(table, step, rtol=1e-13, atol=0.0)
        else:
            assert np.array_equal(table, step)
        assert np.array_equal(wpd_pmf_recursive(p, 0), step[:1])


class TestFactorialMoments:
    def test_poisson(self):
        a = wpd_factorial_moments(make_special_case("poisson", lam=1.5), 3)
        for r in range(4):
            assert a[r] == pytest.approx(1.5**r, rel=1e-11)

    def test_order_zero(self):
        for p in CATALOG[:4]:
            assert wpd_factorial_moments(p, 0)[0] == 1.0

    def test_model_ii_first_moment_vs_pmf(self):
        p = make_special_case("model_ii", lam=1.0, beta=1.0, gamma=0.5)
        a = wpd_factorial_moments(p, 1)
        table = wpd_pmf_table(p, tail_tol=1e-16)
        direct = float(np.sum(np.arange(len(table)) * table))
        assert a[1] == pytest.approx(direct, rel=1e-9)

    @pytest.mark.parametrize("p", CATALOG[:8], ids=lambda p: f"{p.tag}-{p.lam}-{p.nu}")
    def test_vs_pmf_sums(self, p):
        a = wpd_factorial_moments(p, 4)
        table = wpd_pmf_table(p, tail_tol=1e-16)
        xs = np.arange(len(table), dtype=float)
        for k in range(1, 5):
            ff = np.ones_like(xs)
            for i in range(k):
                ff = ff * (xs - i)
            assert float(np.sum(ff * table)) == pytest.approx(a[k], rel=2e-6), (p, k)

    def test_faa_path_agrees(self):
        # lam must stay inside the reciprocal normalizer's disc of
        # analyticity for the Bell-polynomial route to converge
        cases = [
            make_special_case("poisson", lam=2.0),
            make_special_case("com_poisson", lam=1.0, nu=2.0),
            make_special_case("hyper_poisson", lam=1.0, beta=2.0),
            make_special_case("model_i_2param", lam=0.5, beta=2.0),
            make_special_case("model_ii", lam=1.0, beta=2.0, gamma=1.0),
        ]
        for p in cases:
            a_eta = wpd_factorial_moments(p, 3)
            a_faa = wpd_factorial_moments_faa(p, 3)
            for r in range(4):
                assert a_faa[r] == pytest.approx(a_eta[r], rel=1e-8), (p, r)

    def test_faa_poisson_first(self):
        a = wpd_factorial_moments_faa(make_special_case("poisson", lam=1.7), 1)
        assert a[1] == pytest.approx(1.7, rel=1e-10)


class TestDispersion:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (make_special_case("com_poisson", lam=5.0, nu=2.0), "underdispersed"),
            (make_special_case("com_poisson", lam=5.0, nu=0.5), "overdispersed"),
            (make_special_case("hyper_poisson", lam=5.0, beta=2.0), "overdispersed"),
            (make_special_case("hyper_poisson", lam=5.0, beta=0.5), "underdispersed"),
            (make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1), "overdispersed"),
            (make_special_case("model_i", lam=5.0, beta=0.1, nu=1.1), "underdispersed"),
            (make_special_case("model_ii", lam=2.0, beta=2.0, gamma=1.0), "overdispersed"),
            (make_special_case("model_ii", lam=2.0, beta=0.5, gamma=1.0), "underdispersed"),
            (make_special_case("poisson", lam=2.0), "equidispersed"),
        ],
        ids=lambda v: v if isinstance(v, str) else f"{v.tag}",
    )
    def test_classification(self, p, expected):
        assert dispersion_classify(p) == expected
        if expected != "equidispersed":
            s = wpd_summary(p)
            assert (s.fisher_index > 1.0) == (expected == "overdispersed")

    def test_turan_boundary(self):
        assert turan_check(lambda k: 1.0, 1.5) == "boundary"

    def test_turan_factorial_weights(self):
        assert turan_check(lambda k: float(math.factorial(min(k, 170))), 0.5) == "overdispersed"

    def test_turan_agrees_with_classifier(self):
        p = make_special_case("com_poisson", lam=5.0, nu=2.0)
        assert turan_check(weight_fn(p), 5.0) == "underdispersed"
        p2 = make_special_case("hyper_poisson", lam=5.0, beta=2.0)
        assert turan_check(weight_fn(p2), 5.0) == "overdispersed"

    def test_turan_sequence_input(self):
        seq = [1.0] * 80
        assert turan_check(seq, 2.0) == "boundary"
        with pytest.raises(ConvergenceError):
            turan_check([1.0, 2.0, 4.0], 2.0)  # far too short

    def test_turan_interior_zeros(self):
        # a zero weight adds no term; the certificate sees the ratio across it
        seq = [1.0, 2.0, 0.0, 0.0, 5.0, 1.0, 0.0, 2.0] + [1.0] * 60
        assert turan_check(seq, 2.0) == "overdispersed"
        assert turan_check(lambda k: 0.0 if k % 2 else float(k + 1), 1.5) == "underdispersed"

    def test_turan_weight_errors(self):
        # weights are read a block at a time; an error reading one is raised
        # only if the sum needs that weight
        def w(k, last):
            if k > last:
                raise OverflowError(k)
            return 1.0

        assert turan_check(lambda k: w(k, 70), 2.0) == "boundary"
        with pytest.raises(OverflowError):
            turan_check(lambda k: w(k, 10), 2.0)

    def test_turan_shortest_sequence(self):
        # 25 weights are the fewest with which the shifted series T^2 f
        # stops; the weight blocks are clipped at the sequence's end
        seq = [1.0 / (k + 1) for k in range(25)]
        assert turan_check(seq, 2.0) == "overdispersed"
        with pytest.raises(ConvergenceError):
            turan_check(seq[:-1], 2.0)

    def test_sufficient_condition(self):
        assert sufficient_condition_check(lambda k: 1.0, 10) == "inconclusive"
        assert sufficient_condition_check(lambda k: float(math.factorial(k)), 10) == "overdispersed"
        com2 = weight_fn(make_special_case("com_poisson", lam=1.0, nu=2.0))
        assert sufficient_condition_check(com2, 10) == "underdispersed"

    def test_sufficient_condition_short_sequence(self):
        with pytest.raises(DomainError):
            sufficient_condition_check([1.0, 1.0], 10)


class TestExponentialFamilyForm:
    def test_model_i_rank(self):
        # log pmf(x) + log x! must be affine in (log lam, 1 - nu) for fixed
        # beta: every such vector lies in the span of {x, lgamma(x+beta), 1}
        beta = 0.7
        xs = np.arange(0, 21, dtype=float)
        rows = []
        for lam in (0.5, 1.0, 2.0):
            for nu in (0.3, 1.0, 1.7):
                p = make_special_case("model_i", lam=lam, beta=beta, nu=nu)
                table = wpd_pmf_recursive(p, 20)
                rows.append(np.log(table) + [math.lgamma(x + 1) for x in xs])
        m = np.array(rows)
        sv = np.linalg.svd(m, compute_uv=False)
        assert sv[3] < 1e-8 * sv[0]


class TestSampleShapes:
    def test_figure_regimes_have_expected_dispersion(self):
        over = wpd_summary(make_special_case("model_i", lam=1.0, beta=0.5, nu=0.1))
        under = wpd_summary(make_special_case("model_i", lam=5.0, beta=0.1, nu=1.1))
        assert over.fisher_index > 1.0
        assert under.fisher_index < 1.0
