"""Direct shell summation: exact termination, optimal truncation, honesty.

The enumeration oracle (plain double loop over (n,p), no convolution,
no recurrences) is the reference everywhere a value is not checkable by
hand.
"""

import math
import random
from itertools import islice

import pytest

from chebgamma import (
    ConfigError,
    KernelDomainError,
    PoleError,
    SeriesParams,
    TruncationPolicy,
    closed_form,
    difference_series,
    growth_radius,
    series_sum,
    series_terminates,
    shell_coeff,
    shell_values,
)
from chebgamma._flags import collect
from chebgamma.chebyshev import _shell_stream
from oracles import double_sum_direct, finite_series_exact

E4 = math.exp(4.0)


def rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def params(alpha, beta, k, a_pi):
    return SeriesParams(a=a_pi / math.pi, k=k, alpha=alpha, beta=beta)


# -------------------------------------------------------------- termination

def test_series_terminates_examples():
    assert series_terminates(1.0) == 1
    assert series_terminates(0.5) is None
    assert series_terminates(0.0) == 0
    assert series_terminates(3.0 + 1e-13j) == 3
    assert series_terminates(-2.0) is None
    assert series_terminates(2.0 + 0.1j) is None


def test_pole_at_k_zero():
    with pytest.raises(PoleError):
        series_sum(params(0.2, 0.1, 0.0, 10.0))


def test_policy_validation():
    with pytest.raises(ConfigError):
        TruncationPolicy(mode="creative")
    with pytest.raises(ConfigError):
        TruncationPolicy(max_shell=2)
    with pytest.raises(ConfigError):
        TruncationPolicy(rel_tol=0.5)


@pytest.mark.parametrize("rel_tol", ["1e-8", 1e-8j])
def test_policy_refuses_a_rel_tol_that_is_not_real(rel_tol):
    with pytest.raises(ConfigError) as err:
        TruncationPolicy(rel_tol=rel_tol)
    assert str(err.value) == f"rel_tol must lie in (1e-16, 1e-1), got {rel_tol!r}"


def test_exact_if_terminating_is_read_as_optimal():
    assert TruncationPolicy().mode == "optimal"
    assert TruncationPolicy(mode="exact-if-terminating") == TruncationPolicy(mode="optimal")


# ------------------------------------------------------------ exact anchors

def test_order_one_is_two_shells():
    rng = random.Random(31)
    for _ in range(25):
        alpha, beta = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        z = rng.uniform(2.0, 40.0)
        res = series_sum(params(alpha, beta, 1.0, z))
        assert res.termination == "terminated-exactly"
        assert res.error_estimate == 0.0
        assert rel(res.value, 1.0 + (alpha + beta) / z) < 1e-14


def test_order_two_at_unit_arguments():
    z = 7.3
    res = series_sum(params(1.0, 1.0, 2.0, z))
    assert rel(res.value, 0.5 + 2.0 / z + 3.0 / z ** 2) < 1e-14


def test_exact_values_match_enumeration_oracle():
    rng = random.Random(32)
    for _ in range(40):
        k = rng.choice([1, 2, 3, 4, 5, 6])
        alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.4, 0.4))
        beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.4, 0.4))
        z = complex(rng.uniform(3.0, 30.0), rng.uniform(-5.0, 5.0))
        res = series_sum(params(alpha, beta, float(k), z))
        ref = finite_series_exact(alpha, beta, k, z)
        assert rel(res.value, ref) < 1e-12


def test_exact_termination_is_max_shell_invariant():
    rng = random.Random(33)
    for k in range(1, 7):
        alpha, beta = rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9)
        z = rng.uniform(4.0, 25.0)
        p = params(alpha, beta, float(k), z)
        base = series_sum(p, TruncationPolicy(max_shell=k + 4))
        for extra in (16, 64, 512):
            again = series_sum(p, TruncationPolicy(max_shell=extra))
            assert again.value == base.value
            assert again.termination == "terminated-exactly"


# ---------------------------------------------------------------- symmetry

def test_swap_symmetry_one_ulp():
    rng = random.Random(34)
    for _ in range(60):
        alpha = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.2, 0.2))
        beta = complex(rng.uniform(-0.95, 0.95), rng.uniform(-0.2, 0.2))
        k = rng.choice([1.0, 2.0, 3.0, -0.5, 1.7])
        z = rng.uniform(30.0, 80.0)
        va = series_sum(params(alpha, beta, k, z)).value
        vb = series_sum(params(beta, alpha, k, z)).value
        assert abs(va - vb) <= 2.3e-16 * abs(va)


def test_deep_shells_keep_symmetry_and_agree():
    # Deep shells come from the recurrence stream; swapping alpha and beta
    # must still be bit-identical, single shells must read the same
    # stream, and a deep exact sum must match the enumeration.
    rng = random.Random(37)
    for _ in range(12):
        k = float(rng.randint(60, 170))
        alpha = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.3, 0.3))
        beta = complex(rng.uniform(-1.2, 1.2), rng.uniform(-0.3, 0.3))
        z = rng.uniform(1.0, 3.0) * k
        for fn in (series_sum, difference_series):
            va = fn(params(alpha, beta, k, z)).value
            vb = fn(params(beta, alpha, k, z)).value
            assert math.isfinite(abs(va)) and va == vb
        q = rng.randrange(16, 64)
        assert shell_coeff(q, alpha, beta) == shell_values(q, alpha, beta)[q]
    alpha, beta, k, z = 0.35, -0.6, 120, 150.0
    res = series_sum(params(alpha, beta, float(k), z))
    assert res.shells_used == k + 1
    assert rel(res.value, finite_series_exact(alpha, beta, k, z)) < 1e-12


# ------------------------------------------------------- difference series

def test_difference_anchor_values():
    z = 13.0
    for c in (0.3, 1.0, 2.0, 5.0):
        res = difference_series(params(c, c, 1.0, z))
        assert rel(res.value, -4.0 * c / z) < 1e-13
    res = difference_series(params(1.0, 1.0, 2.0, z))
    assert rel(res.value, -4.0 / z) < 1e-13


def test_difference_vanishes_at_zero_arguments():
    for k in (1.0, 2.0, 5.0):
        res = difference_series(params(0.0, 0.0, k, 9.0))
        assert res.value == 0.0


def test_parity_reconstruction_100_draws():
    rng = random.Random(35)
    for _ in range(100):
        k = float(rng.choice([1, 2, 3]))
        alpha = rng.uniform(-0.9, 0.9)
        beta = rng.uniform(-0.9, 0.9)
        z = rng.uniform(5.0, 50.0)
        diff = difference_series(params(alpha, beta, k, z))
        plus = series_sum(params(alpha, beta, k, z))
        minus = series_sum(params(-alpha, -beta, k, z))
        budget = diff.error_estimate + plus.error_estimate + minus.error_estimate
        budget += 1e-13 * (abs(plus.value) + abs(minus.value))
        assert abs(diff.value - (minus.value - plus.value)) <= budget


# -------------------------------------------------- optimal truncation path

def test_non_integer_order_tracks_oracle_partial_sums():
    # For non-integer k in the asymptotic regime, the engine's value must
    # equal the oracle's partial sum at the shell count the engine reports.
    alpha, beta, k, z = 0.3, -0.55, -0.5, E4
    res = series_sum(params(alpha, beta, k, z), TruncationPolicy(mode="optimal"))
    assert res.termination in ("optimal-truncation", "tolerance-met")
    # shells_used counts contributing shells, so the last index is one less.
    ref = double_sum_direct(alpha, beta, k, z, res.shells_used - 1)
    assert rel(res.value, ref) < 1e-12
    assert res.error_estimate > 0.0


def test_fixed_mode_respects_shell_budget():
    alpha, beta, k, z = 0.2, 0.7, 1.4, 60.0
    res = series_sum(params(alpha, beta, k, z),
                     TruncationPolicy(mode="fixed", max_shell=6))
    assert res.shells_used <= 7
    assert rel(res.value, double_sum_direct(alpha, beta, k, z, res.shells_used - 1)) < 1e-13


def test_not_in_asymptotic_regime_warning():
    # Non-integer order with |a pi| below the growth/offset threshold must
    # carry the advisory warning; comfortably inside the regime must not.
    near = series_sum(params(0.99, 0.2, 0.5, 1.0), TruncationPolicy(mode="optimal"))
    assert "not-in-asymptotic-regime" in near.warnings
    far = series_sum(params(0.3, 0.2, 0.5, 80.0), TruncationPolicy(mode="optimal"))
    assert "not-in-asymptotic-regime" not in far.warnings


def test_shell_term_ratio_asymptotics():
    # |term_{q+1}| / |term_q| -> |k - q| * rho_max / |a pi| for large q:
    # the coefficient ratio tends to the growth radius and the weight
    # ratio contributes the |k - q| factor.
    from chebgamma import growth_radius, pochhammer_recip, shell_values

    alpha, beta, k, z = 1.5, 0.2, 0.5, 100.0
    rho = max(growth_radius(alpha), growth_radius(beta))
    coeffs = shell_values(42, alpha, beta)
    for q in (34, 38, 41):
        t_hi = abs(coeffs[q] * pochhammer_recip(k, q) / z ** q)
        t_lo = abs(coeffs[q - 1] * pochhammer_recip(k, q - 1) / z ** (q - 1))
        expect = abs(k - (q - 1)) * rho / z
        assert abs(t_hi / t_lo - expect) <= 0.25 * expect


def test_warning_trips_below_radius_guard_for_non_integer_k():
    rng = random.Random(36)
    for _ in range(40):
        alpha = rng.uniform(1.1, 2.2)  # growth radius > 1
        rho = alpha + math.sqrt(alpha * alpha - 1.0)
        z = rng.uniform(0.3, 0.999) * rho * 1.05
        res = series_sum(params(alpha, 0.1, 0.5, z), TruncationPolicy(mode="optimal"))
        assert "not-in-asymptotic-regime" in res.warnings


# ----------------------------------------------------------------- honesty

def test_error_estimate_bounds_closed_form_deviation():
    # Worked-example regime: k = -1/2, a*pi = e^4.  The reported estimate
    # must bound the actual deviation from the independent closed form in
    # at least 99 of 100 draws.
    rng = random.Random(3)
    z = E4
    failures = 0
    for _ in range(100):
        alpha = rng.uniform(-0.97, 0.97)
        beta = rng.uniform(-0.97, 0.97)
        if abs(alpha - beta) < 2e-3 or max(abs(alpha), abs(beta)) > 0.999:
            beta = -beta if abs(alpha + beta) > 2e-3 else 0.5 * beta
        res = series_sum(params(alpha, beta, -0.5, z), TruncationPolicy(mode="optimal"))
        ref = closed_form(params(alpha, beta, -0.5, z))
        if abs(res.value - ref) > res.error_estimate:
            failures += 1
    assert failures <= 1



# ------------------------------------------------------ pinned stop paths

@pytest.mark.parametrize("fn, point, mode, max_shell, expected", [
    # fixed mode still stops exactly at a terminating k
    (series_sum, (0.3, -0.55, 5.0, 10.0), "fixed", 512,
     (0.127779436 + 0j, 0.0, 6, "terminated-exactly", frozenset())),
    # exact bound q = 40 lies past the shell budget
    (series_sum, (0.3, -0.55, 40.0, 20.0), "exact-if-terminating", 8,
     (-2.7619504092642604 + 0j, 48.44995155005789, 9, "budget-exhausted",
      frozenset())),
    # non-terminating k runs out of budget below the asymptotic regime
    (series_sum, (0.3, -0.55, 2.5, 0.5), "fixed", 6,
     (-31.763229999999975 + 0j, 5040.000000000567, 7, "budget-exhausted",
      frozenset({"not-in-asymptotic-regime"}))),
    # odd shells only: the error is read at the next odd shell, q = 7
    (difference_series, (2.0, 2.0, 2.5, 30.0), "fixed", 5,
     (-0.2711794444444444 + 0j, 3.631070317757483e-05, 3, "budget-exhausted",
      frozenset())),
    # the exact sum overflows a double: only saturation is pinned
    (series_sum, (0.3, -0.55, 200.0, 0.5), "exact-if-terminating", 512, None),
    # the exact bound q = 9 lies past a budget that ends below an even
    # shell: the error is read at the next odd shell, q = 9
    (difference_series, (0.3, -0.55, 9.0, 20.0), "optimal", 7,
     (0.017801546589250004 + 0j, 1.5750004729597518e-06, 4, "budget-exhausted",
      frozenset())),
])
def test_stop_paths_are_pinned(fn, point, mode, max_shell, expected):
    res = fn(params(*point), TruncationPolicy(mode=mode, max_shell=max_shell))
    if expected is None:
        assert not (math.isfinite(res.value.real) and math.isfinite(res.value.imag))
        assert "overflow-saturation" in res.warnings
        return
    assert (res.value, res.error_estimate, res.shells_used, res.termination,
            res.warnings) == expected


@pytest.mark.parametrize("fn, point", [
    (series_sum, (0.41604005412965894, 0.8974609795516566 + 0.07079481248460817j,
                  216.0, 0.5659373537203659)),
    (difference_series, (0.7701201407593221, -1.1039435114636047 - 0.4165866162119851j,
                         152.0, 0.27444987193445824)),
])
@pytest.mark.parametrize("mode", ["exact-if-terminating", "optimal", "fixed"])
def test_shell_modulus_overflow_saturates(fn, point, mode):
    # the exact sum meets a finite shell whose modulus outgrows a double
    # (abs() raises for it): flagged saturation, never a bare OverflowError;
    # under fixed the stop-rule loop meets it and ends there, short of the
    # bound, with an error it cannot bound
    with collect() as flags:
        res = fn(params(*point), TruncationPolicy(mode=mode))
    if mode == "fixed":
        assert res.termination == "budget-exhausted" and res.error_estimate == math.inf
    else:
        assert res.termination == "terminated-exactly"
    assert "overflow-saturation" in res.warnings
    assert "overflow-saturation" in flags


@pytest.mark.parametrize("fn, point, shells", [
    (series_sum, (0.3, -0.4, 10.0, 1e-30), 11),
    (difference_series, (0.3, -0.55, 10.0, 1e-31), 5),
])
def test_fixed_exact_sum_is_not_flagged_for_the_power_past_it(fn, point, shells):
    # z^(-q) overflows at the shell just past the sum, which no exact sum
    # reads: fixed gives the bits of optimal, without a flag
    with collect() as flags:
        res = fn(params(*point), TruncationPolicy(mode="fixed"))
    assert res == fn(params(*point))
    assert res.termination == "terminated-exactly" and res.shells_used == shells
    assert 1e280 < abs(res.value) < 1e306
    assert not res.warnings and not flags


@pytest.mark.parametrize("fn, point, shells", [
    (series_sum, (-1.0574775055348942, -2.3068855467892155 + 0.22834474603345578j,
                  63.0, 0.0013422976091733902), 64),
    (difference_series, (-1.7218259643459315 - 1.6509526939394976j, 0.22619957680573632,
                         104.0, 0.2025681099954728), 52),
])
def test_finite_exact_sum_is_not_flagged_for_its_envelope(fn, point, shells):
    # the envelope (q+1) rho^q |z|^-q |1/(k)_{1-q}| overflows here, but no
    # exact sum reads it: the sum, every term and every weight are finite
    with collect() as flags:
        res = fn(params(*point))
    assert res.termination == "terminated-exactly" and res.shells_used == shells
    assert math.isfinite(res.value.real) and math.isfinite(res.value.imag)
    assert 1e303 < abs(res.value) < 1e307
    assert "overflow-saturation" not in res.warnings
    assert "overflow-saturation" not in flags


def _bounded_argument(rng, k):
    # real, inside or (where the oracle's products stay finite) outside [-1, 1]
    if k <= 120 and rng.random() < 0.5:
        return rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 2.0)
    return rng.uniform(-1.0, 1.0)


@pytest.mark.parametrize("fn", [series_sum, difference_series])
def test_terminating_sum_at_every_budget_matches_enumeration(fn):
    # The plain loop of a terminating k, from k = 1 to 170, with budgets
    # two below, one below, at and above the bound.  The enumeration
    # oracle is checked against an upper bound of the sum of the terms'
    # moduli (|T_n(x)| <= T_n(max(1, |x|)) and every weight is positive),
    # so shells that cancel do not loosen the check.
    rng = random.Random(38)
    shells_of = (lambda q: True) if fn is series_sum else (lambda q: q % 2 == 1)
    for lo, hi in ((1, 5), (6, 16), (17, 40), (41, 80), (81, 120), (121, 170)):
        k = rng.randint(lo, hi)
        alpha, beta = _bounded_argument(rng, k), _bounded_argument(rng, k)
        rho = max(growth_radius(alpha), growth_radius(beta))
        # z^k stays below the double range for the oracle
        z = min(rng.uniform(0.3, 3.0) * k * rho, 10.0 ** (290.0 / k))
        size = 2.0 * abs(double_sum_direct(max(1.0, abs(alpha)), max(1.0, abs(beta)),
                                           k, z, k))
        for budget in (k - 2, k - 1, k, k + 1):
            if budget < 4:
                continue
            policy = TruncationPolicy(max_shell=budget)
            res = fn(params(alpha, beta, float(k), z), policy)
            kept = min(budget, k)
            if fn is series_sum:
                ref = (finite_series_exact(alpha, beta, k, z) if kept == k
                       else double_sum_direct(alpha, beta, k, z, kept))
            else:
                ref = (double_sum_direct(-alpha, -beta, k, z, kept)
                       - double_sum_direct(alpha, beta, k, z, kept))
            left_out = any(shells_of(q) for q in range(kept + 1, k + 1))
            assert res.termination == ("budget-exhausted" if left_out else "terminated-exactly")
            assert res.shells_used == sum(1 for q in range(kept + 1) if shells_of(q))
            assert abs(res.value - ref) <= 1e-13 * size
            assert fn(params(beta, alpha, float(k), z), policy) == res


@pytest.mark.parametrize("fn, expected", [
    (series_sum, "SeriesResult(value=(-8.487216716965962e-18+0j), "
     "error_estimate=4.3322963971286963e-16, shells_used=9, "
     "termination='budget-exhausted', warnings=frozenset())"),
    (difference_series, "SeriesResult(value=(6.945372003830306e-17+0j), "
     "error_estimate=8.664592794162421e-16, shells_used=4, "
     "termination='budget-exhausted', warnings=frozenset())"),
], ids=["series_sum", "difference_series"])
def test_plain_loop_steps_the_weight_by_k_minus_an_exact_shell_index(fn, expected):
    # Past 2^53 the factors k - q of the weight round: k - 1.0, k - 2.0 and
    # k - 3.0 read 2^53, 2^53 and 2^53 - 1, where a running decrement of k
    # reads 2^53, 2^53 - 1 and 2^53 - 2, and the value then moves in its
    # last digits (-8.48721671696592e-18 and 6.945372003830301e-17).
    point = params(0.3, -0.55, 2.0 ** 53 + 2.0, 1e16)
    assert repr(fn(point, TruncationPolicy(max_shell=8))) == expected


@pytest.mark.parametrize("k", [9, 10])
@pytest.mark.parametrize("fn", [series_sum, difference_series])
def test_plain_loop_counts_the_contributing_shells_at_every_budget(fn, k):
    # shells 0..min(max_shell, k) are summed; the difference series weighs
    # only the odd ones
    shells_of = (lambda q: True) if fn is series_sum else (lambda q: q % 2 == 1)
    point = params(0.3, -0.55, float(k), 20.0)
    for max_shell in range(4, k + 2):
        res = fn(point, TruncationPolicy(max_shell=max_shell))
        kept = min(max_shell, k)
        assert res.shells_used == sum(1 for q in range(kept + 1) if shells_of(q))


def test_budget_that_only_leaves_out_zero_shells_terminates_exactly():
    # k = 6: the odd-shell difference series ends at q = 5, so the budget
    # max_shell = 5 leaves out only the identically zero shell q = 6
    point = params(0.3, 0.4, 6.0, 30.0)
    short = difference_series(point, TruncationPolicy(max_shell=5))
    full = difference_series(point, TruncationPolicy(max_shell=6))
    assert full.termination == "terminated-exactly"
    assert short == full


def test_budget_short_of_the_bound_takes_no_step_past_it():
    # k = 6: the odd-shell difference series ends at q = 5 and max_shell = 5
    # leaves out only the zero shell q = 6.  At a*pi = 10^(-308.25/6.5),
    # z^-q first overflows at q = 7, so the sum is finite and exact, and no
    # step may reach q = 7 and flag saturation.
    point = params(0.3, 0.4, 6.0, 10.0 ** (-308.25 / 6.5))
    with collect() as flags:
        res = difference_series(point, TruncationPolicy(max_shell=5))
    assert res.termination == "terminated-exactly"
    assert math.isfinite(res.value.real) and res.error_estimate == 0.0
    assert "overflow-saturation" not in res.warnings
    assert "overflow-saturation" not in flags


def test_fixed_mode_exact_sum_is_not_flagged_for_its_envelope():
    # under fixed the envelope overflows before shell 66; at a terminating
    # k that ends the tolerance stop, not the sum, which is finite and exact
    point = params(1.7247901146244444, 0.8231063941052401, 66.0, 0.0018228207122233694)
    with collect() as flags:
        res = series_sum(point, TruncationPolicy(mode="fixed"))
    assert (res.termination, res.shells_used, res.error_estimate) == ("terminated-exactly", 67, 0.0)
    assert res.value == series_sum(point).value
    assert 1e304 < abs(res.value) < 1e305
    assert "overflow-saturation" not in res.warnings
    assert "overflow-saturation" not in flags


def test_walk_past_the_budget_reads_the_next_contributing_shell():
    # k = 160: the envelope overflows before shell 36, which has weight 0
    # in the difference series, so max_shell = 35 and 36 leave out the same
    # shells.  The walk past the budget must reach shell 37 in both, and
    # report its overflowed envelope as the error.
    point = params(-2.2438059165765454, -1.3059153318331578, 160.0, 1.297804734900649e-06)
    short = difference_series(point, TruncationPolicy(max_shell=35))
    full = difference_series(point, TruncationPolicy(max_shell=36))
    assert short == full
    assert short.error_estimate == math.inf
    assert short.termination == "budget-exhausted"
    assert "overflow-saturation" in short.warnings
    assert difference_series(point, TruncationPolicy(mode="fixed", max_shell=35)) == short


@pytest.mark.parametrize("point, value", [
    ((0.3, -0.55, 10.0, 1e-31), -1.0095080248511997e285),
    ((0.5, 0.25, 4.0, 1e-78), 2.7000000000000014e235),
])
def test_exact_difference_sum_forms_no_zero_shell_past_its_end(point, value):
    # an even k ends the difference series at q = k - 1; z^-k overflows, so
    # forming the zero shell q = k would read 0 * inf = nan into the sum
    with collect() as flags:
        res = difference_series(params(*point))
    assert (res.value, res.error_estimate, res.termination) == (
        complex(value), 0.0, "terminated-exactly")
    assert "overflow-saturation" not in flags
    assert difference_series(params(*point), TruncationPolicy(mode="fixed")).value == res.value


def test_finite_exact_sum_is_not_flagged_for_the_power_past_it():
    # z^-11 overflows, but the sum ends at shell 10 and never reads it
    with collect() as flags:
        res = series_sum(params(0.3, -0.4, 10.0, 1e-30))
    assert (res.value, res.termination, res.shells_used) == (
        4.5572681819750354e305 + 0j, "terminated-exactly", 11)
    assert "overflow-saturation" not in flags


def test_walk_past_the_budget_is_not_ended_by_a_power_past_the_sum():
    # the plain loop stops at max_shell = 9; z^-10 overflowed there, which
    # must not end the walk before the next contributing shell, 11, whose
    # envelope has overflowed
    res = difference_series(params(0.3, -0.55, 20.0, 1e-31), TruncationPolicy(max_shell=9))
    assert (res.termination, res.shells_used, res.error_estimate) == (
        "budget-exhausted", 5, math.inf)
    assert "overflow-saturation" in res.warnings


def test_error_read_at_a_zero_weight_shell_is_inf():
    # the fixed walk overflows at an even (zero-weight) shell before the
    # next odd one: the error of the shells left out has no bound
    point = params(-0.6408671472041461, 0.969791742288145, 171.84304044484043,
                   0.008415454514567223)
    res = difference_series(point, TruncationPolicy(mode="fixed"))
    assert (res.value, res.termination, res.shells_used) == (
        -2.4769708897046687e304 + 0j, "budget-exhausted", 37)
    assert res.error_estimate == math.inf
    assert "overflow-saturation" in res.warnings


def test_series_refuses_a_zero_a():
    for fn in (series_sum, difference_series):
        with pytest.raises(KernelDomainError, match=r"^a\*pi must be nonzero$"):
            fn(params(0.3, -0.4, 2.5, 0.0))


def test_far_negative_argument_keeps_its_growth_radius():
    # alpha = -1e9: the growth radius is 2e9, not the inverse of a root
    # that cancels to a few digits, so the sum is not stopped early
    res = series_sum(params(-1e9, 0.3, 2.5, 1e12))
    assert abs(res.value - 0.39900299699729051) <= 1e-14
    res = series_sum(params(-1e9, 0.3, 2.5, 3e9))
    assert "not-in-asymptotic-regime" in res.warnings


# ---------------------------------------------------------- real arithmetic

def _bits(x):
    # the real part's sign and bits, and the imaginary part's value (a
    # float reads as imaginary 0)
    x = complex(x)
    return (x.real.hex(), math.copysign(1.0, x.real), x.imag)


def test_shell_stream_gives_real_arguments_the_bits_of_complex_ones():
    # the series narrows real alpha and beta to floats: 200 shells of the
    # float stream must be the complex stream's, bit for bit
    rng = random.Random(39)
    for _ in range(30):
        alpha, beta = (rng.choice((rng.uniform(-1.0, 1.0), rng.uniform(-3.0, 3.0)))
                       for _ in range(2))
        real = list(islice(_shell_stream(alpha, beta), 200))
        wide = list(islice(_shell_stream(complex(alpha, 0.0), complex(beta, 0.0)), 200))
        assert all(type(c) is float for c in real)
        assert [_bits(c) for c in real] == [_bits(c) for c in wide]


def test_real_sums_return_complex():
    # the sums and the shells run on floats at real inputs, but every
    # public value is complex
    rng = random.Random(40)
    for _ in range(30):
        k = rng.choice((float(rng.randint(1, 150)), rng.uniform(-5.0, 150.0)))
        alpha, beta = rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)
        z = rng.uniform(1.0, 3.0) * max(abs(k), 4.0)
        mode = rng.choice(("optimal", "fixed"))
        for fn in (series_sum, difference_series):
            res = fn(params(alpha, beta, k, z), TruncationPolicy(mode=mode))
            assert type(res.value) is complex
    for value in (shell_coeff(0, 0.3, -0.5), *shell_values(3, 0.3, -0.5)):
        assert type(value) is complex
