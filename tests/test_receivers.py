"""Tests for the linear and SIC detectors.

The reference SINR functions check their own dual algebraic routes on every
call, so simply exercising them over many random instances is already a
strong test; the rest pins shapes, closed-form special cases, marginal
distributions, and the batched engine against the reference ops.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import exact
from wlmimo.mmtc_sim import MmtcConfig
from wlmimo.random_matrix import sample_channel, wl_transform
from wlmimo import receivers
from wlmimo.receivers import (
    DECISION_MARGIN,
    DIMS,
    ReceiverSpec,
    SinrReport,
    _projector_sinrs,
    batched_tagged_sinr,
    cl_sinr,
    mmse_sinr,
    sic_sinr_stages,
    threshold,
    zf_sinr,
)
from wlmimo.stacked import cholesky_lower, inverse_diagonal, stacked_gram

SNR = 31.6227766


def random_instance(rng, m_rx=3, n_users=4, family="wl"):
    hbar = sample_channel(m_rx, n_users, rng, size=1)[0]
    h = wl_transform(hbar) if family == "wl" else hbar
    xi = rng.uniform(0.2, 3.0, n_users)
    return h, xi


def reference(h, xi, snr, family, criterion):
    """Every user's SINR of one draw from the dual-route reference functions."""
    if family == "cl":
        return cl_sinr(h, xi, snr, criterion)
    return (zf_sinr if criterion == "zf" else mmse_sinr)(h, xi, snr)


LINEAR = [("wl", "zf"), ("wl", "mmse"), ("cl", "zf"), ("cl", "mmse")]


# ---------------------------------------------------------------------------
# Spec plumbing
# ---------------------------------------------------------------------------

def test_receiver_spec_labels():
    assert ReceiverSpec("wl", "zf").label == "WL-ZF"
    assert ReceiverSpec("cl", "mmse", sic=True).label == "CL-MMSE-SIC"


@pytest.mark.parametrize("family, dims, at_rate_2, near, capacity", [
    ("wl", 2, 15.0, {0.5: 1.0, 0.3: 2 ** 0.6 - 1}, {2: 4, 3: 6}),
    ("cl", 1, 3.0, {0.3: 2 ** 0.3 - 1}, {2: 2, 3: 3}),
], ids=["wl", "cl"])
def test_dimension_factor_rules(family, dims, at_rate_2, near, capacity):
    """Threshold 2^(D R) - 1 and capacity D M, in the receivers and the
    mMTC simulator alike: M antennas separate D M users, not one more.
    2^(D R) overflows a float from D R = 1024 on, and is refused there; a
    rate so small that 2^(D R) rounds to 1 is refused too."""
    assert DIMS[family] == dims
    assert threshold(family, 2.0) == at_rate_2
    for rate, gamma in near.items():
        assert threshold(family, rate) == pytest.approx(gamma)
    assert math.isfinite(threshold(family, 1023.5 / dims))
    for rate in (1024 // dims, np.float64(1024 // dims)):
        with pytest.raises(ValueError, match=f"rate {rate} is too large"):
            threshold(family, rate)
    assert threshold(family, 1e-15) > 0
    for rate in (1e-17, 0.0):
        with pytest.raises(ValueError, match=f"rate {rate} is too small"):
            threshold(family, rate)
    rng = np.random.default_rng(31)
    for m_rx, users in capacity.items():
        assert MmtcConfig(users=1, m_rx=m_rx, family=family).capacity == users
        h, xi = random_instance(rng, m_rx, users, family)
        assert reference(h, xi, SNR, family, "zf").shape == (users,)
        h, xi = random_instance(rng, m_rx, users + 1, family)
        with pytest.raises(ValueError, match="cannot separate"):
            reference(h, xi, SNR, family, "zf")


def test_receiver_spec_validation():
    with pytest.raises(ValueError):
        ReceiverSpec("dual", "zf")
    with pytest.raises(ValueError):
        ReceiverSpec("wl", "lmmse")


def test_family_channel_type_enforced():
    rng = np.random.default_rng(30)
    hbar = sample_channel(2, 2, rng, size=1)[0]
    with pytest.raises(TypeError):
        zf_sinr(hbar, np.ones(2), SNR)          # complex into WL
    with pytest.raises(TypeError):
        cl_sinr(wl_transform(hbar), np.ones(2), SNR)   # real into CL
    with pytest.raises(ValueError):
        cl_sinr(hbar, np.ones(3), SNR)          # xi length mismatch
    with pytest.raises(ValueError):
        cl_sinr(sample_channel(2, 3, rng, size=1)[0], np.ones(3), SNR)   # N > M


# ---------------------------------------------------------------------------
# Reference SINRs
# ---------------------------------------------------------------------------

def test_dual_routes_agree_across_many_instances():
    """Each call cross-checks two algebraic forms; none may raise."""
    rng = np.random.default_rng(34)
    for _ in range(300):
        m = int(rng.integers(2, 5))
        n_wl = int(rng.integers(1, 2 * m + 1))
        h, xi = random_instance(rng, m, n_wl)
        snr = float(rng.uniform(0.1, 1e4))
        zf_sinr(h, xi, snr)
        mmse_sinr(h, xi, snr)
        n_cl = int(rng.integers(1, m + 1))
        hbar, xic = random_instance(rng, m, n_cl, family="cl")
        cl_sinr(hbar, xic, snr, "zf")
        cl_sinr(hbar, xic, snr, "mmse")


def test_orthonormal_columns_give_closed_form_sinr():
    rng = np.random.default_rng(35)
    q, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    xi = np.full(3, 0.8)
    assert zf_sinr(q, xi, SNR) == pytest.approx(2 * SNR * 0.8)
    # with equal powers the MMSE ridge cancels the -1 exactly
    assert mmse_sinr(q, xi, SNR) == pytest.approx(2 * SNR * 0.8)


def test_single_user_sinr_is_matched_filter():
    rng = np.random.default_rng(36)
    hbar = sample_channel(2, 1, rng, size=1)[0]
    h = wl_transform(hbar)
    xi = np.array([1.7])
    expect = 2 * SNR * 1.7 * float(h[:, 0] @ h[:, 0])
    assert zf_sinr(h, xi, SNR) == pytest.approx(expect)
    assert cl_sinr(hbar, xi, SNR) == pytest.approx(
        SNR * 1.7 * float(np.abs(hbar[:, 0].conj() @ hbar[:, 0])))


def test_mmse_dominates_zf():
    rng = np.random.default_rng(37)
    for _ in range(50):
        h, xi = random_instance(rng)
        assert np.all(mmse_sinr(h, xi, SNR) >= zf_sinr(h, xi, SNR) - 1e-12)
        hbar, xic = random_instance(rng, 3, 3, family="cl")
        assert np.all(cl_sinr(hbar, xic, SNR, "mmse")
                      >= cl_sinr(hbar, xic, SNR, "zf") - 1e-12)


def test_mmse_never_negative_at_low_snr():
    rng = np.random.default_rng(38)
    for _ in range(50):
        h, xi = random_instance(rng, 2, 4)
        assert np.all(mmse_sinr(h, xi, 1e-4) >= 0.0)


def test_mmse_excess_over_zf_matches_residual_form():
    """At high SNR the MMSE-over-ZF excess converges to xi_n eta_n with
    eta the interference leakage through the inverted interferer Gram."""
    rng = np.random.default_rng(39)
    snr = 1e6
    h, xi = random_instance(rng, 3, 4)
    gap = mmse_sinr(h, xi, snr) - zf_sinr(h, xi, snr)
    for n in range(4):
        rest = np.delete(h, n, axis=1)
        coef = np.linalg.solve(rest.T @ rest, rest.T @ h[:, n])
        eta = float(np.sum(coef ** 2 / np.delete(xi, n)))
        assert gap[n] == pytest.approx(xi[n] * eta, rel=1e-3)

    hbar, xic = random_instance(rng, 3, 3, family="cl")
    gap = cl_sinr(hbar, xic, snr, "mmse") - cl_sinr(hbar, xic, snr, "zf")
    for n in range(3):
        rest = np.delete(hbar, n, axis=1)
        coef = np.linalg.solve(rest.conj().T @ rest, rest.conj().T @ hbar[:, n])
        eta = float(np.sum(np.abs(coef) ** 2 / np.delete(xic, n)))
        assert gap[n] == pytest.approx(xic[n] * eta, rel=1e-3)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 4), (4, 6)])
def test_wl_zf_sinr_marginal_law(m, n):
    """gamma / (snr xi) is chi-square with 2M - N + 1 degrees of freedom."""
    rng = np.random.default_rng(40 + n)
    snr = 10.0
    h = wl_transform(sample_channel(m, n, rng, size=30_000))
    gam = batched_tagged_sinr(h, np.ones((len(h), n)), snr, ReceiverSpec("wl", "zf"))
    assert stats.kstest(gam / snr, stats.chi2(2 * m - n + 1).cdf).pvalue > 0.01


@pytest.mark.parametrize("m,n", [(2, 2), (4, 3)])
def test_cl_zf_sinr_marginal_law(m, n):
    """gamma / (snr xi) is Gamma(M - N + 1) for the conventional receiver."""
    rng = np.random.default_rng(50 + n)
    snr = 10.0
    hbar = sample_channel(m, n, rng, size=30_000)
    gam = batched_tagged_sinr(hbar, np.ones((len(hbar), n)), snr, ReceiverSpec("cl", "zf"))
    assert stats.kstest(gam / snr, stats.gamma(m - n + 1).cdf).pvalue > 0.01


def test_gram_inverse_diagonal_spectral_bound():
    # [(H'H)^-1]_nn >= v_n1^2 / lambda_1 keeps only the smallest-eigenvalue
    # term of the spectral expansion; the SIC analysis rests on it
    rng = np.random.default_rng(41)
    h, _ = random_instance(rng, 2, 4)
    gram = h.T @ h
    diag_inv = np.diag(np.linalg.inv(gram))
    values, vectors = np.linalg.eigh(gram)
    bound = vectors[:, 0] ** 2 / values[0]
    assert np.all(diag_inv >= bound - 1e-12)


# ---------------------------------------------------------------------------
# SIC
# ---------------------------------------------------------------------------

def test_sic_first_pick_is_linear_argmax():
    rng = np.random.default_rng(42)
    h, xi = random_instance(rng)
    rep = sic_sinr_stages(h, xi, SNR, ReceiverSpec("wl", "zf", sic=True))
    assert rep.order[0] == int(np.argmax(zf_sinr(h, xi, SNR)))


@pytest.mark.parametrize("family,criterion", LINEAR)
def test_sic_stage_sinr_never_below_linear(family, criterion):
    """Cancelling interferers cannot hurt any user's decode-stage SINR."""
    rng = np.random.default_rng(43)
    n = 4 if family == "wl" else 3
    for _ in range(20):
        h, xi = random_instance(rng, 3, n, family=family)
        linear = reference(h, xi, SNR, family, criterion)
        rep = sic_sinr_stages(h, xi, SNR,
                              ReceiverSpec(family, criterion, sic=True))
        assert np.all(rep.sinr >= linear - 1e-9)


def test_sic_tie_breaks_to_lowest_index():
    # standard-basis columns keep every stage SINR bit-identical, so the
    # argmax tie rule is actually exercised
    h = np.eye(8)[:, :4]
    xi = np.ones(4)
    rep = sic_sinr_stages(h, xi, SNR, ReceiverSpec("wl", "zf", sic=True))
    assert rep.order.tolist() == [0, 1, 2, 3]
    assert np.allclose(rep.sinr, 2 * SNR)


def test_sic_refuses_a_near_tie():
    # top two stage SINRs 1e-12 apart: which one goes first is rounding
    h = np.eye(8)[:, :4]
    xi = np.array([0.5, 1.0, 1.0 + 1e-12, 0.7])
    with pytest.raises(ArithmeticError):
        sic_sinr_stages(h, xi, SNR, ReceiverSpec("wl", "zf", sic=True))


def test_sic_single_user():
    rng = np.random.default_rng(45)
    h, xi = random_instance(rng, 2, 1)
    rep = sic_sinr_stages(h, xi, SNR, ReceiverSpec("wl", "zf", sic=True))
    assert rep.order.tolist() == [0]
    assert rep.sinr[0] == pytest.approx(zf_sinr(h, xi, SNR, n=0))


def test_sinr_report_requires_permutation():
    with pytest.raises(ValueError):
        SinrReport(sinr=np.ones(3), order=np.array([0, 0, 2]))


# ---------------------------------------------------------------------------
# Batched engine vs reference ops
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", ["wl", "cl"])
@pytest.mark.parametrize("criterion", ["zf", "mmse"])
@pytest.mark.parametrize("sic", [False, True])
def test_batched_tagged_matches_reference(family, criterion, sic):
    rng = np.random.default_rng(46)
    m, n, b = 3, 3, 40
    hbar = sample_channel(m, n, rng, size=b)
    h = wl_transform(hbar) if family == "wl" else hbar
    xi = rng.uniform(0.3, 2.0, (b, n))
    rx = ReceiverSpec(family, criterion, sic=sic)
    got = batched_tagged_sinr(h, xi, SNR, rx)
    for i in range(b):
        if sic:
            expect = sic_sinr_stages(h[i], xi[i], SNR, rx).sinr[0]
        else:
            expect = reference(h[i], xi[i], SNR, family, criterion)[0]
        assert got[i] == pytest.approx(expect, rel=1e-9, abs=1e-12)


def test_batched_refuses_a_shared_profile():
    # xi holds one power profile per draw; a single (N,) profile is refused.
    rng = np.random.default_rng(47)
    h = wl_transform(sample_channel(2, 3, rng, size=10))
    with pytest.raises(ValueError, match="power profile"):
        batched_tagged_sinr(h, np.array([0.5, 1.0, 2.0]), SNR, ReceiverSpec("wl", "zf"))


def test_batched_rejects_flat_channel():
    rng = np.random.default_rng(48)
    h = wl_transform(sample_channel(2, 3, rng, size=1)[0])
    with pytest.raises(ValueError):
        batched_tagged_sinr(h, np.ones(3), SNR, ReceiverSpec("wl", "zf"))


# ---------------------------------------------------------------------------
# Draws whose Gram matrix is singular in float64
# ---------------------------------------------------------------------------

def lstsq_sinrs(h, xi, pre, ridge=None):
    """Every user's SINR pre xi_n h_n* Pperp_n h_n for one draw.

    ZF projects by least squares.  MMSE (`ridge` given) takes the resolvent
    form h_n* h_n - h_n* O (O* O + R)^-1 O* h_n, whose matrix the ridge
    keeps invertible even when interferers repeat.
    """
    out = np.empty(h.shape[1])
    for i in range(h.shape[1]):
        others = np.delete(h, i, axis=1)
        if ridge is None:
            coef = np.linalg.lstsq(others, h[:, i], rcond=None)[0]
            resid = h[:, i] - others @ coef
            q = np.vdot(resid, resid)
        else:
            proj = others.conj().T @ h[:, i]
            gram = others.conj().T @ others + np.diag(np.delete(ridge, i))
            q = np.vdot(h[:, i], h[:, i]) - np.vdot(proj, np.linalg.solve(gram, proj))
        out[i] = pre * xi[i] * np.real(q)
    return out


def one_draw_projector(h, xi, pre, ridge=None):
    """The package's projector-form SINRs of one draw, as a stack of one."""
    return _projector_sinrs(h[None], xi[None], pre,
                            None if ridge is None else ridge[None])[0]


def dependent_stack(family, m, n):
    """12 draws whose interferers 1 and 2 share a column, with their powers."""
    hbar = sample_channel(m, n, np.random.default_rng(50), size=12)
    hbar[:, :, 2] = hbar[:, :, 1]
    h = wl_transform(hbar) if family == "wl" else hbar
    return h, np.tile([1.0, 0.7, 1.3, 0.4][:n], (12, 1))


def lstsq_sic_tagged(h, xi, pre):
    """Decode-stage ZF SINR of user 0 under greedy SIC, by projection."""
    users = list(range(h.shape[1]))
    while True:
        gams = lstsq_sinrs(h[:, users], xi[users], pre)
        pick = users[int(np.argmax(gams))]
        if pick == 0:
            return float(np.max(gams))
        users.remove(pick)


def gram_inverse_tagged(h, xi, pre):
    """User 0's ZF SINR by the batched Gram-inverse arithmetic."""
    gram = np.swapaxes(h.conj(), -2, -1) @ h
    return pre * xi[..., 0] / np.real(np.linalg.inv(gram)[..., 0, 0])


@pytest.mark.parametrize("family,m,n", [("wl", 2, 4), ("wl", 2, 3),
                                        ("cl", 3, 3)])
def test_batched_zf_survives_dependent_interferers(family, m, n):
    # Interferers 1 and 2 share a column, so every Gram matrix is singular:
    # LAPACK either refuses it or returns a meaningless inverse.
    h, xi = dependent_stack(family, m, n)
    pre = 2.0 * SNR if family == "wl" else SNR
    linear = batched_tagged_sinr(h, xi, SNR, ReceiverSpec(family, "zf"))
    sic = batched_tagged_sinr(h, xi, SNR, ReceiverSpec(family, "zf", sic=True))
    assert np.all(np.isfinite(linear)) and np.all(np.isfinite(sic))
    for i in range(len(h)):
        assert linear[i] == pytest.approx(lstsq_sinrs(h[i], xi[i], pre)[0],
                                          rel=1e-9)
        assert sic[i] == pytest.approx(lstsq_sic_tagged(h[i], xi[i], pre),
                                       rel=1e-9)
        assert sic[i] >= linear[i]


def test_batched_cl_zf_square_channel_with_repeated_column():
    hbar = sample_channel(2, 2, np.random.default_rng(51), size=8)
    hbar[5, :, 1] = hbar[5, :, 0]
    xi = np.tile([0.8, 1.2], (8, 1))
    with pytest.raises(np.linalg.LinAlgError):
        gram_inverse_tagged(hbar, xi, SNR)
    got = batched_tagged_sinr(hbar, xi, SNR, ReceiverSpec("cl", "zf"))
    assert np.all(np.isfinite(got))
    # the tagged user repeats an interferer: nothing is left to separate
    assert got[5] == pytest.approx(0.0, abs=1e-9)
    # the other draws get what they get in a stack without the singular one
    rest = np.arange(8) != 5
    np.testing.assert_array_equal(
        got[rest], batched_tagged_sinr(hbar[rest], xi[rest], SNR,
                                       ReceiverSpec("cl", "zf")))


@pytest.mark.parametrize("family,criterion", LINEAR)
def test_reference_on_dependent_interferers_raises_or_projects(family, criterion):
    # The reference may refuse such a draw, but any number it returns is
    # the least-squares projection.
    pre = 2.0 * SNR if family == "wl" else SNR
    for m, n in {"wl": [(2, 4), (2, 3)], "cl": [(3, 3)]}[family]:
        h, xi = dependent_stack(family, m, n)
        ridge = 1.0 / (pre * xi) if criterion == "mmse" else None
        for i, draw in enumerate(h):
            try:
                got = reference(draw, xi[i], SNR, family, criterion)
            except (ArithmeticError, np.linalg.LinAlgError):
                continue
            expect = lstsq_sinrs(draw, xi[i], pre, None if ridge is None else ridge[i])
            np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


@pytest.mark.parametrize("eps,snr_db,sic", [(1e-7, 50.0, False),
                                            (1e-8, 15.0, True)])
def test_reference_never_returns_negative_zf_sinrs(eps, snr_db, sic):
    # Columns 1e-7 / 1e-8 apart: the two routes agree to an absolute 1e-9
    # and still give negative SINRs, so each SINR is checked relatively.
    h, xi = near_dependent_stack("cl", 2, 2, eps, np.random.default_rng(7), 3000)
    snr = 10.0 ** (snr_db / 10.0)
    rx = ReceiverSpec("cl", "zf", sic=sic)
    for i in range(len(h)):
        try:
            got = (sic_sinr_stages(h[i], xi[i], snr, rx).sinr if sic
                   else cl_sinr(h[i], xi[i], snr))
        except (ArithmeticError, np.linalg.LinAlgError):
            continue
        assert np.all(got >= 0.0), f"draw {i}: {got}"


@pytest.mark.parametrize("family", ["wl", "cl"])
@pytest.mark.parametrize("criterion", ["zf", "mmse"])
def test_least_squares_fallback_matches_reference(family, criterion):
    # The fallback for singular draws is the projector form; on regular
    # draws it must give the reference SINRs, ridge rows included for MMSE.
    rng = np.random.default_rng(52)
    pre = 2.0 * SNR if family == "wl" else SNR
    for _ in range(20):
        h, xi = random_instance(rng, m_rx=3, n_users=3, family=family)
        ridge = 1.0 / (pre * xi) if criterion == "mmse" else None
        got = one_draw_projector(h, xi, pre, ridge)
        expect = reference(h, xi, SNR, family, criterion)
        np.testing.assert_allclose(got, expect, rtol=1e-9)


@pytest.mark.parametrize("family,criterion", LINEAR)
def test_stacked_projector_matches_per_draw_calls(family, criterion):
    # One stacked SVD gives each draw the numbers a stack of one gives it,
    # bit for bit, whatever else shares its stack: regular draws, repeated
    # columns and near-dependent ones, ridge rows included for MMSE.
    rng = np.random.default_rng(57)
    m, n = (2, 4) if family == "wl" else (3, 3)
    parts = [near_dependent_stack(family, m, n, eps, rng, 8)
             for eps in (1.0, 0.0, 1e-7)]
    h = np.concatenate([p[0] for p in parts])
    xi = np.concatenate([p[1] for p in parts])
    pre = 2.0 * SNR if family == "wl" else SNR
    ridge = 1.0 / (pre * xi) if criterion == "mmse" else None

    def rows(a, z):
        return _projector_sinrs(h[a:z], xi[a:z], pre,
                                None if ridge is None else ridge[a:z])

    whole = rows(0, len(h))
    assert whole.shape == (len(h), n)
    each = [one_draw_projector(h[i], xi[i], pre,
                               None if ridge is None else ridge[i])
            for i in range(len(h))]
    np.testing.assert_array_equal(np.array(each), whole)
    split = [rows(a, z) for a, z in [(0, 5), (5, 17), (17, 24)]]
    np.testing.assert_array_equal(np.concatenate(split), whole)


@pytest.mark.parametrize("family,criterion", LINEAR)
def test_projector_single_user_is_matched_filter(family, criterion):
    # With no interferer there is nothing to project out and no ridge row.
    rng = np.random.default_rng(58)
    hbar = sample_channel(2, 1, rng, size=6)
    h = wl_transform(hbar) if family == "wl" else hbar
    xi = rng.uniform(0.3, 2.0, (6, 1))
    pre = 2.0 * SNR if family == "wl" else SNR
    ridge = 1.0 / (pre * xi) if criterion == "mmse" else None
    got = _projector_sinrs(h, xi, pre, ridge)
    expect = pre * xi * np.sum(np.abs(h) ** 2, axis=1)
    np.testing.assert_allclose(got, expect, rtol=1e-14)


@pytest.mark.parametrize("family,criterion", LINEAR)
def test_stacked_projector_on_dependent_interferers_matches_lstsq(family,
                                                                  criterion):
    # Interferers 1 and 2 share a column: ZF needs lstsq's rank cutoff to
    # drop the repeated direction, and MMSE's ridge rows keep it regular.
    pre = 2.0 * SNR if family == "wl" else SNR
    for m, n in {"wl": [(2, 4), (2, 3)], "cl": [(3, 3)]}[family]:
        h, xi = dependent_stack(family, m, n)
        xi = np.broadcast_to(xi, (len(h), n))
        ridge = 1.0 / (pre * xi) if criterion == "mmse" else None
        got = _projector_sinrs(h, xi, pre, ridge)
        for i in range(len(h)):
            expect = lstsq_sinrs(h[i], xi[i], pre,
                                 None if ridge is None else ridge[i])
            np.testing.assert_allclose(got[i], expect, rtol=1e-9, atol=1e-9)


# ---------------------------------------------------------------------------
# The batched kernel: accuracy, isolation, and ill-conditioned stacks
# ---------------------------------------------------------------------------

def exact_diag_inv(gram):
    """Diagonal of gram^-1 in exact rational arithmetic, rounded once.

    Gauss-Jordan on the float entries taken as exact fractions; a complex
    Hermitian Gram is realified, and its inverse realifies the complex
    inverse.
    """
    g = exact.as_fractions(exact.realify(gram))
    eye = [[Fraction(int(i == j)) for j in range(len(g))] for i in range(len(g))]
    inv = exact.solve(g, eye)
    return np.array([float(inv[i][i]) for i in range(len(gram))])


def exact_tagged_zf(h, xi0, pre):
    """User 0's ZF SINR pre xi_0 / [(H* H)^-1]_00 of one draw, exact from
    the float entries of H until the one final rounding."""
    g = exact.gram(exact.as_fractions(exact.realify(h)))
    e0 = [[Fraction(int(i == 0))] for i in range(len(g))]
    return float(Fraction(pre) * Fraction(float(xi0)) / exact.solve(g, e0)[0][0])


@pytest.mark.parametrize("family", ["wl", "cl"])
@pytest.mark.parametrize("criterion", ["zf", "mmse"])
def test_batched_linear_meets_the_exact_inverse_bound(family, criterion):
    # Backward-stable inversion of a positive definite Gram is accurate to
    # a small multiple of cond(G) eps; LAPACK must meet the same bound, so
    # the tolerance is a property of the problem, not of the kernel.
    rng = np.random.default_rng(49)
    m, n, b = 2, 2 if family == "cl" else 4, 320
    hbar = sample_channel(m, n, rng, size=b)
    h = wl_transform(hbar) if family == "wl" else hbar
    xi = rng.uniform(0.3, 2.0, (b, n))
    pre = 2.0 * SNR if family == "wl" else SNR
    stacked = stacked_gram(h)
    if criterion == "mmse":
        stacked[np.arange(n), np.arange(n)] += 1.0 / (pre * xi.T)
    gram = np.moveaxis(stacked, -1, 0)
    exact = np.array([exact_diag_inv(g) for g in gram])
    tol = 4.0 * np.linalg.cond(gram)[:, None] * np.finfo(float).eps
    lapack = np.real(np.linalg.inv(gram).diagonal(axis1=-2, axis2=-1))
    for diag in (inverse_diagonal(cholesky_lower(stacked)[0]), lapack):
        assert np.all(np.abs(diag - exact) <= tol * exact)

    # the tagged SINR pre xi_0 / [G^-1]_00 (minus 1 for MMSE) inherits it
    scale = pre * xi[:, 0] / exact[:, 0]
    expect = scale - 1.0 if criterion == "mmse" else scale
    got = batched_tagged_sinr(h, xi, SNR, ReceiverSpec(family, criterion))
    assert np.all(np.abs(got - expect) <= tol[:, 0] * scale)


ALL_RECEIVERS = [(f, c, sic) for f, c in LINEAR for sic in (False, True)]


def near_dependent_stack(family, m, n, eps, rng, size):
    """Draws whose last column is the one before it plus eps times noise."""
    hbar = sample_channel(m, n, rng, size=size)
    hbar[:, :, -1] = hbar[:, :, -2] + eps * sample_channel(m, 1, rng, size=size)[:, :, 0]
    h = wl_transform(hbar) if family == "wl" else hbar
    return h, rng.uniform(0.3, 2.0, (size, n))


@pytest.mark.parametrize("family,criterion,sic", ALL_RECEIVERS)
@pytest.mark.parametrize("gamma_t", [None, 60.0])
def test_batched_draws_do_not_depend_on_their_stack(family, criterion, sic,
                                                    gamma_t):
    # Splitting or permuting a stack leaves every draw's output unchanged,
    # bit for bit, also where some draws repeat a column or nearly do.  At
    # gamma_T = 60 about a third of the draws lie below the matched-filter
    # exit: too few for the whole stack to drop them before the Cholesky,
    # enough for some of its parts.
    rng = np.random.default_rng(53)
    m, n = (2, 4) if family == "wl" else (3, 3)
    parts = [near_dependent_stack(family, m, n, eps, rng, 20)
             for eps in (1.0, 0.0, 1e-7)]
    h = np.concatenate([p[0] for p in parts])
    xi = np.concatenate([p[1] for p in parts])
    rx = ReceiverSpec(family, criterion, sic=sic)
    whole = batched_tagged_sinr(h, xi, SNR, rx, gamma_t)
    perm = rng.permutation(len(h))
    permuted = np.empty_like(whole)
    permuted[perm] = batched_tagged_sinr(h[perm], xi[perm], SNR, rx, gamma_t)
    np.testing.assert_array_equal(permuted, whole)
    split = np.concatenate([batched_tagged_sinr(h[a:z], xi[a:z], SNR, rx, gamma_t)
                            for a, z in [(0, 1), (1, 13), (13, 41), (41, 60)]])
    np.testing.assert_array_equal(split, whole)


def gram_per_stage_sic_tagged(h, xi, snr, rx):
    """User 0's decode-stage SINR under greedy SIC, by a loop that forms
    the Gram of the remaining columns from scratch at every stage.

    Each stage takes `stacked_gram` of the reduced channel, adds the ridge
    of the remaining powers, and gives each draw that fails the pivot test
    its projector form on its own.
    """
    pre = DIMS[rx.family] * snr
    rows = np.arange(len(h))
    tagged = np.zeros(len(h))
    while len(rows):
        k = h.shape[-1]
        gram = stacked_gram(h)
        ridge = 1.0 / (pre * xi) if rx.criterion == "mmse" else None
        if ridge is not None:
            gram[np.arange(k), np.arange(k)] += ridge.T
        low, clear = cholesky_lower(gram)
        with np.errstate(divide="ignore"):
            gams = pre * xi / inverse_diagonal(low)
        if ridge is not None:
            gams = np.maximum(gams - 1.0, 0.0)
        for i in np.nonzero(~clear)[0]:
            gams[i] = one_draw_projector(h[i], xi[i], pre,
                                         None if ridge is None else ridge[i])
        pick = np.argmax(gams, axis=1)
        done = pick == 0
        tagged[rows[done]] = gams[done, 0]
        rows, h, xi, pick = rows[~done], h[~done], xi[~done], pick[~done]
        keep = np.arange(k) != pick[:, None]
        cols = np.nonzero(keep)[1].reshape(len(rows), k - 1)
        h = np.take_along_axis(h, cols[:, None, :], axis=2)
        xi = np.take_along_axis(xi, cols, axis=1)
    return tagged


SIC_RECEIVERS = [(f, c, True) for f, c in LINEAR]


@pytest.mark.parametrize("family,criterion,sic", SIC_RECEIVERS)
@pytest.mark.parametrize("stack", ["regular", "repeated", "near"])
@pytest.mark.parametrize("snr_db", [15.0, 90.0])
def test_sic_sub_gram_stages_match_gram_per_stage_loop(family, criterion, sic,
                                                       stack, snr_db):
    # A stage's principal sub-Gram holds the numbers the Gram of its
    # reduced channel would, so every tagged SINR is bit-identical.  At
    # 90 dB the MMSE ridge is too small to clear the near-dependent draws,
    # so the projector form runs inside the stages too.
    rng = np.random.default_rng(59)
    m, n = (2, 4) if family == "wl" else (3, 3)
    if stack == "repeated":
        h, xi = dependent_stack(family, m, n)
    else:
        h, xi = near_dependent_stack(family, m, n,
                                     1.0 if stack == "regular" else 1e-7,
                                     rng, 40)
    snr = 10.0 ** (snr_db / 10.0)
    rx = ReceiverSpec(family, criterion, sic=sic)
    np.testing.assert_array_equal(batched_tagged_sinr(h, xi, snr, rx),
                                  gram_per_stage_sic_tagged(h, xi, snr, rx))


def near_stack_and_ridge(family, m, n, eps, snr, criterion, rng, size):
    """A near-dependent stack, its SINR prefactor and its MMSE ridge, after
    checking that no draw of it clears the pivot test."""
    h, xi = near_dependent_stack(family, m, n, eps, rng, size)
    pre = 2.0 * snr if family == "wl" else snr
    ridge = 1.0 / (pre * xi) if criterion == "mmse" else None
    gram = stacked_gram(h)
    if ridge is not None:
        gram[np.arange(n), np.arange(n)] += ridge.T
    assert not cholesky_lower(gram)[1].any()
    return h, xi, pre, ridge


@pytest.mark.parametrize("family,m,n", [("wl", 2, 4), ("cl", 3, 3)])
@pytest.mark.parametrize("criterion,snr_db", [("zf", 20.0), ("mmse", 90.0)])
def test_near_dependent_draws_take_the_projector_form(family, m, n, criterion,
                                                      snr_db):
    # Draws that fail the pivot test get the reference's projector SINRs,
    # bit for bit.  At 90 dB the MMSE ridge is too small to clear them.
    snr = 10.0 ** (snr_db / 10.0)
    h, xi, pre, ridge = near_stack_and_ridge(
        family, m, n, 1e-5, snr, criterion, np.random.default_rng(55), 50)
    got = batched_tagged_sinr(h, xi, snr, ReceiverSpec(family, criterion))
    for i in range(len(h)):
        expect = one_draw_projector(h[i], xi[i], pre,
                                    None if ridge is None else ridge[i])
        assert got[i] == expect[0]


@pytest.mark.parametrize("family,m,n", [("wl", 2, 4), ("cl", 3, 3)])
@pytest.mark.parametrize("tagged", ["separate", "near"])
@pytest.mark.parametrize("eps", [1e-5, 1e-7])
def test_near_dependent_zf_sinrs_match_the_exact_oracle(family, m, n, tagged,
                                                        eps):
    # Two columns eps apart give kappa(H) ~ 1/eps.  Least squares on H is
    # accurate to about kappa(H) eps_mach (1e-9 relative at eps = 1e-7);
    # the Gram H* H squares the condition number and can lose every digit.
    # The bound, 1e-5 relative, was fixed before measuring.
    snr = 100.0
    h, xi, pre, _ = near_stack_and_ridge(
        family, m, n, eps, snr, "zf", np.random.default_rng(56), 40)
    if tagged == "near":                # the pair becomes users 0 and 1
        h, xi = h[:, :, ::-1], xi[:, ::-1]
    got = batched_tagged_sinr(h, xi, snr, ReceiverSpec(family, "zf"))
    expect = np.array([exact_tagged_zf(h[i], xi[i, 0], pre)
                       for i in range(len(h))])
    assert np.all(np.abs(got - expect) <= 1e-5 * expect)


@pytest.mark.parametrize("family,m,n", [("wl", 2, 4), ("wl", 2, 3),
                                        ("cl", 2, 2), ("cl", 3, 3)])
def test_batched_matches_reference_on_near_dependent_columns(family, m, n):
    # The benchmark's draw-by-draw kernel check (rtol 1e-6, atol 1e-12) on
    # ill-conditioned stacks.  Below eps ~ 1e-8 the first SIC stage becomes
    # a float tie between two zero SINRs, so that range is left out.
    rng = np.random.default_rng(54)
    for eps in (1e-2, 1e-4, 1e-6, 0.0):
        h, xi = near_dependent_stack(family, m, n, eps, rng, 100)
        for snr_db in (15.0, 20.0, 25.0):
            snr = 10.0 ** (snr_db / 10.0)
            for f, criterion, sic in ALL_RECEIVERS:
                if f != family:
                    continue
                rx = ReceiverSpec(family, criterion, sic=sic)
                got = batched_tagged_sinr(h, xi, snr, rx)
                for i in range(len(h)):
                    try:
                        if sic:
                            ref = sic_sinr_stages(h[i], xi[i], snr, rx).sinr[0]
                        else:
                            ref = reference(h[i], xi[i], snr, family,
                                            criterion)[0]
                    except (ArithmeticError, np.linalg.LinAlgError):
                        continue
                    assert got[i] == pytest.approx(ref, rel=1e-6, abs=1e-12), (
                        f"{rx.label} eps={eps} {snr_db} dB draw {i}")


# ---------------------------------------------------------------------------
# Outage decisions: batched_tagged_sinr with gamma_t
# ---------------------------------------------------------------------------

def matched_filter_bound(h, xi, snr, family):
    """pre xi_0 G_00, user 0's SINR with every interferer removed."""
    return DIMS[family] * snr * xi[:, 0] * stacked_gram(h)[0, 0].real


@pytest.mark.parametrize("family,criterion,sic", ALL_RECEIVERS)
@pytest.mark.parametrize("stack", ["regular", "near"])
@pytest.mark.parametrize("profile", ["ppc", "lognormal"])
def test_gamma_t_decides_outage_as_the_exact_sinr_does(family, criterion, sic,
                                                       stack, profile):
    # Thresholds at the stack's own exact SINRs put draws on the boundary.
    # Every draw falls on the side of gamma_T its exact SINR does; a draw
    # neither exit may take comes out bit-identical, and one below the
    # matched-filter exit returns its bound.
    rng = np.random.default_rng(60)
    m, n = (2, 4) if family == "wl" else (3, 3)
    h, xi = near_dependent_stack(family, m, n,
                                 1.0 if stack == "regular" else 1e-7, rng, 80)
    if profile == "ppc":
        xi = np.ones_like(xi)
    else:                                   # 8 dB log-normal shadowing
        xi = 10.0 ** (0.8 * rng.standard_normal(xi.shape))
    rx = ReceiverSpec(family, criterion, sic=sic)
    for snr_db in (5.0, 20.0, 45.0):
        snr = 10.0 ** (snr_db / 10.0)
        exact_sinr = batched_tagged_sinr(h, xi, snr, rx)
        bound = matched_filter_bound(h, xi, snr, family)
        own = np.unique(exact_sinr[exact_sinr > 0])
        for gamma_t in [*own[::len(own) // 6 + 1], 3.0, 15.0]:
            fast = batched_tagged_sinr(h, xi, snr, rx, gamma_t)
            np.testing.assert_array_equal(fast < gamma_t, exact_sinr < gamma_t)
            low = bound < gamma_t * (1.0 - DECISION_MARGIN)
            np.testing.assert_array_equal(fast[low], bound[low])
            kept = ~low
            if sic:
                kept &= fast < gamma_t * (1.0 + DECISION_MARGIN)
            np.testing.assert_array_equal(fast[kept], exact_sinr[kept])


def count_cholesky_rows(monkeypatch):
    """Record the draws of every Cholesky the kernel runs."""
    rows = []

    def counted(gram):
        rows.append(gram.shape[-1])
        return cholesky_lower(gram)

    monkeypatch.setattr(receivers, "cholesky_lower", counted)
    return rows


@pytest.mark.parametrize("family,criterion,sic", ALL_RECEIVERS)
def test_matched_filter_exit_skips_the_cholesky(monkeypatch, family,
                                                criterion, sic):
    # Received powers near 1e-12, as without power control: every bound
    # lies far below gamma_T, so every draw is decided before the Cholesky.
    rng = np.random.default_rng(61)
    m, n = (2, 4) if family == "wl" else (3, 3)
    h, xi = near_dependent_stack(family, m, n, 1.0, rng, 50)
    xi = 1e-12 * xi
    rx = ReceiverSpec(family, criterion, sic=sic)
    rows = count_cholesky_rows(monkeypatch)
    got = batched_tagged_sinr(h, xi, 1e3, rx, 3.0)
    assert rows == [] and np.all(got < 3.0)
    batched_tagged_sinr(h, xi, 1e3, rx)
    assert rows[0] == 50


def test_sic_exit_shrinks_the_second_stage(monkeypatch):
    # PPC WL-ZF-SIC at 60 dB: most tagged users clear gamma_T = 15 at the
    # first stage, decoded or not, so fewer draws reach the second.
    rng = np.random.default_rng(62)
    h, xi = near_dependent_stack("wl", 2, 4, 1.0, rng, 200)
    xi = np.ones_like(xi)
    rx = ReceiverSpec("wl", "zf", sic=True)
    snr = 1e6
    rows = count_cholesky_rows(monkeypatch)
    batched_tagged_sinr(h, xi, snr, rx)
    exact_second = rows[1]
    rows.clear()
    batched_tagged_sinr(h, xi, snr, rx, threshold("wl", 2.0))
    assert rows[0] == 200 and (rows + [0])[1] < exact_second
