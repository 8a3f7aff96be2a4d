"""The paper's coding-gain claims, checked over the whole exact PPC domain.

Every gain `exact_gain` returns under per-user power control is formed
once per session over family x criterion x SIC, M <= 8, N <= D M and
R in {0.3, 1, 2, 4}.  The cells it leaves to sampling (WL-MMSE-SIC at
1 < N < gamma_T + 1, the bracket) are skipped, so each claim is asserted
over every pair or step whose gains are both exact.
"""

import itertools

import pytest

from wlmimo.link_model import LinkConfig
from wlmimo.outage_analysis import exact_gain
from wlmimo.receivers import DIMS, ReceiverSpec, threshold

MAX_M = 8
RATES = (0.3, 1.0, 2.0, 4.0)
CRITERIA = ("zf", "mmse")


def cells():
    """Every (family, criterion, sic, M, N, R) of the domain."""
    for family, criterion, sic in itertools.product(DIMS, CRITERIA, (False, True)):
        for m, rate in itertools.product(range(1, MAX_M + 1), RATES):
            for n in range(1, DIMS[family] * m + 1):
                yield family, criterion, sic, m, n, rate


@pytest.fixture(scope="session")
def gains():
    """{cell: GainSummary} of every cell whose gain is exact."""
    table = {}
    for cell in cells():
        family, criterion, sic, m, n, rate = cell
        cfg = LinkConfig(m_rx=m, n_users=n, snr=1.0, rate=rate, power_control="ppc")
        if (gain := exact_gain(cfg, ReceiverSpec(family, criterion, sic))) is not None:
            table[cell] = gain
    return table


def test_only_the_wl_mmse_sic_bracket_is_sampled(gains):
    sampled = set(cells()) - gains.keys()
    assert sampled == {cell for cell in cells() if cell[:3] == ("wl", "mmse", True)
                       and 1 < cell[4] < threshold("wl", cell[5]) + 1}
    assert len(sampled) == 142


def test_wl_has_the_higher_diversity_at_equal_users(gains):
    pairs = 0
    for (family, criterion, sic, m, n, rate), wl in gains.items():
        if family == "wl" and 1 < n <= m:
            cl = gains["cl", criterion, sic, m, n, rate]
            assert wl.diversity > cl.diversity, (criterion, sic, m, n, rate)
            pairs += 1
    assert pairs == 379


def test_wl_matches_cl_diversity_at_lower_gain(gains):
    # WL with 2N - 1 users has CL's diversity with N users, and a lower
    # coding gain, for linear ZF and linear MMSE.
    pairs = 0
    for criterion, m, rate in itertools.product(CRITERIA, range(1, MAX_M + 1), RATES):
        for n in range(1, m + 1):
            wl = gains["wl", criterion, False, m, 2 * n - 1, rate]
            cl = gains["cl", criterion, False, m, n, rate]
            case = (criterion, m, n, rate)
            assert wl.diversity == cl.diversity, case
            assert wl.coding_gain < cl.coding_gain, case
            pairs += 1
    assert pairs == 288


def test_sic_keeps_the_diversity_and_lifts_the_gain(gains):
    # Equal at N = 1, where there is nothing to cancel.
    pairs = 0
    for (family, criterion, sic, m, n, rate), sic_gain in gains.items():
        if not sic:
            continue
        linear = gains[family, criterion, False, m, n, rate]
        case = (family, criterion, m, n, rate)
        assert sic_gain.diversity == linear.diversity, case
        if n == 1:
            assert sic_gain.coding_gain == pytest.approx(linear.coding_gain,
                                                         rel=1e-12), case
        else:
            assert sic_gain.coding_gain > linear.coding_gain, case
        pairs += 1
    assert pairs == 722


@pytest.mark.parametrize("criterion, exact_steps", [("zf", 256), ("mmse", 106)])
def test_wl_sic_gain_grows_with_the_users(gains, criterion, exact_steps):
    steps = 0
    for m, rate in itertools.product(range(1, MAX_M + 1), RATES):
        for n in range(1, 2 * m):
            low = gains.get(("wl", criterion, True, m, n, rate))
            high = gains.get(("wl", criterion, True, m, n + 1, rate))
            if low is not None and high is not None:
                assert high.coding_gain > low.coding_gain, (m, n, rate)
                steps += 1
    assert steps == exact_steps
