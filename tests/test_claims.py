"""The paper's coding-gain claims, checked over the whole exact PPC domain.

Every gain `exact_gain` returns under per-user power control is formed
once per session over family x criterion x SIC, M <= 8, N <= D M and
R in {0.3, 1, 2, 4}.  The cells it leaves to sampling (WL-MMSE-SIC at
1 < N < gamma_T + 1, the bracket) are skipped, so each claim is asserted
over every pair or step whose gains are both exact.  The two claims that
hold only in part pin where they fail or hold: the CL-SIC steps at which
the gain falls as N grows, and the matched-diversity pairs at which WL-SIC
exceeds CL-SIC.
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


# The CL-SIC steps N -> N+1 at which the coding gain falls, as
# {(criterion, rate): [(M, N), ...]}.  CL ZF-SIC's moment does not read
# the rate, so its nine falls repeat at every R.
CL_ZF_SIC_FALLS = [(4, 3), (5, 4), (6, 4), (6, 5), (7, 5), (7, 6), (8, 5), (8, 6), (8, 7)]
CL_SIC_FALLS = {**{("zf", rate): CL_ZF_SIC_FALLS for rate in RATES},
                ("mmse", 2.0): [(m, 3) for m in range(4, MAX_M + 1)]}


def test_cl_sic_gain_falls_only_at_the_pinned_steps(gains):
    falls, steps = {}, 0
    for criterion, m, rate in itertools.product(CRITERIA, range(1, MAX_M + 1), RATES):
        for n in range(1, m):
            low = gains["cl", criterion, True, m, n, rate]
            high = gains["cl", criterion, True, m, n + 1, rate]
            if high.coding_gain < low.coding_gain:
                falls.setdefault((criterion, rate), []).append((m, n))
            steps += 1
    assert falls == CL_SIC_FALLS
    assert sum(map(len, falls.values())) == 41 and steps == 224


# The matched-diversity SIC pairs, WL with 2N - 1 users against CL with N,
# at which WL's coding gain is the larger, as {(criterion, rate): [(M, N)]}.
# Every pair with N >= 2 is one at low rates; none is at N = 1.
ALL_N_ABOVE_1 = [(m, n) for m in range(2, MAX_M + 1) for n in range(2, m + 1)]
WL_SIC_ABOVE_CL = {
    ("zf", 0.3): ALL_N_ABOVE_1,
    ("zf", 1.0): ALL_N_ABOVE_1,
    ("zf", 2.0): [(2, 2)] + [(m, n) for m in range(3, MAX_M + 1)
                             for n in range(3, m + 1)],
    ("zf", 4.0): [(7, 7), (8, 8)],
    ("mmse", 0.3): ALL_N_ABOVE_1,
    ("mmse", 1.0): [(3, 3), (4, 3), (5, 3), (6, 3), (6, 4), (7, 3), (7, 4), (8, 3),
                    (8, 4), (8, 5)],
}


@pytest.mark.parametrize("criterion, exact_pairs, wl_above", [("zf", 144, 80),
                                                               ("mmse", 81, 38)])
def test_wl_sic_exceeds_cl_sic_only_at_the_pinned_pairs(gains, criterion,
                                                        exact_pairs, wl_above):
    above, pairs = {}, 0
    for m, rate in itertools.product(range(1, MAX_M + 1), RATES):
        for n in range(1, m + 1):
            wl = gains.get(("wl", criterion, True, m, 2 * n - 1, rate))
            cl = gains["cl", criterion, True, m, n, rate]
            if wl is None:
                continue                        # the sampled WL bracket
            assert wl.diversity == cl.diversity, (m, n, rate)
            if wl.coding_gain > cl.coding_gain:
                above.setdefault((criterion, rate), []).append((m, n))
            pairs += 1
    assert above == {key: v for key, v in WL_SIC_ABOVE_CL.items() if key[0] == criterion}
    assert pairs == exact_pairs and sum(map(len, above.values())) == wl_above
