"""Integration tests: the synthetic apps land in their paper-assigned
behaviour classes.

These run the real two-phase pipeline at reduced scale and check the
*orderings* the paper reports per application group (the groups of
``repro.workloads.validation.CLAIM_GROUPS``).
Absolute accuracies differ from the paper; orderings must not.
"""

import pytest

from repro.prefetch.factory import create_prefetcher
from repro.sim.two_phase import filter_tlb, replay_prefetcher
from repro.workloads.registry import get_trace

SCALE = 0.2


@pytest.fixture(scope="module")
def accuracy():
    """app -> mechanism -> accuracy at the paper's default config."""
    cache: dict[str, dict[str, float]] = {}

    def compute(app: str) -> dict[str, float]:
        if app not in cache:
            miss_trace = filter_tlb(get_trace(app, SCALE))
            cache[app] = {
                mech: replay_prefetcher(
                    miss_trace, create_prefetcher(mech, rows=256)
                ).prediction_accuracy
                for mech in ("RP", "MP", "DP", "ASP")
            }
        return cache[app]

    return compute


class TestStridedRepeatedGroup:
    """galgel-class: everything but small-table MP is accurate."""

    def test_galgel_all_good_except_mp(self, accuracy):
        acc = accuracy("galgel")
        assert acc["RP"] > 0.9
        assert acc["DP"] > 0.9
        assert acc["ASP"] > 0.9
        assert acc["MP"] < 0.1  # footprint exceeds a 256-row table

    def test_galgel_mp_recovers_with_big_table(self):
        miss_trace = filter_tlb(get_trace("galgel", SCALE))
        big = replay_prefetcher(miss_trace, create_prefetcher("MP", rows=1024))
        assert big.prediction_accuracy > 0.8

    def test_facerec_mp_fits(self, accuracy):
        acc = accuracy("facerec")
        assert min(acc.values()) > 0.7  # all mechanisms good

    def test_adpcm_rp_asp_dp_good_mp_poor(self, accuracy):
        acc = accuracy("adpcm-enc")
        assert acc["RP"] > 0.8
        assert acc["ASP"] > 0.9
        assert acc["DP"] > 0.9
        assert acc["MP"] < 0.1


class TestHistoryGroup:
    """gcc/ammp/mcf-class: RP leads; stride schemes trail."""

    @pytest.mark.parametrize("app", ["gcc", "crafty", "ammp", "lucas", "sixtrack"])
    def test_rp_best_or_close(self, accuracy, app):
        acc = accuracy(app)
        assert acc["RP"] >= max(acc.values()) - 0.05, acc

    @pytest.mark.parametrize("app", ["vpr", "mcf", "twolf", "ammp", "lucas"])
    def test_table3_apps_have_rp_above_dp(self, accuracy, app):
        """The premise of Table 3: RP's accuracy beats DP's on these."""
        acc = accuracy(app)
        assert acc["RP"] > acc["DP"], acc

    def test_gcc_dp_comes_close(self, accuracy):
        acc = accuracy("gcc")
        assert acc["DP"] > acc["RP"] - 0.25

    def test_crafty_asp_fails(self, accuracy):
        assert accuracy("crafty")["ASP"] < 0.1


class TestAlternationGroup:
    """parser/vortex: MP beats even RP; ASP does not do well."""

    @pytest.mark.parametrize("app", ["parser", "vortex"])
    def test_mp_beats_rp(self, accuracy, app):
        acc = accuracy(app)
        assert acc["MP"] > acc["RP"], acc
        assert acc["ASP"] < 0.1


class TestOneTouchGroup:
    """gzip-class: ASP and DP capture first-time references."""

    @pytest.mark.parametrize(
        "app", ["gzip", "perlbmk", "equake", "epic", "anagram", "yacr2"]
    )
    def test_asp_dp_good_history_zero(self, accuracy, app):
        acc = accuracy(app)
        assert acc["ASP"] > 0.5, acc
        assert acc["DP"] > 0.5, acc
        assert acc["RP"] < 0.1, acc
        assert acc["MP"] < 0.1, acc


class TestDistanceGroup:
    """swim-class: DP does much better than all others."""

    @pytest.mark.parametrize(
        "app", ["wupwise", "swim", "mgrid", "applu", "mpeg-dec", "mpegply", "perl4"]
    )
    def test_dp_dominates(self, accuracy, app):
        acc = accuracy(app)
        others = max(acc["RP"], acc["MP"], acc["ASP"])
        assert acc["DP"] > 0.6, acc
        assert acc["DP"] > others + 0.3, acc


class TestDPOnlyGroup:
    """gsm/jpeg/ks/bc/msvc: only DP makes noticeable predictions."""

    @pytest.mark.parametrize(
        "app", ["gsm-enc", "gsm-dec", "jpeg-enc", "jpeg-dec", "msvc", "ks", "bc"]
    )
    def test_dp_noticeable_others_near_zero(self, accuracy, app):
        acc = accuracy(app)
        assert 0.08 < acc["DP"] < 0.35, acc
        assert acc["RP"] < 0.08, acc
        assert acc["MP"] < 0.08, acc
        assert acc["ASP"] < 0.08, acc


class TestNobodyGroup:
    """eon/fma3d/g721/pgp-dec: no mechanism predicts anything."""

    @pytest.mark.parametrize(
        "app", ["eon", "fma3d", "g721-enc", "g721-dec", "pgp-dec"]
    )
    def test_all_mechanisms_near_zero(self, accuracy, app):
        acc = accuracy(app)
        assert max(acc.values()) < 0.1, acc


class TestMissRates:
    """The paper's top-8 selection and its ordering must reproduce."""

    def test_high_miss_apps_lead(self):
        rates = {
            app: filter_tlb(get_trace(app, SCALE)).miss_rate
            for app in (
                "galgel", "adpcm-enc", "mcf", "apsi", "vpr",
                "lucas", "twolf", "ammp", "gzip", "swim", "eon",
            )
        }
        assert rates["galgel"] == pytest.approx(0.228, abs=0.02)
        assert rates["adpcm-enc"] == pytest.approx(0.192, abs=0.02)
        assert rates["mcf"] == pytest.approx(0.090, abs=0.015)
        # Every background app sits below the top-8 band.
        band_floor = min(
            rates[a] for a in
            ("galgel", "adpcm-enc", "mcf", "apsi", "vpr", "lucas", "twolf", "ammp")
        )
        assert rates["gzip"] < band_floor
        assert rates["swim"] < band_floor
        assert rates["eon"] < band_floor
