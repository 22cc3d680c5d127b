"""Latency model validation and the paper's constants."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.sim.latency import (
    Bandwidth,
    CacheLatency,
    LatencyModel,
    LinkLatency,
    MediaLatency,
    SoftwareCosts,
    default_model,
)

NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def _fields(cls):
    return [item.name for item in dataclasses.fields(cls)]


def _rejects(group, name, value):
    """Set one field of a default model to ``value``; it must not validate."""
    model = LatencyModel()
    setattr(getattr(model, group), name, value)
    with pytest.raises(ConfigError, match="must be finite"):
        model.validate()


class TestDefaults:
    def test_default_model_validates(self):
        model = default_model()
        assert model.media.pm_read_ns == 305.0       # FAST '20
        assert model.bandwidth.pm_write_bps == 14e9  # paper §5.1
        assert model.bandwidth.cxl_bps == 63e9       # paper §5.1

    def test_cache_levels_ordered(self):
        model = default_model()
        assert model.cache.l1_ns < model.cache.l2_ns < model.cache.llc_ns

    def test_page_fault_cost_exceeds_one_microsecond(self):
        # Paper §1: "more than 1 us per trap".
        assert default_model().software.page_fault_ns > 1000


class TestValidation:
    def test_unordered_cache_latency_rejected(self):
        with pytest.raises(ConfigError):
            CacheLatency(l1_ns=10, l2_ns=5, llc_ns=20).validate()

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            Bandwidth(dram_bps=0).validate()

    def test_negative_media_rejected(self):
        model = LatencyModel()
        model.media.pm_read_ns = -1
        with pytest.raises(ConfigError):
            model.validate()


class TestLinkLookup:
    def test_round_trip_doubles_one_way(self):
        model = default_model()
        assert model.device_round_trip_ns("cxl") == 2 * model.link.cxl_ns

    def test_smp_is_free(self):
        assert default_model().device_round_trip_ns("smp") == 0

    def test_enzian_slower_than_cxl(self):
        model = default_model()
        assert model.link.enzian_ns > model.link.cxl_ns

    def test_unknown_link_rejected(self):
        with pytest.raises(ConfigError):
            default_model().link_one_way_ns("infiniband")


class TestNonFiniteRejected:
    """NaN passes every range check by comparing false; inf passes the
    sign checks. Both must fail validation, in every field group."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", _fields(CacheLatency))
    def test_cache(self, name, value):
        _rejects("cache", name, value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", _fields(MediaLatency))
    def test_media(self, name, value):
        _rejects("media", name, value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", _fields(LinkLatency))
    def test_link(self, name, value):
        _rejects("link", name, value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", _fields(Bandwidth))
    def test_bandwidth(self, name, value):
        _rejects("bandwidth", name, value)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("name", _fields(SoftwareCosts))
    def test_software(self, name, value):
        _rejects("software", name, value)

    def test_machine_refuses_a_nan_link_before_any_access(self):
        from repro.libpax.machine import PaxMachine
        model = LatencyModel()
        model.link.cxl_ns = float("nan")
        with pytest.raises(ConfigError, match="cxl_ns must be finite"):
            PaxMachine(pool_size=1 << 20, log_size=1 << 16, latency=model)
