"""Exception hierarchy and PaxConfig validation."""

import pytest

from repro import errors
from repro.core.config import PaxConfig


class TestErrorHierarchy:
    def test_all_derive_from_repro_error(self):
        for name in ("AddressError", "ProtectionError", "PoolError",
                     "LogError", "AllocationError", "ProtocolError",
                     "CrashedError", "RecoveryError", "ConfigError"):
            cls = getattr(errors, name)
            assert issubclass(cls, errors.ReproError)

    def test_protection_error_carries_address(self):
        exc = errors.ProtectionError(0x1234)
        assert exc.addr == 0x1234
        assert "0x1234" in str(exc)

    def test_one_except_catches_everything(self):
        with pytest.raises(errors.ReproError):
            raise errors.LogError("x")


class TestPaxConfig:
    def test_defaults_validate(self):
        config = PaxConfig().validate()
        assert config.dedup_log_entries
        assert config.prefer_durable_eviction

    def test_negative_hbm_rejected(self):
        with pytest.raises(errors.ConfigError):
            PaxConfig(hbm_lines=-1).validate()

    def test_zero_buffer_rejected(self):
        with pytest.raises(errors.ConfigError):
            PaxConfig(writeback_buffer_lines=0).validate()

    def test_zero_drain_rejected(self):
        with pytest.raises(errors.ConfigError):
            PaxConfig(log_drain_bps=0).validate()
        with pytest.raises(errors.ConfigError):
            PaxConfig(writeback_drain_bps=0).validate()

    def test_negative_processing_rejected(self):
        with pytest.raises(errors.ConfigError):
            PaxConfig(device_processing_ns=-1).validate()

    def test_hbm_zero_is_valid_ablation(self):
        assert PaxConfig(hbm_lines=0).validate().hbm_lines == 0


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", [
    "hbm_lines", "writeback_buffer_lines", "log_drain_bps",
    "writeback_drain_bps", "device_processing_ns"])
def test_pax_config_non_finite_rejected(name, value):
    config = PaxConfig()
    setattr(config, name, value)
    with pytest.raises(errors.ConfigError, match="must be finite"):
        config.validate()
