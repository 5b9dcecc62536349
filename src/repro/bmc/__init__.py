"""The baseboard management controller: Enzian's open control plane."""

from .._exports import exports

__getattr__, __dir__, __all__ = exports(__name__, {
    "console": ("ConsoleMux", "Uart"),
    "i2c": ("I2cBus", "I2cDevice", "I2cError", "I2cTiming"),
    "pmbus": (
        "Operation", "PmbusCommand", "PmbusFormatError", "StatusBit", "VOUT_MODE_DEFAULT",
        "linear11_decode", "linear11_encode", "linear16_decode", "linear16_encode",
    ),
    "power_manager": (
        "PRIMARY_DOMAINS", "RailFaultError", "decode_status", "RAIL_ELECTRICAL", "PowerManager",
        "PowerManagerError",
    ),
    "regulators": ("BoardClock", "LoadBook", "PowerRail", "RegulatorParams", "VoltageRegulator"),
    "sequencing": (
        "ALL_RAILS", "COMMON_RAILS", "CPU_RAILS", "FPGA_RAILS", "RailRequirement",
        "SequencingError", "power_down_order", "solve_sequence", "verify_sequence",
    ),
    "smbus": ("SmbusController", "SmbusDevice", "SmbusError", "crc8"),
    "telemetry": ("Phase", "PowerSample", "PowerTrace", "TelemetryService"),
})
