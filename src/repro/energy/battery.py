"""Lead-acid battery bank model.

The stations run from 12 V lead-acid batteries (36 Ah in the paper's
Section III arithmetic).  The model is deliberately simple — an
energy-based state of charge plus an internal-resistance terminal-voltage
term — because the reproduced algorithms only ever observe the terminal
voltage through the MSP430's ADC:

- open-circuit voltage rises linearly with state of charge across the
  10.5-12.9 V band, placing the paper's Table II thresholds
  (11.5 / 12.0 / 12.5 V) at meaningful SoC levels;
- charging raises the terminal voltage by ``I x R`` (up to the ~14.5 V seen
  at the top of Fig 5), discharging lowers it, which produces the 2-hourly
  dips Fig 5 shows while the dGPS duty-cycles in state 3.

Calibration anchor (Section III): a 3.6 W GPS running continuously from
36 Ah at 12 V nominal lasts ``36 * 12 / 3.6 = 120 h = 5 days`` — exactly
the paper's figure.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class BatteryConfig:
    """Electrical parameters of the battery bank (paper defaults)."""

    #: Rated capacity in amp-hours (Section III uses 36 Ah).
    capacity_ah: float = 36.0
    #: Nominal bus voltage used for energy arithmetic.
    nominal_voltage: float = 12.0
    #: Open-circuit voltage at 0% state of charge.
    ocv_empty: float = 10.5
    #: Open-circuit voltage at 100% state of charge.
    ocv_full: float = 12.9
    #: Internal resistance in ohms (sets charge rise / discharge dip size).
    internal_resistance: float = 0.35
    #: Charge acceptance efficiency (fraction of source energy stored).
    charge_efficiency: float = 0.85
    #: Terminal voltage is clamped here during heavy charging (regulator limit).
    max_terminal_voltage: float = 14.5
    #: SoC below which the electronics brown out (MSP430 RAM/RTC lost).
    brownout_soc: float = 0.0
    #: SoC at which a browned-out system has enough charge to restart.
    recovery_soc: float = 0.10
    #: Usable-capacity loss per °C below ``temperature_reference_c``
    #: (lead-acid chemistry slows in the cold; ~0.6-1%/°C is typical).
    #: 0 disables temperature effects — the Section III anchors (5-day /
    #: 117-day lifetimes) are quoted at reference temperature.
    cold_derating_per_c: float = 0.0
    #: Temperature at which the rated capacity applies, °C.
    temperature_reference_c: float = 20.0
    #: Floor on the derated capacity fraction.
    min_capacity_fraction: float = 0.5

    @property
    def capacity_j(self) -> float:
        """Usable capacity in joules."""
        return self.capacity_ah * self.nominal_voltage * 3600.0

    @property
    def capacity_wh(self) -> float:
        """Usable capacity in watt-hours."""
        return self.capacity_ah * self.nominal_voltage


@dataclass
class Battery:
    """Energy-based battery state with a terminal-voltage model."""

    config: BatteryConfig = field(default_factory=BatteryConfig)
    #: State of charge in [0, 1].
    soc: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.soc <= 1.0:
            raise ValueError(f"soc must be in [0, 1], got {self.soc}")

    # ------------------------------------------------------------------
    # Energy book-keeping
    # ------------------------------------------------------------------
    @property
    def energy_j(self) -> float:
        """Stored energy in joules."""
        return self.soc * self.config.capacity_j

    @property
    def is_exhausted(self) -> bool:
        """True when the bank cannot power the electronics at all."""
        return self.soc <= self.config.brownout_soc

    @property
    def can_restart(self) -> bool:
        """True when a browned-out system has recharged enough to restart."""
        return self.soc >= self.config.recovery_soc

    def apply(self, dt: float, load_w: float, source_w: float = 0.0) -> None:
        """Integrate ``dt`` seconds of ``load_w`` drain and ``source_w`` charge.

        Charging passes through the charge-efficiency factor; the SoC is
        clamped to [0, 1].  When the bank is already exhausted the load is
        physically absent (everything has browned out) so only charging has
        an effect.
        """
        if dt < 0:
            raise ValueError(f"dt must be >= 0, got {dt}")
        if load_w < 0 or source_w < 0:
            raise ValueError("power values must be >= 0")
        energy = self.energy_j
        if not self.is_exhausted:
            energy -= load_w * dt
        energy += source_w * dt * self.config.charge_efficiency
        self.soc = min(1.0, max(0.0, energy / self.config.capacity_j))

    def drain_j(self, energy_j: float) -> None:
        """Remove a lump of energy (e.g. a burst transfer accounted analytically)."""
        if energy_j < 0:
            raise ValueError("energy must be >= 0")
        self.soc = max(0.0, (self.energy_j - energy_j) / self.config.capacity_j)

    # ------------------------------------------------------------------
    # Crossing prediction (pure — nothing here mutates the battery)
    # ------------------------------------------------------------------
    def predicted_soc(self, dt: float, load_w: float, source_energy_j: float) -> float:
        """SoC after ``dt`` seconds of ``load_w`` given ``source_energy_j`` input.

        Mirrors :meth:`apply` exactly (exhaustion gating evaluated at the
        interval start, charge efficiency, [0, 1] clamp) but leaves the
        battery untouched — the adaptive bus uses it to look ahead along
        the weather-driven source curve.
        """
        energy = self.energy_j
        if not self.is_exhausted:
            energy -= load_w * dt
        energy += source_energy_j * self.config.charge_efficiency
        return min(1.0, max(0.0, energy / self.config.capacity_j))

    # ------------------------------------------------------------------
    # Voltage model
    # ------------------------------------------------------------------
    def open_circuit_voltage(self) -> float:
        """Resting voltage at the current state of charge."""
        cfg = self.config
        return cfg.ocv_empty + (cfg.ocv_full - cfg.ocv_empty) * self.soc

    def terminal_voltage_at(self, soc: float, net_power_w: float = 0.0) -> float:
        """The terminal-voltage model evaluated at an arbitrary ``soc`` (pure)."""
        cfg = self.config
        ocv = cfg.ocv_empty + (cfg.ocv_full - cfg.ocv_empty) * soc
        current = net_power_w / cfg.nominal_voltage
        voltage = ocv + current * cfg.internal_resistance
        return min(voltage, cfg.max_terminal_voltage)

    def terminal_voltage(self, net_power_w: float = 0.0) -> float:
        """Voltage at the battery terminals under ``net_power_w`` flow.

        ``net_power_w`` is sources minus loads: positive while charging
        (terminal voltage rises above OCV), negative while discharging
        (voltage sags — the Fig 5 dGPS dips).
        """
        return self.terminal_voltage_at(self.soc, net_power_w)

    def lifetime_days(self, load_w: float) -> float:
        """Days until empty under a constant ``load_w`` from the current SoC.

        This is the paper's Section III arithmetic (5 days for a continuous
        3.6 W GPS from a full 36 Ah bank).
        """
        if load_w <= 0:
            return float("inf")
        return self.energy_j / load_w / 86400.0

    # ------------------------------------------------------------------
    # Temperature effects (optional)
    # ------------------------------------------------------------------
    def capacity_fraction_at(self, temperature_c: float) -> float:
        """Usable-capacity fraction at ``temperature_c``.

        1.0 at (or above) the reference temperature; derated linearly in
        the cold down to ``min_capacity_fraction``.  With the default
        ``cold_derating_per_c = 0`` this is always 1.0.
        """
        cfg = self.config
        if cfg.cold_derating_per_c <= 0.0:
            return 1.0
        deficit = max(0.0, cfg.temperature_reference_c - temperature_c)
        return max(cfg.min_capacity_fraction,
                   1.0 - cfg.cold_derating_per_c * deficit)

    def usable_energy_j(self, temperature_c: float) -> float:
        """Energy actually extractable at ``temperature_c``."""
        return self.energy_j * self.capacity_fraction_at(temperature_c)

    def lifetime_days_at(self, load_w: float, temperature_c: float) -> float:
        """Cold-aware variant of :meth:`lifetime_days`.

        An Iceland January (~-10 °C) shaves roughly a fifth off the
        headline winter endurance at typical derating coefficients — the
        margin the Table II thresholds buy back.
        """
        if load_w <= 0:
            return float("inf")
        return self.usable_energy_j(temperature_c) / load_w / 86400.0
