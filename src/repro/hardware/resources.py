"""Structural hardware-resource estimation (reproduction of Table I).

The paper synthesises its controller and several reference designs on a Xilinx
VC709 and reports LUTs, registers, DSPs, BRAM and power.  Synthesis tooling is
not available offline, so each design is described *structurally* — as counts
of the primitives in :mod:`repro.hardware.library` — and costed by summing the
primitive costs.  Power uses a first-order activity model
``P = f_clk * activity * (LUT + 0.6 FF + 15 DSP + 8 BRAM_KB) / 1000`` with a
per-design activity factor (CPUs toggle far more than event-driven I/O
controllers).  The primitive costs and activities are calibrated against the
published reference designs, so the reproduced table preserves the *relative*
resource efficiency the paper claims; the published values are also exported
(:data:`PUBLISHED_TABLE1`) so experiments can report model-vs-paper side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

from repro.hardware.library import PrimitiveLibrary, ResourceCost

#: Table I of the paper (published values): LUTs, registers, DSPs, RAM (KB), power (mW).
PUBLISHED_TABLE1: Dict[str, Dict[str, float]] = {
    "proposed": {"luts": 1156, "registers": 982, "dsps": 0, "bram_kb": 32, "power_mw": 11},
    "microblaze-basic": {"luts": 854, "registers": 529, "dsps": 0, "bram_kb": 16, "power_mw": 127},
    "microblaze-full": {"luts": 4908, "registers": 4385, "dsps": 6, "bram_kb": 128, "power_mw": 238},
    "uart": {"luts": 93, "registers": 85, "dsps": 0, "bram_kb": 0, "power_mw": 1},
    "spi": {"luts": 334, "registers": 552, "dsps": 0, "bram_kb": 0, "power_mw": 4},
    "can": {"luts": 711, "registers": 604, "dsps": 0, "bram_kb": 0, "power_mw": 5},
    "gpiocp": {"luts": 886, "registers": 645, "dsps": 0, "bram_kb": 16, "power_mw": 7},
}

#: Power-model coefficients (µW per element per MHz per unit activity).
_POWER_WEIGHT_LUT = 1.0
_POWER_WEIGHT_FF = 0.6
_POWER_WEIGHT_DSP = 15.0
_POWER_WEIGHT_BRAM_KB = 8.0


@dataclass(frozen=True)
class ResourceEstimate:
    """Estimated implementation cost of one design."""

    name: str
    luts: int
    registers: int
    dsps: int
    bram_kb: int
    power_mw: float


@dataclass(frozen=True)
class HardwareDesign:
    """A structural description of a hardware design plus its operating point."""

    name: str
    primitives: Mapping[str, int]
    clock_mhz: float = 100.0
    activity: float = 0.05
    description: str = ""

    def __post_init__(self) -> None:
        if self.clock_mhz <= 0:
            raise ValueError("clock frequency must be positive")
        if not 0 < self.activity <= 1.0:
            raise ValueError("activity must lie in (0, 1]")
        for name, count in self.primitives.items():
            if count < 0:
                raise ValueError(f"primitive count for {name!r} must be non-negative")

    def cost(self, library: Optional[PrimitiveLibrary] = None) -> ResourceCost:
        library = library or PrimitiveLibrary()
        return library.total(dict(self.primitives))

    def estimate(self, library: Optional[PrimitiveLibrary] = None) -> ResourceEstimate:
        cost = self.cost(library)
        weighted = (
            cost.luts * _POWER_WEIGHT_LUT
            + cost.registers * _POWER_WEIGHT_FF
            + cost.dsps * _POWER_WEIGHT_DSP
            + cost.bram_kb * _POWER_WEIGHT_BRAM_KB
        )
        power_mw = self.clock_mhz * self.activity * weighted / 1000.0
        return ResourceEstimate(
            name=self.name,
            luts=cost.luts,
            registers=cost.registers,
            dsps=cost.dsps,
            bram_kb=cost.bram_kb,
            power_mw=power_mw,
        )


def proposed_controller_design(n_processors: int = 1, memory_kb: int = 32) -> HardwareDesign:
    """The paper's I/O controller: memory + scheduling table + synchroniser + EXU.

    The reference implementation of Table I integrates one controller processor
    and a 32 KB controller memory; ``n_processors`` scales the per-device
    processing elements for integration studies (the design is replicated per
    connected I/O device, Section IV).
    """
    per_processor = {
        "lutram_table64": 1,   # scheduling table
        "fifo16x32": 2,        # request + response channels
        "fsm_medium": 1,       # synchroniser control
        "fsm_small": 2,        # fault recovery + EXU sequencing
        "timer64": 1,          # global-timer interface
        "counter32": 1,
        "comparator32": 2,     # start-time matching
        "mux32": 6,
        "register32": 9,
        "decoder": 1,          # command translation
        "fifo64x32": 2,        # command staging to/from memory
    }
    primitives: Dict[str, int] = {"noc_interface": 1, "bram16kb": max(1, memory_kb // 16)}
    for name, count in per_processor.items():
        primitives[name] = count * n_processors
    return HardwareDesign(
        name="proposed",
        primitives=primitives,
        clock_mhz=100.0,
        activity=0.056,
        description="Dedicated I/O controller with offline job-level scheduling support",
    )


def gpiocp_design() -> HardwareDesign:
    """GPIOCP (Jiang & Audsley 2017): pre-loading plus FIFO-ordered execution."""
    return HardwareDesign(
        name="gpiocp",
        primitives={
            "noc_interface": 1,
            "fifo64x32": 2,
            "fsm_medium": 1,
            "fsm_small": 1,
            "decoder": 1,
            "timer64": 1,
            "counter32": 1,
            "comparator32": 2,
            "mux32": 6,
            "register32": 5,
            "bram16kb": 1,
        },
        clock_mhz=100.0,
        activity=0.051,
        description="GPIO command processor with FIFO execution (no scheduler)",
    )


def microblaze_basic_design() -> HardwareDesign:
    """A basic MicroBlaze soft processor (no caches, no FPU)."""
    return HardwareDesign(
        name="microblaze-basic",
        primitives={
            "alu32": 1,
            "regfile32x32": 1,
            "decoder": 1,
            "fsm_medium": 1,
            "bus_interface": 1,
            "comparator32": 2,
            "register32": 6,
            "bram16kb": 1,
        },
        clock_mhz=200.0,
        activity=0.49,
        description="MicroBlaze, basic configuration",
    )


def microblaze_full_design() -> HardwareDesign:
    """A full-featured MicroBlaze (FPU, caches, MMU, branch prediction)."""
    return HardwareDesign(
        name="microblaze-full",
        primitives={
            "alu32": 1,
            "regfile32x32": 1,
            "decoder": 1,
            "fsm_medium": 1,
            "bus_interface": 1,
            "comparator32": 2,
            "register32": 10,
            "fpu": 1,
            "multiplier32": 2,
            "cache4kb": 6,
            "mmu": 1,
            "branch_predictor": 1,
            "interrupt_ctrl": 1,
            "pipeline_stage": 3,
            "bram16kb": 5,
        },
        clock_mhz=200.0,
        activity=0.138,
        description="MicroBlaze, full-featured configuration",
    )


def uart_controller_design() -> HardwareDesign:
    return HardwareDesign(
        name="uart",
        primitives={"uart_engine": 1},
        clock_mhz=100.0,
        activity=0.069,
        description="Plain UART controller IP",
    )


def spi_controller_design() -> HardwareDesign:
    return HardwareDesign(
        name="spi",
        primitives={"spi_engine": 1},
        clock_mhz=100.0,
        activity=0.060,
        description="Plain SPI controller IP",
    )


def can_controller_design() -> HardwareDesign:
    return HardwareDesign(
        name="can",
        primitives={"can_engine": 1},
        clock_mhz=100.0,
        activity=0.047,
        description="Plain CAN controller IP",
    )


def reference_designs() -> Dict[str, HardwareDesign]:
    """All designs of Table I, keyed by the names used in :data:`PUBLISHED_TABLE1`."""
    designs = [
        proposed_controller_design(),
        microblaze_basic_design(),
        microblaze_full_design(),
        uart_controller_design(),
        spi_controller_design(),
        can_controller_design(),
        gpiocp_design(),
    ]
    return {design.name: design for design in designs}


def estimate_all(
    designs: Optional[Mapping[str, HardwareDesign]] = None,
    library: Optional[PrimitiveLibrary] = None,
) -> Dict[str, ResourceEstimate]:
    """Resource estimates of every design (default: the Table I reference set)."""
    designs = designs or reference_designs()
    return {name: design.estimate(library) for name, design in designs.items()}
