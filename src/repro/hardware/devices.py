"""Models of the I/O devices attached to the controller processors.

Each device executes primitive I/O commands and records the exact time every
operation started — that record is what the run-time timing-accuracy
measurements are computed from.  A GPIO pin, plus simple UART/SPI/CAN
peripherals, are provided; all share the :class:`IODevice` interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.hardware.memory import IOCommand


@dataclass(frozen=True)
class DeviceOperation:
    """A completed operation on a device."""

    time: int
    opcode: str
    value: int
    duration: int
    job_key: Optional[tuple] = None


class IODevice:
    """Base class: executes commands sequentially and records operations."""

    def __init__(self, name: str):
        self.name = name
        self.operations: List[DeviceOperation] = []
        self._busy_until = 0

    def is_busy(self, time: int) -> bool:
        return time < self._busy_until

    def supported_opcodes(self) -> List[str]:
        """Opcodes this device accepts; subclasses narrow this."""
        return ["read", "write", "set", "clear", "toggle"]

    def execute(self, command: IOCommand, time: int, job_key: Optional[tuple] = None) -> DeviceOperation:
        """Execute one command starting at ``time``.

        Raises ``RuntimeError`` if the device is still busy (the controller's
        per-device partitioning and non-preemptive schedules guarantee this
        never happens when a valid schedule is executed).
        """
        if command.opcode not in self.supported_opcodes():
            raise ValueError(
                f"device {self.name!r} does not support opcode {command.opcode!r}"
            )
        if self.is_busy(time):
            raise RuntimeError(
                f"device {self.name!r} is busy until {self._busy_until}, "
                f"cannot start a command at {time}"
            )
        operation = DeviceOperation(
            time=int(time),
            opcode=command.opcode,
            value=self._apply(command),
            duration=command.duration,
            job_key=job_key,
        )
        self.operations.append(operation)
        self._busy_until = time + command.duration
        return operation

    # -- subclass hooks ---------------------------------------------------------

    def _apply(self, command: IOCommand) -> int:
        """Apply the command to the device state; returns the observed value."""
        return command.value

    # -- introspection ------------------------------------------------------------

    def operation_times(self) -> List[int]:
        return [operation.time for operation in self.operations]

    def first_operation_of(self, job_key: tuple) -> Optional[DeviceOperation]:
        for operation in self.operations:
            if operation.job_key == job_key:
                return operation
        return None


class GPIOPin(IODevice):
    """A single general-purpose I/O pin with set/clear/toggle/read semantics."""

    def __init__(self, name: str, initial_level: int = 0):
        super().__init__(name)
        self.level = initial_level

    def supported_opcodes(self) -> List[str]:
        return ["set", "clear", "toggle", "read", "write"]

    def _apply(self, command: IOCommand) -> int:
        if command.opcode == "set":
            self.level = 1
        elif command.opcode == "clear":
            self.level = 0
        elif command.opcode == "toggle":
            self.level = 1 - self.level
        elif command.opcode == "write":
            self.level = 1 if command.value else 0
        return self.level


class UARTDevice(IODevice):
    """A transmit-only UART model: ``write`` sends one byte per command."""

    def __init__(self, name: str, baud_period: int = 9):
        super().__init__(name)
        self.baud_period = baud_period
        self.transmitted: List[int] = []

    def supported_opcodes(self) -> List[str]:
        return ["write", "read"]

    def _apply(self, command: IOCommand) -> int:
        if command.opcode == "write":
            self.transmitted.append(command.value & 0xFF)
        return command.value & 0xFF


class SPIDevice(IODevice):
    """A full-duplex SPI model: every ``write`` also shifts a byte in."""

    def __init__(self, name: str, response_pattern: int = 0xA5):
        super().__init__(name)
        self.response_pattern = response_pattern
        self.mosi_log: List[int] = []
        self.miso_log: List[int] = []

    def supported_opcodes(self) -> List[str]:
        return ["write", "read"]

    def _apply(self, command: IOCommand) -> int:
        if command.opcode == "write":
            self.mosi_log.append(command.value & 0xFF)
        response = self.response_pattern ^ (command.value & 0xFF)
        self.miso_log.append(response)
        return response


class CANDevice(IODevice):
    """A CAN transceiver model: ``write`` queues a frame identifier."""

    def __init__(self, name: str):
        super().__init__(name)
        self.frames: List[int] = []

    def supported_opcodes(self) -> List[str]:
        return ["write", "read"]

    def _apply(self, command: IOCommand) -> int:
        if command.opcode == "write":
            self.frames.append(command.value)
        return command.value
