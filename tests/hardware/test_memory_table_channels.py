"""Unit tests for the controller memory, scheduling table and channels."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.hardware import (
    ControllerMemory,
    IOCommand,
    MemoryCapacityError,
    RequestChannel,
    ResponseChannel,
    SchedulingTable,
    TableEntry,
)
from repro.hardware.memory import StoredTask


class TestIOCommand:
    def test_validation(self):
        with pytest.raises(ValueError):
            IOCommand(opcode="set", device="d0", duration=0)
        with pytest.raises(ValueError):
            IOCommand(opcode="", device="d0")


class TestControllerMemory:
    def test_store_and_retrieve(self):
        memory = ControllerMemory(capacity_kb=1)
        commands = [IOCommand("set", "d0", duration=5), IOCommand("clear", "d0", duration=3)]
        stored = memory.store("tau0", commands)
        assert stored.duration == 8
        retrieved = memory.retrieve("tau0")
        assert retrieved.commands == commands
        assert memory.reads == 1
        assert memory.writes == 1

    def test_capacity_enforced(self):
        memory = ControllerMemory(capacity_kb=1)  # 1024 bytes = 128 commands
        commands = [IOCommand("set", "d0", duration=1)] * 200
        with pytest.raises(MemoryCapacityError):
            memory.store("big", commands)

    def test_restore_same_task_does_not_double_count(self):
        memory = ControllerMemory(capacity_kb=1)
        memory.store("tau0", [IOCommand("set", "d0", duration=1)] * 100)
        # Re-storing the same task replaces its footprint instead of adding to it.
        memory.store("tau0", [IOCommand("set", "d0", duration=1)] * 100)
        assert memory.used_bytes == 100 * IOCommand.ENCODED_SIZE_BYTES

    def test_storing_reads_each_size_a_bounded_number_of_times(self, monkeypatch):
        """``store`` keeps a running total instead of summing every stored
        task again, so pre-loading T tasks reads O(T) sizes, not T^2/2."""
        reads = []
        size_bytes = StoredTask.size_bytes

        def counted(stored):
            reads.append(stored.task_name)
            return size_bytes.fget(stored)

        monkeypatch.setattr(StoredTask, "size_bytes", property(counted))
        memory = ControllerMemory(capacity_kb=32)
        for index in range(160):
            memory.store(f"tau{index}", [IOCommand("set", "d0", duration=1)])
        memory.store("tau0", [IOCommand("set", "d0", duration=1)] * 2)
        assert len(reads) <= 2 * 161
        assert memory.used_bytes == 161 * IOCommand.ENCODED_SIZE_BYTES

    def test_a_full_memory_refuses_the_same_task_as_a_recount(self):
        """The running total raises where summing every stored task raises:
        at the first task that does not fit, and a replaced task frees its
        old bytes first."""
        memory = ControllerMemory(capacity_kb=1)  # 1024 bytes = 128 commands
        for index in range(12):
            memory.store(f"tau{index}", [IOCommand("set", "d0", duration=1)] * 10)
        with pytest.raises(MemoryCapacityError, match="'tau12' \\(80 B\\) exceeds the 1 KB"):
            memory.store("tau12", [IOCommand("set", "d0", duration=1)] * 10)
        with pytest.raises(MemoryCapacityError, match="'tau0' \\(168 B\\)"):
            memory.store("tau0", [IOCommand("set", "d0", duration=1)] * 21)
        memory.store("tau0", [IOCommand("set", "d0", duration=1)] * 18)
        assert memory.used_bytes == 1024 == sum(
            memory.retrieve(f"tau{index}").size_bytes for index in range(12)
        )

    def test_unknown_task_raises(self):
        with pytest.raises(KeyError):
            ControllerMemory().retrieve("missing")

    def test_empty_command_list_rejected(self):
        with pytest.raises(ValueError):
            ControllerMemory().store("tau0", [])

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            ControllerMemory(capacity_kb=0)


class TestSchedulingTable:
    def test_load_and_order(self):
        table = SchedulingTable()
        table.load(TableEntry("b", 0, 200))
        table.load(TableEntry("a", 0, 100))
        assert [entry.task_name for entry in table.entries()] == ["a", "b"]
        assert len(table) == 2

    def test_capacity_enforced(self):
        table = SchedulingTable(capacity=2)
        table.load(TableEntry("a", 0, 1))
        table.load(TableEntry("a", 1, 2))
        with pytest.raises(OverflowError):
            table.load(TableEntry("a", 2, 3))

    def test_enable_bits(self):
        table = SchedulingTable()
        table.load(TableEntry("a", 0, 100))
        assert not table.is_enabled("a")
        table.enable("a")
        assert table.is_enabled("a")
        table.disable("a")
        assert not table.is_enabled("a")

    def test_due_entries_and_next_start(self):
        table = SchedulingTable()
        for entry in (TableEntry("a", 0, 100), TableEntry("b", 0, 100), TableEntry("a", 1, 300)):
            table.load(entry)
        assert {e.task_name for e in table.due_entries(100)} == {"a", "b"}
        assert table.due_entries(200) == []
        assert table.next_start_after(100) == 300
        assert table.next_start_after(300) is None

    def test_entries_for_task(self):
        table = SchedulingTable()
        for entry in (TableEntry("a", 0, 100), TableEntry("b", 0, 150), TableEntry("a", 1, 300)):
            table.load(entry)
        assert len(table.entries_for("a")) == 2

    def test_reload_moves_a_key_to_its_new_start_time(self):
        table = SchedulingTable()
        table.load(TableEntry("b", 0, 100))
        table.load(TableEntry("a", 0, 100))
        table.due_entries(100).clear()  # callers get a copy, not the index
        assert table.due_entries(100) == [TableEntry("a", 0, 100), TableEntry("b", 0, 100)]
        table.load(TableEntry("a", 0, 300))
        assert table.due_entries(100) == [TableEntry("b", 0, 100)]
        assert table.due_entries(300) == [TableEntry("a", 0, 300)]

    @settings(max_examples=60, deadline=None)
    @given(
        rounds=st.lists(
            st.lists(
                st.builds(
                    TableEntry,
                    task_name=st.sampled_from(["a", "b", "c"]),
                    job_index=st.integers(min_value=0, max_value=3),
                    start_time=st.integers(min_value=0, max_value=12),
                ),
                max_size=8,
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_due_entries_equal_a_filter_over_entries(self, rounds):
        """Loads between the queries (twelve keys, so reloads move keys)
        never leave the start-time index stale."""
        table = SchedulingTable()
        for loads in rounds:
            for entry in loads:
                table.load(entry)
            for time in range(-1, 14):
                expected = [entry for entry in table.entries() if entry.start_time == time]
                assert table.due_entries(time) == expected


class TestChannels:
    def test_message_latency(self):
        channel = RequestChannel(latency=5)
        channel.push(10, kind="io-request", task="a")
        assert channel.pop_available(12) == []
        delivered = channel.pop_available(15)
        assert len(delivered) == 1
        assert delivered[0].payload["task"] == "a"

    def test_fifo_order(self):
        channel = ResponseChannel(latency=0)
        channel.push(1, kind="r", idx=1)
        channel.push(2, kind="r", idx=2)
        delivered = channel.pop_available(10)
        assert [m.payload["idx"] for m in delivered] == [1, 2]

    def test_capacity_and_drop_counting(self):
        channel = RequestChannel(latency=0, capacity=1)
        assert channel.push(0, kind="a") is not None
        assert channel.push(0, kind="b") is None
        assert channel.dropped == 1

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            RequestChannel(latency=-1)
