"""CampaignRunner: resume-after-interrupt, worker invariance, determinism."""

import os

import pytest

import repro.service.service as service_module
from repro.campaign import (
    CAMPAIGN_JOURNAL_FILENAME,
    CampaignRunner,
    CampaignSpec,
    cell_request,
    load_campaign_records,
    run_campaign,
)
from repro.service import SchedulingService, execute_request


@pytest.fixture()
def small_spec() -> CampaignSpec:
    """A 2-scenario x 2-method x 2-system grid (8 fast cells)."""
    return CampaignSpec(
        name="small",
        scenarios=("paper-default", "short-hyperperiod"),
        methods=("static", "gpiocp"),
        n_systems=2,
        utilisations=(0.4,),
    )


@pytest.fixture()
def interrupt_spec() -> CampaignSpec:
    """A 2-scenario x 3-method x 4-system grid (24 fast cells)."""
    return CampaignSpec(
        name="interrupt",
        scenarios=("paper-default", "short-hyperperiod"),
        methods=("static", "gpiocp", "fps-offline"),
        n_systems=4,
        utilisations=(0.4,),
    )


def journal_bytes(artifact_dir, spec) -> bytes:
    path = artifact_dir / spec.content_key() / CAMPAIGN_JOURNAL_FILENAME
    return path.read_bytes() if path.exists() else b""


def interrupt_after(monkeypatch, calls_file, completed: int) -> None:
    """Make every ``execute_request`` call after the first ``completed``
    raise ``KeyboardInterrupt``.

    Calls are numbered through an append-only file, so forked pool workers
    share the count; an ``O_APPEND`` write and the descriptor's offset after
    it give each call its number atomically.
    """
    original = service_module.execute_request

    def execute_request(request):
        fd = os.open(calls_file, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
        try:
            os.write(fd, b".")
            number = os.lseek(fd, 0, os.SEEK_CUR)
        finally:
            os.close(fd)
        if number > completed:
            raise KeyboardInterrupt
        return original(request)

    monkeypatch.setattr(service_module, "execute_request", execute_request)


class TestRun:
    def test_full_run_covers_the_grid(self, small_spec, tmp_path):
        result = run_campaign(small_spec, artifact_dir=tmp_path)
        assert result.complete
        assert result.evaluated == small_spec.n_cells == 8
        assert result.resumed == 0
        assert set(result.records) == {cell.key() for cell in small_spec.cells()}
        for values in result.records.values():
            assert set(values) == set(small_spec.metrics)

    def test_cells_match_direct_service_execution(self, small_spec, tmp_path):
        result = run_campaign(small_spec, artifact_dir=tmp_path)
        cell = next(small_spec.cells())
        response = execute_request(cell_request(small_spec, cell))
        values = result.records[cell.key()]
        assert values["schedulable"] == response.schedulable
        assert values["psi"] == response.psi
        assert values["upsilon"] == response.upsilon

    def test_in_memory_run_without_artifact_dir(self, small_spec):
        result = run_campaign(small_spec)
        assert result.complete and result.evaluated == 8


class TestResume:
    def test_interrupted_campaign_resumes_with_zero_recompute(
        self, small_spec, tmp_path
    ):
        # Reference: one uninterrupted run in a separate directory.
        reference = run_campaign(small_spec, artifact_dir=tmp_path / "ref")
        reference_json = reference.report().to_json()

        # Interrupt mid-grid after 3 of 8 cells.
        partial = run_campaign(small_spec, artifact_dir=tmp_path / "run", max_cells=3)
        assert not partial.complete
        assert partial.evaluated == 3

        # Resume: exactly the 5 missing cells are computed, nothing twice.
        with CampaignRunner(small_spec, artifact_dir=tmp_path / "run") as runner:
            assert runner.completed_cells == 3
            resumed = runner.run()
            assert resumed.evaluated == 5
            assert resumed.resumed == 3
            assert runner.service.computed == 5
        assert resumed.complete

        # And a third run recomputes zero cells.
        with CampaignRunner(small_spec, artifact_dir=tmp_path / "run") as runner:
            final = runner.run()
            assert final.evaluated == 0
            assert final.resumed == 8
            assert runner.service.computed == 0

        # The report is byte-identical to the uninterrupted run's.
        assert final.report().to_json() == reference_json
        assert resumed.report().to_json() == reference_json

    @pytest.mark.parametrize("completed", [0, 7, 23])
    def test_keyboard_interrupt_resumes_computing_only_the_rest(
        self, interrupt_spec, tmp_path, monkeypatch, completed
    ):
        run_campaign(interrupt_spec, artifact_dir=tmp_path / "ref")
        with monkeypatch.context() as patch:
            interrupt_after(patch, tmp_path / "calls", completed)
            with pytest.raises(KeyboardInterrupt):
                run_campaign(interrupt_spec, artifact_dir=tmp_path / "run")
        # Serially every answered cell was journalled before the next ran.
        assert journal_bytes(tmp_path / "run", interrupt_spec).count(b"\n") == completed

        with CampaignRunner(interrupt_spec, artifact_dir=tmp_path / "run") as runner:
            assert runner.completed_cells == completed
            result = runner.run()
            assert runner.service.computed == interrupt_spec.n_cells - completed
        assert result.complete and result.resumed == completed
        assert journal_bytes(tmp_path / "run", interrupt_spec) == journal_bytes(
            tmp_path / "ref", interrupt_spec
        )

    def test_pooled_keyboard_interrupt_loses_at_most_the_chunks_in_flight(
        self, interrupt_spec, tmp_path, monkeypatch
    ):
        n_workers, completed = 2, 13
        backend = f"sqlite:path={tmp_path / 'cache.db'}"
        run_campaign(interrupt_spec, artifact_dir=tmp_path / "ref")
        with monkeypatch.context() as patch:
            interrupt_after(patch, tmp_path / "calls", completed)
            with SchedulingService(
                n_workers=n_workers, chunksize=1, cache_backend=backend
            ) as service:
                with pytest.raises(KeyboardInterrupt):
                    run_campaign(interrupt_spec, artifact_dir=tmp_path / "run", service=service)

        with SchedulingService(
            n_workers=n_workers, chunksize=1, cache_backend=backend
        ) as service:
            result = run_campaign(interrupt_spec, artifact_dir=tmp_path / "run", service=service)
            recomputed = service.computed
        # Each finished chunk was stored before its cells were answered, so
        # only the chunks in flight (2 * n_workers chunks of one cell) can
        # have been lost with the interrupt.
        assert recomputed <= interrupt_spec.n_cells - completed + 2 * n_workers
        assert result.complete
        assert journal_bytes(tmp_path / "run", interrupt_spec) == journal_bytes(
            tmp_path / "ref", interrupt_spec
        )

    def test_torn_trailing_journal_line_recomputes_only_that_cell(
        self, small_spec, tmp_path
    ):
        reference = run_campaign(small_spec, artifact_dir=tmp_path / "ref")
        run_campaign(small_spec, artifact_dir=tmp_path / "run")
        journal = tmp_path / "run" / small_spec.content_key() / CAMPAIGN_JOURNAL_FILENAME
        lines = journal.read_text().splitlines()
        # Simulate a write cut short mid-line: partial trailing line, no newline.
        journal.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][: len(lines[-1]) // 2])

        with CampaignRunner(small_spec, artifact_dir=tmp_path / "run") as runner:
            assert runner.completed_cells == 7
            result = runner.run()
            assert result.evaluated == 1
        assert result.complete

        # The repair truncated the torn fragment before appending, so the
        # journal is healthy again: a further resume recomputes nothing and
        # the journal bytes match an uninterrupted run's exactly.
        with CampaignRunner(small_spec, artifact_dir=tmp_path / "run") as runner:
            final = runner.run()
            assert final.evaluated == 0
            assert final.resumed == 8
        assert journal.read_bytes() == (
            tmp_path / "ref" / small_spec.content_key() / CAMPAIGN_JOURNAL_FILENAME
        ).read_bytes()
        assert final.report().to_json() == reference.report().to_json()

    def test_different_spec_gets_a_different_directory(self, small_spec, tmp_path):
        run_campaign(small_spec, artifact_dir=tmp_path)
        other = CampaignSpec(
            name=small_spec.name,
            scenarios=small_spec.scenarios,
            methods=small_spec.methods,
            n_systems=small_spec.n_systems,
            utilisations=(0.3,),
        )
        with CampaignRunner(other, artifact_dir=tmp_path) as runner:
            assert runner.completed_cells == 0  # no cross-campaign bleed


class TestWorkerInvariance:
    def test_reports_are_byte_identical_at_1_and_4_workers(self, small_spec, tmp_path):
        serial = run_campaign(small_spec, artifact_dir=tmp_path / "w1", n_workers=1)
        parallel = run_campaign(small_spec, artifact_dir=tmp_path / "w4", n_workers=4)
        assert serial.records == parallel.records
        assert serial.report().to_json() == parallel.report().to_json()
        # The journals themselves are byte-identical too (canonical order).
        journal = lambda d: (  # noqa: E731
            d / small_spec.content_key() / CAMPAIGN_JOURNAL_FILENAME
        ).read_bytes()
        assert journal(tmp_path / "w1") == journal(tmp_path / "w4")


class TestReplications:
    def test_stochastic_replications_decorrelate_deterministically(self, tmp_path):
        spec = CampaignSpec(
            name="ga-reps",
            scenarios=("paper-default",),
            methods=("ga:generations=3,population_size=8",),
            n_systems=1,
            utilisations=(0.4,),
            replications=2,
            metrics=("psi", "upsilon"),
        )
        cells = list(spec.cells())
        requests = [cell_request(spec, cell) for cell in cells]
        # Replication 0 is the plain request (shares cache with ad-hoc calls);
        # replication 1 pins a derived seed, giving a different content key.
        assert requests[0].spec.options_dict().get("seed") is None
        assert requests[1].spec.options_dict().get("seed") is not None
        assert requests[0].content_key() != requests[1].content_key()

        # And the whole campaign stays deterministic across runs.
        first = run_campaign(spec, artifact_dir=tmp_path / "a")
        second = run_campaign(spec, artifact_dir=tmp_path / "b")
        assert first.records == second.records

    def test_deterministic_methods_dedup_replications(self, tmp_path):
        spec = CampaignSpec(
            name="det-reps",
            scenarios=("paper-default",),
            methods=("static",),
            n_systems=1,
            utilisations=(0.4,),
            replications=3,
            metrics=("psi",),
        )
        with CampaignRunner(spec, artifact_dir=tmp_path) as runner:
            result = runner.run()
            # 3 grid cells, but only 1 distinct computation (in-batch dedup).
            assert result.evaluated == 3
            assert runner.service.computed == 1
        values = list(result.records.values())
        assert values[0] == values[1] == values[2]


class TestSharedService:
    def test_external_service_is_reused_not_closed(self, small_spec):
        with SchedulingService(n_workers=1) as service:
            first = run_campaign(small_spec, service=service)
            assert service.computed == 8
            # Second campaign over the same service: all cache hits.
            second = run_campaign(small_spec, service=service)
            assert service.computed == 8
            assert first.records == second.records

    def test_load_campaign_records_reads_back_the_journal(self, small_spec, tmp_path):
        result = run_campaign(small_spec, artifact_dir=tmp_path)
        records, runtime_records = load_campaign_records(tmp_path, small_spec)
        assert records == result.records
        assert runtime_records == {}  # no runtime section on this campaign
