"""A second spelling of one computation computes nothing.

An alias (``heuristic``, ``controller``) or a second registered name of a
factory shares its canonical name's content key, so every consumer that
meets both spellings computes and stores the answer once: the scheduling
and simulation services, the daemon, campaigns and figure sweeps.  A GA
under a second name derives the same seed as ``ga``, so it stays pure.
"""

import pytest

from repro.campaign import CampaignRunner, build_campaign
from repro.core.memo import reset_memos
from repro.core.serialization import canonical_json
from repro.experiments import ExperimentConfig, ExperimentEngine
from repro.runtime import SimulationRequest, SimulationService
from repro.scheduling import GAScheduler, HeuristicScheduler
from repro.scheduling.registry import register_scheduler, unregister_scheduler
from repro.server import ServerClient, ThreadedServer
from repro.service import ScheduleRequest, SchedulingService, execute_request

SCENARIO = "short-hyperperiod"
GA_OPTIONS = "generations=3,population_size=8"


@pytest.fixture(autouse=True)
def cold_memos():
    reset_memos()
    yield
    reset_memos()


def schedule(spec, system_index=0):
    return ScheduleRequest(scenario=SCENARIO, system_index=system_index, spec=spec)


def simulate(execution_model, method="static"):
    return SimulationRequest(scenario=SCENARIO, method=method, execution_model=execution_model)


def result_bytes(response):
    return canonical_json(response.result_dict())


class TestServices:
    def test_static_and_heuristic_compute_once(self):
        with SchedulingService() as service:
            first, second = service.submit_batch([schedule("static"), schedule("heuristic")])
            assert service.computed == 1
        assert (first.cache, second.cache) == ("miss", "hit")
        assert first.cache_key == second.cache_key
        assert second.spec == "static"

    def test_dedicated_controller_and_controller_simulate_once(self):
        with SimulationService() as service:
            first, second = service.submit_batch(
                [simulate("dedicated-controller"), simulate("controller")]
            )
            assert service.computed == 1
        assert (first.cache, second.cache) == ("miss", "hit")
        assert second.execution_model == "dedicated-controller"

    def test_the_daemon_computes_each_pair_once(self):
        with ThreadedServer(n_workers=1, port=0) as threaded:
            with ServerClient(threaded.host, threaded.port) as client:
                client.schedule(schedule("static"))
                client.schedule(schedule("heuristic"))
                client.simulate(simulate("dedicated-controller"))
                client.simulate(simulate("controller"))
                stats = client.stats()
        assert stats["schedule"]["computed"] == 1
        assert stats["simulation"]["computed"] == 1


class TestCampaign:
    def test_a_campaign_listing_both_spellings_computes_half_its_cells(self):
        spec = build_campaign(
            name="aliases", scenarios=(SCENARIO,), methods=("static", "heuristic"),
            n_systems=2, utilisations=(0.3, 0.4),
        )
        with CampaignRunner(spec) as runner:
            result = runner.run()
            assert result.evaluated == spec.n_cells == 8
            assert runner.service.computed == spec.n_cells // 2
        by_method = {}
        for key, values in result.records.items():
            by_method.setdefault(key[1], []).append(values)
        assert by_method["static"] == by_method["heuristic"]


@pytest.fixture
def lccd():
    """``HeuristicScheduler`` under a second, plain name."""
    register_scheduler("lccd", HeuristicScheduler)
    yield "lccd"
    unregister_scheduler("lccd")


class TestFigureSweep:
    def test_a_second_name_of_the_heuristic_computes_no_cell(self, lccd, tmp_path):
        config = ExperimentConfig.smoke()
        with ExperimentEngine(config, artifact_dir=str(tmp_path)) as engine:
            static = engine.schedulability_sweep(methods=["static"])
            computed = engine.cells_computed
            assert computed > 0
            folded = engine.schedulability_sweep(methods=[lccd])
            assert engine.cells_computed == computed
        assert folded.series[lccd] == static.series["static"]

    @pytest.mark.parametrize("alias", ["heuristic", "lccd"])
    def test_an_alias_of_static_reuses_the_admission_cells(self, lccd, alias):
        """The accuracy sweep admits systems with plain ``static``; a series
        under another name of it reads those cells, even without a cache."""
        config = ExperimentConfig.smoke()
        with ExperimentEngine(config) as engine:
            static = engine.accuracy_sweep(methods=["static"])
            computed = engine.cells_computed
        reset_memos()
        with ExperimentEngine(config) as engine:
            folded = engine.accuracy_sweep(methods=[alias])
            assert engine.cells_computed == computed
        assert folded.psi.series[alias] == static.psi.series["static"]
        assert folded.upsilon.series[alias] == static.upsilon.series["static"]


@pytest.fixture(params=["alias", "second-register"])
def genetic(request):
    """The GA under a second name, bound through ``aliases=`` or a plain register."""
    if request.param == "alias":
        register_scheduler("ga", GAScheduler, aliases=("genetic",))
    else:
        register_scheduler("genetic", GAScheduler)
    yield "genetic"
    unregister_scheduler("genetic")


class TestGAUnderASecondName:
    def test_is_pure_and_shares_the_ga_key(self, genetic):
        request = schedule(f"{genetic}:{GA_OPTIONS}")
        first = execute_request(request)
        reset_memos()
        assert result_bytes(execute_request(request)) == result_bytes(first)
        reference = schedule(f"ga:{GA_OPTIONS}")
        assert request.content_key() == reference.content_key()
        assert result_bytes(execute_request(reference)) == result_bytes(first)

    def test_serial_and_pooled_answers_are_byte_identical(self, genetic):
        batch = [schedule(f"{genetic}:{GA_OPTIONS}", index) for index in range(3)]
        with SchedulingService(cache=None) as serial:
            expected = [result_bytes(response) for response in serial.submit_batch(batch)]
        reset_memos()
        with SchedulingService(cache=None, n_workers=2, chunksize=1) as pooled:
            assert [result_bytes(r) for r in pooled.submit_batch(batch)] == expected
