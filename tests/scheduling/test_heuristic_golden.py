"""Golden digests of the static heuristic (Algorithm 1).

Every case schedules one materialised scenario system with
``HeuristicScheduler`` under one placement policy and hashes, per device:

* the ``(task, index, start)`` triples of ``schedule.entries`` in insertion
  order (the order the Upsilon float sums read them in), or ``None`` for an
  infeasible partition;
* the ``info`` counts (kept, sacrificed, dependency graphs, direct and
  shifted placements, the failed job);
* ``repr`` of Psi and Upsilon.

The grid is both placement policies x four scenarios x four utilisations x
systems 0-3 (128 partitions: 77 place a job by shifting, 17 are
infeasible), plus the 476-job single-device partition under both policies.
The digests were recorded from the object-based allocator and the networkx
graph decomposition; the array implementation must reproduce them.
"""

import functools
import hashlib

import pytest

from repro.core.memo import reset_memos
from repro.core.serialization import canonical_json
from repro.scenario import create_scenario, materialize
from repro.scheduling import HeuristicScheduler

SCENARIOS = ("paper-default", "bursty-periods", "faulty-controller", "wide-noc")
UTILISATIONS = (0.3, 0.5, 0.7, 0.9)
SYSTEMS = (0, 1, 2, 3)
#: Placement policy name -> ``prefer_ideal_placement``.
POLICIES = {"earliest": False, "ideal": True}

#: System 0 of this scenario is a 476-job partition on a single device.
LARGE_PARTITION = (
    create_scenario("paper-default").with_utilisation(0.7).with_workload(n_tasks=40)
)

#: (policy, scenario) -> one SHA-256 per (utilisation, system), in
#: ``UTILISATIONS`` x ``SYSTEMS`` order.
GOLDEN = {
    ("earliest", "paper-default"): (
        "d25a1d5c8901e3a43d689e3f01246729fb382ddbaa93b86bdf0b60564d7e3b7a",
        "7ed79713dc922fe849918bcfc97f9fed3a48ae8cadb5f77b498617b40c891ed6",
        "6c53138b5365f7bbdc554117ed872e1c8a8d57d48f8e1c9fb0b6b3def2a00797",
        "2acd3f0b7356e497b3b2f73977b220608682165b7b3d679101fdea07a12be5dc",
        "fee2abeb53ce7622f56465c3cbf75e76eb610185873ba195795c80f8da4b9583",
        "36f6c81009b8c1203968f5fa5f35016a2275e570a4d2a9255d82ec8678ab064c",
        "fc8f0bcb27d7ebb844db396f17dcd2c656c0d28befd172d5f50d244bff293fdb",
        "bff6ff86615235e27d918d05fc3a8cb0d3834a25e2d64671cda1c9c03faffc54",
        "157f4192c79e9c52b39455fb7c0ec7b10b0d65c812c60514a6f5d1a7da53450d",
        "7e38958a208a25e004e28bc1571e74e506b7b767086b9a77195e5e09cb29aade",
        "d52e59df4a98e97b20f9cc557974e63d1e954832acf2cb0b72d52c3d97fefd78",
        "0a715e47b4cc71379878a33bc23ee8fab55524a8bbf4c21e24632bd4bed174ed",
        "be6b0b0eef02429d8257a51a6dee676c1b44d6abb642baea4b1b81c48795eca0",
        "838f278855667feda097f03cc04b0ef9c1065d6aaa7f12daa765ad440bfe60dc",
        "570420be364ac42dca59479c1a026cfde198d8dbf91bf085b65a7e1574a0afdc",
        "4e78cc6cd4694be6a1d7762a0693140fa11b7201f128d5c1884ce7f617149bbe",
    ),
    ("earliest", "bursty-periods"): (
        "25aae05f65be042b52882661c26ce75cc214f8336a2da62c1e326acbfd6b64f8",
        "c9dcdc7616cce55cd434f9775445fce2afb7a820bc42e3a6dc8498cf0400be0d",
        "c3837ae5e176026667f242b83854c896572ba6a6acaeb5806142b4bf28a01e5b",
        "f2973233efc898de5a751c1446c5d15c70c423260e6b29f9cf9a74cabcd2504f",
        "644238187a4c29bda39eadac356e4a7cafce4bcc6f6eac41500ff694c181c13f",
        "bc83d3ca2d9057d855b087a8cd00ca2263949f09d5fb644f9ff8bb0e9db94393",
        "9851e14d298d3edd82bc49297822291d1dd950f407cc92ae6265398010638907",
        "42e4c8556c44f323a40d12db6af039a98ad2e602c6e66c2990830b0a33157c78",
        "4f225e65d2f9ade8e4941d4153f79a2fa6c28a6df58cbcba1df2821079670148",
        "9fdd173f9b5ea447e6e012eac4632fde16303ffeda11283389c6a21dcaf3aa28",
        "202751884555522496e0ca6912dd8918457df7b12fb4ecc6dfb4ee5c5a952e9d",
        "f2075a35259496c2fb46015e8544e5bb59b621a1dbfe49ed99758111dc639a5b",
        "2cbec046270cbf8a366bfd46cf125255ff9896518fe82accc0f30b66f9e18885",
        "9f32bf1b8fd41ef1d287a0ac772909dacd456df47eddb2d4a761ec4ab9641ac5",
        "e0a23cc9343fdd9ff6fb2ecb5978482d9120145c325c01764abda60894067b6e",
        "949b1c70debb63e3c55d06308188454c15ee436e26a654eb18e489ff7e220604",
    ),
    ("earliest", "faulty-controller"): (
        "f5dc82e63e44aa7219ffb0ca29d17fa85507d35cca806a9c09a178f5343ce18f",
        "541d54b3c65d7dc85db629e731c4a28ac9bb274d604f2e8c687ca814b1620441",
        "8fe2cdf6ffb997e0ee7d7b6bf405acd62c4586066499fdb6172fcf6e252bb372",
        "6c1386147bc8e0e71da4a0b9b38d3a666aaf03ff5a2ee39f7865db131f099cf6",
        "6b6327b81bf1120021611ba1b3a19ae3911aea4d15ee3a67072b9da6d4efa646",
        "4df9b6cb7a42c60791cec023ff2b0a58fb581e77e88d1eca94b38ceec21cffd9",
        "c61e92c49a63f002c227df59b5dc6bb21466145deef43305cbb57a8343d4b4f3",
        "9ee7c9039006adabf8ef4d5eb7d0f909351ee40cdb5320fbbf1189503e325618",
        "0d67b1bf9766e9104dd8fd466bebc1f8ddff5de1630a6cae838d0ed484464f14",
        "be7c3c32961f5c963f391f149e8cc011a834e7882e99e1e1e4dde6f3356f9865",
        "baf5e7e4d9f457ab91035217a3f24f05e792ce94ce03e11c7504ec60f94713bc",
        "9ebed5a928ec660832d7addb635717c05e032c73a1c5ce32eb502f218b62b528",
        "03cfac0f65d232d09921df07876be2dc2f2c2740ac5300537a32e3f1a406c899",
        "13bd861734b4cfe4376b7f95888009d83a6a456e451db07370275db1b499e308",
        "afdafb5ef25e0920fb1751561f888b7e42a573a49e282fdf2f588ae0e7041c15",
        "81c533dc51978edad996b0e62fd627c8b2a60137b8896b1d9f42e0a5a7af8a09",
    ),
    ("earliest", "wide-noc"): (
        "b0332417183df38f5690edd99d45cafddd943d3378eb07b9db8498908bdd5acf",
        "88d815e92d7eaad920c87208b1e1743d30ec7f56c2988cca44689b60ec6c29f6",
        "5f2868d134207405bda0d06b1d517949268f498601ba748a9f9b176fffa1c183",
        "ccf60f41ecfdcd1d4020570267835ab19d67c7e8bb4fbccfea6e43aa905cccad",
        "a35d67371415e979697b4cc28e8317e7c19dcbadb47ddb23978b931623ca7c3f",
        "a004f69ba6cec3d0c4281143a43411cd9a0eac960cdd3f021f71d8c3b9d0c7e0",
        "22537911b320a6e873f0f2ab461d5482920e5b1e220ea773d0f4e3a340117d55",
        "f2fa7d09f1124bde7348f922d5b5f079181a91b48882196981c86a494f07a979",
        "2fac433f68b99434cb96ac9bebd8547638fd47ea252e2e301e2c802513a6f149",
        "29e2702a4c7406bb080e61eaa0b3b74a88eea424ccf1829f36f6d91c9a1c8303",
        "e63dd8ca7f1f724b99813896efc3598d1e03da27760407b4dfd8d1316e2bb7fd",
        "00840b4c8e2666049fe8e7308272f574fa06962f655b797c7991b54617436c7d",
        "1e509dcf0a1a66c5e22841e2c8e126c643de677bfcc6940797bdc96def2b9d58",
        "ac12cc3cb124faff7c412af7967ac4b463f72c5ad2e35e2367ee97a70b80937d",
        "fe29b7972171bae2cb73ff7483dc3c57e947779987582895e1506a266d3860d8",
        "2cc7f02a278e5665fcb707a1b1ba9ea105691270025e9ca7fe27e4a3250918ac",
    ),
    ("ideal", "paper-default"): (
        "7bcd357516f9a81d5b90c9b3e171485a56bfa2489e9e6eb53027209d0ce4751f",
        "1944c4f5390848811456b4be9a3afdf9e3f7f0bb9c8e98c311fb3509d1521a5c",
        "4e5a7b58738375c4eade039c0e1bb5a9e0dafb3e3d631f6f44a345df18354b1f",
        "93ac378e8dc6f79d2e72f5605028132279e78de8bfa940435a682a88148b6dd5",
        "c6ae4fbea0624d6f4482bf450ef4afdfb12bba5c3896583f00d1f58db17ff949",
        "472a5df2231e94d4152650d0192132a20b6d35bdaed1f15e2b2809d9ae3532b3",
        "23292ad7b1cbcd7fb0844590ee60ba77f6f7391f33ef2beec7fc97cc06122671",
        "1713ba832352c713190f5274b502d1650a19f6e1d05eca2fba71885d4a0751dd",
        "157f4192c79e9c52b39455fb7c0ec7b10b0d65c812c60514a6f5d1a7da53450d",
        "e1c6921176a7c135bcf80d29a7bbfc5943671573274d22bc984a351b25f6fab4",
        "2b3037babb57d4e2738e6370ec32802b1ce8bd74d13086cab808762d53def638",
        "fffbb174792df389302a55c5f43a68e614ffabf01b9c3030b0e971737c1f3cd1",
        "61ee3c78fcf8e7d43bcda9829f9944cae83dc88d475c86460e4a478bfd832bb2",
        "7d317e839ba2f2176a11c9928b657d4de0e544c46725656abb5a3e3d596e540d",
        "570420be364ac42dca59479c1a026cfde198d8dbf91bf085b65a7e1574a0afdc",
        "d93efdee79f25dc3f5894b76c7dba95ede76ed109d8e424973eefa9c1889187f",
    ),
    ("ideal", "bursty-periods"): (
        "c86947c50ad55fb78c60db647e785238f92dc10c552692050bca198cbb8d7926",
        "057774570c757cfedba9544849ac2e19d04da70990dacbdbd9c47362ec890e92",
        "0239f521d07532f42a5a8df16fd13eb599876d51fe3220193cbd7d99fe83f42b",
        "3796bbdb585c8e3fdcfe981f4d6a53544659c7d6e3bd62cf3f2c7a034bc19bd6",
        "59d3fa9abd5eca6a34369e836ed5d52ac5f9143279ba57431f142500a110ab7d",
        "a33b8af45ade8177dad2643ff75ff611f1568dc0240371299ff538ba0c4a54c2",
        "59de057d315c6e52ad40c678a605f82cc1c9c0d6b5d8272c612430ba52db86d4",
        "ed0942f109a93a0e67a4af803b990a9fb75cf525ae7ea40eaf62bd550ca428a2",
        "6d2c2f48ebe2402de4c189b4382ea809fc1f924027c2a01ad1e697b4f1ccc600",
        "953f0a13145eb79c05db9d14c1a7a45fea8d695dc0e4d3576fa162681f2ada41",
        "ba9ed96720f0374c56b9489c92a8ccb6b24c02a30e08e4941f94cf3efef78091",
        "f9ce166ccf7de7c07906df6e8af5c88cad8dcee42ba1e0cbcbb9092e4d99518e",
        "f2a7f89bb74a3df942522f2421a2763f3324082aaffa6762eb3498c3af3b488b",
        "2d2a821fe350af219832fa20beacd565c2715a3504e21ad8e70456522aaa756e",
        "0836a5f92baecb43e2f45179e77ec3a6819f85c791eab727685a775c415c5112",
        "07c3c594b65af01f7b7351cdf0effbc31cb6c5d08479c3f24a2809b8f4899119",
    ),
    ("ideal", "faulty-controller"): (
        "1d568149d5a84f60682f53251895099ac3aa70098ed40fb615e572dfc07f54fc",
        "482b414099be30eaf7820ccc81b17181b2eb018c616a506ada36ebbf0f8f863b",
        "6adaea07784ee5b1b14a112b12071da4bfe1bca53bb0cb677b3fe5c3241c8a53",
        "349e9f621fc235c3ee9281c8c5a6215b357b0b2301b558d72628f518d2a1dc87",
        "8f2cdc2365446bb2b071d564816070ce259cf014165004191418abbc38efdaba",
        "6ac2a82a9ef18ba16d0c1ae373a45c0e1afd9afe8ca4e3ba74ce958ecbd275e7",
        "fd9063928a585ba66ab3fc2ed01d59b18d6fc4baa0fe778f5ebd0fd51d22c54b",
        "a951c4add69f32baf60ea0ca7645bb564975d007436b9ce8a5e692dd2b29a6d0",
        "547249455f539cac2c7faa525c1f0279787f1e6eabcc2a0c5f5ef8320f8979a9",
        "8cc5cac77fe1f0212413ef9e9925d73e9b1c6c943f304366f772a029c4d86df7",
        "0a09c7bc24e0de59c26f106571d4bf92e8abf323a050b381d1701e97c653b426",
        "b6ac0e01333bbbee10fd6577cba31dd3b5c3440e0dfe244705e2aa5124c95f13",
        "2d4ace995654a39eda5a12d4bc90cff27d6255761e27e4e1b501b73b79e06527",
        "13bd861734b4cfe4376b7f95888009d83a6a456e451db07370275db1b499e308",
        "afdafb5ef25e0920fb1751561f888b7e42a573a49e282fdf2f588ae0e7041c15",
        "b12b74c3d41c83bdf1073033ae00e376cf9ad9156e93bedbd3be6d758025473f",
    ),
    ("ideal", "wide-noc"): (
        "a8a3915955e7c03755fccdf927fac74b7f9ac31c84430fc53921a87f4e7dc463",
        "6a17ae99da2b556b8f0302188760820d0eb5c8cb3181b98d760b4a1d700b09d1",
        "ce40a14bac8ce1963f72e76d72eebe5f633b6e6bb063d2a17816132ee874e08b",
        "089b6989a74f522c0ac8b1b6d6ca1db9d4fbfa7e09b3d44e9dbac617958f683d",
        "9fd24575ef775980c7c4799120d7051b489b4696388f1d79c6228200ce0cd2a1",
        "04e6c1c3036c27b4add9c834704d38abba8a70ef420dc09abb609132a69e0248",
        "b0abbcf992f232ab03c795f44c0ff49f5d6757f0ee686dbb83a3b7c32fa54f69",
        "ac8a34b9e6017601d513e847bde62f016cd4965261c386a0a611b789bd82b068",
        "2fac433f68b99434cb96ac9bebd8547638fd47ea252e2e301e2c802513a6f149",
        "bb0cbc594d3c39f1323e23068a65ec644456fe421db8b5417949d875e4a6ea2c",
        "ea18c5bbc6a741a61ad1f1924b1731a2e17b3cbf306d954cb5458657d38bb4e9",
        "00840b4c8e2666049fe8e7308272f574fa06962f655b797c7991b54617436c7d",
        "ef9b4f3acaeee4817f3e291a547d7463bb0325f17cbfcb0c7915287b68278344",
        "0f98bf055fc50d3ac0a6e8a884be3b59bcc5d610f42210a19b28e87fcd5385be",
        "bc10fa931f669188fde7c841b76dfbac91f69cb334e1bac88a07e1299767bc3b",
        "2cc7f02a278e5665fcb707a1b1ba9ea105691270025e9ca7fe27e4a3250918ac",
    ),
}

#: policy -> SHA-256 of the 476-job partition.
LARGE_GOLDEN = {
    "earliest": "3879515b15055183d2687bdb0e1120aa305774d9e5c7ba6b263e9ce394c7a9cb",
    "ideal": "a88b83392c31a919b855564e347be4429ef9dc0d6f87be5dcbb8a9264137a4ca",
}


def device_payload(result):
    schedule = result.schedule
    return {
        "entries": None
        if schedule is None
        else [[e.job.task.name, e.job.index, e.start] for e in schedule.entries],
        "info": result.info,
        "psi": repr(result.psi),
        "upsilon": repr(result.upsilon),
    }


def schedule_system(policy, scenario, system_index):
    task_set = materialize(scenario, system_index).task_set
    scheduler = HeuristicScheduler(prefer_ideal_placement=POLICIES[policy])
    return scheduler.schedule_taskset(task_set)


def digest(system_result):
    payload = {
        device: device_payload(result) for device, result in system_result.per_device.items()
    }
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def grid_results(policy, name):
    """The 16 system results of one (policy, scenario) row, computed once."""
    reset_memos()
    return [
        schedule_system(policy, create_scenario(name).with_utilisation(u), system)
        for u in UTILISATIONS
        for system in SYSTEMS
    ]


@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", SCENARIOS)
def test_grid_matches_pinned_digests(policy, name):
    digests = tuple(digest(result) for result in grid_results(policy, name))
    assert digests == GOLDEN[(policy, name)]


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_large_partition_matches_pinned_digest(policy):
    reset_memos()
    result = schedule_system(policy, LARGE_PARTITION, 0)
    (device_result,) = result.per_device.values()
    assert device_result.info["n_input_jobs"] == 476
    assert digest(result) == LARGE_GOLDEN[policy]


def test_grid_covers_shifting_and_infeasible_partitions():
    partitions = [
        device_result
        for policy in POLICIES
        for name in SCENARIOS
        for result in grid_results(policy, name)
        for device_result in result.per_device.values()
    ]
    shifted = [r for r in partitions if r.info["allocated_by_shift"] > 0]
    infeasible = [r for r in partitions if not r.schedulable]
    assert len(partitions) == 128
    assert len(shifted) == 77
    assert len(infeasible) == 17
    assert any(r.schedulable for r in shifted)

