"""Golden output digests: every reference scenario, pinned byte for byte.

A run is a pure function of (scenario, seed), so the sha256 of each output
file is a fingerprint of the simulator's behaviour.  Comparing two runs of
one build (acceptance criterion 8) cannot see a change that alters a single
float in every build alike; these pins can.  They were generated once, from
the simulator before its tick-loop hot paths were optimised, and must never
be regenerated to make a change pass.  A change that alters outputs on
purpose has to say so and justify the new digests.  Runs use the shipped
durations; the two sweeps are shortened.
"""

import copy
import dataclasses
import hashlib
import random
from pathlib import Path

import pytest

from fusedrive import perception, runner, world
from fusedrive.faults import ProbabilisticOutage
from fusedrive.runner import SensorRuntime, run
from fusedrive.scenario import load_scenario
from fusedrive.sweep import SweepSpec, sweep

from oracles import assert_reaped, use_cpus

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Every shipped scenario except sweep_kp, which exists to be swept.
GOLDEN = {
    "baseline_infra": {
        "correction.csv":
            "37313222efae561d23ddbcc99b0b3438dbc7a52e1deedb59894cf99f01ceed99",
        "deviation.csv":
            "2ad034b3dc34a184a0f38bce3ce880132714fc60f8b4241fb3f1152c6aae23c0",
        "drive_log.csv":
            "ddc13286b2c1e84d4ae67958ba0ab96c5205d33cfdc0a5d7f2751229a9848ba9",
        "error_cam0.csv":
            "0d4e4a808195fcf0a8dacb0d18ecab2bcc62f94d7a128d78ad128cf1cbad265a",
        "error_cam1.csv":
            "e8ff09f7818487274c51ab14f1f98ab29c31586e228c86eb6a0f14b451721924",
        "summary.json":
            "9e5e5c1b2f104c9901af7d144229e979ed56dd91336c0c322426dc11c0d26f4c",
    },
    "baseline_onboard": {
        "correction.csv":
            "6e7b9528c5f95a46ab6f764d9b8f054f1e888b41b355ca84e1077b2d0019090d",
        "deviation.csv":
            "ec720bd0087566df6f31b8a680c64c82c2d1d1db13d55b808849a6fe54b8ce2f",
        "drive_log.csv":
            "fdc3e25dc759145ec4ed8e0438ece0d65797d909b2c9b01149fdb631b69a8494",
        "error_pi.csv":
            "2aa07e779616503456d6f1c47fc7b1d3053d20b3e402f0603ef7e3c2a2c2aab6",
        "summary.json":
            "4c595400a453dbdc2dcd5a63897ab9fdb23184e436a605fbc99071d706b58914",
    },
    "combined_max": {
        "correction.csv":
            "bbb14229595c7219acb0fba181b59e034ee8b43b27691240f09400dcbf1252fe",
        "deviation.csv":
            "40b8ccf56244521200d53ebec38c553340b7448107c644e3291e129c806eda17",
        "drive_log.csv":
            "b1661007b5d57bcd898d311fc107f0373798e9c7d7480f65537098f27692728a",
        "error_cam0.csv":
            "14084e4cc884d26c2864281f6cef3defa625895ae05fa1ffbf7a904239858e85",
        "error_cam1.csv":
            "55837206a3def49af8125c39690451b1870b4c5f67552281ede2dbda8aa33499",
        "error_pi.csv":
            "d0cefd8aa0c192ea3d67963932e789331f8f128e163439b90b83432732d76f21",
        "summary.json":
            "9e9899998c189f32dbc04f7e4c37786be990cfe19c5c6a575922a84abf16144a",
    },
    "combined_simple": {
        "correction.csv":
            "65f78f6eb9ac56537dd0561b7af1ad41ab0b3621b70ee0cc159f18d1e73b0f97",
        "deviation.csv":
            "556a4bcf5d9a90e985f89500d173c75a3b020ea2992a1073ef30669ad72a0b91",
        "drive_log.csv":
            "10a6abd62f28929a9528042da84cef1d32f43afb0674c418d04bc9b2fcd41804",
        "error_cam0.csv":
            "08d6fa886f58922aeb642900bc320fd02d0fd2a2bcfec502ab243edf74a09b68",
        "error_cam1.csv":
            "ccccc7cd3e5231b2721a0984ada036ccf7709df9a2fa76382d3045a6b416668f",
        "error_pi.csv":
            "b4f33ef50b7afbcd54d2bfaa92ec79163b14c08c8a750a783ec36589461c0ef3",
        "summary.json":
            "368e4d3fdf128603873f273fafa0a138ba2b764e329898ad1e88accf1a9af4ec",
    },
    "combined_weighted": {
        "correction.csv":
            "e4f8fd2e98ad9ccc4341900159617fcdd275b9844c8321673e303cdf928f4b44",
        "deviation.csv":
            "ecbb0ae910ae1c4a35b5f9e8c9b1cd0353be7a0eee1f71eea543cda6124f4229",
        "drive_log.csv":
            "c9b9c7527f001549fad73418e3f392c825901a169648cd288d3c182a876bd560",
        "error_cam0.csv":
            "b81c4cec55fc17605b6557f4c093dfe0636a54d19c4d09f063d4a43420056859",
        "error_cam1.csv":
            "5d09ee81236ca63b88c142469fb6ecc065e218d7fa422b7bb86e3cd40c978d5b",
        "error_pi.csv":
            "11c414ded97bb89355e2bed92161c4852999b2029d0015a3ba728c83b698b0de",
        "summary.json":
            "d1d11e18c5652a3afc4b9a97f8243bd4897e8b3ea6121b42d3f690c9ffa61088",
    },
    "outage_onboard": {
        "correction.csv":
            "9f2d8344b5b2b9b9b9365398c353cd0d60413a5ac801a346f8dd632ef540c4bc",
        "deviation.csv":
            "fbc4b3c6fa9cdb2af3fe0cb86d085ac1be3161b996e0ca5e94cdc6793f8a7582",
        "drive_log.csv":
            "71530889e1ca47fbe3d392e15c5e04dd8929de0d88e2d066c12f50d5b3c32b02",
        "error_pi.csv":
            "45c3d51be44dcb468082993c0a0eb6ab3cd5570f0724af1ba558b823c0bc6e9c",
        "summary.json":
            "3ee8a6247fc7758e07fbd3c01d46683f44e2356426cffeda28bbd494b5a11e58",
    },
}

# combined_weighted on a lossy, delayed channel under random blackouts.
LOSSY_BLACKOUT = {
    "correction.csv":
        "7fe818ebce0f7572be0292016a380c660acdf02a591f99c86f33cfcce0e5c41c",
    "deviation.csv":
        "3b36d3129bed74fca97cd932696f05aec79d6a1ef37f426e227edf1cf75bdcdf",
    "drive_log.csv":
        "43e0262ea3d21115a2f76ac0f1edb95bce958d94f57445a1224c4a44d3e2fa10",
    "error_cam0.csv":
        "bf25a689d375fdf5fca7a0fd7aaf3a0fa8941e31f01c8690883e48aac96a49dd",
    "error_cam1.csv":
        "d7649fa453ac01641c3ec3b94d9173cceee8334df34c294637566e05e1aeddd9",
    "error_pi.csv":
        "87c03b9c517ddecd28e9c26344d3a28598e14d66f89cbd56b5e22fd4c94bbc9e",
    "summary.json":
        "9e21028d68f30b2c2270857c2a1f54ffec3c468bee82813ef32e61a3b62328be",
}

# outage_onboard at seed 8, whose periodic outage is under way at t = 0: the
# window that began before the run is listed, and its post-outage samples count.
OUTAGE_AT_START = {
    "correction.csv":
        "ad6581415bfce832134acdfdd1a8d05b02558605b8ea70133fc7ad626f832196",
    "deviation.csv":
        "bf7df91dd85aea00a3d72c0eef31d11973e738cfd3e0f656cc8e0ded3eafda65",
    "drive_log.csv":
        "3ab3f6bede47bb7d1eeaaacc753f73c4864ea5cd43e031bb5bbfd3aa2dd54664",
    "error_pi.csv":
        "47e8f542eca5ee5cd805e3a63264f91180972645994fa5e49bcf8e1f8ce61d80",
    "summary.json":
        "b34dc4aa15ac46cf335e4244e9af70ff3e6bc717a30918ff4c0eb8824a8ffe9d",
}


def _output_digests(scenario, out_dir):
    """Run into the empty out_dir; the digest of each file written there."""
    run(scenario, out_dir)
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in Path(out_dir).iterdir()}


def test_golden_covers_every_run_scenario():
    shipped = {p.stem for p in SCENARIOS.glob("*.yaml")} - {"sweep_kp"}
    assert set(GOLDEN) == shipped


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reference_scenario_outputs_match_golden(name, tmp_path):
    scenario = load_scenario(SCENARIOS / f"{name}.yaml")
    assert _output_digests(scenario, tmp_path) == GOLDEN[name]


def _lossy_blackout(scenario):
    """combined_weighted as LOSSY_BLACKOUT runs it."""
    outage = ProbabilisticOutage(interval=0.4, threshold=35)
    scenario.sensors = [
        dataclasses.replace(s, channel_loss=0.2, channel_delay=(0.0, 0.03), outage=outage)
        for s in scenario.sensors
    ]
    return scenario


def test_lossy_blackout_variant_matches_golden(tmp_path):
    scenario = _lossy_blackout(load_scenario(SCENARIOS / "combined_weighted.yaml"))
    assert _output_digests(scenario, tmp_path) == LOSSY_BLACKOUT


@pytest.mark.parametrize("name", [*sorted(GOLDEN), "lossy_blackout"])
def test_both_formatter_hosts_write_the_golden_bytes(name, tmp_path, monkeypatch):
    # On one usable CPU the run formats its files in this process after the
    # last tick; on two a forked child formats them as the loop runs.  The
    # onboard-only runs take 1,112 frames, under runner.FORK_FRAMES, so the
    # bound is lifted for them to fork too.
    monkeypatch.setattr(runner, "FORK_FRAMES", 0)
    lossy = name == "lossy_blackout"
    for cpus in (1, 2):
        scenario = load_scenario(SCENARIOS / f"{'combined_weighted' if lossy else name}.yaml")
        forked = use_cpus(monkeypatch, cpus)
        digests = _output_digests(_lossy_blackout(scenario) if lossy else scenario,
                                  tmp_path / str(cpus))
        assert len(forked) == cpus - 1
        assert digests == (LOSSY_BLACKOUT if lossy else GOLDEN[name])
    assert_reaped(forked)


def test_outage_under_way_at_start_matches_golden(tmp_path):
    scenario = load_scenario(SCENARIOS / "outage_onboard.yaml")
    scenario.seed = 8
    schedule = SensorRuntime(scenario, scenario.sensors[0], None).outage
    assert schedule.active(0.0) and schedule.windows(scenario.duration)[0][0] < 0.0
    assert _output_digests(scenario, tmp_path) == OUTAGE_AT_START


# Two short sweeps written to disk, pinned file by file: the .dat tables and
# every run directory.  The outage sweep crashes one of its runs.
SWEEP_KP = {
    "kp_1_rep0/correction.csv":
        "939bf164880c498f550c445fb48a6dd56b7921dcf2b8a4742f8052288f4b0b64",
    "kp_1_rep0/deviation.csv":
        "e53c2b7d44a0599f06446a19ca1f8b724f7536448b8f1724c12e0c30cc7420a4",
    "kp_1_rep0/drive_log.csv":
        "25d23460e920cb7dfe1bc2ca418d612078e0afaa423036597dd7f623194ce153",
    "kp_1_rep0/error_pi.csv":
        "d630dca59974b1fa99aa38a35107d6709f756f7d13705406152746105753b902",
    "kp_1_rep0/summary.json":
        "e75b70e015a75bc36b3702f57f3e8a8a1dc51b523eefc71ac62ebea78198b2ca",
    "kp_1_rep1/correction.csv":
        "0d1fdb9b3a922f699a254979856f77268bbf2eecf4e0b828b9708292b3e38016",
    "kp_1_rep1/deviation.csv":
        "9b0daedf8897ccbf8c5f045ac1770941426d97994e7741a20a3a26bfec7602e9",
    "kp_1_rep1/drive_log.csv":
        "ac7ab47258ff146723746de3634c85cd82df2ca5828e514763d6798a73757a97",
    "kp_1_rep1/error_pi.csv":
        "02fc169db3f7171ddce9f89a07df48af0e4a68721a3fb7368634388abab24e33",
    "kp_1_rep1/summary.json":
        "e7643f171eb1b323b73458f192a9f007f2ed2128c80be9b8b5955cde08fdce14",
    "kp_2_rep0/correction.csv":
        "6ff931d7ce1a9cce43c8bbd86fae411fae1927eb465d94d7ceb3cba9e7580114",
    "kp_2_rep0/deviation.csv":
        "fdb11a6f8ca46fa6d7ae281e772cdef296b20bb829e948e029ec504082c6d3b1",
    "kp_2_rep0/drive_log.csv":
        "af7d2b6cdab8daf3fad6c4faa1eed8fdde66c77bf5963c6ca04681ee464dc8ea",
    "kp_2_rep0/error_pi.csv":
        "7353a57ff20d8f98974e7d087eb7ffa04e10b068b3c4bafd2697ae10ddedf149",
    "kp_2_rep0/summary.json":
        "a3bb300d192b3e7b5f5cad73294edc4377d2e88a269825d1d5975bbe5ff651e5",
    "kp_2_rep1/correction.csv":
        "34ecf7c48f4e7a6bda7024cf66da02155c347ed335c45302aa3198e2258e6d4c",
    "kp_2_rep1/deviation.csv":
        "605ae1cb9dd3d7a385fc31d1d0523198a6ea3dfb8f2a1cf394c41904ef87c307",
    "kp_2_rep1/drive_log.csv":
        "df91417b084a8786a8de3a8c4c9711f0d0cc0ebbddfae174a7867da144a4710c",
    "kp_2_rep1/error_pi.csv":
        "2acf5651efcea7e8a1667e337cf6bae6e1220781ee223385f6ebb1e7cbe32b4f",
    "kp_2_rep1/summary.json":
        "61f51e7e88cfa3cb6ff83d17854a06779c3ece4ab4ce569574aabafebb44330c",
    "kp_correction.dat":
        "3080bd31cd2c3b57adc998a1da7cc34ac41c331e2c1122856a3218fc61ca6b3b",
    "kp_deviation.dat":
        "fbd6800a3c22e7fed398a87c8758a44d1c733f11db0a3bdad25c9ad1228d536e",
    "kp_error_pi.dat":
        "0714a3f43ce5bac136c969f4abde40025b3d1745d67f90179b40da824cf04da6",
}

SWEEP_OUTAGE_THRESHOLD = {
    "outage_threshold_20_rep0/correction.csv":
        "9b8f4a5f47bed3810fa7d06987b9c35d70f73f4fb7a9dd4806718e0f9866f509",
    "outage_threshold_20_rep0/deviation.csv":
        "8f1d9fbd8baf43cc045eb1073a22872cbb129f8c916b36fbc91069f3eb382679",
    "outage_threshold_20_rep0/drive_log.csv":
        "a776f7cef9f9494da0301a27db57f292bf4343935c35f8a5eb3651723d002b51",
    "outage_threshold_20_rep0/error_cam0.csv":
        "37f9766d6d022bfd4284ee2b6f80fbb3138359c8c9458cd6b5d73c9ed5b851a8",
    "outage_threshold_20_rep0/error_cam1.csv":
        "e95e320b988a4629c8757a746b9546c9a76ac49dad310648fb793ce15987cab5",
    "outage_threshold_20_rep0/error_pi.csv":
        "1e459901afe98c053b9654385acc04c436f6d01baea1333effc6f626634c6ba3",
    "outage_threshold_20_rep0/summary.json":
        "5bb2f37e2ecb33b10facd3dfb64a0bafa5347696cf0fe36dba443e8535da9440",
    "outage_threshold_20_rep1/correction.csv":
        "b1eaf1e3474b5c125cffe4e69e380ca6ee0e12f1852aba96824426e531b6f890",
    "outage_threshold_20_rep1/deviation.csv":
        "543d29dc2b2232f02098bad0889adef2b915e5ab5cba5507b3259644684c11d6",
    "outage_threshold_20_rep1/drive_log.csv":
        "a43b57fb17a5d3695c0dea4e5daa5c4bce6a56d1a6389f1cb5f7a5a69b8ce56b",
    "outage_threshold_20_rep1/error_cam0.csv":
        "02eac21b42d833a7953b5adc75af188744e8cc3f696a80cb472976bd90819101",
    "outage_threshold_20_rep1/error_cam1.csv":
        "f306f05f351bdf8ff65a2a4c6f649f5a39defe220051ad7b9aacec10cce65bb8",
    "outage_threshold_20_rep1/error_pi.csv":
        "096ef53fd0cd8668b6910e2c2e0974351d4f976b4b621a8b0280084a5a88e7f8",
    "outage_threshold_20_rep1/summary.json":
        "e53e79cf40c15c4ad8215b17a3eb3e9f993d3248151b1decda36372a8201f9ab",
    "outage_threshold_65_rep0/correction.csv":
        "fd09941eba5de0d345d4ef76afc68e922323fda78ed6434e6085bfc1fd0d0005",
    "outage_threshold_65_rep0/deviation.csv":
        "b9ff67471b101fcc39c0e36a3c0684093b0c2c80d22f6a79610aebacb0964eab",
    "outage_threshold_65_rep0/drive_log.csv":
        "6a8ad4132006c39aa7b88322a3e3d5bbca0089da6e00fe4e674d71a43cb93173",
    "outage_threshold_65_rep0/error_cam0.csv":
        "9ba58bc1407ac7a2782777c7581b53cd78b3783b8e7767c631959c26537e1f59",
    "outage_threshold_65_rep0/error_cam1.csv":
        "f9f1760fda353804fc6934bd494e93b7999df7278e420f5d363ee411a82e2550",
    "outage_threshold_65_rep0/error_pi.csv":
        "ea9ed87e6ad4c8a5eed8bc55107bc6a822e235cd8e8b4c81e2edc1564fb0e2fe",
    "outage_threshold_65_rep0/summary.json":
        "e15f5f8f4fb6e6176e3e4cca403b51248278eb4591090ba6886e77c77e71c7f9",
    "outage_threshold_65_rep1/correction.csv":
        "b120debb0da3c43bf15bf92d70b4cbd33640b84b5205e37ebec05f1091abe69c",
    "outage_threshold_65_rep1/deviation.csv":
        "98263d4951f99c9c9347fcd12460d13e7b28ae5cdbf4cc1db1bbab667d022be6",
    "outage_threshold_65_rep1/drive_log.csv":
        "6c183189066c1a8b1d291b79802277eb30a0b190faa046e006d120e045f1f373",
    "outage_threshold_65_rep1/error_cam0.csv":
        "f426c3699965f2a851770203c8f9aee1e86c8cad878a91849026b402c386659a",
    "outage_threshold_65_rep1/error_cam1.csv":
        "6b4aff2b08f98879e068821374e9dad84bc4f34d1590f57683c8b011b29d0bf3",
    "outage_threshold_65_rep1/error_pi.csv":
        "828dc79b97952b129df7df32fed7ab92eaf86d23c13283fc750d6ce648ae95ec",
    "outage_threshold_65_rep1/summary.json":
        "93bf5cea71bb17e55ac723a97aafb0d7921ccb445950cc5920b5c9ee7e03ca81",
    "outage_threshold_correction.dat":
        "93293fe3c99ea070217dee1ba2ae1d19f5a6674f736f3694d7d760995e9c27b3",
    "outage_threshold_deviation.dat":
        "28825447bf4c855b7cc493f4ee7ce9f277456edb1a7ab830db91331069956e4f",
    "outage_threshold_error_cam0.dat":
        "0e400faae362467097334f43a82c6967ccebc50ecf330284c49bfa08b50b3923",
    "outage_threshold_error_cam1.dat":
        "a661610de59ff69ff5181e946a0115f38accd8d85e262b8308691685e98f09a9",
    "outage_threshold_error_pi.dat":
        "acc4e76f16b9417ec45448f43730a11f4d4a9c72a8ea12ad1cb2e6cb2dd10a8b",
    "outage_threshold_post_outage_correction.dat":
        "f98af88f3ca0643d2468c929f31c62277dfd766faf6203dfc84efdf61a38ea5c",
    "outage_threshold_post_outage_deviation.dat":
        "f5e03538be18254accd25676a02910a1dcd8a83023431a2fde36c493c08b9c69",
}


def _sweep_digests(scenario, spec, out_dir):
    sweep(scenario, spec, out_dir)
    return {path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out_dir.rglob("*")) if path.is_file()}


def test_kp_sweep_matches_golden(tmp_path):
    scenario = load_scenario(SCENARIOS / "sweep_kp.yaml")
    scenario.duration = 10.0
    assert _sweep_digests(scenario, SweepSpec("kp", (1.0, 2.0), reps=2), tmp_path) == SWEEP_KP


def test_outage_threshold_sweep_matches_golden(tmp_path):
    scenario = load_scenario(SCENARIOS / "combined_weighted.yaml")
    scenario.duration = 20.0
    for sensor in scenario.sensors:
        sensor.outage = ProbabilisticOutage(interval=0.4, threshold=0)
    spec = SweepSpec("outage_threshold", (20, 65), reps=2)
    assert _sweep_digests(scenario, spec, tmp_path) == SWEEP_OUTAGE_THRESHOLD


def _track_state(track):
    """vars(track) as plain values, the sampling arrays as their bytes."""
    state = copy.deepcopy(vars(track))
    sampling = state.pop("sampling")
    return state, [a.tobytes() for a in sampling[:3]], sampling[3:]


def _written(out_dir):
    return {path.name: path.read_bytes() for path in Path(out_dir).iterdir()}


@pytest.mark.parametrize("block", [1, 7, "loop"])
@pytest.mark.parametrize("lossy", [False, True], ids=["clean", "lossy_blackout"])
def test_outputs_do_not_depend_on_the_sample_block(lossy, block, tmp_path, monkeypatch):
    # A frame slices the samples from its first to its last hit block, so
    # the block size changes what it slices, never what it writes.  At the
    # loop's sample count every frame takes the whole loop and its circular
    # join.
    def outputs(out_dir):
        scenario = load_scenario(SCENARIOS / "combined_weighted.yaml")
        scenario.duration = 10.0
        if lossy:
            _lossy_blackout(scenario)
        run(scenario, out_dir)
        return scenario.track.sampling, _written(out_dir)

    sampling, expected = outputs(tmp_path / "default")
    n = sampling.xs.size
    block = n if block == "loop" else block
    monkeypatch.setattr(world, "SAMPLE_BLOCK", block)
    monkeypatch.setattr(perception, "SAMPLE_BLOCK", block)
    sampling, got = outputs(tmp_path / "patched")
    assert len(sampling.boxes) == -(-n // block)
    assert got == expected


def test_runs_sharing_a_process_and_a_scenario_are_independent(tmp_path):
    # Each golden scenario, loaded once, run twice in a shuffled order beside
    # the others, writes what a run of a fresh load writes, and the runs
    # leave its track as they found it.
    loaded = {}
    for name in sorted(GOLDEN):
        loaded[name] = load_scenario(SCENARIOS / f"{name}.yaml")
        loaded[name].duration = 10.0
    reference = {}
    for name in sorted(GOLDEN):
        fresh = load_scenario(SCENARIOS / f"{name}.yaml")
        fresh.duration = 10.0
        run(fresh, tmp_path / "fresh" / name)
        reference[name] = _written(tmp_path / "fresh" / name)
    before = {name: _track_state(sc.track) for name, sc in loaded.items()}
    order = [(name, k) for name in sorted(GOLDEN) for k in range(2)]
    random.Random(5).shuffle(order)
    for name, k in order:
        out = tmp_path / "shared" / f"{name}_{k}"
        run(loaded[name], out)
        assert _written(out) == reference[name], (name, k)
    for name, sc in loaded.items():
        assert _track_state(sc.track) == before[name], name
        with pytest.raises(ValueError):
            sc.track.sampling.xs[0] = 0.0
