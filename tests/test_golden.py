"""Golden output digests: every reference scenario, pinned byte for byte.

A run is a pure function of (scenario, seed), so the sha256 of each output
file is a fingerprint of the simulator's behaviour.  Comparing two runs of
one build (acceptance criterion 8) cannot see a change that alters a single
float in every build alike; these pins can.  They were generated once, from
the simulator before its tick-loop hot paths were optimised, and must never
be regenerated to make a change pass.  A change that alters outputs on
purpose has to say so and justify the new digests.  Runs use the shipped
durations.
"""

import dataclasses
import hashlib
import os
from pathlib import Path

import pytest

from fusedrive.faults import ProbabilisticOutage
from fusedrive.runner import run
from fusedrive.scenario import load_scenario

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


def _output_digests(scenario, out_dir):
    result = run(scenario, out_dir)
    return {os.path.basename(path): hashlib.sha256(Path(path).read_bytes()).hexdigest()
            for path in result.files.values()}


def test_golden_covers_every_run_scenario():
    shipped = {p.stem for p in SCENARIOS.glob("*.yaml")} - {"sweep_kp"}
    assert set(GOLDEN) == shipped


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_reference_scenario_outputs_match_golden(name, tmp_path):
    scenario = load_scenario(SCENARIOS / f"{name}.yaml")
    assert _output_digests(scenario, tmp_path) == GOLDEN[name]


def test_lossy_blackout_variant_matches_golden(tmp_path):
    scenario = load_scenario(SCENARIOS / "combined_weighted.yaml")
    outage = ProbabilisticOutage(interval=0.4, threshold=35)
    scenario.sensors = [
        dataclasses.replace(s, channel_loss=0.2, channel_delay=(0.0, 0.03), outage=outage)
        for s in scenario.sensors
    ]
    assert _output_digests(scenario, tmp_path) == LOSSY_BLACKOUT
