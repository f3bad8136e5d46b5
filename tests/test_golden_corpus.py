"""Byte identity of simulated corpora in every scene mode.

The digests below pin every manifest.json, .gt.csv and .obs.csv that
``doatrack simulate`` writes for small corpora of all four modes,
including noiseless and near-antipodal observation noise, jump scenes
that may revisit their previous position, misses and clutter. Any
change to scene generation or observation simulation that moves one
byte fails here. To re-record after a deliberate behaviour change, run
``PYTHONPATH=src python tests/test_golden_corpus.py`` and paste its
output.
"""

import hashlib
import json
import sys
from pathlib import Path

from doatrack.cli import main

_TIMING = {"duration_s": 8.0, "segment_len_s": [0.5, 2.5], "gap_len_s": [0.3, 1.5]}

# corpus name -> (scenario, observation, n_scenes, master seed)
CORPORA = {
    "jump_sigma0": (
        {"n_speakers": 3, "mode": "jump", **_TIMING},
        {"angular_noise_sigma_deg": 0.0, "p_miss": 0.1, "clutter_rate": 0.5},
        3, 11,
    ),
    "jump_revisit": (
        {"n_speakers": 2, "mode": "jump", "n_positions": 2, "exclude_previous": False,
         "min_separation_deg": 30.0, **_TIMING},
        {"angular_noise_sigma_deg": 2.0},
        3, 12,
    ),
    "static_sigma170": (
        {"n_speakers": 2, "mode": "static", **_TIMING},
        {"angular_noise_sigma_deg": 170.0, "clutter_rate": 0.3},
        2, 13,
    ),
    "moving": (
        {"n_speakers": 2, "mode": "moving", "angular_speed_deg_s": 25.0, **_TIMING},
        {"angular_noise_sigma_deg": 2.0, "p_miss": 0.05, "clutter_rate": 0.2},
        2, 14,
    ),
    "moving_zeroed_sigma170": (
        {"n_speakers": 3, "mode": "moving_zeroed", "angular_speed_deg_s": 40.0, **_TIMING},
        {"angular_noise_sigma_deg": 170.0, "p_miss": 0.2, "clutter_rate": 1.0},
        2, 15,
    ),
}

GOLDEN = {
    "jump_sigma0/manifest.json": "f8f7532481618b2ec97e36ff3f5ca744c0e47f4fba59be590e7182dfb1cf653e",
    "jump_sigma0/scene_0000.gt.csv": "466bdfe77c364c050a25d0322588016a494f46eb8a7d56572c29350a24ff40fc",
    "jump_sigma0/scene_0000.obs.csv": "053851a59c14c899b5511e988811e37b3bbcaa757bd250efe75aae5550538601",
    "jump_sigma0/scene_0001.gt.csv": "84200028b201f9f66934e53f6511fa7ff1dc891e0c0d50cf553b1ad059003a4c",
    "jump_sigma0/scene_0001.obs.csv": "1fec1d27531d9a127d6a920396a9b0be37a7df0818f2903c36b6da66fcb7ad2a",
    "jump_sigma0/scene_0002.gt.csv": "3edb1714a275cceadaa0e0c95b292e01778ee883739ea31dd8986d3f3b33eba1",
    "jump_sigma0/scene_0002.obs.csv": "e83bff145110e3e26d2b702ace5d3ee7100e6f00f0f063ec1bd57f6095a47783",
    "jump_revisit/manifest.json": "139a7c4d2a4dc64b332f562bc1430990e8c1e8c69062b4c993854f715a639e71",
    "jump_revisit/scene_0000.gt.csv": "2271e265ab824957b169faf52abb18e9fd5a949580f50e3190e320548e88e8be",
    "jump_revisit/scene_0000.obs.csv": "2b0688c00b7f1ef48e677d9f1b2125414cafe347ce17fd4d94d602ea13b70715",
    "jump_revisit/scene_0001.gt.csv": "4e594ad568184ef27ce5658eab8b9608f49f5b7f39cb62f094b2e5fccb246fcf",
    "jump_revisit/scene_0001.obs.csv": "102355abbc53aac1b35abad3b5b94799015986ebcea6f47ae4833382de8c800a",
    "jump_revisit/scene_0002.gt.csv": "2cafcd92c55c7e37dfb41a747039c3c67dc3d249c6c399b35a606f36dcb28f56",
    "jump_revisit/scene_0002.obs.csv": "bd6a5ccf138bef41b8a5fc995846bfc8352c4d9b25b02c57fbc2512e0a1e6712",
    "static_sigma170/manifest.json": "274256ab1ac1bf8ea4794f12d7985ec376a52f98a3daab94739ddacfcb6002c0",
    "static_sigma170/scene_0000.gt.csv": "737f551aaed568d7eb0232393414ead617c1b226dd0f244c60e88f07be2d711b",
    "static_sigma170/scene_0000.obs.csv": "41a0853a890e27d3dc535e2b5d278e5e631526a2c616cc6addbaab0cbd5d5c0d",
    "static_sigma170/scene_0001.gt.csv": "1654c5faefb88a14ff4a496458d509a1e354e1607595abc3dc8733e41c4f188c",
    "static_sigma170/scene_0001.obs.csv": "988a6246e40695acdc1cd54e3d98cf2202f83b35c572d4547c72e8845f5c3949",
    "moving/manifest.json": "4bb297860375433ddfd7798a5e9f9fe3515545f7add6ce3163cc6aa301527820",
    "moving/scene_0000.gt.csv": "0202cdc86ee74840bfebb63c2fc1f3b3bb8cdd1158fa373a64c9d214bdb14546",
    "moving/scene_0000.obs.csv": "8309595ecaf92d3e45176e7891a33720d0fa20d3faf6326baa24af27f109b6c6",
    "moving/scene_0001.gt.csv": "3e16ad18b7a9b8a7502a995cb11056ac4dcf1278ec108eda76866405064b4574",
    "moving/scene_0001.obs.csv": "54470cb2975e3bca56433b00cea3a7b978a184fc9fac645db186ea0b30465373",
    "moving_zeroed_sigma170/manifest.json": "e044ecc11f062677333d45dfde43b3fe02a7ef142ffe64abd830591f62976b24",
    "moving_zeroed_sigma170/scene_0000.gt.csv": "21a7562f329047e17cdf1cdcfbfaa2ab013fd846f730a079464122b9cd9e1616",
    "moving_zeroed_sigma170/scene_0000.obs.csv": "5fb398e2f2ae797c7b490f6efa31388383401f8facf31fdaee045e7dfbe4bd46",
    "moving_zeroed_sigma170/scene_0001.gt.csv": "1a8b25e17f2bd014d3216819c7cbc9108092a9afaee8b5f915a27274797d6b7e",
    "moving_zeroed_sigma170/scene_0001.obs.csv": "c1210b16b0ddd3f1858e81d979c1b2e39f3f17a773304a1ad7c04d42e4e9b642",
}


def corpus_digests(tmp: Path) -> dict[str, str]:
    """Simulate every corpus; SHA-256 of each file written."""
    digests = {}
    for name, (scenario, observation, n_scenes, seed) in CORPORA.items():
        config = tmp / f"{name}.json"
        doc = {"scenario": scenario, "observation": observation, "n_scenes": n_scenes,
               "seed": seed}
        config.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp / name
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        for path in sorted(out.iterdir()):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def test_corpora_are_byte_identical_to_the_recorded_digests(tmp_path, capsys):
    assert corpus_digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in corpus_digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",', file=sys.stderr)
