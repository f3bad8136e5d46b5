"""Byte identity of the evaluation reports on a fixed, seeded corpus.

The digests below were recorded before the columnar evaluation core
replaced the per-frame dict-of-dicts path; any change to how scenes are
parsed, matched or counted that moves one byte of per_scene.csv or
aggregate.json fails here. To re-record after a deliberate behaviour
change, run ``PYTHONPATH=src python tests/test_golden.py`` and paste
its output.
"""

import hashlib
import json
import sys
from pathlib import Path

from doatrack.cli import main

SIM_DOC = {
    "scenario": {
        "n_speakers": 3,
        "mode": "jump",
        "duration_s": 20.0,
        "segment_len_s": [1.0, 4.0],
        "gap_len_s": [1.0, 3.0],
    },
    "observation": {"angular_noise_sigma_deg": 2.0, "p_miss": 0.05, "clutter_rate": 0.3},
    "n_scenes": 3,
    "seed": 5,
}

# (prediction set, tracker config, extra evaluate arguments)
CELLS = [
    ("oracle", {"type": "oracle"}, []),
    ("splitter", {"type": "splitter", "k": 3}, []),
    ("swapper", {"type": "swapper", "period_s": 2.0}, []),
    ("merger", {"type": "merger"}, []),
    ("pf", {"birth_frames": 2, "death_frames": 2, "k_max": 6, "seed": 3}, []),
    ("pf_order2", {"birth_frames": 2, "death_frames": 2, "k_max": 6, "seed": 3},
     ["--ospa-order", "2", "--ospa-cutoff-deg", "45"]),
]

GOLDEN = {
    "oracle/aggregate.json": "667f9bce7b72b02be1c71a64bb5994b0ade38fc3ca5b9f13b1e1b88e1fe8cff2",
    "oracle/per_scene.csv": "a01e6321d9f28c3c9fce9dfd3be9351dbb040fa50a6dc71d1471df5c73b43e69",
    "splitter/aggregate.json": "37de31ffc40d0e6a47a97d4cdc12030918ed78d5574b8b826a2c4c7432a90599",
    "splitter/per_scene.csv": "54ce4bd4b2a50e169154aaca6c0154c42adb49db3106b61c1602edce26c236a8",
    "swapper/aggregate.json": "6387a0e45416707d7d966871383208d1c7b1ce88441ca61fd716e449b8b60df2",
    "swapper/per_scene.csv": "201d6019aa0cb7688209c063c49efbf7fb720ddd31bd43ba29d345105213b0f8",
    "merger/aggregate.json": "42f163c7cd690d3c7a503bd18d384d493108fafc491a5b4174ab536773b8d81e",
    "merger/per_scene.csv": "b6d37439623b8859249a3af4b99a6402038d5619d3568db4439b851bec9db17b",
    "pf/aggregate.json": "29fd45aff2a23165acfc077fae24d578660dd572c8a80dfbeec04a3d6824ba1f",
    "pf/per_scene.csv": "eaae79d27938da52a4b32bbcbe3e07b5fff643a4b4975d3e70fa277a33658f61",
    "pf_order2/aggregate.json": "3bcf388acb798d9a90e93dc44f6cfbeec668fa1fb0f768ed7d1088590e3a3272",
    "pf_order2/per_scene.csv": "fff16298070ce9502b711b8414903e2cfc134022070de30aacf9da6f481a9b5e",
}


def report_digests(tmp: Path) -> dict[str, str]:
    """Simulate the corpus, run every tracker, evaluate; SHA-256 of each report."""
    config = tmp / "sim.json"
    config.write_text(json.dumps(SIM_DOC), encoding="utf-8")
    scenes = tmp / "scenes"
    assert main(["simulate", "--config", str(config), "--out", str(scenes)]) == 0
    digests = {}
    for name, tracker, extra in CELLS:
        tracker_path = tmp / f"{name}.json"
        tracker_path.write_text(json.dumps(tracker), encoding="utf-8")
        preds = tmp / "preds" / name
        assert main(["track", "--config", str(tracker_path), "--scenes", str(scenes),
                     "--out", str(preds)]) == 0
        out = tmp / "eval" / name
        assert main(["evaluate", "--gt", str(scenes), "--pred", str(preds),
                     "--out", str(out), *extra]) == 0
        for report in ("aggregate.json", "per_scene.csv"):
            digests[f"{name}/{report}"] = hashlib.sha256((out / report).read_bytes()).hexdigest()
    return digests


def test_reports_are_byte_identical_to_the_recorded_digests(tmp_path, capsys):
    assert report_digests(tmp_path) == GOLDEN


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for key, digest in report_digests(Path(tmp)).items():
            print(f'    "{key}": "{digest}",', file=sys.stderr)
