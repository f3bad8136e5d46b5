"""Smoke tests of the experiment scripts: exit 0 and the printed tables.

The tables were recorded from the scripts' own output; they pin the
in-memory evaluation path (evaluate_scene on TrackSets that never went
through a CSV) and the sweep path end to end.
"""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

DISCONTINUITY_TABLE = """\
 variant     TSR     TFR   AssRe   AssPr  TSR=0
  moving   0.000   0.192   0.979   1.000   100%
  zeroed   0.267   0.383   0.057   1.000     0%
    jump   0.292   0.392   0.045   1.000     0%
"""

KMAX_TABLE = """\
 subset  k_max   ass_re   ass_pr    ass_a      tsr      tfr
-----------------------------------------------------------
   1spk      1    0.944    1.000    0.944    0.000    0.058
   1spk      2    0.806    1.000    0.806    0.017    0.075
   1spk      4    0.558    1.000    0.558    0.050    0.108
   1spk    inf    0.075    1.000    0.075    0.225    0.283
   2spk      2    0.516    0.547    0.374    0.275    0.425
   2spk      4    0.434    0.575    0.318    0.292    0.442
   2spk      8    0.305    0.651    0.237    0.325    0.475
   2spk    inf    0.076    1.000    0.076    0.442    0.592
   3spk      3    0.360    0.378    0.232    0.408    0.675
   3spk      6    0.306    0.429    0.205    0.433    0.700
   3spk     12    0.230    0.508    0.165    0.458    0.725
   3spk    inf    0.082    1.000    0.082    0.617    0.883
"""


def run_script(name: str, *args: str, cwd: Path) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_discontinuity_comparison_prints_its_table(tmp_path):
    assert run_script("run_discontinuity_comparison.py", "--scenes", "2", cwd=tmp_path) == (
        DISCONTINUITY_TABLE
    )


def test_kmax_sweep_prints_its_table_and_writes_the_tree(tmp_path):
    out = tmp_path / "sweep"
    printed = run_script("run_kmax_sweep.py", "--scenes", "2", "--out", str(out), cwd=tmp_path)
    assert printed == KMAX_TABLE + f"\nfull reports under {out}/\n"
    for j in (1, 2, 3):
        assert (out / f"{j}spk" / "sweep.json").is_file()
        assert (out / f"{j}spk" / "sweep_long.csv").is_file()
