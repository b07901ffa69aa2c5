"""`tools/chain_digest.py`: the command chain's digests, and their difference."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "chain_digest.py"
_spec = importlib.util.spec_from_file_location("chain_digest", SCRIPT)
chain_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(chain_digest)

# six sensors, eight days, a small model and one epoch: about 2.5 s a chain
TINY_CHAIN = """\
synth_sensors=6
synth_days=8
conv_filters=2,3
proj_channels=2
convlstm_filters=2,2
post_units=8
dae_widths=6,4,2,4,6
batch_size=32
epochs=1
pretrain_epochs=2
learning_rate=0.003
"""


def digest_run(*argv):
    return subprocess.run([sys.executable, str(SCRIPT), *argv], capture_output=True,
                          text=True, timeout=600)


def test_chain_digest_listing_is_the_same_twice(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CHAIN)
    first = digest_run("--config", str(cfg), "--seed", "7")
    assert first.returncode == 0, first.stderr
    listing = dict(line.split(" ") for line in first.stdout.splitlines())
    exits = {name: digest for name, digest in listing.items() if name.endswith(".exit")}
    assert len(exits) == 6 and set(exits.values()) == {hashlib.sha256(b"0").hexdigest()}
    assert {"seed7/synth/data.csv", "seed7/decompose/decomp_S005.csv", "seed7/model/run.log",
            "seed7/model/checkpoint.txt", "seed7/missing.csv", "seed7/eval.stdout"} <= set(listing)
    (tmp_path / "first.txt").write_text(first.stdout)
    second = digest_run("--config", str(cfg), "--seed", "7", "--compare",
                        str(tmp_path / "first.txt"))
    assert (second.returncode, second.stdout) == (0, f"all {len(listing)} digests match\n")


def test_difference_names_each_changed_or_missing_digest():
    before = ["seed7/a.csv 11", "seed7/b.csv 22", "seed7/c.csv 33"]
    after = ["seed7/a.csv 11", "seed7/b.csv 99", "seed7/d.csv 44", ""]
    assert chain_digest.difference(before, after) == [
        "seed7/b.csv 22 -> 99", "seed7/c.csv 33 -> -", "seed7/d.csv - -> 44"]
    assert chain_digest.difference(before, before) == []
