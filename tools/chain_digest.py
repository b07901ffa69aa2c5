"""Digest every output of the corridorcast command chain, so that "the same
bytes" is a claim anyone can re-run.

For each seed, the chain synth -> decompose -> cluster -> train -> eval ->
missing-eval runs in a temporary directory, one command per process, with the
sources under `--src`.  The listing has one `name sha256` line per output file,
per command's stdout and stderr, and per command's exit code; `wall_ms` in
`run.log` is masked, since it is the only wall-clock value the chain writes.

    python tools/chain_digest.py > before.txt            # the default desk chain
    python tools/chain_digest.py --compare before.txt    # prints the difference

With `--compare`, it prints only the lines that differ and exits with 1 if
any do.  Needs numpy and the standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the desk chain: 24 sensors x 28 days, one training epoch, the default model
DESK_CONFIG = "synth_sensors=24\nsynth_days=28\nepochs=1\n"

DATA = ["--data", "synth/data.csv", "--meta", "synth/meta.csv"]
CLUSTERS = ["--clusters", "clusters/clusters.csv"]
MODEL = ["--model", "model/checkpoint.txt"]
CHAIN = [("synth", ["--out", "synth"]),
         ("decompose", [*DATA, "--out", "decompose"]),
         ("cluster", [*DATA, "--out", "clusters"]),
         ("train", [*DATA, *CLUSTERS, "--out", "model"]),
         ("eval", [*DATA, *CLUSTERS, *MODEL, "--report", "eval.csv"]),
         ("missing-eval", [*DATA, *CLUSTERS, *MODEL, "--report", "missing.csv"])]


def _sha256(body: bytes) -> str:
    return hashlib.sha256(body).hexdigest()


def chain_digests(src: str, seed: int, config: str) -> dict[str, str]:
    """The sha256 of each file, stream and exit code the chain leaves when run
    at `seed` with the sources under `src` and the settings text `config`."""
    env = {**os.environ, "PYTHONPATH": os.path.abspath(src),
           # one BLAS thread: a reduction's order then does not depend on the pool
           "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    digests = {}
    with tempfile.TemporaryDirectory() as work:
        Path(work, "run.cfg").write_text(config)
        for name, argv in CHAIN:
            seed_flag = [] if name == "decompose" else ["--seed", str(seed)]
            done = subprocess.run([sys.executable, "-m", "corridorcast.cli", name, *argv,
                                   *seed_flag, "--config", "run.cfg"],
                                  cwd=work, env=env, capture_output=True)
            digests[f"{name}.stdout"] = _sha256(done.stdout)
            digests[f"{name}.stderr"] = _sha256(done.stderr)
            digests[f"{name}.exit"] = _sha256(str(done.returncode).encode())
        for path in sorted(Path(work).rglob("*")):
            if path.is_file() and path.name != "run.cfg":
                body = path.read_bytes()
                if path.name == "run.log":
                    body = re.sub(rb"wall_ms=\S+", b"wall_ms=*", body)
                digests[path.relative_to(work).as_posix()] = _sha256(body)
    return digests


def listing(src: str, seeds: list[int], config: str) -> list[str]:
    """The `name sha256` lines of the chain at each of `seeds`, names prefixed
    by `seed<N>/`."""
    return [f"seed{seed}/{name} {digest}" for seed in seeds
            for name, digest in chain_digests(src, seed, config).items()]


def difference(before: list[str], after: list[str]) -> list[str]:
    """One line per name whose digest differs or that only one listing has."""
    old, new = (dict(line.split(" ", 1) for line in lines if line) for lines in (before, after))
    return [f"{name} {old.get(name, '-')} -> {new.get(name, '-')}"
            for name in sorted(old.keys() | new.keys()) if old.get(name) != new.get(name)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the directory holding the corridorcast package (default: this "
                             "checkout's src)")
    parser.add_argument("--seed", type=int, action="append",
                        help="a seed to run the chain at, repeatable (default: 7 and 11)")
    parser.add_argument("--config", help="a settings file for every command (default: "
                                         "24 sensors x 28 days, 1 epoch)")
    parser.add_argument("--compare", help="a listing to compare against; print the difference")
    args = parser.parse_args(argv)
    config = Path(args.config).read_text() if args.config else DESK_CONFIG
    lines = listing(args.src, args.seed or [7, 11], config)
    if args.compare is None:
        print("\n".join(lines))
        return 0
    differ = difference(Path(args.compare).read_text().splitlines(), lines)
    print("\n".join(differ) if differ else f"all {len(lines)} digests match")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
