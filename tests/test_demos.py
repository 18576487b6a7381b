"""Every demo runs to completion and prints exactly its recorded output."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout; the demos print the same bytes under any
# PYTHONHASHSEED, so a changed hash is a changed result.
STDOUT_SHA256 = {
    "01_block_trees": "b1af12e6f14a02dad9f0d41fbb076d3bedaf6185e2afb44ef5499bd97b295bf0",
    "02_token_oracles": "4325b6a07ed0f37908692b473db5ce195618fe83a9adda98db67ebe5308035f2",
    "03_refined_appends": "3448dd1293fc62124fe5717a8895375b6ecff32fc1675b3935a14b03d930a455",
    "04_recorded_histories": "52f14de7dd982bb5880f5c6c19d8e6ddb7b5e48690b8f5f4f3de8c865120b932",
    "05_consistency_verdicts": "ad8991f2000e444ef268e0952f742d4b10c0f187c3c4ccf739539c5843cb48f1",
    "06_network_scenarios": "277112f44a2a1e3d61bb9c3b65350ec8672d0d297734f63924914a44d56a143f",
    "07_consensus_and_shared_memory": "4248c0ceb1cb80fba6ce49bc3fb88b58f8b2b4686c6d47ac5c800c082e51e54f",
}


def test_the_demos_are_found():
    assert len(DEMOS) >= 7


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout.strip()
    assert hashlib.sha256(done.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
