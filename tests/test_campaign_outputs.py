"""Campaign stdout, pinned byte for byte.

Each campaign below runs in process and its stdout is hashed, so a refactor
of the oracle, the simulator or the campaigns that changes any printed
count, witness or counterexample fails here. The digests do not depend on
PYTHONHASHSEED.
"""

import hashlib

import pytest

from btlab.cli import main

# argv -> SHA-256 of the stdout of `btlab <argv>`
STDOUT_SHA256 = {
    "campaign --lab hierarchy --runs 200 --seed 3":
        "cfbef3afc7d2f3de99ffafcf5209af9f28944dcf3e37ba18cae5c0b9b4488859",
    "campaign --lab kfork --runs 40 --seed 2":
        "885936f0b58e79297b27896f12cac0387477b06fd49a22c5141820181ba35645",
    "campaign --lab containment --runs 40 --seed 2":
        "d4c5a93b8009153cd164f9022e1b944c2333b03345b8d29e2f293ee05c6526e5",
    "campaign --lab shm --runs 100 --seed 4":
        "b7928d2a20a21dee0f12f066c315001a1b17206f27f683882e486aa437fd1972",
    "campaign --lab cas":
        "076a7f28ed7313f08803ccfcd1eedb0ad88f3546a5d92294d536914ce3e9fd61",
    "campaign --lab snapshot":
        "83e35f193df3a717a2a2f5dc15005f3bc6fc17e6061d892601ff12bed8b087ce",
    "campaign --lab tape --seed 9":
        "fa388822c1b6e2e12a8fb7c255189287b1242e11498227b0addd39efa594781e",
}


@pytest.mark.parametrize("argv", STDOUT_SHA256)
def test_campaign_stdout_is_pinned(capsys, argv):
    assert main(argv.split()) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[argv]
