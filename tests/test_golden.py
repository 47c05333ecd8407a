"""Golden bundles: the SHA-256 of ``heff.json`` and ``basis.txt`` for a fixed
check set of ``solve`` runs.

The digests pin every bit of the matrix, the per-entry statistics, the
counts and the selected basis, so a refactor that promises byte-identical
bundles either keeps them or fails here.  A run whose bytes change on
purpose records its new digests, and says why, in the same change.
"""

import hashlib

import pytest

from heffsolve.cli import main
from test_cli import DATA

# Complex hopping gives odd-Y strings, so both commuting classes of a flip
# group are read; the double excitation gives four-site flips.
COMPLEX_FERMION = """modes 6
constant 0.25
-1.1 0.0 0^ 0
-0.9 0.0 1^ 1
-0.4 0.0 2^ 2
0.3 0.0 3^ 3
0.5 0.0 4^ 4
0.7 0.0 5^ 5
0.2 -0.15 0^ 3
0.2 0.15 3^ 0
-0.12 0.08 1^ 4
-0.12 -0.08 4^ 1
0.3 0.0 0^ 1^ 1 0
0.6 0.0 0^ 2^ 2 0
0.11 0.0 0^ 1^ 4 5
0.11 0.0 5^ 4^ 1 0
-0.07 0.0 2^ 3^ 5 1
-0.07 0.0 1^ 5^ 3 2
"""

NOISY = ("--backend", "sampled", "--shots", "1000", "--noise", "0.02,0.02", "--mitigate",
         "--diagonals", "circuit")

RUNS = {
    "oracle": ("--backend", "oracle"),
    "exact-direct": ("--backend", "exact", "--style", "direct"),
    "exact-indirect": ("--backend", "exact", "--style", "indirect"),
    "sampled-direct": (*NOISY, "--style", "direct"),
    "sampled-indirect": (*NOISY, "--style", "indirect"),
}

CASES = [
    (f"{source}/{run}", source, ("--nf", "2", *flags))
    for source in ("h2_style_R0.70.ferm", "h2_style_R1.00.ferm")
    for run, flags in RUNS.items()
] + [
    ("complex6/exact-direct", "complex6", ("--nf", "3", *RUNS["exact-direct"])),
    ("complex6/sampled-direct", "complex6", ("--nf", "3", *RUNS["sampled-direct"])),
    ("complex6/sampled-indirect", "complex6", ("--nf", "3", *RUNS["sampled-indirect"])),
    ("complex6/mc-sampled", "complex6",
     ("--nf", "3", "--strategy", "mc", "--mc-steps", "300", "--seed", "11",
      "--backend", "sampled", "--shots", "500")),
]

# Recorded before the Pauli sum moved to mask arrays.
GOLDEN = {
    'h2_style_R0.70.ferm/oracle': {
        'heff.json': '177c3eeebd34608f43a4e024987c1295f54a4efd88bb5b5bd9b9df1006bde7e6',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/exact-direct': {
        'heff.json': '282682322b59def41c1dedae7fd6b67cf7b1192c1d776e3c18c07a28f26071c9',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/exact-indirect': {
        'heff.json': '1e9979012706ccabbb4b81e6f9df410d1b9a98b7699e9eca0b74b6e3a84893f2',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/sampled-direct': {
        'heff.json': 'e555c33ddece1e53cc3dbabfa749a1755e0f60a7397a37661593340aa84a7a0d',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/sampled-indirect': {
        'heff.json': '32d5c5c53579a8f4b15e103f11a87d4e27ff421a3e6d9437a5a20e7c83046e6d',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/oracle': {
        'heff.json': 'e1a6226dddb3a268853aba72b417eb3ee0dbe05da7a5c5abeb853f8b627b5545',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/exact-direct': {
        'heff.json': '2d2b2fa8194bf63e1ad522a23b84bc4f325eb6bd4810dd42f7fbbd48f62ced42',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/exact-indirect': {
        'heff.json': '9738233b26c8e63c9fd60b23026fee0f113ecbe773755d42ab28297f3cdb9e9a',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/sampled-direct': {
        'heff.json': '63d7d1eda5d894e8e46de816557c3c0731d5d5637e23bbc81298f847ffc1575c',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/sampled-indirect': {
        'heff.json': 'f6067fdde20abc013b8216cd8a8d1d7dd430531bad2f88ced8a1480638fe75e5',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'complex6/exact-direct': {
        'heff.json': '50f17be66aed7d09581c77f431061a04098721ac18e545226560d0bebd915e04',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
    'complex6/sampled-direct': {
        'heff.json': 'b1b779207917698ec59da725ca1b0f57dcb049f1db78e0821db9caa2545db92f',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
    'complex6/sampled-indirect': {
        'heff.json': '430c74e48a96ba236881eb9792c0ef6f0cb9151a5e94fd05120b30628a5c5380',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
    'complex6/mc-sampled': {
        'heff.json': '5a8aae88fba10801b5c85c2a639298ed70b2ffefa05e2ab235b06a58506c7cc5',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
}


def bundle_digests(tmp_path, source: str, flags: tuple[str, ...]) -> dict[str, str]:
    if source == "complex6":
        path = tmp_path / "complex6.ferm"
        path.write_text(COMPLEX_FERMION)
    else:
        path = DATA / source
    out = tmp_path / "run"
    assert main(["solve", str(path), "--out", str(out), *flags]) == 0
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in ("heff.json", "basis.txt")
    }


@pytest.mark.parametrize("name, source, flags", CASES, ids=[c[0] for c in CASES])
def test_bundle_bytes_are_pinned(tmp_path, name, source, flags):
    assert bundle_digests(tmp_path, source, flags) == GOLDEN[name]
