"""Golden bundles: the SHA-256 of ``heff.json`` and ``basis.txt`` for a fixed
check set of ``solve`` runs.

The digests pin every bit of the matrix, the per-entry statistics, the
counts and the selected basis, so a refactor that promises byte-identical
bundles either keeps them or fails here.  A run whose bytes change on
purpose records its new digests, and says why, in the same change.
"""

import hashlib
import json

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

# The heff.json digests of format heffsolve-heff-v2, recorded before the
# Pauli sum moved to mask arrays; :func:`v2_text` rebuilds that text from a
# v3 bundle.
GOLDEN_V2 = {
    'h2_style_R0.70.ferm/oracle': '177c3eeebd34608f43a4e024987c1295f54a4efd88bb5b5bd9b9df1006bde7e6',
    'h2_style_R0.70.ferm/exact-direct': '282682322b59def41c1dedae7fd6b67cf7b1192c1d776e3c18c07a28f26071c9',
    'h2_style_R0.70.ferm/exact-indirect': '1e9979012706ccabbb4b81e6f9df410d1b9a98b7699e9eca0b74b6e3a84893f2',
    'h2_style_R0.70.ferm/sampled-direct': 'e555c33ddece1e53cc3dbabfa749a1755e0f60a7397a37661593340aa84a7a0d',
    'h2_style_R0.70.ferm/sampled-indirect': '32d5c5c53579a8f4b15e103f11a87d4e27ff421a3e6d9437a5a20e7c83046e6d',
    'h2_style_R1.00.ferm/oracle': 'e1a6226dddb3a268853aba72b417eb3ee0dbe05da7a5c5abeb853f8b627b5545',
    'h2_style_R1.00.ferm/exact-direct': '2d2b2fa8194bf63e1ad522a23b84bc4f325eb6bd4810dd42f7fbbd48f62ced42',
    'h2_style_R1.00.ferm/exact-indirect': '9738233b26c8e63c9fd60b23026fee0f113ecbe773755d42ab28297f3cdb9e9a',
    'h2_style_R1.00.ferm/sampled-direct': '63d7d1eda5d894e8e46de816557c3c0731d5d5637e23bbc81298f847ffc1575c',
    'h2_style_R1.00.ferm/sampled-indirect': 'f6067fdde20abc013b8216cd8a8d1d7dd430531bad2f88ced8a1480638fe75e5',
    'complex6/exact-direct': '50f17be66aed7d09581c77f431061a04098721ac18e545226560d0bebd915e04',
    'complex6/sampled-direct': 'b1b779207917698ec59da725ca1b0f57dcb049f1db78e0821db9caa2545db92f',
    'complex6/sampled-indirect': '430c74e48a96ba236881eb9792c0ef6f0cb9151a5e94fd05120b30628a5c5380',
    'complex6/mc-sampled': '5a8aae88fba10801b5c85c2a639298ed70b2ffefa05e2ab235b06a58506c7cc5',
}

# heffsolve-heff-v3 bundles: `entries` lists only the cells a build measured.
GOLDEN = {
    'h2_style_R0.70.ferm/oracle': {
        'heff.json': '8a79e4bd3cb053c1574fa46fc2390942f7f0236d6db45b3dce0d629ea211d5d3',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/exact-direct': {
        'heff.json': 'cd8048dad61205beaf786d418f5b36d456381484bbfdc2c70399804d7cb60e70',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/exact-indirect': {
        'heff.json': 'ef7fb3460e8af7960e8ef3107ceefd6873629eee0cdf4535f186f6d226b55b64',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/sampled-direct': {
        'heff.json': '1d0d35c1d2de0dd53dc8fd2bda57c2b3d15fbe8d40db93ec83a291dc3fae1977',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R0.70.ferm/sampled-indirect': {
        'heff.json': 'ce6dbe9e241bcf25e231ea2644f9c259112cc3599b5b792871fcd33e21dbd858',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/oracle': {
        'heff.json': '2ad778af0d232033ac4aa36073141bd31ce731164c04ddce016622643b6cd6c4',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/exact-direct': {
        'heff.json': '10a9f177200ce1ed285676981b0251a24e3e5e1ff8f8ce16e79bcf7f0e96329a',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/exact-indirect': {
        'heff.json': '33e694ba599ed72aceb99d95aeb686a72284e5a4ed50351f4aabc4f0bbdbb4a7',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/sampled-direct': {
        'heff.json': 'efd8a990fd5f85bf2b24e9beeba44e7cc7311cfbe491e08cf4537c915a21b62f',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'h2_style_R1.00.ferm/sampled-indirect': {
        'heff.json': '75be03b5fc922c1a09ee3e24ff4bf43664350048e604231d469f48b8ac6c55ab',
        'basis.txt': '563d2789df53a74bd058818987dd3f7cb062bba5192f0485aca19351b6f6168e',
    },
    'complex6/exact-direct': {
        'heff.json': 'a6c44624b6544c3a5070b580595fa19b8feaf40e647308c81391f99c65a36660',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
    'complex6/sampled-direct': {
        'heff.json': '78d40ce0134ad35e261e29624e44fdd9974f2e525bde1d8d4b7814049e99c4ff',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
    'complex6/sampled-indirect': {
        'heff.json': '8063f31bc3266cd571e674c3ae1517598a2d56aada4f33da7c39a5ad3b4b7c84',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
    'complex6/mc-sampled': {
        'heff.json': '7237e08aa91bd25aa147faa0a645e18b81fc59dde06614eb39333aa6c98bcd5e',
        'basis.txt': '9cc27bcac2c08a3b8ff59d75d93213639ce4935c677e50fd4bfc1ff8266a511a',
    },
}


def solve_bundle(tmp_path, source: str, flags: tuple[str, ...]) -> dict[str, bytes]:
    if source == "complex6":
        path = tmp_path / "complex6.ferm"
        path.write_text(COMPLEX_FERMION)
    else:
        path = DATA / source
    out = tmp_path / "run"
    assert main(["solve", str(path), "--out", str(out), *flags]) == 0
    return {name: (out / name).read_bytes() for name in ("heff.json", "basis.txt")}


@pytest.fixture(scope="module")
def bundle(tmp_path_factory):
    """The heff.json and basis.txt bytes of a check-set case, solved once."""
    made = {}

    def solved(name: str, source: str, flags: tuple[str, ...]) -> dict[str, bytes]:
        if name not in made:
            made[name] = solve_bundle(tmp_path_factory.mktemp("golden"), source, flags)
        return made[name]

    return solved


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def v2_text(heff: dict) -> str:
    """The heffsolve-heff-v2 text of a parsed v3 ``heff.json``.

    v2 listed a record for every upper-triangle cell of a measuring backend
    and the backend's ``calibration_shots`` (always null).  Each cell that
    v3 leaves out gets its closed-form record back, in row-major order: 0
    shots, both standard errors 0.0, and two circuits for a pair of the
    direct style, none otherwise.
    """
    payload = dict(heff, format="heffsolve-heff-v2",
                   backend=dict(heff["backend"], calibration_shots=None))
    if "entries" in heff:
        listed = {(e["row"], e["col"]): e for e in heff["entries"]}
        direct = heff["backend"]["measurement_style"] == "direct"
        size = len(heff["basis"])
        payload["entries"] = [
            listed.get((i, j)) or {"row": i, "col": j, "shots": 0, "stderr_re": 0.0,
                                   "stderr_im": 0.0, "circuits": 2 if direct and i < j else 0}
            for i in range(size) for j in range(i, size)
        ]
    return json.dumps(payload, sort_keys=True) + "\n"


@pytest.mark.parametrize("name, source, flags", CASES, ids=[c[0] for c in CASES])
def test_bundle_bytes_are_pinned(bundle, name, source, flags):
    files = bundle(name, source, flags)
    assert {name: sha256(data) for name, data in files.items()} == GOLDEN[name]


@pytest.mark.parametrize("name, source, flags", CASES, ids=[c[0] for c in CASES])
def test_bundle_rebuilds_the_v2_bytes(bundle, name, source, flags):
    # the matrix bits, the listed records, the counts and the backend are v2's
    heff = json.loads(bundle(name, source, flags)["heff.json"])
    assert heff["format"] == "heffsolve-heff-v3"
    cells = [(e["row"], e["col"]) for e in heff.get("entries", [])]
    assert cells == sorted(set(cells)) and all(i <= j for i, j in cells)
    assert sha256(v2_text(heff).encode()) == GOLDEN_V2[name]
