"""Output identity of the text and `--json` reports of every subcommand.

A `--json` digest is the sha256 of the report payload with its
`timing_ms` key removed, serialized with sorted keys, as in
test_scan_golden.py.  A text digest is the sha256 of the raw stdout,
which holds no timing.  A raw digest is the sha256 of the raw `--json`
stdout minus its `  "timing_ms": ` line, so it also pins the layout
(indent 2, sorted keys, separators, final newline) that the json digest
cannot see.  The corpus covers `classify` on every surface
kind, `scan`, `toric`, `group-check` on a passing and a failing group,
`density --modulus`, `cm-table`, and `verify-paper` with and without
`--negative-test`; any change to a verdict, a details dict, a witness,
a claim's detail or a rendered line shows here.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from selfmaps.cli import _json_text, main
from selfmaps.group_condition import build_cyclic, build_semidirect

FANS = {
    "hirzebruch2.fan": "1 0\n0 1\n-1 2\n0 -1\n",
    "lines.fan": "1 0\n0 1\n-1 0\n0 -1\n",
    "twice_blown_up_plane.fan": "1 0\n2 1\n1 1\n0 1\n-1 -1\n",
}

GROUPS = {
    "semidirect5.grp": lambda: build_semidirect(5),
    "cyclic7.grp": lambda: build_cyclic(7),
}


def _elliptic(curve: str, bundle: str) -> str:
    return f"surface=elliptic_bundle\n{curve}\n{bundle}\n"


DESCRIPTORS = {
    "abelian.desc": "surface=abelian\n",
    "hyperelliptic.desc": "surface=hyperelliptic\n",
    "kodaira_one.desc": "surface=kodaira_one\n",
    "toric.desc": "surface=toric\nfan_file=hirzebruch2.fan\n",
    "torsion_certificate.desc": _elliptic(
        "curve=cm\norder=0 1", "bundle=split_torsion\nk=5\npoint=1 2"
    ),
    "torsion_missing.desc": _elliptic(
        "curve=cm\norder=0 1", "bundle=split_torsion\nk=7\npoint=1 0"
    ),
    "nontorsion.desc": _elliptic("curve=cm\norder=1 2", "bundle=split_nontorsion"),
    "split_degree.desc": _elliptic("curve=nocm", "bundle=split_degree\ndegree=-3"),
    "atiyah_deg0.desc": _elliptic("curve=cm\norder=1 1", "bundle=atiyah_deg0"),
    "atiyah_deg1.desc": _elliptic("curve=nocm", "bundle=atiyah_deg1"),
    "high_genus_trivial.desc": "surface=high_genus_bundle\np=1\n",
    "high_genus_holds.desc": "surface=high_genus_bundle\np=5\ngroup_file=semidirect5.grp\n",
    "high_genus_fails.desc": "surface=high_genus_bundle\np=7\ngroup_file=cyclic7.grp\n",
}

# name -> (argv with inputs relative to the corpus directory,
#          {mode: sha256 of that mode's output})
GOLDEN = {
    "classify-abelian": (
        ["classify", "abelian.desc"],
        {
            "json": "1637485f486fd907120c8a53e163853330a34264950de7ef7e3ad7c971104ce9",
            "text": "fec7ba35576be31bd0b7540aebae809b272fcdb2567f5f4b694e9c73e4718e72",
            "raw": "ac0185a5b42de5383b050f299a47275974d59aea021fd4a0159619fe0d0f233a",
        },
    ),
    "classify-hyperelliptic": (
        ["classify", "hyperelliptic.desc"],
        {
            "json": "13768956ca6ec31a25ba3b473a29f6d8bdee6bc647d434c5aa4495f96790c7dc",
            "text": "1fb4f2d724f6e7553b288c7635ae50d128451f6b01bdbb4179fe561073fba80c",
            "raw": "c08550091af7a29a120189e09131b85bc44794f2ac406bca2fe7429754c969e1",
        },
    ),
    "classify-kodaira-one": (
        ["classify", "kodaira_one.desc"],
        {
            "json": "194ecd104a4a5cf0424a510dd1d0379ecbad1fbf241baa6328aac603e18f785d",
            "text": "f57c78c47893acbb313bc623959b16374bc516e61f71d62da67465e6a96befa7",
            "raw": "cd463b8775c96f6b4b29bcc29647d3e4307162f4fac7b623a8a3e2970a06b93a",
        },
    ),
    "classify-toric": (
        ["classify", "toric.desc"],
        {
            "json": "501f0a50733096c9aa96cae2177c47b30e49c655a4e0fc5a62deb9c83f640bab",
            "text": "9849891e30ca050d16f7141cf9feaba0d41121ab8f990fcd8c593432572fd7dd",
            "raw": "93899595ac6acd25f43bcecb14e10eb23a574a59713d8725ffcb3d3b5db8b351",
        },
    ),
    "classify-torsion-certificate": (
        ["classify", "torsion_certificate.desc"],
        {
            "json": "3a218b606c72eedd1bb403bfaed3b0e4b6c2928c882adc35577831d02b2b78ba",
            "text": "512c896dbc6ccd7907527919b42855ad1b7b790371cb485bbd0fc984f48c2ded",
            "raw": "a919452328b593fd94e99a891cb811161d0240d5d5b051c26225c8cb008b8414",
        },
    ),
    "classify-torsion-missing": (
        ["classify", "torsion_missing.desc"],
        {
            "json": "feeb73c3faa8cf50fd2e194626123be8ef10dd31feb9a1e6b0a5210f92e38d0a",
            "text": "1df77c5e3c2d8a1e1b898d698539d66eba05aa47d13648d8d24f12ce1c11eb3c",
            "raw": "d67e03503455cb96061ae9c11af2c47347409fdb32cc6550dcb3f68f00013655",
        },
    ),
    "classify-nontorsion": (
        ["classify", "nontorsion.desc", "--bound", "300"],
        {
            "json": "54319879b8eeb32d6f532486705e06861cdc90b58daa1a437ebf7e5c99539883",
            "text": "73ceeab32b4abf6ac33590a1fb078f6cd537b42e807e813638badf0e0624ef10",
            "raw": "9ccb7ec6bd510e2cd162ad04847845ae649f3db08db280c35f621f07c2eda5fc",
        },
    ),
    "classify-split-degree": (
        ["classify", "split_degree.desc"],
        {
            "json": "f54fd2d84920b53bf2c4df2dc4b982a44ae1464520bb66325566e00dbe5e1ce0",
            "text": "9e6b9f39a1844a6f8d9022cc7d2d33098e58ec2682b08b74da3226e3e085e4ba",
            "raw": "0d98933e748243f3efc7c942490051461eab28f0f3f4d27847a9643c191c4a54",
        },
    ),
    "classify-atiyah-deg0": (
        ["classify", "atiyah_deg0.desc", "--bound", "300"],
        {
            "json": "b77b0c3d86dbc764a36b9fbb90fa3ac3b9a7414b67828d9c452760d42772f97b",
            "text": "5d8bb612a6b28378a90d5eed34029b74ade9cc963c5a31d9b1d0c41549758597",
            "raw": "76fdd9f0c428e1a90e1797e2957b2234cf9be44e1a310396994414b15bad231f",
        },
    ),
    "classify-atiyah-deg1": (
        ["classify", "atiyah_deg1.desc"],
        {
            "json": "b95e7d01946ddd6424daa034ffe1811b7530ede2bbe3ad010b665f10eb27bdd6",
            "text": "a58126e7d41d9a61528d9dd5012162fa31830a3da6e8b823478fe9e7cc08e9fb",
            "raw": "0f7bbb51795bd940532ecb81500c3012c8276f84cd8bd2135e8a4ec015d71a19",
        },
    ),
    "classify-high-genus-trivial": (
        ["classify", "high_genus_trivial.desc"],
        {
            "json": "8596d23147be12dcb08c6d7d1b723eb8054dfc5409908f9e5a52cb30d40a06a9",
            "text": "d691aba029df7b7e31ac7768636fee4025f1231b842c6f7be8742de49ca057f5",
            "raw": "aff6755e612f4e118c2f96e5402137fd49e3b00b9ab9e3a50adfdf05ca47188c",
        },
    ),
    "classify-high-genus-holds": (
        ["classify", "high_genus_holds.desc"],
        {
            "json": "ac7a0a55b679ade107a1c4bc97b61d886df3235369feef99daf166cc44cb0eeb",
            "text": "4a21d90a81ef2aff810f4f5d3718762512ec24ea9bdcac3982d8f50f55795bcd",
            "raw": "98abc65df74c3fa4059718c5156a15818c763ae61cf0d59c2f8b7dc7097c63bc",
        },
    ),
    "classify-high-genus-fails": (
        ["classify", "high_genus_fails.desc", "--bound", "200"],
        {
            "json": "3d648f920dd77c0a213bd11522845b52e195d358116bbc75b3318994c5b4ac6b",
            "text": "458b6beb9249080e6b73338ffc6b6614be2f3a27c6b9cda9e8984515adc6867f",
            "raw": "8e1dcd7cddb1f8fba7be9e0716ab12660ca923be631ad52ebbed924fb10e0612",
        },
    ),
    "toric-lines": (
        ["toric", "lines.fan"],
        {
            "json": "761ff805d4baab404a07edb822ccb7a4b2bd017cd63fdee3f03301c5eac4654d",
            "text": "b4e0d76dbb041baed7ab40ec8d9475ca4d929a47f6eec713abae94301c34481e",
            "raw": "42f7abb4922205e46b1f724d91d70b3b01f650d22851d42c1bdd445653f68ac4",
        },
    ),
    "toric-twice-blown-up-plane": (
        ["toric", "twice_blown_up_plane.fan"],
        {
            "json": "e5d5bc9fe6982cb226c59ab07a8d577560188a9a04fa914bb093a569e845cd3e",
            "text": "387815be0b1125ff9ca678031958b5400a34959fc8b83f8c082ae56a68fb3db8",
            "raw": "3f4da2a796ccdb3640146ab9c048433fd98d615791d0c02890bf6980ddb03d91",
        },
    ),
    "group-check-semidirect5": (
        ["group-check", "semidirect5.grp", "5"],
        {
            "json": "9430d413c01eb606f337d251a2418b185ab897ba1cfb9c15e752b7970eb47184",
            "text": "cdf8342df3f035c9bcf5860ede92a01deb660f6ca90bd963282a92a4b1cd5866",
            "raw": "f923e728ba88c0fe33f3f39b813fb6a9351d09d96d8fcf9559b5341c4244e151",
        },
    ),
    "group-check-cyclic7": (
        ["group-check", "cyclic7.grp", "7"],
        {
            "json": "b4ae7a0eada8fc94c57199a3e35eb25153b4e8c80bd86083851ec70d7bbe8b8e",
            "text": "2474388cac7956df330e37b2d6b56c40a49aa688f1f280149c36d6673f492978",
            "raw": "489c2dd188bdda2e51a368b80be8cc85b6b5762d6d2a65ea2a464ff6ea39f372",
        },
    ),
    "density-modulus": (
        ["density", "--order", "1", "2", "--bound", "5000", "--modulus", "12"],
        {
            "json": "981c890212d78c8a55d668b914e534f0e039df83aff209d29989ca3839d3253c",
            "text": "4255eab82f435d7fc37190148aa25fb5e1426fefca923e66e95f6eae8bdd14b0",
            "raw": "11b3053a9394abef2d963b59a462aaff93b0c8d9d88c7e04242f0f4f68b0ee17",
        },
    ),
    "scan-torsion-missing": (
        ["scan", "torsion_missing.desc", "--bound", "200"],
        {
            "json": "6f89bd5eaf828127705a49c3685cb7dafc9c9afb2eb0116d659f904a212977d9",
            "text": "0a3d2976278e813b8458e8529a429c2308783805462efc8ce3d606d355a7f136",
            "raw": "6d8a2170439b2eb8743ce7c99c0e05c7b292fdc6ff018a6f3b24f17f46021bf1",
        },
    ),
    "cm-table": (
        ["cm-table", "--max-n", "12"],
        {
            "json": "0e87c8b1855e2754e30f46097652663e5c606be4ccf8d86977bad0aa29d9fa5d",
            "text": "c31f591c981633ac3070e5f039648ab69957b8e2c77d39ded0559304ff0aa569",
            "raw": "44557324f2ff24b662c94c5055b907b522ce43c69329ec4833b2e6b083d544ed",
        },
    ),
    "verify-paper": (
        ["verify-paper"],
        {
            "json": "03e733844d54e2f500025dae8d9e6bca9baab9b3c72c78e5750cb7267438fd00",
            "text": "55ffa92f7ba78f590b102ac6c07f10e39efcf72cb9b9fddd2103e73492fcc81c",
            "raw": "a1afaf8e5ae4a6040b57abe0faae812c35d0bb3bc4a65a2a82dbe26718e18894",
        },
    ),
    "verify-paper-negative-test": (
        ["verify-paper", "--negative-test"],
        {
            "json": "839c37561aec39b506ad2a001a845fd7eb92571275da56821e023fa53ef129ca",
            "text": "97739dc00350ec3ee630f4eac4d5f8180e444aca8d17bf8d1eb84a8cf861a2e5",
            "raw": "5b77c6c9454b41a95742161692788cf333ebe60508d34d45f67697b93d4acce8",
        },
    ),
}


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_corpus")
    for name, text in {**FANS, **DESCRIPTORS}.items():
        (root / name).write_text(text)
    for name, build in GROUPS.items():
        group = build()
        rows = (
            " ".join(str(int(x)) for x in group.table[i]) for i in range(group.order)
        )
        (root / name).write_text(f"{group.order}\n" + "\n".join(rows) + "\n")
    return root


TIMING_LINE = re.compile(r'^  "timing_ms": [^\n]*\n', re.MULTILINE)


def _resolve(corpus, argv: list[str]) -> list[str]:
    return [str(corpus / a) if (corpus / a).is_file() else a for a in argv]


def output_digest(corpus, capsys, argv: list[str], mode: str) -> str:
    assert main(_resolve(corpus, argv) + ([] if mode == "text" else ["--json"])) == 0
    out = capsys.readouterr().out
    if mode == "json":
        payload = json.loads(out)
        del payload["timing_ms"]
        out = json.dumps(payload, sort_keys=True)
    elif mode == "raw":
        out, removed = TIMING_LINE.subn("", out)
        assert removed == 1
    return hashlib.sha256(out.encode()).hexdigest()


# json cases keep the bare case name as their test id, so ids stay stable
# as text and raw cases are added
CASES = [
    pytest.param(name, mode, id=name if mode == "json" else f"{name}-{mode}")
    for mode in ("json", "text", "raw")
    for name in sorted(GOLDEN)
]


@pytest.mark.parametrize(("name", "mode"), CASES)
def test_cli_payload_digest(name, mode, corpus, capsys):
    argv, digests = GOLDEN[name]
    assert output_digest(corpus, capsys, argv, mode) == digests[mode]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_json_payload_roundtrips(name, corpus, capsys):
    """The parsed --json payload, written again, is the same text: the
    scan rows written from templates equal the generic dict path."""
    argv, _ = GOLDEN[name]
    assert main(_resolve(corpus, argv) + ["--json"]) == 0
    out = capsys.readouterr().out
    assert _json_text(json.loads(out)) + "\n" == out
