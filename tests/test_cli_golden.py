"""Output identity of the `--json` reports of every subcommand but scan.

Each digest is the sha256 of the report payload with its `timing_ms`
key removed, serialized with sorted keys, as in test_scan_golden.py.
The corpus covers `classify` on every surface kind, `toric`,
`group-check` on a passing and a failing group, `density --modulus`
and `cm-table`; any change to a verdict, a details dict or a witness
shows here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from selfmaps.cli import main
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

# name -> (argv with inputs relative to the corpus directory, sha256 of
# the payload minus timing_ms)
GOLDEN = {
    "classify-abelian": (
        ["classify", "abelian.desc"],
        "1637485f486fd907120c8a53e163853330a34264950de7ef7e3ad7c971104ce9",
    ),
    "classify-hyperelliptic": (
        ["classify", "hyperelliptic.desc"],
        "13768956ca6ec31a25ba3b473a29f6d8bdee6bc647d434c5aa4495f96790c7dc",
    ),
    "classify-kodaira-one": (
        ["classify", "kodaira_one.desc"],
        "194ecd104a4a5cf0424a510dd1d0379ecbad1fbf241baa6328aac603e18f785d",
    ),
    "classify-toric": (
        ["classify", "toric.desc"],
        "501f0a50733096c9aa96cae2177c47b30e49c655a4e0fc5a62deb9c83f640bab",
    ),
    "classify-torsion-certificate": (
        ["classify", "torsion_certificate.desc"],
        "3a218b606c72eedd1bb403bfaed3b0e4b6c2928c882adc35577831d02b2b78ba",
    ),
    "classify-torsion-missing": (
        ["classify", "torsion_missing.desc"],
        "feeb73c3faa8cf50fd2e194626123be8ef10dd31feb9a1e6b0a5210f92e38d0a",
    ),
    "classify-nontorsion": (
        ["classify", "nontorsion.desc", "--bound", "300"],
        "54319879b8eeb32d6f532486705e06861cdc90b58daa1a437ebf7e5c99539883",
    ),
    "classify-split-degree": (
        ["classify", "split_degree.desc"],
        "f54fd2d84920b53bf2c4df2dc4b982a44ae1464520bb66325566e00dbe5e1ce0",
    ),
    "classify-atiyah-deg0": (
        ["classify", "atiyah_deg0.desc", "--bound", "300"],
        "b77b0c3d86dbc764a36b9fbb90fa3ac3b9a7414b67828d9c452760d42772f97b",
    ),
    "classify-atiyah-deg1": (
        ["classify", "atiyah_deg1.desc"],
        "b95e7d01946ddd6424daa034ffe1811b7530ede2bbe3ad010b665f10eb27bdd6",
    ),
    "classify-high-genus-trivial": (
        ["classify", "high_genus_trivial.desc"],
        "8596d23147be12dcb08c6d7d1b723eb8054dfc5409908f9e5a52cb30d40a06a9",
    ),
    "classify-high-genus-holds": (
        ["classify", "high_genus_holds.desc"],
        "ac7a0a55b679ade107a1c4bc97b61d886df3235369feef99daf166cc44cb0eeb",
    ),
    "classify-high-genus-fails": (
        ["classify", "high_genus_fails.desc", "--bound", "200"],
        "3d648f920dd77c0a213bd11522845b52e195d358116bbc75b3318994c5b4ac6b",
    ),
    "toric-lines": (
        ["toric", "lines.fan"],
        "761ff805d4baab404a07edb822ccb7a4b2bd017cd63fdee3f03301c5eac4654d",
    ),
    "toric-twice-blown-up-plane": (
        ["toric", "twice_blown_up_plane.fan"],
        "e5d5bc9fe6982cb226c59ab07a8d577560188a9a04fa914bb093a569e845cd3e",
    ),
    "group-check-semidirect5": (
        ["group-check", "semidirect5.grp", "5"],
        "9430d413c01eb606f337d251a2418b185ab897ba1cfb9c15e752b7970eb47184",
    ),
    "group-check-cyclic7": (
        ["group-check", "cyclic7.grp", "7"],
        "b4ae7a0eada8fc94c57199a3e35eb25153b4e8c80bd86083851ec70d7bbe8b8e",
    ),
    "density-modulus": (
        ["density", "--order", "1", "2", "--bound", "5000", "--modulus", "12"],
        "981c890212d78c8a55d668b914e534f0e039df83aff209d29989ca3839d3253c",
    ),
    "cm-table": (
        ["cm-table", "--max-n", "12"],
        "0e87c8b1855e2754e30f46097652663e5c606be4ccf8d86977bad0aa29d9fa5d",
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


def payload_digest(corpus, capsys, argv: list[str]) -> str:
    resolved = [str(corpus / a) if (corpus / a).is_file() else a for a in argv]
    assert main(resolved + ["--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    del payload["timing_ms"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_cli_payload_digest(name, corpus, capsys):
    argv, digest = GOLDEN[name]
    assert payload_digest(corpus, capsys, argv) == digest
