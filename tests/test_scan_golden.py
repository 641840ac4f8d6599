"""Output identity of `scan --json` on a fixed set of descriptors.

Each digest is the sha256 of the scan payload with its `timing_ms` key
removed, serialized with sorted keys.  The digests were taken from the
brute-force per-prime scan, so any change to a verdict, witness, route
text or row order on the fast path shows here.  Each raw digest is the
sha256 of the raw stdout minus its `  "timing_ms": ` line, so it also
pins the indent-2 layout of `json.dumps(payload, indent=2,
sort_keys=True)`.
"""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from selfmaps.cli import main

BOUND = 20_000

# name -> (curve lines, k, point, sha256 of the payload minus timing_ms).
# The "kernel" points lie in the kernel of an element of norm k, so their
# scans reach the isogeny route; the others are generic points.
GOLDEN = {
    "gauss-k7-anchor": (
        "curve=cm\norder=0 1", 7, (1, 0),
        "6c0f8a7334742910dc5b2c11a9644721747785e2385fee64ad463d7b47bef550",
    ),
    "gauss-k13-kernel": (
        "curve=cm\norder=0 1", 13, (1, 8),
        "04094110f47b4e9b445ae404ccd0dc939e4d7251ad3af8f79c3f7d680fa0a9c5",
    ),
    "disc3-k13-kernel": (
        "curve=cm\norder=1 1", 13, (1, 3),
        "bf291d8c87a5e43bede43b8b733731246ba00413100de979e1f1113905c000d8",
    ),
    "disc7-k11-kernel": (
        "curve=cm\norder=1 2", 11, (1, 3),
        "7f8de057e7c18cbddedc7330cd42652fff8650323b1ab4ef545a4bdab5b874d4",
    ),
    "disc8-k11-kernel": (
        "curve=cm\norder=0 2", 11, (1, 7),
        "0095fd7abff26bf5a7c482b321ebc7a00addf58eb9a08563bd8d0f3d963aaf65",
    ),
    "disc12-k7": (
        "curve=cm\norder=0 3", 7, (1, 1),
        "01b3e1670eecb435cb06be56d75027e0e8bdcedf4face449b9470a43ba1ea54e",
    ),
    "n5-k9-kernel": (
        "curve=cm\norder=0 5", 9, (1, 4),
        "7bbe5af89d7e070ec9e64f202377c4a60cec319e6caea9335e4387cc3909e9ff",
    ),
    "n6-k10-kernel": (
        "curve=cm\norder=0 6", 10, (2, 9),
        "bbda2b7c2e00de8df8ac8d7c35525869418f8ad1083d17814cb58cf1ff4d93a7",
    ),
    "nocm-k8": (
        "curve=nocm", 8, (1, 0),
        "c592c98886a0695bcf61ebc1fd50a70bf6af114ae8463cd1cb881f37d07d2b3e",
    ),
    "exceptional-gauss-k5": (
        "curve=cm\norder=0 1", 5, (1, 2),
        "ed4d8c606b134a4fd03d5e2265384043b6beea35c171db08bf92d82405247371",
    ),
    "small-k3-disc7": (
        "curve=cm\norder=1 2", 3, (1, 1),
        "d32d33a2fd100849c496483809aa802f74af076d688b0119944945aa5ce02f60",
    ),
}

# name -> sha256 of the raw `--json` stdout minus the timing_ms line
RAW_GOLDEN = {
    "disc12-k7": "31c0adde668db08c49d3f4cc66cc436b968295617cc917f6a0c1bfd29f9b8f28",
    "disc3-k13-kernel": "8196181ca90bf9d2155525a0c6a95434f9b2d7b7ab7da5ebcb4e43b8582a8da9",
    "disc7-k11-kernel": "18e5691eb7d73670d6df05ad3a5538de04f684b57c84a2d8f58bc075107dde71",
    "disc8-k11-kernel": "118e5055e0748aa95f03d886ce63b8339fc01e7539d3fc92881ce024448df62c",
    "exceptional-gauss-k5": "f439ad0935dceec24f1b184a70c626a11ab39b08922be01d537982fa8beb30f0",
    "gauss-k13-kernel": "daf7f1dc79db7f2250cb0defd4cf4a1b9b79ad9c5d1f1af0660da583cf10aa83",
    "gauss-k7-anchor": "42088b581c5506ddc1120a7155267c8764535b4cc9820538d5395c8de67d626b",
    "n5-k9-kernel": "e99e9ba9dd714c9615fa2c511d3ccb68ab5628104907d576d518ece06975d28b",
    "n6-k10-kernel": "f80c6b647facd982071860cce5322a19d3abb7d5f274ba86c0d1ab37994e87d3",
    "nocm-k8": "10a82ffcd89ec8ee369df2637be8b249ad828847c4c2aac3c9e8e86df664efcf",
    "small-k3-disc7": "62b4893cee1c5dbc1fbf96721f209a06fe720ed8f64a02b71bdf56907525b726",
}

TIMING_LINE = re.compile(r'^  "timing_ms": [^\n]*\n', re.MULTILINE)


def scan_output(tmp_path, capsys, curve: str, k: int, point: tuple[int, int]) -> str:
    path = tmp_path / "scan.desc"
    path.write_text(
        f"surface=elliptic_bundle\n{curve}\nbundle=split_torsion\nk={k}\n"
        f"point={point[0]} {point[1]}\n"
    )
    assert main(["scan", str(path), "--bound", str(BOUND), "--json"]) == 0
    return capsys.readouterr().out


def scan_digest(tmp_path, capsys, curve: str, k: int, point: tuple[int, int]) -> str:
    payload = json.loads(scan_output(tmp_path, capsys, curve, k, point))
    del payload["timing_ms"]
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_scan_payload_digest(name, tmp_path, capsys):
    curve, k, point, digest = GOLDEN[name]
    assert scan_digest(tmp_path, capsys, curve, k, point) == digest


@pytest.mark.parametrize("name", sorted(RAW_GOLDEN))
def test_scan_raw_output_digest(name, tmp_path, capsys):
    curve, k, point, _ = GOLDEN[name]
    out, removed = TIMING_LINE.subn("", scan_output(tmp_path, capsys, curve, k, point))
    assert removed == 1
    assert hashlib.sha256(out.encode()).hexdigest() == RAW_GOLDEN[name]
