"""Algebra and CLI output pinned by sha256, so a change of coefficient type or
of the serialisation cannot pass unnoticed.

The digests were taken from the VRat-coefficient implementation; the
elements use only Z[v, v^-1] coefficients, whose strings that implementation
printed in canonical num/den form.
"""
import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

from hecke.hecke_algebra import algebra
from hecke.label_params import LabelFunction, QBase
from hecke.qfield import VRat
from hecke.root_data import BasedRootDatum, build_root_system, weyl_group


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _alg(letter, rank, labels):
    rs = build_root_system(letter, rank)
    lf = LabelFunction.for_system(rs, [Fraction(v) for v in labels.split(",")], QBase(1))
    return algebra(BasedRootDatum(rs), lf), weyl_group(rs)[-1].word


T_W0_THETA = [
    ("A", 2, "2,2", (1, 0), "c492c8c9c247ca814f901fea956046adba8b4d48a7430187ca7195f969546560"),
    ("A", 2, "2,2", (-1, 2), "ae0d6efc4055c1271b715b10acc00c346357a8a1a70c2fd807448574fb90f60f"),
    ("A", 2, "2,2", (2, -1), "4414a36a21f20702c52efe188245e9bccec45eb8153f0db4ffe2c9af134daf3c"),
    ("B", 2, "3,3,1", (1, 0), "b90328a4ef63521a296f9ddf34009b67fbfb78ddbe4d57561035e103c588a0cd"),
    ("B", 2, "3,3,1", (0, -1), "5ace5406d1313b7126edea4302941cff35b5e5514a153c0db56dd7b631676d15"),
    ("B", 2, "3,3,1", (1, 1), "98c4b5c1bd24a69c4d2d61a32a7e24b60fe1d38d7d4c6bfeb84e9653b1cdd748"),
    ("G", 2, "1,3", (1, 0), "49fb7a62c3a623d6f24063b65248b7a4678b15589d6356fe5a790bf7985c6205"),
    ("G", 2, "1,3", (-1, 1), "161be68e8d016b9d81bbabfe2bc63f74f8008a2ff0299f56f89b48dcfeabcb89"),
]


@pytest.mark.parametrize("letter,rank,labels,y,want", T_W0_THETA)
def test_t_w0_theta_pinned(letter, rank, labels, y, want):
    alg, w0 = _alg(letter, rank, labels)
    assert _digest((alg.t(w0) * alg.theta(y)).to_json()) == want


def test_negative_powers_pinned():
    alg, _ = _alg("B", 2, "3,3,1")
    a = alg.theta((1, 0)).scale(VRat.v_pow(-3)) + alg.t_simple(0).scale(-2)
    b = alg.t((1, 0)) * alg.theta((0, 1)).scale(VRat.v_pow(-1) * 3 - 1)
    prod = (a * b).to_json()
    assert prod["terms"][0]["coeff"] == "(-2*v^7+6*v^6+2*v-6)/(v)"
    assert _digest(prod) == "c9c20aa1bc15114aacca309336e9d7c21fc3a2a548b100a3df640ba9d6309457"


@pytest.mark.parametrize("argv,want", [
    (["mul", "--type", "B2", "--labels", "3,3,1", "T0 x1,-1", "T1 T0 x0,1"],
     "8ff52d71b9ed225ef46e535c582897fafc383fc3a75d666343277d3a7cc8e64b"),
    (["normal-form", "--type", "G2", "--labels", "1,3", "x1,0 T0 T1 x0,-1 T0"],
     "ce418edadd2abb78170aab45c5bd2dee6af56ecc87b89fbaba0eebbe90b6692f"),
])
def test_cli_stdout_pinned(argv, want):
    proc = subprocess.run([sys.executable, "-m", "hecke.cli", *argv], capture_output=True)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == want
