"""Algebra and CLI output pinned by sha256, so a change of coefficient type or
of the serialisation cannot pass unnoticed.

The digests were taken from the VRat-coefficient implementation; the
elements use only Z[v, v^-1] coefficients, whose strings that implementation
printed in canonical num/den form.
"""
import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import hecke
from hecke.cli import _report_rows
from hecke.hecke_algebra import algebra
from hecke.label_params import LabelFunction, QBase
from hecke.param_catalog import db_integrity_report
from hecke.qfield import VRat
from hecke.root_data import BasedRootDatum, build_root_system, weyl_group, word_index


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
    # 2251 terms, 766 distinct coefficients; pinned before to_json printed each once
    ("F", 4, "2,1", (1, 0, 0, 0), "5e1f8b6e2819c0486bc2b6c32b18abec2ec6cbe9f17793c3286ead13ad305936"),
]


@pytest.mark.parametrize("letter,rank,labels,y,want", T_W0_THETA)
def test_t_w0_theta_pinned(letter, rank, labels, y, want):
    alg, w0 = _alg(letter, rank, labels)
    assert _digest((alg.t(w0) * alg.theta(y)).to_json()) == want


def test_repeated_coefficients_print_as_their_own_strings():
    """Every row's coeff is the VRat string of its own term, also after a
    shift by v^-3 (to_json prints each distinct packed int once and reuses it)."""
    alg, w0 = _alg("F", 4, "2,1")
    el = alg.t(w0) * alg.theta((1, 0, 0, 0))
    for elem in (el, el.scale(VRat.v_pow(-3))):
        terms = elem.terms
        rows = elem.to_json()["terms"]
        assert len(rows) == len(terms)
        assert len({r["coeff"] for r in rows}) < len(rows) // 2   # mostly repeats
        for r in rows:
            key = (tuple(r["x"]), word_index(alg.ws_table, r["w"]))
            assert r["coeff"] == str(terms[key])


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


def test_case_database_audit_rows_pinned():
    """Each determined label combination of the case database: group, levi,
    piece, exponents and the bound-table match (row, rescale, labels)."""
    rows = _report_rows(db_integrity_report())
    assert len(rows) == 34
    assert _digest(rows) == "7a1317eb5cf183fec31d2e668a9fdafba3e95ca7703f5a6175cf3d543ce16591"


# The benchmark's 21-invocation CLI mix: exit code and stdout sha256 of each.
CLI_MIX = [
    (["table1"], 0,
     "70c46009129654f1296d8eadfeecd3ffd3c979b268055eeffda931ed15279059"),
    (["table1", "--csv"], 0,
     "35bc603b98d828c8dac1454201399117d8b383c4bceba0e31731eab18454219e"),
    (["match-labels", "--type", "B2", "--labels", "3,3,1"], 0,
     "7954812e4c4f69118290095ab8e628d2c73231858f032464089110bdf8c13bf7"),
    (["match-labels", "--type", "B2", "--labels", "1,2,3,4"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["classical", "--case", "b", "--a", "3", "--a-minus", "1"], 0,
     "9af342ab057022fd2094eb6dd7f279a7444c39e6e270b6e3c706dcfc0ae4469a"),
    (["bound", "--case", "a", "--a-plus", "4", "--n-dual", "4"], 1,
     "d5728f191c7fd76edc938c6c6acd4c8509039e9baf8b27b38cd1a25eece81cdc"),
    (["parity", "--family", "unramified-SU", "--a", "3", "--a-minus", "0"], 0,
     "4d8302ef179181f9249dd8fb5d9dcb470041e2a1ef692d9d24cedf714a243601"),
    (["unitary-ps", "--n", "9", "--segments",
      "not-skew:2,skew-trivial:1,trivial:1"], 0,
     "2e38930fba8b4c2d1878d5e78b58bf08c6f3d024f26c960bf182032382ac78b3"),
    (["ps-q", "--w-orbit", "6", "--i-orbit", "3"], 0,
     "8f5a8efcee457cd932de2f5373668d39288d70da93c2c883f0a3665e68beae9e"),
    (["case", "--group", "E7(2)", "--levi", "2,3"], 0,
     "5d4def15e1f90f1c19c202857417234758a5ce20ec89b4ca8f5eaf0acf7f388b"),
    (["case"], 0,
     "dbb851b94de7dbba478466d27d704b90051a0417fd1ffef912ff164d38a6cd20"),
    (["transfer", "--type", "C1", "--labels", "1,1", "--case", "ii"], 0,
     "b7ee53cd12836e7c2cdd1a6af40c3092d4e82830d0d19119629b6ffde9f2aec8"),
    (["mu", "--qa", "2", "--qs", "1", "recover"], 0,
     "8715dafa3cb93907a5ff27ee4deaac9ec68e0e8ae4003fa91600ff395c7462fd"),
    (["mu", "--qa", "1", "poles"], 0,
     "c69d3175b888b9a9f6edf71e5d5e20fa4a9cb9eb0a86a82340ef808dfccc3222"),
    (["jmatrix"], 0,
     "346fe0ab3fa8989adbbeb518b70c379178b0846114e322c80c123f3cd5bb7cfd"),
    (["scalar"], 0,
     "5725076cc7fc1b0f4f87a0c0ee2068a9acb4624ed93ea8ea472ccd49abe6d375"),
    (["charsum", "--modulus", "9"], 0,
     "f164599c56be65264cfc8a25a6c617587e375c4b0b008210eef528e8c74a59b6"),
    (["mul", "--type", "A", "--rank", "1", "--labels", "1,1", "x1", "T0 T0"], 0,
     "50ed06460dd6bdc0ae20bca723dcec64f79914c6a713b71f893799017abdadb9"),
    (["normal-form", "--type", "A", "--rank", "1", "--labels", "1,1",
      "x1 T0 T0"], 0,
     "a6a9be678d55f2941b2bb0242cc2f3f5a88cb5647f6378b36385cad28efc2def"),
    (["check-relations", "--type", "A", "--rank", "1", "--labels", "1,1",
      "--samples", "2", "--seed", "7"], 0,
     "7377ca5a32ece0a1029ed9418b5c8680df23cef1d4efbbeb2196368b018ab1e3"),
    (["decompose", "--type", "B", "--rank", "2", "--matrix=-1,0;0,-1"], 0,
     "d2ba98b773e7362c0d1bfffaddcb5a3a8a4677204677fc9f9299418ee9fc0ecb"),
]


@pytest.mark.parametrize("argv,code,want", CLI_MIX, ids=[" ".join(a) for a, _, _ in CLI_MIX])
def test_cli_mix_pinned(argv, code, want):
    proc = subprocess.run([sys.executable, "-m", "hecke.cli", *argv], capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == want


# Verbs that reach the root search outside the benchmark's mix: the largest
# accepted mu-factor, a c' that is not an integer, and c' with a content or a
# denominator far past one K-bit slot.  `scalar` and `jmatrix`, which reach it
# through ratio_profile, are pinned in CLI_MIX above.
ROOT_SEARCH_CLI = [
    (["mu", "--qa", "1024", "--qs", "1023", "poles"], 0,
     "4bec6ada1c208d50a4f588ad29f6bea177429feac1c2b97a0301a2d94c358c4d"),
    (["mu", "--qa", "1024", "--qs", "1023", "recover"], 0,
     "523b65cf13e41ba3c61a94724ac7da39dc645059b81f919f3289b40b0acfc2a8"),
    (["mu", "--qa", "8", "--qs", "1/2", "--c-prime", "3/2", "poles"], 0,
     "9e78887401b5e1dcada3b9ef80866c3aa20054ca261afd6d80ecf5430853a36b"),
    (["mu", "--qa", "2", "--c-prime", "100000000000000000000000000000", "poles"], 0,
     "f8f8be65ff7a07fe97c0329643cea18ed532ff66f1c95d7b6118a9c052a54592"),
    (["mu", "--qa", "2", "--c-prime", "1/100000000000000000000000000007", "poles"], 0,
     "f8f8be65ff7a07fe97c0329643cea18ed532ff66f1c95d7b6118a9c052a54592"),
]


@pytest.mark.parametrize("argv,code,want", ROOT_SEARCH_CLI,
                         ids=[" ".join(a) for a, _, _ in ROOT_SEARCH_CLI])
def test_root_search_cli_pinned(argv, code, want):
    proc = subprocess.run([sys.executable, "-m", "hecke.cli", *argv], capture_output=True)
    assert proc.returncode == code, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == want


def test_cli_mix_pinned_on_the_oldest_supported_python():
    """requires-python is >= 3.10: the same 21 invocations under python3.10.

    The runtime is stdlib only, so the interpreter needs no packages.  A pyenv
    shim runs python3.10 only when that version is selected; PYENV_VERSION
    selects it there and is ignored by any other python3.10.
    """
    exe = shutil.which("python3.10")
    if exe is None:
        pytest.skip("no python3.10 on PATH")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hecke.__file__)))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYENV_VERSION="3.10", PYTHONPATH=os.pathsep.join(path))
    probe = subprocess.run([exe, "-c", "import sys; print(sys.version_info[:2])"],
                           capture_output=True, text=True, env=env)
    if probe.returncode != 0:
        pytest.skip("python3.10 on PATH does not start")
    assert probe.stdout.strip() == "(3, 10)"
    for argv, code, want in CLI_MIX:
        proc = subprocess.run([exe, "-m", "hecke.cli", *argv], capture_output=True,
                              env=env)
        assert proc.returncode == code, (argv, proc.stderr)
        assert hashlib.sha256(proc.stdout).hexdigest() == want, argv
