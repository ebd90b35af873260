"""End-to-end runs of every CLI verb through the installed entry point."""
import contextlib
import io
import json
import shutil
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hecke import cli

_BIN = shutil.which("hecke")
HECKE = [_BIN] if _BIN else [sys.executable, "-m", "hecke.cli"]


def run(*argv):
    return subprocess.run(HECKE + list(argv), capture_output=True, text=True)


def run_json(*argv):
    proc = run(*argv)
    assert proc.returncode == 0, proc.stderr or proc.stdout
    return json.loads(proc.stdout)


def test_table1():
    data = run_json("table1")
    assert len(data["rows"]) == 10
    csv_out = run("table1", "--csv")
    assert csv_out.returncode == 0
    lines = csv_out.stdout.strip().splitlines()
    assert len(lines) == 11 and lines[0].startswith("types,")


def test_match_labels():
    data = run_json("match-labels", "--type", "B2", "--labels", "3,3,1")
    assert data["match"]["row"] == 9
    # a non-member exits 1 but still reports
    proc = run("match-labels", "--type", "C2", "--labels", "4,3,3")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["match"]["status"] == "none"


def test_match_labels_solves_the_rescale():
    # the labels 0,20,7 of row 1 at a base six times finer
    match = run_json("match-labels", "--type", "B2", "--labels", "0,10/3,7/6")["match"]
    assert (match["status"], match["row"], match["rescale"]) == ("match", 1, "6")
    assert match["labels"] == {"long": None, "short": 20, "star": 7}


def test_match_labels_least_distortion_first():
    # 10/9 (label 5) distorts less than 8/9 (label 4)
    match = run_json("match-labels", "--type", "A2", "--labels", "9/2")["match"]
    assert (match["rescale"], match["labels"]["short"]) == ("10/9", 5)


def test_match_labels_d2_one_factor_at_a_time():
    # D2 = A1 x A1: unequal labels give one result per factor, both verbs accept
    match = run_json("match-labels", "--type", "D2", "--labels", "1,2")["match"]
    assert (match["status"], match["row"]) == ("match", None)
    assert [(f["row"], f["labels"]["short"]) for f in match["factors"]] == [(0, 1), (0, 2)]
    report = run_json("check-relations", "--type", "D2", "--labels", "1,2", "--samples", "2")
    assert report["report"]["ok"] is True
    moved = run_json("transfer", "--type", "D2", "--labels", "1,2", "--case", "i")
    assert moved["after"]["match"] == match and moved["class_preserved"]
    # the worst factor decides: none before match
    proc = run("match-labels", "--type", "D2", "--labels", "1,2,1")
    match = json.loads(proc.stdout)["match"]
    assert (proc.returncode, match["status"]) == (1, "none")
    assert [f["status"] for f in match["factors"]] == ["match", "none"]
    # equal factors are one result, printed as for a simple type
    match = run_json("match-labels", "--type", "D2", "--labels", "2,2")["match"]
    assert "factors" not in match and match["row"] == 0


def test_classical():
    data = run_json("classical", "--case", "b", "--a", "3", "--a-minus", "1")
    assert data["component"] == "B"
    assert data["q"] == {"q_alpha": "q^2", "q_star": "q"}
    assert data["alpha"]["base_1"] == {"lambda": 3, "lambda*": 1}


def test_bound():
    data = run_json("bound", "--case", "b", "--a", "3", "--a-minus", "1",
                    "--n-dual", "6")
    assert data == {"ok": True, "slack": 1, "used": 5, "cap": 6}
    assert run_json("bound", "--case", "a", "--a-plus", "3",
                    "--n-dual", "4")["slack"] == 0
    proc = run("bound", "--case", "a", "--a-plus", "4", "--n-dual", "4")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["ok"] is False


def test_parity():
    assert run_json("parity", "--family", "other", "--t", "2")["rule"] == \
        "unconstrained"
    data = run_json("parity", "--family", "unramified-SU", "--a", "3",
                    "--a-minus", "0")
    assert data["allowed"] is True
    proc = run("parity", "--family", "unramified-SU", "--a", "3",
               "--a-minus", "1")
    assert proc.returncode == 1


def test_unitary_ps():
    data = run_json("unitary-ps", "--n", "9",
                    "--segments", "not-skew:2,skew-trivial:1,trivial:1")
    assert [c["system"] for c in data["components"]] == ["A", "B", "B"]
    assert all(m["status"] in ("match", "empty") for m in data["matches"])
    proc = run("unitary-ps", "--n", "9", "--csv",
               "--segments", "not-skew:2,skew-trivial:1,trivial:1")
    assert len(proc.stdout.strip().splitlines()) == 4


def test_ps_q():
    assert run_json("ps-q", "--w-orbit", "6", "--i-orbit", "3") == \
        {"exponent": 2, "q_alpha": "q^2"}
    assert run("ps-q", "--w-orbit", "5", "--i-orbit", "2").returncode == 2


def test_case_lookup_and_audit():
    data = run_json("case", "--group", "E7(2)", "--levi", "2,3")
    assert data["open_orbits"]
    assert data["record"]["relative"] == "B2"
    # levi subsets conjugate to a stored one resolve through aliases
    alias = run_json("case", "--group", "F4", "--levi", "1,3")
    assert alias["record"]["levi"] == [1, 4]
    audit = run_json("case")
    assert audit["failures"] == [] and audit["checked"] >= 30


def test_transfer():
    data = run_json("transfer", "--type", "C1", "--labels", "1,1",
                    "--case", "ii")
    assert data["after"]["type"] == "B1"
    assert data["roundtrip"] and data["class_preserved"]
    back = run_json("transfer", "--type", "B1", "--labels", "1,0",
                    "--case", "ii", "--direction", "to-cover")
    assert back["after"]["type"] == "C1"
    assert run("transfer", "--type", "A2", "--labels", "1,1",
               "--case", "ii").returncode == 2


def test_mu():
    assert run_json("mu", "--qa", "2", "--qs", "1", "recover") == \
        {"q_alpha": "q^2", "q_star": "q"}
    prof = run_json("mu", "--qa", "1", "poles")
    assert prof["zeros"] == [{"sign": 1, "exp": 0, "ord": 2}]
    assert {(p["sign"], p["exp"]) for p in prof["poles"]} == {(1, 1), (1, -1)}
    shown = run_json("mu", "--qa", "1/2", "--qs", "1/2", "show")
    assert shown["q_alpha"] == "q^(1/2)"


def test_jmatrix():
    both = run_json("jmatrix")
    assert set(both) == {"P->Pop", "Pop->P"}
    one = run_json("jmatrix", "--direction", "P->Pop")
    assert len(one["entries"]) == 2 and len(one["entries"][0]) == 2


def test_scalar():
    data = run_json("scalar")
    assert data["scalar_identity"] is True
    assert data["reducibility_points"] == {"q_alpha": "q", "q_star": "1"}
    poles = {(p["sign"], p["exp"]) for p in data["reciprocal_profile"]["poles"]}
    assert poles == {(1, 1), (1, -1)}


def test_charsum():
    sweep = run_json("charsum", "--modulus", "9")
    assert sweep == {"modulus": 9, "phi": 6, "trivial_sum": 6,
                     "nontrivial_all_vanish": True}
    one = run_json("charsum", "--modulus", "25", "--index", "3")
    assert one["sum"] == 0 and one["rule"] == "alpha not in Sigma_{O,mu}"


def test_mul():
    data = run_json("mul", "--type", "A", "--rank", "1", "--labels", "1,1",
                    "T0", "T0")
    # the quadratic relation folds T0^2 back into the basis
    terms = {tuple(t["w"]): t["coeff"] for t in data["product"]["terms"]}
    assert terms == {(): "(v^2)/(1)", (0,): "(v^2-1)/(1)"}


def test_normal_form():
    data = run_json("normal-form", "--type", "A", "--rank", "1",
                    "--labels", "1,1", "x1 T0 T0")
    same = run_json("mul", "--type", "A", "--rank", "1", "--labels", "1,1",
                    "x1", "T0 T0")
    assert data["element"] == same["product"]


def test_check_relations():
    data = run_json("check-relations", "--type", "B", "--rank", "2",
                    "--labels", "3,3,1", "--samples", "3", "--seed", "1")
    assert data["report"]["ok"] is True
    assert data["report"]["associativity"] == 3


def test_decompose():
    data = run_json("decompose", "--type", "B", "--rank", "2",
                    "--matrix=-1,0;0,-1")
    assert data["basis_fixed"] is True and data["length"] == 4
    flip = run_json("decompose", "--type", "A", "--rank", "2",
                    "--matrix=-1,0,0;0,-1,0;0,0,-1")
    assert flip["automorphism"]["simple_images"] == [1, 0]
    assert flip["length"] == 3


# the modules `import hecke.cli` may load; every verb loads them anyway
TOP_MODULES = {"cli"}

# run in a fresh interpreter: main(argv) unless argv is null, then report
# [exit status, hecke modules loaded]
_LOADED = """
import contextlib, io, json, sys
from hecke.cli import main
argv, status = json.loads(sys.argv[1]), None
if argv is not None:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
print(json.dumps([status, sorted(m[6:] for m in sys.modules if m.startswith("hecke."))]))
"""


def _loaded(argv=None):
    proc = subprocess.run([sys.executable, "-c", _LOADED, json.dumps(argv)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    status, modules = json.loads(proc.stdout)
    return status, set(modules)


def test_each_verb_loads_only_its_modules():
    assert _loaded()[1] <= TOP_MODULES
    algebra_side = {"hecke_algebra", "mu_function", "xlaurent", "intertwiner_rank1"}
    for argv in (["table1"], ["case"]):
        status, modules = _loaded(argv)
        assert status == 0 and not modules & algebra_side, (argv, modules)
        assert "qfield" not in modules, (argv, modules)   # no verb here reads a coefficient
    status, modules = _loaded(["mu", "--qa", "1", "poles"])
    assert status == 0 and not modules & {"param_catalog", "hecke_algebra"}, modules
    catalog_side = {"param_catalog", "mu_function", "isogeny_transfer"}
    for argv in (["mul", "--type", "A1", "--labels", "1,1", "T0", "T0"],
                 ["check-relations", "--type", "A1", "--labels", "1,1",
                  "--samples", "2"]):
        status, modules = _loaded(argv)
        assert status == 0 and "hecke_algebra" in modules, (argv, modules)
        assert not modules & catalog_side, (argv, modules)
        if argv[0] == "mul":   # only check_relations imports X-Laurent division
            assert "xlaurent" not in modules, modules
    assert _loaded(["decompose", "--type", "B2", "--matrix=-1,0;0,-1"]) == \
        (0, {"cli", "root_data"})


def test_usage_errors_exit_two():
    assert run("no-such-verb").returncode == 2
    assert run("match-labels", "--type", "B2").returncode == 2
    assert run("match-labels", "--type", "B2", "--labels", "1,2,3,4").returncode == 2
    assert run("case", "--group", "H8").returncode == 2
    assert run().returncode == 2
    assert run("--help").returncode == 0
    # the usage paths exit in the parser, before any verb's imports
    for argv, status in (([], 2), (["--help"], 0)):
        code, modules = _loaded(argv)
        assert code == status and modules <= TOP_MODULES, (argv, code, modules)


def _refused(*argv):
    proc = run(*argv)
    return proc.returncode == 2 and "exceeds" in proc.stderr


def test_charsum_audit_cap():
    from hecke.intertwiner_rank1 import AUDIT_PHI_CAP
    # the first prime p with phi(p) = p - 1 above the cap
    p = next(n for n in range(AUDIT_PHI_CAP + 2, 2 * AUDIT_PHI_CAP + 4)
             if all(n % d for d in range(2, n)))
    assert _refused("charsum", "--modulus", str(p))
    # a single sum at the same modulus stays bounded by MODULUS_CAP only
    assert run_json("charsum", "--modulus", str(p), "--index", "2")["sum"] == 0


def test_mu_exponent_cap():
    from hecke.mu_function import MU_EXP_CAP
    assert _refused("mu", "--qa", str(MU_EXP_CAP + 1), "poles")
    assert _refused("mu", "--qa", "1e100", "recover")


def test_unitary_ps_cap():
    from hecke.param_catalog import UNITARY_N_CAP
    n = UNITARY_N_CAP + 1
    assert _refused("unitary-ps", "--n", str(n), "--segments", f"not-skew:{n // 2}")


def test_label_cap():
    from hecke.hecke_algebra import LABEL_CAP
    big = str(LABEL_CAP + 1)
    assert _refused("mul", "--type", "A1", "--labels", f"{big},{big}", "T0", "T0")


def test_labels_at_another_base():
    # v^2 = q_F at every base: label 1 at base q_F^(1/2) is qq = q_F^(1/2) = v
    terms = run_json("normal-form", "--type", "A1", "--labels", "1", "--base-exp", "1/2",
                     "T0 T0")["element"]["terms"]
    assert {tuple(t["w"]): t["coeff"] for t in terms} == {(): "(v)/(1)", (0,): "(v-1)/(1)"}
    # q_F^(1/3) is no power of v; label 51 at base q_F^2 is label 102 at base q_F
    proc = run("normal-form", "--type", "A1", "--labels", "1", "--base-exp", "1/3", "T0")
    assert proc.returncode == 2 and "not a half-integer" in proc.stderr
    assert _refused("normal-form", "--type", "A1", "--labels", "51", "--base-exp", "2", "T0")


def test_coordinate_cap():
    from hecke.hecke_algebra import COORD_CAP
    assert _refused("mul", "--type", "A1", "--labels", "1,1", "T0",
                    f"x{COORD_CAP + 1}")
    assert _refused("normal-form", "--type", "A2", "--labels", "1,1",
                    f"x0,-{COORD_CAP + 1} T0")


def test_lattice_cap():
    # both points pass COORD_CAP; T_w0 * theta_(-10,10) has spread 160 (not 60)
    w0 = "T0 T1 T0 T1 T0 T1"
    assert _refused("mul", "--type", "G2", "--labels", "1,3", w0, "x-10,10")
    assert _refused("normal-form", "--type", "G2", "--labels", "1,3", "x10,-10")


def test_samples_cap():
    from hecke.hecke_algebra import SAMPLES_CAP
    assert _refused("check-relations", "--type", "A1", "--labels", "1,1",
                    "--samples", str(SAMPLES_CAP + 1))


def test_sample_work_cap():
    # a sample is charged by the rank and the coefficient width in t-slots,
    # not by |W|^2: B3 at labels 100,100,1 (g = 1, width 200) refuses the
    # default 50 samples and G2 at 100,99 (g = 2, width 100) 30, which G2
    # at 1,3 (width 3) and A2 at 100,100 (g = 200, width 1) run
    assert _refused("check-relations", "--type", "B3", "--labels", "100,100,1")
    assert _refused("check-relations", "--type", "G2", "--labels", "100,99",
                    "--samples", "30")


def test_sample_budget_runs_narrow_coefficients():
    report = run_json("check-relations", "--type", "A2", "--labels", "100,100",
                      "--samples", "200")["report"]
    assert report["ok"] and report["associativity"] == 200


def test_work_cap_charges_whole_words():
    # each token passes alone, but theta_(-5,5) theta_(-5,5) = theta_(-10,10)
    # (spread 160), and four x10,10 make spread 240
    w0 = "T0 T1 T0 T1 T0 T1"
    assert _refused("mul", "--type", "G2", "--labels", "1,3", w0, "x-5,5 x-5,5")
    assert _refused("mul", "--type", "G2", "--labels", "1,3", w0, " ".join(["x10,10"] * 4))
    assert _refused("normal-form", "--type", "G2", "--labels", "1,3", f"{w0} x-5,5 x-5,5")


def _w0(letter, rank):
    from hecke.root_data import build_root_system, weyl_group
    return " ".join(f"T{j}" for j in weyl_group(build_root_system(letter, rank))[-1].word)


def test_work_cap_weighs_the_width():
    # T_w0 * theta_(-7,7), spread 112: width 3 at labels 1,3 and 1 at 100,100
    # (g = 200) run, width 100 at 100,99 (g = 2) is refused; so is B3 at
    # 100,100,1 (g = 1, width 200) with spread 56
    for labels in ("1,3", "100,100"):
        assert run("mul", "--type", "G2", "--labels", labels, _w0("G", 2), "x-7,7").returncode == 0
    assert _refused("mul", "--type", "G2", "--labels", "100,99", _w0("G", 2), "x-7,7")
    assert _refused("mul", "--type", "B3", "--labels", "100,100,1", _w0("B", 3), "x-3,2,-3")


@pytest.mark.parametrize("argv", [
    ("mul", "--type", "A", "--rank", "1", "--labels", "1,1", "x1", "T5"),
    ("normal-form", "--type", "A", "--rank", "1", "--labels", "1,1", "T3"),
    ("decompose", "--type", "B", "--rank", "2", "--matrix=1,0;0"),
    ("decompose", "--type", "E", "--rank", "8", "--matrix=1"),
    ("check-relations", "--type", "A1", "--labels", "1,1", "--samples", "-5"),
], ids=" ".join)
def test_malformed_input_exits_two(argv):
    """A simple index at or above the rank, a matrix that is not dim x dim and
    a negative sample count are refused as input, not by a traceback."""
    proc = run(*argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert proc.stdout == ""


# -- in-process fuzz of every verb's flags ------------------------------------
#
# Values are small (half of the draws), huge, negative, fractional,
# zero-denominator, empty and ragged.  Half of the components are valid ones,
# so that the verbs run past their parsing.  --json is left out: it writes a file.

_HUGE = str(10 ** 30)
_VALUE = st.sampled_from(["1", "2", "3"]) | st.sampled_from(
    ["0", "-1", "-7", _HUGE, "-" + _HUGE, "1/2", "3/2", "-1/2", "0.5", "1e100", "1/0",
     "0/0", "nan", "", "1,,2", "1,2,3,4,5", "x"])
_LIST = st.lists(_VALUE, max_size=4).map(",".join)
_TYPE = st.sampled_from(["A", "B", "C", "G", "A1", "B2", "C3", "D4", "G2", "F4",
                         "E8", "B0", "A-1", "X3", "", "B" + _HUGE])
_TOKEN = st.sampled_from(["T0", "T1", "T2", "T9", "t1", "T-1", "T", "x1", "x0,1",
                          "x1,-1", "x-1,0,1", "x1,,2", "x" + _HUGE, "x", "y1", ";"])
_WORD = st.lists(_TOKEN, max_size=4).map(" ".join)
_VALID_COMPONENT = st.sampled_from([["--type=A1", "--labels=1,1"],
                                    ["--type=A", "--rank=2", "--labels=2,2"],
                                    ["--type=B2", "--labels=3,3,1"],
                                    ["--type=G2", "--labels=1,3"]])


def _flags(*pairs):
    """Each flag with a drawn value, or left out."""
    return st.tuples(*(st.one_of(st.just([]), v.map(lambda x, f=f: [f"{f}={x}"]))
                       for f, v in pairs)).map(lambda t: sum(t, []))


_COMPONENT = _VALID_COMPONENT | _flags(("--type", _TYPE), ("--rank", _VALUE),
                                       ("--labels", _LIST), ("--base-exp", _VALUE))
_FAMILY = _flags(("--case", st.sampled_from(["a", "b", "c", "d"])), ("--t", _VALUE),
                 ("--f", _VALUE), ("--a-plus", _VALUE), ("--a", _VALUE),
                 ("--a-minus", _VALUE), ("--n-dual", _VALUE), ("--d-rho", _VALUE))
_SEGMENT = st.tuples(st.sampled_from(["not-skew", "skew-nontrivial", "skew-trivial",
                                      "trivial", "odd", ""]), _VALUE).map(":".join)


def _then(*parts):
    return st.tuples(*parts).map(lambda t: sum(t, []))


_VERBS = {
    "table1": st.sampled_from([[], ["--csv"]]),
    "match-labels": _COMPONENT,
    "classical": _FAMILY,
    "bound": _FAMILY,
    "parity": _flags(("--family", st.sampled_from(["unramified-SU", "other", "x"])),
                     ("--t", _VALUE), ("--a", _VALUE), ("--a-minus", _VALUE)),
    "unitary-ps": _then(_flags(("--n", _VALUE),
                               ("--segments", st.lists(_SEGMENT, max_size=3).map(",".join))),
                        st.sampled_from([[], ["--ramified"]])),
    "ps-q": _flags(("--w-orbit", _VALUE), ("--i-orbit", _VALUE)),
    "case": _flags(("--group", st.sampled_from(["G2", "3D4", "E7(2)", "H8", ""])),
                   ("--levi", _LIST)),
    "transfer": _then(_COMPONENT, _flags(
        ("--case", st.sampled_from(["i", "ii", "iii", "iv"])),
        ("--direction", st.sampled_from(["to-quotient", "to-cover"])))),
    "mu": _then(st.sampled_from([[], ["show"], ["poles"], ["recover"]]),
                _flags(("--qa", _VALUE), ("--qs", _VALUE), ("--c-prime", _VALUE))),
    "jmatrix": _flags(("--direction", st.sampled_from(cli.J_DIRECTIONS))),
    "scalar": st.just([]),
    "charsum": _flags(("--modulus", _VALUE), ("--index", _VALUE)),
    "mul": _then(_COMPONENT, st.tuples(_WORD, _WORD).map(lambda t: ["--", *t])),
    "normal-form": _then(_COMPONENT, _WORD.map(lambda w: ["--", w])),
    "check-relations": _then(_COMPONENT, _flags(
        ("--samples", st.sampled_from(["0", "1", "2", "-5", "501", "x"])),
        ("--seed", _VALUE))),
    "decompose": _flags(("--type", _TYPE), ("--rank", _VALUE), ("--matrix", st.one_of(
        st.sampled_from(["1,0;0,1", "0,1;1,0", "-1,0;0,-1", "1,0,0;0,1,0;0,0,1"]),
        st.lists(_LIST, max_size=3).map(";".join)))),
}


@settings(max_examples=300, derandomize=True, database=None, deadline=5000,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(_VERBS)).flatmap(
    lambda verb: _VERBS[verb].map(lambda rest: [verb, *rest])))
def test_fuzzed_argv_exits_zero_one_or_two(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:   # argparse refuses usage errors itself
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@pytest.mark.parametrize("argv", [
    ("mu", "--qa", "1", "--c-prime", "1/0"),
    ("mu", "--qa", "1/0", "poles"),
    ("match-labels", "--type", "B2", "--labels", "3,3,1", "--base-exp", "1/0"),
    ("mul", "--type", "A1", "--labels", "1/0,1", "T0", "T0"),
], ids=" ".join)
def test_zero_denominator_is_malformed_input(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    assert code == 2 and "error: " in err.getvalue(), err.getvalue()
    assert "Traceback" not in err.getvalue()


def test_byte_stable_output():
    for argv in (["table1"],
                 ["check-relations", "--type", "A", "--rank", "2",
                  "--labels", "2,2", "--samples", "2", "--seed", "7"]):
        first, second = run(*argv), run(*argv)
        assert first.stdout == second.stdout
        assert first.returncode == second.returncode


def test_json_file_output(tmp_path):
    target = tmp_path / "out.json"
    data = run_json("ps-q", "--w-orbit", "4", "--i-orbit", "2",
                    "--json", str(target))
    assert json.loads(target.read_text()) == data
