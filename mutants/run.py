"""Rerun recorded mutations: each one must make its named tests fail.

    python3 mutants/run.py

Stdlib only, and outside tier-1's testpaths.  Each entry of MUTANTS is
(name, file under src/hecke, exact old text, new text, test ids).  The
unmutated src/ is copied to a temporary directory first and must pass every
named test.  Then, one entry and one pytest process at a time, src/ is copied
again, the old text (which must occur exactly once) is replaced by the new
one, and the entry's tests run with PYTHONPATH at the copy; the entry is
caught when they fail.  Exit status 0 when every entry is caught, else 1.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HA, RD, MU = "hecke_algebra.py", "root_data.py", "mu_function.py"
LP, PC, IT = "label_params.py", "param_catalog.py", "isogeny_transfer.py"
QF, XL = "qfield.py", "xlaurent.py"
T = "tests/"

MUTANTS = [
    # one product path and one T.theta memo in the algebra
    ("residue carry without its t-shift", HA,
     "c12, shift = c12 << K, shift - carry", "c12, shift = c12, shift - carry",
     [T + "test_hecke_algebra.py::test_residues_that_pass_g_carry_one_t"]),
    ("D_s pieces with the sign flipped", HA,
     "+ (c << p) - (c << r)", "- (c << p) + (c << r)",
     [T + "test_hecke_algebra.py::test_cross_relation_a1"]),
    ("down step of T_u T_s without -c", HA,
     "out[k] = get(k, 0) + cq - c", "out[k] = get(k, 0) + cq",
     [T + "test_hecke_algebra.py::test_quadratic_and_cube_a1"]),
    ("reflected key with the wrong sign", HA,
     "sy = y - n * self._x_keys[s]", "sy = y + n * self._x_keys[s]",
     [T + "test_hecke_algebra.py::test_cross_relation_a1"]),
    ("BFS keyed by all but the last simple root", RD,
     "for b in simple]), len(elements))", "for b in simple[:-1]]), len(elements))",
     [T + "test_root_data.py::test_weyl_group_matches_the_permutation_keyed_bfs[B-2]"]),
    ("s_0 and s_1 swapped in ws_table row 2", RD,
     "ws_table.append(tuple(row))",
     "ws_table.append(tuple(row) if len(ws_table) != 2 else (row[1], row[0], *row[2:]))",
     [T + "test_hecke_algebra.py::test_finite_part_closed_and_length_additive"]),
    ("last letter of u in place of the first", RD,
     "left.append((w.word[0], ws_table[left[wi][1]][j]) if wi else (j, 0))",
     "left.append((j, wi))",
     [T + "test_hecke_algebra.py::test_finite_part_closed_and_length_additive"]),
    ("sum of su overwritten by the step from u", HA,
     "into = sums.get(si)", "into = None",
     [T + "test_hecke_algebra.py::test_zero_and_identity_products"]),
    # one closed form for the simple-root orbits
    ("B's long and short orbits swapped", RD,
     '"B": (tuple(range(n - 1)), (n - 1,)),', '"B": ((n - 1,), tuple(range(n - 1))),',
     [T + "test_root_data.py::test_simple_orbits_closed_form_reads_the_root_norms[B-3]"]),
    ("G2's long and short orbits swapped", RD,
     '"G": ((1,), (0,))}', '"G": ((0,), (1,))}',
     [T + "test_root_data.py::test_simple_orbits_closed_form_reads_the_root_norms[G-2]"]),
    ("D2 as one orbit", RD,
     'return (("all", (0,)), ("all", (1,)))', 'return (("all", (0, 1)),)',
     [T + "test_root_data.py::test_simple_orbits_closed_form_reads_the_root_norms[D-2]"]),
    ("lambda* on the long orbit in _labels", PC,
     '(short_pair if cls == "short" else long_pair)',
     '(long_pair if cls == "short" else short_pair)',
     [T + "test_cross_layer.py::test_unitary_principal_series_labels_build_and_round_trip"]),
    ("T_w theta_0 shortcut with bound 0", HA,
     "else ({wi: 1}, 1, 0)", "else ({wi: 1}, 0, 0)",
     [T + "test_hecke_algebra.py::test_scaling_builds_no_t_theta"]),
    ("roundtrip_check takes the same case back", IT,
     "transfer(there, case.inverse(), direction)", "transfer(there, case, direction)",
     [T + "test_isogeny_transfer.py::test_roundtrip_examples"]),
    ("component_match keeps the last orbit per class", PC,
     "cols.setdefault(cls, []).append(vals.pop())", "cols[cls] = [vals.pop()]",
     [T + "test_isogeny_transfer.py::test_component_match_assembly"]),
    # across the layers
    ("B and C not swapped in _dual_type", PC,
     'letter = {"B": "C", "C": "B"}[letter]', 'letter = {"B": "B", "C": "C"}[letter]',
     [T + "test_param_catalog.py::test_reduced_levi_cases_collapse_to_type_a"]),
    ("e_alpha and e_alpha* swapped in the 3D4 record", "data/cases.json",
     '{"orbit": "long", "kind": "pair", "e_alpha": 1, "e_star": 0},\n'
     '        {"orbit": "short", "kind": "choices", "e_alpha_options": [1, 3]',
     '{"orbit": "long", "kind": "pair", "e_alpha": 0, "e_star": 1},\n'
     '        {"orbit": "short", "kind": "choices", "e_alpha_options": [1, 3]',
     [T + "test_cross_layer.py::test_case_database_labels_build_and_round_trip"]),
    # Sigma_{O,mu} from W-orbits, and one reader of the length classes
    ("Sigma without the W-closure", MU,
     "        while stack:\n            r = stack.pop()\n            for sp in sperms:",
     "        while False:\n            r = stack.pop()\n            for sp in sperms:",
     [T + "test_mu_function.py::test_sigma_subsystem_b2_long_only"]),
    ("Sigma without the single-class 'all' tag", MU,
     'tag = "all" if single else tags.pop()', "tag = tags.pop()",
     [T + "test_mu_function.py::test_sigma_subsystem_every_class_and_all_orbits[B-1]"]),
    ("validate reads every orbit as short", LP,
     "cls = cls_of[idx[0]]", 'cls = "short"',
     [T + "test_label_params.py::test_validate"]),
    # the bound-table rescale solved from the labels
    ("only the floor multiple of r0", PC,
     "cands = {r0 * max(1, 1 // r0), r0 * ceil(1 / r0)}", "cands = {r0 * max(1, 1 // r0)}",
     [T + "test_cli.py::test_match_labels_least_distortion_first"]),
    ("set columns pin no rescaling", PC,
     "cands.update(s / v for s in", "set().union(s / v for s in",
     [T + "test_param_catalog.py::test_table1_match_rescaling"]),
    # one route to the bound table, one simple factor at a time
    ("worst status order", PC,
     '("none", "match", "empty")', '("match", "none", "empty")',
     [T + "test_cli.py::test_match_labels_d2_one_factor_at_a_time"]),
    ("case report without the dual swap", PC,
     "labels[-1], labels[0]", "labels[0], labels[-1]",
     [T + "test_param_catalog.py::test_reduced_levi_cases_collapse_to_type_a"]),
    # one work budget, weighed by the width and charged on whole words
    ("width left out of the charge", HA,
     "work = terms * (TERM_COST + max(self.qq, default=0) // K)", "work = terms * TERM_COST",
     [T + "test_hecke_algebra.py::test_work_cap_weighs_the_width"]),
    ("word charged per token instead of per sum", HA,
     "alg.charge_word(word)", "[alg.charge_word([token]) for token in word]",
     [T + "test_hecke_algebra.py::test_normal_form_charges_the_whole_word"]),
    ("T tokens charged nothing", HA,
     "t_terms += max(1, Fraction(spread, 14) ** self.rank)", "t_terms += 0",
     [T + "test_hecke_algebra.py::test_normal_form_charges_its_t_tokens"]),
    ("T tokens charged one term after a theta", HA,
     "t_terms += max(1, Fraction(spread, 14) ** self.rank)", "t_terms += 1",
     [T + "test_hecke_algebra.py::test_normal_form_charges_its_t_tokens"]),
    # one coefficient ring, Q[v, v^-1]
    ("monomial test lets 1+v through", QF,
     "if vb < len(den) - 1:", "if vb < len(den) - 2:",
     [T + "test_qfield.py::test_values_outside_the_ring_are_refused"]),
    ("sign of c not normalized", QF,
     "        if den[-1] < 0:\n            num, den = pneg(num), pneg(den)",
     "        if False:\n            num, den = pneg(num), pneg(den)",
     [T + "test_qfield.py::test_vrat_cancellation"]),
    ("_integral drops the integer content", XL,
     "g = gcd(*(gcd(*x.num) * (d // x.den[-1]) for x in f.c.values()))", "g = 1",
     [T + "test_xlaurent.py::test_packed_search_refuses_a_bound_past_one_slot"]),
    # one pass over the packed ints per printed coefficient
    ("leading + of the numerator not stripped", QF,
     'if c]).lstrip("+")', "if c])",
     [T + "test_printer.py::test_pstr_matches_the_reference_printer[0]"]),
    ("a +1 slot printed as 1*v^e", QF,
     '("+" + bare[x] if c == 1 else "-" + bare[x]', '("-" + bare[x]',
     [T + "test_printer.py::test_to_json_matches_the_reference_printer[0-A-1-labels0]"]),
    ("denominator's power one too high", QF,
     "d = -low if low < 0 else 0", "d = 1 - low if low < 0 else 0",
     [T + "test_printer.py::test_to_json_matches_the_reference_printer[0-A-1-labels0]"]),
    ("residue parts interleaved in reverse order", QF,
     "qs = [(row[i], _slots(row[i + 1]))", "qs = [(row[-2 - i], _slots(row[i + 1]))",
     [T + "test_printer.py::test_to_json_matches_the_reference_printer[0-A-2-labels1]"]),
    ("a wide exponent read from the fixed tables", QF,
     "bare, star = _powers(range(wide)) if wide > len(_BARE) else (_BARE, _STAR)",
     "bare, star = _BARE, _STAR",
     [T + "test_printer.py::test_wide_powers_print_without_growing_the_tables"]),
    ("a -1 slot printed as -1*v^e", QF,
     '"-" + bare[x] if c == -1 else', '"-" + bare[x] if c == -2 else',
     [T + "test_printer.py::test_pstr_matches_the_reference_printer[0]"]),
    ("denominator looked up one power high", QF,
     'return f"({num})/({bare[d]})"', 'return f"({num})/({bare[d + 1]})"',
     [T + "test_printer.py::test_packed_str_matches_the_reference_on_single_parts[0]"]),
    # one long division for Z[v] and X
    ("long division adds q * x", QF,
     "rem[i - db + j] -= q * x", "rem[i - db + j] += q * x",
     [T + "test_qfield.py::test_poly_div_exact"]),
    ("lead term left in tail", QF,
     "enumerate(b[:-1]) if x]", "enumerate(b) if x]",
     [T + "test_qfield.py::test_poly_div_exact"]),
    ("div_exact divides by 1 in place of the lead", XL,
     "(lambda c, _: c) if gs[-1].is_one() else truediv", "(lambda c, _: c)",
     [T + "test_sympy_oracle.py::test_div_exact_matches_sympy_over_qv"]),
    ("synth_div divides by X + root", XL,
     "long_div(_dense(f), [-root, 1]", "long_div(_dense(f), [root, 1]",
     [T + "test_xlaurent.py::test_synth_div"]),
    ("div_exact renamed", XL,
     "def div_exact(", "def div_exact_renamed(",
     [T + "test_perfbench_names.py::test_every_traced_name_resolves_to_a_hecke_function"]),
    # one conversion of q-parameters to v-exponents, the same at every base
    ("v_exponents returns (e_star, e_alpha)", LP,
     "return tuple(e.numerator * 2 // e.denominator for e in self)",
     "return tuple(e.numerator * 2 // e.denominator for e in self)[::-1]",
     [T + "test_label_params.py::test_v_exponents"]),
    ("AHA reads lambda +- lambda* without the base", HA,
     "ea, es = lf.pair(k).v_exponents()",
     "ea, es = int(lf.orbits[k][1] + lf.orbits[k][2]), int(lf.orbits[k][1] - lf.orbits[k][2])",
     [T + "test_hecke_algebra.py::test_the_algebra_is_the_same_at_every_base[A1-2]"]),
    ("from_json without its reducedness check", HA,
     'self._reduced(int(j) for j in t["w"])',
     'word_index(self.ws_table, tuple(int(j) for j in t["w"]))',
     [T + "test_hecke_algebra.py::test_from_json_refuses_what_t_refuses[not-reduced]"]),
    ("VRat hashed as its tuple", QF,
     "if self.den == PONE and len(self.num) < 2:", "if False:",
     [T + "test_qfield.py::test_vrat_hashes_like_the_int_it_equals[1]"]),
    # the classical labels, conformance and the base check read label_params
    ("conforms without the q_F-ratio test", LP,
     "return all((ea - es) % 2 == 0 for ea, es in vexps)", "return True",
     [T + "test_label_params.py::test_conjecture_conformance"]),
    ("base-1 classical labels read at base t", PC,
     "self.alpha_base_1 = labels_from_q(q_pair)",
     "self.alpha_base_1 = labels_from_q(q_pair, QBase(t))",
     [T + "test_param_catalog.py::test_classical_labels_case_a",
      T + "test_cross_layer.py::test_classical_family_labels_build_and_round_trip"]),
    ("pair_from_labels without the base check", LP,
     "QBase(base_exp).exp / 2", "_frac(base_exp) / 2",
     [T + "test_label_params.py::test_pair_from_labels_checks_its_base"]),
    # root_data states each fact once: one descent walk, one pairing, one type table
    ("decompose peels w, not w^-1", RD,
     "_peel(rs, _inverse(w_perm))", "_peel(rs, w_perm)",
     [T + "test_root_data.py::test_decompose_words_are_weyl_group_words[A-3]"]),
    ("Cartan pairing without the factor 2", RD,
     "num, na = 2 * _dot(r, a), _dot(a, a)", "num, na = _dot(r, a), _dot(a, a)",
     [T + "test_root_data.py::test_cartan_matrices"]),
    ("parse_type skips the type check", RD,
     "    _check_type(letter, rank)\n    return letter, rank", "    return letter, rank",
     [T + "test_root_data.py::test_parse_type_and_simple_orbits_share_one_type_table"]),
    # a product is refused only where the exact norms refuse it
    ("_piece_top on the pieces' tracked bounds", HA,
     "top = max(top, m if m >> (K - 1) else _norm(part))", "top = max(top, m)",
     [T + "test_hecke_algebra.py::test_summed_pieces_refuse_no_more_than_the_pieces_alone"]),
]


def _copy_src(dest: Path) -> Path:
    src = dest / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    return src


def _mutate(src: Path, path: str, old: str, new: str) -> None:
    f = src / "hecke" / path
    text = f.read_text()
    count = text.count(old)
    if count != 1:
        raise LookupError(f"{path}: the old text occurs {count} times, not once")
    f.write_text(text.replace(old, new))


def _passes(src: Path, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=ROOT, env=env, capture_output=True, text=True)
    if proc.returncode not in (0, 1):   # 2-5: interrupted, internal error, usage, no tests
        raise RuntimeError(f"pytest exited {proc.returncode}:\n{proc.stdout[-2000:]}")
    return proc.returncode == 0


def main() -> int:
    t0 = time.monotonic()
    with tempfile.TemporaryDirectory() as tmp:
        clean = _copy_src(Path(tmp) / "clean")
        tests = list(dict.fromkeys(t for *_, ids in MUTANTS for t in ids))
        if not _passes(clean, tests):
            print("the unmutated copy fails the named tests", file=sys.stderr)
            return 1
    caught = 0
    for name, path, old, new, ids in MUTANTS:
        t1 = time.monotonic()
        detail = ""
        with tempfile.TemporaryDirectory() as tmp:
            src = _copy_src(Path(tmp))
            try:
                _mutate(src, path, old, new)
                status = "survived" if _passes(src, ids) else "caught"
            except (LookupError, RuntimeError) as err:
                status, detail = "error", f": {err}"
        caught += status == "caught"
        print(f"{status:8} {time.monotonic() - t1:5.1f} s  {name}{detail}", flush=True)
    print(f"{caught}/{len(MUTANTS)} caught in {time.monotonic() - t0:.1f} s")
    return 0 if caught == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
