"""Replayable mutants: each is a file, an exact text edit, and the tests that
must catch it.

Run from the repository root::

    python tests/mutants.py [NAME ...]

It copies the repository (without ``.git`` and caches) to a temporary
directory and runs every listed test there once, unmutated: they must pass.
Then, for each mutant (or each one named), it applies the edit to the copy,
runs only that mutant's tests, and restores the file.  A mutant is caught
when each of its tests fails (a parametrized test in at least one case).
One line per mutant is printed; the exit status is 0 when every mutant is
caught.

A sampled sweep, to look for faults that no test catches::

    python tests/mutants.py --sample N [--seed S]

lists every site of one AST edit in ``src/cherednik`` (``+`` and ``-``
swapped, ``*`` made ``+``, a comparison negated, an int constant bumped by
one), draws N of them with seed S, and runs the whole test suite with
``-x`` on each edit in turn, after one unmutated run that must pass.  An
edit is caught when the suite fails, errors or times out.  Survivors are
printed for review; they may be equivalent mutants, and they are not added
to the curated list above.  The exit status is 0 when every sampled edit
is caught.

The file's name does not start with ``test_``, so pytest does not collect
it; ``tests/test_mutant_list.py`` checks in tier-1 that every curated edit
still matches its file once and names defined tests.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import io
import pathlib
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import tokenize
from dataclasses import dataclass

ROOT = pathlib.Path(__file__).resolve().parents[1]
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                ".hypothesis", "out", "*.egg-info")

SCALARS = "src/cherednik/scalars.py"
CYCLOTOMIC = "src/cherednik/cyclotomic.py"
PBW = "src/cherednik/pbw.py"
INTERTWINERS = "src/cherednik/intertwiners.py"
REPTHEORY = "src/cherednik/reptheory.py"
OPERATORS = "src/cherednik/operators.py"
JACK = "src/cherednik/jack.py"
PARSING = "src/cherednik/parsing.py"
CLI = "src/cherednik/cli.py"
POLYNOMIALS = "src/cherednik/polynomials.py"

T_MIXED = "tests/test_scalars.py::test_products_with_one_unknown_split_match_the_gcd_path"
T_CANCEL = "tests/test_scalars.py::test_a_product_whose_unknown_factor_cancels_comes_back_split"
T_FALLBACK = "tests/test_scalars.py::test_factored_path_cancels_and_falls_back"
T_PBW_PASS = "tests/test_pbw.py::test_check_pbw_matches_the_pairwise_loop_on_passing_families"
T_PBW_FAIL = "tests/test_pbw.py::test_check_pbw_matches_the_pairwise_loop_on_perturbed_families"
T_PBW_COUNT = "tests/test_pbw.py::test_condition_a_count_is_the_closed_form"
T_CYC = "tests/test_cyclotomic.py::test_in_place_kernels_match_the_oracles_exactly"
T_TIMES = "tests/test_scalars.py::test_times_by_plan_matches_repeated_products"
T_PLAN = "tests/test_scalars.py::test_each_form_keeps_its_own_plan"
T_DIV_CASES = "tests/test_scalars.py::test_div_linear_cases_match_synthetic_division"
T_DIV_PROP = "tests/test_scalars.py::test_div_linear_shortcuts_agree_with_synthetic_division"
T_JACK_PTS = "tests/test_generic_vs_specialized.py::test_generic_eigenvectors_specialize_to_the_ones_at_the_point"
T_SIGMA_PTS = "tests/test_generic_vs_specialized.py::test_a_generic_intertwiner_pass_holds_at_every_point"
T_SINGULAR = "tests/test_intertwiners.py::test_a_singular_sigma_on_a_built_eigenvector_is_non_generic"
T_SQUARE = "tests/test_intertwiners.py::test_a_vanishing_sigma_square_where_it_is_predicted_zero_is_non_generic"
T_SPY = "tests/test_reptheory.py::test_y1_and_yn_are_applied_to_the_last_vector"
T_ANN_PTS = "tests/test_reptheory.py::test_annihilation_matches_the_per_vector_oracle_at_seeded_points"
T_ANN_Y1 = "tests/test_reptheory.py::test_annihilation_matches_the_oracle_where_only_y1_acts"
T_NON_GORDON = "tests/test_reptheory.py::test_singular_check_flags_a_non_gordon_point"
T_SERIES = "tests/test_reptheory.py::test_cycle_index_matches_the_class_sum"
T_SERIES_W = "tests/test_reptheory.py::test_cycle_index_matches_all_of_w"
T_CLOSURE = "tests/test_reptheory.py::test_stabilizer_generators_close_to_the_slot_n_stabilizer"
T_ACTIONS = "tests/test_reptheory.py::test_a_passing_check_acts_once_per_stabilizer_generator"
T_SKEWED = "tests/test_reptheory.py::test_span_failure_is_reported_before_annihilation"
T_PERTURBED = "tests/test_reptheory.py::test_span_verdict_matches_both_oracles_on_perturbed_vectors"
T_GOLDEN_SPAN = "tests/test_reptheory.py::test_span_check_matches_all_of_w_on_golden_groups"
T_GUARD_PTS = "tests/test_reptheory.py::test_guard_matches_the_scan_at_seeded_points"
T_TRIVIAL = "tests/test_reptheory.py::test_gordon_point_refuses_the_trivial_group"
T_GOLDEN = "tests/test_cli.py::test_golden_files"
T_L1_COUNTING = "tests/test_cli.py::test_gordon_quotient_series_matches_counting"
T_CATALAN_EXACT = "tests/test_cli.py::test_a_non_integral_invariant_coefficient_fails_the_catalan_match"
T_L1_SWEEP = "tests/test_reptheory.py::test_l1_graded_dimension_matches_the_oracles"
T_L1_IDENT = "tests/test_reptheory.py::test_graded_character_identity_element"
T_TRUNC = "tests/test_cli.py::test_gordon_accepts_the_truncation_budget"
T_TRIVIAL_CLI = "tests/test_cli.py::test_trivial_group_at_the_gordon_point_exits_two"
T_GUARD_CLI = "tests/test_cli.py::test_a_failing_guard_exits_two_with_its_record"
T_DISAGREE = "tests/test_cli.py::test_jack_check_both_disagreement_exits_one"
T_CAPS = "tests/test_cli.py::test_a_non_positive_cap_exits_two"
T_WORK_GENERIC = "tests/test_cli.py::test_jack_work_estimate_is_for_generic_parameters"
T_WORK_FAST = "tests/test_cli.py::test_jack_accepts_the_fast_compositions"
T_XSIDE = "tests/test_polynomials.py::test_x_side_defects_match_oracle"
T_YX = "tests/test_polynomials.py::test_yx_commutator_is_the_first_order_x_side_defect"
T_XSIDE6 = "tests/test_polynomials.py::test_x_side_defects_match_the_per_reflection_oracle_to_degree_6"
T_REL_PASS = "tests/test_polynomials.py::test_check_relations_passes"
T_REL_FAULT = "tests/test_polynomials.py::test_check_relations_fault_injection"
T_REL_ORACLE = "tests/test_polynomials.py::test_relation_sweep_matches_per_monomial_oracle"
T_FIRST_ORDER = "tests/test_polynomials.py::test_a_first_order_break_reports_the_yx_commutator"
T_YX_SLOT = "tests/test_polynomials.py::test_the_yx_record_names_y_by_its_slot"
T_PLAN_OWN = "tests/test_polynomials.py::test_x_side_plan_belongs_to_its_representation"
T_COMM_ORACLE = "tests/test_polynomials.py::test_commutator_report_matches_the_difference_oracle"
T_COMM_FAULT = "tests/test_polynomials.py::test_commutator_report_fault_injection"
T_DUNKL_ORACLE = "tests/test_polynomials.py::test_dunkl_mono_matches_per_term_oracle"
T_TABLES_LIVE = "tests/test_polynomials.py::test_relation_tables_span_two_degrees_and_die_with_the_call"
T_TABLES_ONCE = "tests/test_polynomials.py::test_check_relations_builds_one_table_per_monomial"
T_MEMO_FREE = "tests/test_scalars.py::test_memo_free_runs_print_the_same_bytes"
T_ONE_OBJECT = "tests/test_scalars.py::test_equal_polynomials_of_one_field_are_one_object"
T_DROPPED_ID = "tests/test_scalars.py::test_the_id_of_a_dropped_operand_never_hits"
T_DOT = "tests/test_scalars.py::test_dot_matches_the_pairwise_sum"
T_MEMO_OPS = "tests/test_scalars.py::test_memo_hits_keep_each_operation_apart"
T_SIGMA_FAULT = "tests/test_intertwiners.py::test_pi_sign_fault_fails_after_a_clean_run_on_the_same_rep"
T_SIGMA_OTHER = "tests/test_intertwiners.py::test_sigma_memo_recomputes_for_another_vector_of_the_same_key"
T_UNIT_MONO = "tests/test_polynomials.py::test_unit_monomials_are_served_from_the_memo"
T_DOT_CANCEL = "tests/test_scalars.py::test_dot_cancels_without_gcd"
T_CYC_AXIOMS = "tests/test_cyclotomic.py::test_field_axioms"
T_ROOTS = "tests/test_cyclotomic.py::test_roots_are_shared"
T_ROOTS_KEPT = "tests/test_cyclotomic.py::test_operations_leave_shared_roots_unchanged"
T_MIXED_ORDERS = "tests/test_cyclotomic.py::test_mixed_orders_raise_from_every_operation"
T_PHI2 = "tests/test_cyclotomic.py::test_phi_2_products_match_the_oracle"
T_GRAMMAR = "tests/test_parsing.py::test_grammar_table"
T_IMPLICIT = "tests/test_parsing.py::test_implicit_products_match_printed_monomials"
T_DOCTESTS = "tests/test_doctests.py::test_docstring_examples"
T_CORE_CYC = "tests/test_sparse_terms.py::test_poly_with_cyc_coefficients_matches_the_replaced_loops"
T_CORE_MPOLY = "tests/test_sparse_terms.py::test_mpoly_matches_the_replaced_loops"
T_CORE_SIBLINGS = "tests/test_sparse_terms.py::test_poly_and_mpoly_are_siblings_on_one_core"
T_UNSPLIT = "tests/test_sparse_terms.py::test_unsplit_sums_are_reduced_and_split_exactly_when_linear"
T_UNSPLIT_SYMPY = "tests/test_sparse_terms.py::test_unsplit_sums_against_sympy_cancel"
T_TRACER = "tests/test_bench_contract.py::test_tracer_targets_exist"
T_VPERM = "tests/test_jack.py::test_v_permutation_against_brute_force"
T_CANDIDATES = "tests/test_jack.py::test_candidates_are_the_filtered_scan_in_order"
T_SCAN_GENERIC = "tests/test_jack.py::test_solve_matches_the_scan_oracle_at_generic_parameters"
T_SCAN_POINTS = "tests/test_jack.py::test_solve_matches_the_scan_oracle_at_seeded_and_gordon_points"
T_RENDER_CYC = "tests/test_render.py::test_cyc_text_of_each_order_matches_the_old_loop"
T_RENDER_MPOLY = "tests/test_render.py::test_mpoly_text_matches_the_old_renderer"
T_RENDER_POLY = "tests/test_render.py::test_poly_text_with_cyc_coefficients_matches_the_old_renderer"
T_RENDER_RAT = "tests/test_render.py::test_poly_text_with_ratfunc_coefficients_matches_the_old_renderer"
T_RENDER_COMPOUND = "tests/test_render.py::test_compound_ratfunc_coefficients_are_parenthesized_as_before"


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str  # relative to the repository root
    old: str  # occurs exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids that must each fail


MUTANTS = [
    # products and denominators with a rest (scalars._mul_split, _shed,
    # _intern)
    Mutant("mul: a's numerator keeps b's forms", SCALARS,
           "na, off_b = _strip(a.num, sb.forms, sa.forms)",
           "na, off_b = a.num, {}",
           (T_MIXED, T_CANCEL)),
    Mutant("split: a linear rest stays a rest", SCALARS,
           "if rest is not None and rest.degree() < 2:",
           "if rest is not None and rest.degree() < 1:",
           (T_CANCEL, T_UNSPLIT)),
    Mutant("mul: a numerator sheds against its own rest", SCALARS,
           "na, rb = _shed(na, sb.rest)",
           "na, rb = _shed(na, sa.rest)",
           (T_MIXED, T_CANCEL)),
    Mutant("mul: mp_gcd for a constant numerator too", SCALARS,
           "if rest is None or num.is_constant():",
           "if rest is None:",
           (T_MIXED, T_FALLBACK)),
    # condition (a) by whole conjugated forms (pbw.check_pbw)
    Mutant("pbw: compare only w's keys", PBW,
           "a, b = min(key for key in conj.keys() | form.keys()",
           "a, b = min(key for key in form.keys()",
           (T_PBW_FAIL,)),
    Mutant("pbw: drop the sign on a swap", PBW,
           "a, b, val = b, a, -val",
           "a, b, val = b, a, val",
           (T_PBW_FAIL,)),
    Mutant("pbw: one comparison too few per (v, w)", PBW,
           "checked_a += pairs",
           "checked_a += pairs - 1",
           (T_PBW_PASS, T_PBW_COUNT)),
    Mutant("pbw: first differing key in dict order", PBW,
           "a, b = min(key for key in conj.keys() | form.keys()",
           "a, b = next(key for key in [*conj, *form]",
           (T_PBW_FAIL,)),
    # a singular sigma_i in the intertwiner suite
    Mutant("sigma: a singular sigma escapes the suite", INTERTWINERS,
           "except SingularIntertwinerError as exc:",
           "except ZeroDivisionError as exc:",
           (T_SINGULAR, T_SIGMA_PTS)),
    # in-place Cyc kernels
    Mutant("cyc: _rat without its gcd", CYCLOTOMIC,
           "g = gcd(n, d)",
           "g = 1",
           (T_CYC, T_TIMES, T_JACK_PTS)),
    Mutant("cyc: phi = 1 add with no gcd on unequal denominators", CYCLOTOMIC,
           "return _rat(self.r, self.num[0] * db + o.num[0] * da, da * db)",
           "v = _new(Cyc); v.r, v.num, v.den = self.r, "
           "(self.num[0] * db + o.num[0] * da,), da * db; return v",
           (T_CYC, T_TIMES)),
    Mutant("cyc: phi = 1 sub with the operands swapped", CYCLOTOMIC,
           "return _rat(self.r, self.num[0] - o.num[0], da)",
           "return _rat(self.r, o.num[0] - self.num[0], da)",
           (T_CYC, T_DIV_CASES, T_PLAN, T_JACK_PTS)),
    Mutant("cyc: phi = 1 mul dropping o.den", CYCLOTOMIC,
           "return _rat(self.r, a[0] * b[0], self.den * o.den)",
           "return _rat(self.r, a[0] * b[0], self.den)",
           (T_CYC, T_TIMES, T_JACK_PTS)),
    Mutant("cyc: _pair's gcd without n1", CYCLOTOMIC,
           "g = gcd(n0, n1, d)",
           "g = gcd(n0, d)",
           (T_CYC, T_DIV_PROP, T_JACK_PTS)),
    Mutant("cyc: phi = 2 add scaling b1 by db", CYCLOTOMIC,
           "a1 * db + b1 * da,",
           "a1 * db + b1 * db,",
           (T_CYC,)),
    Mutant("cyc: phi = 2 mul folding with f0 for f1", CYCLOTOMIC,
           "a0 * b1 + a1 * b0 + top * f1",
           "a0 * b1 + a1 * b0 + top * f0",
           (T_CYC,)),
    # plans of linear forms
    Mutant("plan: _times shifts slot 0 always", SCALARS,
           "out = {e[:v] + (e[v] + 1,) + e[v + 1:]: c",
           "out = {(e[0] + 1,) + e[1:]: c",
           (T_TIMES, T_PLAN)),
    Mutant("plan: _times reuses the first form's plan", SCALARS,
           "v, g = f.plan or _plan(f)\n        for _ in range(k):",
           "v, g = _times.__dict__.setdefault('stale', f.plan or _plan(f))"
           "\n        for _ in range(k):",
           (T_PLAN, T_TIMES, T_JACK_PTS)),
    Mutant("plan: _div_linear reuses the first form's plan", SCALARS,
           "v, g = f.plan or _plan(f)\n    # p(x_v = -g)",
           "v, g = _div_linear.__dict__.setdefault('stale', f.plan or "
           "_plan(f))\n    # p(x_v = -g)",
           (T_DIV_CASES, T_DIV_PROP, T_PLAN, T_JACK_PTS)),
    Mutant("plan: g keeps the lead term", SCALARS,
           "for e, c in f.terms.items() if e != lead)",
           "for e, c in f.terms.items())",
           (T_DIV_CASES, T_DIV_PROP, T_PLAN, T_TIMES, T_JACK_PTS)),
    Mutant("plan: single-term exit without `and g`", SCALARS,
           "(len(p.terms) == 1 and g)",
           "(len(p.terms) == 1)",
           (T_DIV_CASES, T_DIV_PROP, T_JACK_PTS)),
    # gordon: annihilation from two images of f over k e_n
    Mutant("annihilation: y_2 in place of y_n", REPTHEORY,
           "yn = rep.dunkl(n - 1, f) if n > 1 else y1",
           "yn = rep.dunkl(1, f) if n > 1 else y1",
           (T_SPY, T_ANN_PTS, T_ANN_Y1)),
    Mutant("annihilation: no y_n test", REPTHEORY,
           "for i, img in ((0, yn), (1, y1)):",
           "for i, img in ((1, y1),):",
           (T_ANN_PTS, T_NON_GORDON)),
    # gordon: the span's stability on f over k e_n under the generators of
    # the stabilizer of slot n (reptheory.singular_vector_check)
    Mutant("stability: no s_{n-2}", REPTHEORY,
           "for i in range(n - 2)]",
           "for i in range(n - 3)]",
           (T_CLOSURE, T_ACTIONS, T_PERTURBED)),
    Mutant("stability: no balanced diagonal", REPTHEORY,
           "    if n >= 2:\n        gens.append(GroupElement.from_perm_col(",
           "    if False:\n        gens.append(GroupElement.from_perm_col(",
           (T_CLOSURE, T_ACTIONS, T_SKEWED, T_PERTURBED)),
    Mutant("stability: diagonal of color 1 for color p", REPTHEORY,
           "gens.append(GroupElement.diagonal(r, n, 0, p))",
           "gens.append(GroupElement.diagonal(r, n, 0, 1))",
           (T_CLOSURE,)),
    Mutant("stability: t_h f compared with f, not c f", REPTHEORY,
           "g = g - f.scaled(g.coeff(tops[-1]))",
           "g = g - f",
           (T_GOLDEN, T_ANN_PTS, T_PERTURBED, T_GOLDEN_SPAN)),
    # gordon: the invariant series by the cycle index.  The residue +a r/p
    # is an equivalent mutant: a r/p and -a r/p run over the same residues
    # as a runs over 0..p-1, so the sum over a is unchanged; -a is not.
    Mutant("series: residue -a for -a r/p", REPTHEORY,
           "residue = -a * (r // p) % r",
           "residue = -a % r",
           (T_SERIES, T_SERIES_W)),
    Mutant("series: only a = 0", REPTHEORY,
           "for a in range(p):",
           "for a in range(1):",
           (T_SERIES, T_SERIES_W, T_GOLDEN)),
    Mutant("series: (j-1)!/(j-l+1)! in the recurrence", REPTHEORY,
           "weight = factorial(j - 1) // factorial(j - l)",
           "weight = factorial(j - 1) // factorial(j - l + 1)",
           (T_SERIES, T_SERIES_W, T_GOLDEN)),
    Mutant("guard: left sides keyed by j alone", REPTHEORY,
           "key = (l % period, j)",
           "key = j",
           (T_GUARD_PTS,)),
    # gordon: the graded dimension of the quotient as one integer series
    Mutant("graded dimension: (1 - t)^(n-1) for (1 - t)^n", REPTHEORY,
           "_int_series([k] * n, [1] * n,",
           "_int_series([k] * n, [1] * (n - 1),",
           (T_L1_SWEEP, T_L1_IDENT, T_L1_COUNTING, T_GOLDEN)),
    Mutant("graded dimension: by_degree one coefficient short", CLI,
           "by_degree = ident[:n * (k - 1) + 1]",
           "by_degree = ident[:n * (k - 1)]",
           (T_L1_COUNTING, T_GOLDEN)),
    Mutant("catalan: the invariant series rounded down", CLI,
           "catalan_match = inv_series == cat[\"coefficients\"]",
           "catalan_match = [int(v) for v in inv_series] == "
           "cat[\"coefficients\"]",
           (T_CATALAN_EXACT,)),
    # the CLI's refusals
    Mutant("cli: a failed guard goes on to the later stages", CLI,
           'if not guard["ok"]:',
           "if not guard:",
           (T_GUARD_CLI,)),
    Mutant("cli: constructions that disagree are not reported", CLI,
           "if not agree:",
           "if False:",
           (T_DISAGREE,)),
    Mutant("cli: a zero degree cap or truncation accepted", CLI,
           "v <= 0 for v in",
           "v < 0 for v in",
           (T_CAPS,)),
    Mutant("budget: the budget's own truncation refused", REPTHEORY,
           "if truncation > TRUNCATION_BUDGET:",
           "if truncation >= TRUNCATION_BUDGET:",
           (T_TRUNC,)),
    # the x-side relation check (operators.x_side_defects)
    Mutant("x-side: every diagonal class weighted by one c_l", OPERATORS,
           "                 -s.coupling(params)) for s in self.reflections]",
           "                 -(s.coupling(params) if s.j is not None\n"
           "                   else params.c(self.p))) for s in self.reflections]",
           (T_XSIDE, T_YX)),
    Mutant("x-side: +c_s where -c_s belongs", OPERATORS,
           "                 -s.coupling(params)) for s in self.reflections]",
           "                 s.coupling(params)) for s in self.reflections]",
           (T_REL_PASS, T_XSIDE)),
    Mutant("x-side: one plan per group, shared by representations", OPERATORS,
           "        self._x_plan = plan\n        return plan",
           "        self._x_plan = PolyRep._x_side_plan.__dict__.setdefault(\n"
           "            (self.r, self.p, self.n), plan)\n"
           "        return self._x_plan",
           (T_PLAN_OWN,)),
    Mutant("x-side: +kappa nu_j for nu_j = 1", OPERATORS,
           "kappa_nu = [None, self.params.kappa,",
           "kappa_nu = [None, -self.params.kappa,",
           (T_YX, T_REL_PASS)),
    Mutant("x-side: lam without <alpha_s^vee, y_j>", OPERATORS,
           "if lam := s.alpha_check[j] * cy:",
           "if s.alpha_check[j] and (lam := cy):",
           (T_REL_PASS, T_XSIDE)),
    Mutant("x-side: the moved terms read off x_j f's images", OPERATORS,
           "for e, c in yf[ev].terms.items():",
           "for e, c in yxf[j][ev].terms.items():",
           (T_REL_PASS, T_XSIDE)),
    Mutant("x-side: rho taken as e_b - e_a", OPERATORS,
           "w = weights[(e[a] - e[b]) % r]",
           "w = weights[(e[b] - e[a]) % r]",
           (T_XSIDE, T_XSIDE6)),
    Mutant("x-side: a transposition term left unswapped", OPERATORS,
           "                            w = weights[(e[a] - e[b]) % r]\n"
           "                            e = e[:a] + (e[b],) + e[a + 1:b] + (e[a],) \\\n"
           "                                + e[b + 1:]\n",
           "                            w = weights[(e[a] - e[b]) % r]\n",
           (T_REL_PASS, T_XSIDE, T_XSIDE6)),
    Mutant("x-side: a pair's weights summed over every ev", OPERATORS,
           "groups.setdefault((s.i, s.j, ev), []).append(",
           "groups.setdefault((s.i, s.j, pairs[0][0]), []).append(",
           (T_REL_PASS, T_XSIDE, T_XSIDE6)),
    Mutant("x-side: the left side compared with itself", OPERATORS,
           "yield nu, j, (Poly(n, {}) if lhs.terms == rhs",
           "yield nu, j, (Poly(n, {}) if lhs.terms == lhs.terms",
           (T_REL_FAULT, T_XSIDE)),
    Mutant("commutators: [y_i, y_j]'s first order compared with itself",
           OPERATORS,
           "                if a != b:\n"
           "                    return {\"commutator\": \"[y_i,y_j]\"",
           "                if a != a:\n"
           "                    return {\"commutator\": \"[y_i,y_j]\"",
           (T_COMM_ORACLE,)),
    Mutant("commutators: [z_i, z_j]'s first order compared with itself",
           OPERATORS,
           "                if a != b:\n"
           "                    return {\"commutator\": \"[z_i,z_j]\"",
           "                if a != a:\n"
           "                    return {\"commutator\": \"[z_i,z_j]\"",
           (T_COMM_FAULT, T_COMM_ORACLE)),
    # the relation records and the rolling tables (operators.check_relations)
    Mutant("relations: the y_i x_j record names i by j", OPERATORS,
           '"i": nu.index(1), "j": j,',
           '"i": j, "j": j,',
           (T_YX_SLOT,)),
    Mutant("relations: no |nu| = 1 record", OPERATORS,
           "if defect and sum(nu) == 1:",
           "if defect and sum(nu) == 0:",
           (T_REL_FAULT, T_FIRST_ORDER, T_GOLDEN)),
    Mutant("relations: every table kept", OPERATORS,
           "ym, tm = tables.pop(mu, None) or table(mu)",
           "ym, tm = tables.get(mu) or table(mu)",
           (T_TABLES_LIVE,)),
    Mutant("relations: a table built per lookup", OPERATORS,
           "yxm = [tables.get(e) or tables.setdefault(e, table(e))",
           "yxm = [tables.setdefault(e, table(e))",
           (T_TABLES_ONCE,)),
    Mutant("relations: w x_1 for every j", OPERATORS,
           "if yxm[j][1][a] != wx[j] * tm[a]:",
           "if yxm[j][1][a] != wx[0] * tm[a]:",
           (T_REL_PASS, T_REL_ORACLE)),
    Mutant("gordon point: no h = 0 check", REPTHEORY,
           "    if h == 0:\n        raise ValueError(",
           "    if False:\n        raise ValueError(",
           (T_TRIVIAL, T_TRIVIAL_CLI)),
    # memos of polynomial RatFunc values (scalars.ParamRing.memo_miss)
    Mutant("memo: a binary op keyed by its first operand alone", SCALARS,
           "key, args = (id(a), id(b)), (a.num, b.num)",
           "key, args = id(a), (a.num, b.num)",
           (T_MEMO_FREE, T_ONE_OBJECT)),
    Mutant("memo: operands keyed before they are interned", SCALARS,
           "        a = self.intern(a.num)\n        if b is None:",
           "        if b is None:",
           (T_DROPPED_ID,)),
    Mutant("memo: * reads the sums", SCALARS,
           "got = ring.products.get((id(self), id(other)))",
           "got = ring.sums.get((id(self), id(other)))",
           (T_MEMO_OPS, T_ONE_OBJECT)),
    # the exchange memo (intertwiners.apply_sigma) and the unit-monomial
    # shortcut (operators.PolyRep._apply_by_monomials)
    Mutant("sigma memo: keyed without the fault flag", INTERTWINERS,
           "key = (i, jv.mu, fault_pi_sign)",
           "key = (i, jv.mu)",
           (T_SIGMA_FAULT,)),
    Mutant("sigma memo: a hit without the input-equality guard",
           INTERTWINERS,
           "if got is not None and (got[0] is jv or got[0] == jv):",
           "if got is not None:",
           (T_SIGMA_OTHER,)),
    Mutant("monomials: the image served for any single term", OPERATORS,
           "if c is self.params.one:",
           "if c:",
           (T_UNIT_MONO,)),
    # Cyc kernels: the general order and the shared roots
    Mutant("cyc: general equal-denominator add without its gcd", CYCLOTOMIC,
           "        if da == db:\n"
           "            return _cyc(self.r, tuple(map(add, self.num, o.num)), "
           "da)",
           "        if da == db:\n"
           "            v = _new(Cyc); v.r, v.num, v.den = self.r, "
           "tuple(map(add, self.num, o.num)), da; return v",
           (T_CYC, T_CYC_AXIOMS)),
    Mutant("cyc: a fresh Cyc per Cyc.root call", CYCLOTOMIC,
           "return _roots(r)[k % r]",
           "v = _roots(r)[k % r]; return _cyc(r, v.num, v.den)",
           (T_ROOTS, T_ROOTS_KEPT)),
    Mutant("cyc: no order check in the * fast path", CYCLOTOMIC,
           "        o = (other if other.__class__ is Cyc and other.r == "
           "self.r\n             else self._coerce(other))\n"
           "        if o is None:\n            return NotImplemented\n"
           "        a, b = self.num, o.num",
           "        o = (other if other.__class__ is Cyc\n"
           "             else self._coerce(other))\n"
           "        if o is None:\n            return NotImplemented\n"
           "        a, b = self.num, o.num",
           (T_MIXED_ORDERS,)),
    Mutant("cyc: phi = 2 mul folding with -f1", CYCLOTOMIC,
           "a0 * b1 + a1 * b0 + top * f1",
           "a0 * b1 + a1 * b0 - top * f1",
           (T_CYC, T_PHI2)),
    # jack's budgets
    Mutant("jack budget: the work estimate at specialized points too", JACK,
           "if generic and work > JACK_WORK_BUDGET:",
           "if work > JACK_WORK_BUDGET:",
           (T_WORK_GENERIC,)),
    Mutant("jack budget: E and D without // r", JACK,
           "e, d = (deg - n * low) // r, (max(mu) - low) // r",
           "e, d = deg - n * low, max(mu) - low",
           (T_WORK_FAST,)),
    # the triangular solve's bookkeeping (jack_by_solve, _candidates_desc,
    # v_permutation)
    Mutant("solve: candidates without the lattice offset mu mod r", JACK,
           "nu = tuple(a + r * b for a, b in zip(rho, lam))",
           "nu = tuple(r * b for b in lam)",
           (T_CANDIDATES, T_SCAN_GENERIC)),
    Mutant("solve: the inverse table keyed by (i, nu_i) alone", JACK,
           "key = (i, nu[i], v_nu[i])",
           "key = (i, nu[i])",
           (T_SCAN_GENERIC, T_SCAN_POINTS)),
    Mutant("v: equal entries sorted left to right", JACK,
           "key=lambda j: (mu[j], -j)",
           "key=lambda j: (mu[j], j)",
           (T_VPERM,)),
    # params.dot over one common denominator (scalars._dot)
    Mutant("dot: no final strip", SCALARS,
           "num, off = _strip(MPoly(ring, acc), lcm, {})",
           "num, off = MPoly(ring, acc), {}",
           (T_DOT, T_DOT_CANCEL)),
    Mutant("dot: the lcm keeps the last multiplicity", SCALARS,
           "            if m > lcm.get(f, 0):\n                lcm[f] = m",
           "            if True:\n                lcm[f] = m",
           (T_DOT, T_DOT_CANCEL)),
    Mutant("sigma: a vanishing square where 1 - q^2 = 0 is a fail", INTERTWINERS,
           "if res2.vector is None and not predicted:",
           "if False:",
           (T_SQUARE,)),
    # y_i x^mu with the colors summed out (operators.PolyRep._dunkl_mono)
    Mutant("dunkl: no [i = b] residue shift", OPERATORS,
           "m = int(i == b) + (0 if down else mu[a] - mu[b])",
           "m = 0 if down else mu[a] - mu[b]",
           (T_DUNKL_ORACLE,)),
    Mutant("dunkl: c0 for r c0 on the pair terms", OPERATORS,
           "else (-c0r, c0r)",
           "else (-self.params.c0, self.params.c0)",
           (T_DUNKL_ORACLE,)),
    Mutant("dunkl: d_0 - d_{-mu_i} for d_{-mu_i} - d_0", OPERATORS,
           "self.params.z_eigenvalue(mu[i] - 1, 0))])",
           "self.params.kappa * mu[i] + self.params.d(0) "
           "- self.params.d(-mu[i]))])",
           (T_DUNKL_ORACLE,)),
    # the parser (parsing._evaluate)
    Mutant("parse: `**` accepted", PARSING,
           'if "**" in text or not _ALPHABET.fullmatch(text):',
           'if not _ALPHABET.fullmatch(text):',
           (T_GRAMMAR, T_DOCTESTS)),
    Mutant("parse: no alphabet check", PARSING,
           'if "**" in text or not _ALPHABET.fullmatch(text):',
           'if "**" in text:',
           (T_GRAMMAR,)),
    Mutant("parse: the literal need not end the power", PARSING,
           "            if not (is_literal(exp)\n"
           "                    and exp.end_col_offset == node.end_col_offset):",
           "            if not is_literal(exp):",
           (T_GRAMMAR, T_DOCTESTS)),
    Mutant("parse: integers need not be digit-only", PARSING,
           "                and src[node.col_offset:node.end_col_offset]"
           ".isdigit())",
           ")",
           (T_GRAMMAR,)),
    Mutant("parse: no whitespace products", PARSING,
           'src = re.sub(r"\\s+", " ", _IMPLICIT_PRODUCT.sub("*", text))'
           '.strip()',
           'src = re.sub(r"\\s+", " ", text).strip()',
           (T_GRAMMAR, T_IMPLICIT, T_DOCTESTS)),
    # the sparse-polynomial core (polynomials.SparseTerms) and sums of
    # values with rests (scalars._lcm_sum)
    Mutant("core: the shared - adds", POLYNOMIALS,
           "                s = s - c\n",
           "                s = s + c\n",
           (T_CORE_CYC, T_CORE_MPOLY)),
    Mutant("add: the lcm of the rests is the first rest", SCALARS,
           "if r is not None and r != rest:",
           "if r is not None and rest is None:",
           (T_UNSPLIT, T_UNSPLIT_SYMPY)),
    Mutant("core: Poly without its own __mul__ entry", POLYNOMIALS,
           "    __mul__ = SparseTerms.__mul__\n",
           "",
           (T_TRACER, T_CORE_SIBLINGS)),
    # the one text renderer (polynomials.render_terms)
    Mutant("render: a compound coefficient without its parentheses",
           POLYNOMIALS,
           'cs = f"({cs})"',
           "cs = cs",
           (T_RENDER_MPOLY, T_RENDER_RAT, T_RENDER_COMPOUND, T_GOLDEN)),
    Mutant("render: Poly's / or space rule dropped", POLYNOMIALS,
           '"*" in cs \\\n                    or spaced and ("/" in cs or " " in cs):',
           '"*" in cs:',
           (T_RENDER_POLY, T_RENDER_COMPOUND)),
    Mutant("render: ' + -' for ' - '", POLYNOMIALS,
           'chunks.append(" - " + body[1:])',
           'chunks.append(" + " + body)',
           (T_RENDER_CYC, T_RENDER_MPOLY, T_RENDER_POLY, T_GOLDEN)),
]


def failed_ids(copy: pathlib.Path, tests) -> tuple[int, set[str]]:
    """Run the tests in the copy: pytest's exit code and the failed ids."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider",
         "-W", "ignore", *sorted(set(tests))],
        cwd=copy, capture_output=True, text=True, timeout=1800)
    failed = {line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")}
    return proc.returncode, failed


def caught(test: str, failed: set[str]) -> bool:
    return any(f == test or f.startswith(test + "[") for f in failed)


def curated(names) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        code, failed = failed_ids(copy, [t for m in chosen for t in m.tests])
        if code != 0:
            print(f"unmutated run: exit {code}, failed {sorted(failed)}")
            return 2
        survived = 0
        for m in chosen:
            target = copy / m.path
            source = target.read_text()
            if source.count(m.old) != 1:
                print(f"ERROR     {m.name}: the edit does not match once")
                survived += 1
                continue
            target.write_text(source.replace(m.old, m.new))
            try:
                code, failed = failed_ids(copy, m.tests)
            finally:
                target.write_text(source)
            missed = [t for t in m.tests if not caught(t, failed)]
            if code == 1 and not missed:
                print(f"caught    {m.name} ({len(m.tests)} of {len(m.tests)}"
                      " tests fail)")
            else:
                survived += 1
                print(f"SURVIVED  {m.name} (pytest exit {code}; passing: "
                      f"{', '.join(t.split('::')[1] for t in missed)})")
    print(f"{len(chosen) - survived} of {len(chosen)} mutants caught")
    return 0 if survived == 0 else 1


# -- the sampled sweep -------------------------------------------------------

SWAPS = {ast.Add: ("+", "-"), ast.Sub: ("-", "+"), ast.Mult: ("*", "+")}
NEGATIONS = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=",
             "!=": "=="}
SUITE_MEMORY = 2 << 30  # bytes of address space for one suite run


@dataclass(frozen=True)
class Edit:
    path: str  # relative to the repository root
    line: int
    start: int  # character columns of the token replaced
    end: int
    old: str
    new: str

    def apply(self, text: str) -> str:
        lines = text.splitlines(keepends=True)
        row = lines[self.line - 1]
        assert row[self.start:self.end] == self.old, self
        lines[self.line - 1] = row[:self.start] + self.new + row[self.end:]
        return "".join(lines)


def edit_sites(root: pathlib.Path) -> list[Edit]:
    """Every one-token edit of the package, in file and position order.  An
    AST node names the edit; the token it changes is found by tokenize, so
    a node whose token is not where the AST puts it (inside an f-string) is
    skipped."""
    sites = []
    for path in sorted((root / "src" / "cherednik").glob("*.py")):
        text = path.read_text()
        rows = text.splitlines()
        toks = [t for t in tokenize.generate_tokens(io.StringIO(text).readline)
                if t.type in (tokenize.OP, tokenize.NUMBER)]
        starts = [t.start for t in toks]

        def pos(line, byte_col):  # ast columns count UTF-8 bytes
            return line, len(rows[line - 1].encode()[:byte_col].decode())

        def between(a, b):
            lo = bisect.bisect_left(starts, pos(a.end_lineno, a.end_col_offset))
            hi = bisect.bisect_left(starts, pos(b.lineno, b.col_offset))
            return toks[lo:hi]

        def add(tok, new):
            sites.append(Edit(str(path.relative_to(root)), tok.start[0],
                              tok.start[1], tok.end[1], tok.string, new))

        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                old, new = SWAPS[type(node.op)]
                ops = [t for t in between(node.left, node.right)
                       if t.string == old]
                if len(ops) == 1:
                    add(ops[0], new)
            elif isinstance(node, ast.Compare):
                sides = [node.left, *node.comparators]
                for a, b in zip(sides, sides[1:]):
                    ops = [t for t in between(a, b) if t.string in NEGATIONS]
                    if len(ops) == 1:
                        add(ops[0], NEGATIONS[ops[0].string])
            elif isinstance(node, ast.Constant) \
                    and type(node.value) is int:
                at = pos(node.lineno, node.col_offset)
                k = bisect.bisect_left(starts, at)
                if k < len(toks) and toks[k].start == at \
                        and toks[k].type == tokenize.NUMBER \
                        and ast.literal_eval(toks[k].string) == node.value:
                    add(toks[k], str(node.value + 1))
    return sorted(sites, key=lambda e: (e.path, e.line, e.start))


def _cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (SUITE_MEMORY, SUITE_MEMORY))


def run_suite(copy: pathlib.Path, timeout: float) -> str:
    """The whole suite with -x in the copy: its pytest exit code, or
    'timeout'."""
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", "-W", "ignore"],
            cwd=copy, capture_output=True, timeout=timeout,
            preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return "timeout"
    return str(proc.returncode)


def sampled(count: int, seed: int) -> int:
    sites = edit_sites(ROOT)
    chosen = random.Random(seed).sample(sites, min(count, len(sites)))
    print(f"{len(chosen)} of {len(sites)} edit sites, seed {seed}")
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        began = time.perf_counter()
        code = run_suite(copy, timeout=3600)
        if code != "0":
            print(f"unmutated run: {code}")
            return 2
        # a mutant may loop: allow it twice the unmutated run
        timeout = max(120.0, 2 * (time.perf_counter() - began))
        survivors = []
        for e in chosen:
            target = copy / e.path
            source = target.read_text()
            target.write_text(e.apply(source))
            try:
                code = run_suite(copy, timeout)
            finally:
                target.write_text(source)
            where = f"{e.path}:{e.line}:{e.start + 1} {e.old} -> {e.new}"
            if code == "0":
                survivors.append(where)
                print(f"SURVIVED  {where}")
            else:
                print(f"caught    {where} (pytest exit {code})")
    print(f"{len(chosen) - len(survivors)} of {len(chosen)} sampled edits "
          "caught")
    for where in survivors:
        print(f"  for review: {where}")
    return 0 if not survivors else 1


def main(argv) -> int:
    parser = argparse.ArgumentParser(prog="python tests/mutants.py")
    parser.add_argument("names", nargs="*",
                        help="curated mutants to run (default: all)")
    parser.add_argument("--sample", type=int, metavar="N",
                        help="run N sampled AST edits instead")
    parser.add_argument("--seed", type=int, default=0, metavar="S")
    args = parser.parse_args(argv)
    if args.sample is None:
        return curated(args.names)
    if args.names or args.sample < 1:
        parser.error("--sample takes a positive N and no mutant names")
    return sampled(args.sample, args.seed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
