"""The acceptance gate: each test enforces one criterion at its stated
tolerance and prints one pass/fail line.  Run with  pytest -s  to see the
lines as they appear."""

import random
import time

import pytest

from conftest import (
    brute_force_quasitaut_unsat,
    mutate_script,
    random_ground_problem,
    random_qf_formula,
    truth_table_consequence,
)
from proofkit import extend, hilbertack as ha, machines as rm
from proofkit import normform as nf
from proofkit import propcalc as pc
from proofkit import stringarith as sa
from proofkit import syntax as sx
from proofkit.kernel import Theory, check_proof, core, scripts as ks
from proofkit.meta.extensions import bounded_translation_check, eliminate_defaults
from proofkit.meta.proofs import (
    ProofBuilder,
    deduction_transform,
    prenex_equivalence_proof,
    prenex_prefix,
    purge_extraneous,
    special_axiom,
)
from proofkit.syntax import App, Atom, FnSym, Not, PredSym, Var, EPS


def _report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


# 1 ---------------------------------------------------------------------------


def test_criterion_1_corpus_completeness(corpus_report):
    entries = corpus_report.entries
    labels = {e.label for e in entries}
    want = (
        {f"t{i}" for i in range(22, 59) if i not in (25, 27)}
        | {f"ta{i}" for i in range(3, 24) if i not in (8, 15)}
        | {"t60", "t62", "t63", "t64", "t65", "t66", "t67", "t68"}
        | {"tb2", "tb3", "tb4", "tb5"}
        | {"tc2", "tc3", "tc4", "tc5"}
        | {"td2", "td3", "td4", "td5"}
        | {"te2", "te3"}
    )
    ok = (
        labels == want
        and len(entries) == 76
        and all(e.ok for e in entries)
        and corpus_report.elapsed < 60.0
    )
    _report(
        "corpus completeness: 76 scripts, zero failures, under 60s",
        ok,
        f"{sum(e.ok for e in entries)}/76 in {corpus_report.elapsed:.1f}s",
    )


# 2 ---------------------------------------------------------------------------


def test_criterion_2_mutation_soundness(bundle, corpus_report, corpus_scripts):
    rng = random.Random(20260811)
    tried = 0
    false_goals = 0
    while tried < 20:
        script = rng.choice(corpus_scripts)
        mut = mutate_script(rng, script, bundle.symbols)
        if mut is None:
            continue
        tried += 1
        mut.label = f"mutant{tried}"
        stmt = sx.parse(mut.statement_text, "formula", bundle.symbols)
        goal_false = False
        if sa.evaluable(stmt, bundle):
            for _ in range(150):
                env = {x: sa.random_string(rng, 6) for x in sx.free_vars(stmt)}
                if not sa.eval_formula(stmt, env, bundle):
                    goal_false = True
                    break
        verdict = ks.check_script(bundle.registry, mut)
        if goal_false:
            false_goals += 1
            if verdict.ok:
                _report(
                    "mutation soundness",
                    False,
                    f"accepted a semantically false goal: {mut.mutated}",
                )
    _report(
        "mutation soundness: every oracle-false mutant rejected",
        True,
        f"20 mutants, {false_goals} with false goals, all rejected",
    )


# 3 ---------------------------------------------------------------------------


def test_criterion_3_oracle_agreement(bundle):
    t0 = time.perf_counter()
    exhaustive = sa.fuzz_axioms(bundle, samples=0, maxlen=0, exhaustive_len=4)
    random_rep = sa.fuzz_axioms(bundle, samples=500, maxlen=64, seed=11)
    ok = exhaustive.ok and random_rep.ok and random_rep.checked >= 10_000
    _report(
        "oracle agreement: axioms exhaustively (len<=4) and on 10^4 samples (len<=64)",
        ok,
        f"{exhaustive.checked} exhaustive + {random_rep.checked} random instances "
        f"in {time.perf_counter() - t0:.1f}s",
    )


# 4 ---------------------------------------------------------------------------


def test_criterion_4_quasitautology_layer():
    e1, e2, e3 = (App(FnSym(n, 0)) for n in ("e1", "e2", "e3"))
    symmetry = [sx.eq(e1, e2), Not(sx.eq(e2, e1))]
    transitivity = [sx.eq(e1, e2), sx.eq(e2, e3), Not(sx.eq(e1, e3))]
    ok = True
    for inputs in (symmetry, transitivity):
        res = pc.ground_refute(inputs)
        ok = ok and isinstance(res, pc.Refutation) and pc.replay(res, inputs)
    rng = random.Random(4242)
    agree = 0
    for _ in range(500):
        problem = random_ground_problem(rng)
        mine = isinstance(pc.ground_refute(problem, want_cert=False), pc.Refutation)
        if mine == brute_force_quasitaut_unsat(problem):
            agree += 1
    ok = ok and agree == 500
    _report(
        "quasitautology layer: both equality theorems certified; oracle agreement",
        ok,
        f"{agree}/500 random ground problems agree",
    )


# 5 ---------------------------------------------------------------------------

PRENEX_TEMPLATES = [
    "(or p0a (exists x (q x)))",
    "(or (exists x (q x)) p0a)",
    "(and p0a (exists x (q x)))",
    "(and (exists x (q x)) p0a)",
    "(or p0a (forall x (q x)))",
    "(or (forall x (q x)) p0a)",
    "(and p0a (forall x (q x)))",
    "(and (forall x (q x)) p0a)",
    "(or (exists x (q x)) (exists y (q y)))",
    "(or (exists x (q x)) (not (exists y (q y))))",
    "(and (forall x (q x)) (exists y (q y)))",
    "(imp (exists x (q x)) (exists y (q y)))",
    "(imp (forall x (q x)) (exists y (q y)))",
    "(or (forall x (q x)) (forall y (q y)))",
    "(not (exists x (or (q x) (exists y (p x y)))))",
    "(exists x (or (q x) (exists y (p x y))))",
]


def test_criterion_5_normal_form_pipeline():
    rng = random.Random(55)
    toy = Theory("toy", (), EPS)
    for _ in range(1000):
        f = random_qf_formula(rng, max_atoms=10, depth=4)
        g = nf.to_negation_form(f)
        assert truth_table_consequence(sx.fiff(f, g))
        try:
            c = nf.to_conjunctive(f)
        except Exception:
            continue
        assert truth_table_consequence(sx.fiff(f, c))
    quantified = sx.SymbolTable(
        sx.Language((EPS,), (PredSym("q", 1), PredSym("p", 2)), EPS),
        auto_predicates=True,
    )
    rng2 = random.Random(56)
    for text in PRENEX_TEMPLATES:
        f = sx.parse(text, "formula", quantified)
        p = nf.to_prenex(f)
        _, matrix = prenex_prefix(p)
        assert sx.is_open(matrix)
        proof, idx = prenex_equivalence_proof(f)
        v = check_proof(toy, proof)
        assert v.ok, (text, v.message)
        assert proof.lines[idx].formula == sx.fiff(f, p)
    _report(
        "normal-form pipeline: 1000 random equivalences; prenex proofs for all templates",
        True,
        f"{len(PRENEX_TEMPLATES)} kernel-proved prenex equivalences",
    )


# 6 ---------------------------------------------------------------------------


def test_criterion_6_hilbert_ackermann():
    theory, seq = ha.demo_rank1()
    out, trace = ha.ha_step(theory, seq)
    toy_ok = (
        trace.size_out_multiset <= 16
        and core.sequence_valid(out)
        and ha._owned_rank(ha.profile(out).owners) == 0
    )
    rng = random.Random(66)
    run_ok = True
    for i in range(50):
        th, sq = ha.generate_inconsistent_case(rng, 1 + (i % 2))
        res = ha.ha_run(th, sq)
        final_refutable = isinstance(
            pc.ground_refute(list(res.final.formulas), want_cert=False), pc.Refutation
        )
        run_ok = run_ok and final_refutable and ha._owned_rank(ha.profile(res.final).owners) == 0
        run_ok = run_ok and all(t.size_out_multiset <= t.size_in ** 2 for t in res.trace)
        run_ok = run_ok and all(
            t.profile_out.lam <= 2 * max(t.profile_in.lam, 1) for t in res.trace
        )
    bound = ha.bound_eval(2, 1, 1, 0).eval()
    ok = toy_ok and run_ok and bound == 4294967296
    _report(
        "hilbert-ackermann: toy step within nu^2; 50 runs to rank 0; bound value",
        ok,
        f"bound_eval(2,1,1,0) = {bound}",
    )


# 7 ---------------------------------------------------------------------------


def test_criterion_7_extensions(bundle, corpus_report):
    rng = random.Random(77)
    reg = bundle.definitions
    identity_ok = True
    base_f = sx.parse("(imp (= x eps) (= eps x))", "formula", bundle.symbols)
    identity_ok = extend.translate_out(reg, base_f).formula == base_f
    total = agreeing = skipped = 0
    for entry in corpus_report.entries:
        stmt = bundle.registry.entries[entry.label].statement
        chain = bundle.schema if bundle.registry.entries[entry.label].section == "schema" else reg
        out = extend.translate_out(chain, stmt)
        assert not extend.contains_defined_symbols(chain, out.formula), entry.label
        total += 1
        if not sa.evaluable(stmt, bundle) or not sa.evaluable(out.formula, bundle, strict=False):
            skipped += 1
            continue
        for _ in range(200):
            env = {x: sa.random_string(rng, 4) for x in sx.free_vars(stmt)}
            lhs = sa.eval_formula(stmt, env, bundle)
            rhs = sa.eval_formula(out.formula, env, bundle, strict=False)
            assert lhs == rhs, (entry.label, env)
        agreeing += 1
    leq = bundle.symbols.order
    bounded_probe = sx.parse(
        "(exists<= z y (= z eps))", "formula", bundle.symbols
    )
    bounded_ok = bounded_translation_check(reg, bounded_probe, leq).bounded
    ok = identity_ok and bounded_ok and total == 76 and agreeing >= 40
    _report(
        "extensions: all 76 statements translate symbol-free; interpreter agreement",
        ok,
        f"{agreeing} statements x 200 assignments agree, {skipped} not interpretable",
    )


# 8 ---------------------------------------------------------------------------


def test_criterion_8_proof_transformations():
    rng = random.Random(88)
    q = PredSym("q", 1)
    t = Theory("t", (Atom(q, (Var("x"),)), sx.eq(App(sx.PD, (App(EPS),)), App(EPS))), EPS)
    c = sx.parse(
        "(exists x (q x))", "formula", sx.SymbolTable(sx.Language((EPS, sx.PD), (q,), EPS))
    )

    def random_proof(theory):
        pb = ProofBuilder()
        terms = [App(EPS), App(sx.PD, (App(EPS),))]
        idxs = []
        for ax in theory.axioms:
            inst = sx.subst(ax, {x: rng.choice(terms) for x in sx.free_vars(ax)})
            idxs.append(pb.delta(inst))
        e = sx.Exists("x", Atom(q, (Var("x"),)))
        idxs.append(pb.delta(sx.fimp(Atom(q, (rng.choice(terms),)), e)))
        fs = [pb.lines[i].formula for i in idxs]
        pb.taut(sx.disj(fs), tuple(idxs))
        return pb.build()

    for _ in range(20):
        p = random_proof(t.extend(c))
        out = deduction_transform(t, c, p)
        v = check_proof(t, out)
        assert v.ok, v.message
    scratch = PredSym("scratch", 1)
    for _ in range(20):
        p = random_proof(t)
        pb = ProofBuilder()
        pb.extend(p)
        pb.delta(
            sx.fimp(
                sx.conj([sx.eq(App(EPS), App(EPS)), Atom(scratch, (App(EPS),))]),
                Atom(scratch, (App(EPS),)),
            )
        )
        out = purge_extraneous(t, Atom(q, (App(EPS),)), pb.build())
        v = check_proof(t, out)
        assert v.ok, v.message
        assert all(
            scratch not in sx.appearing_symbols(l.formula) for l in out.lines
        )
    # default elimination re-checks without default steps
    e = sx.Exists("x", Atom(q, (Var("x"),)))
    r = sx.special_constant(e)
    pb = ProofBuilder()
    d = pb.default(sx.fimp(Not(e), sx.eq(r, App(EPS))))
    spa = pb.delta(special_axiom(r))
    pb.taut(sx.Or(Atom(q, (r,)), sx.eq(r, App(EPS))), (d, spa))
    out = eliminate_defaults(Theory("toy", (), EPS), pb.build())
    v = check_proof(Theory("toy", (), EPS), out)
    ok = v.ok and all(l.just[0] != "default" for l in out.lines)
    _report(
        "proof transformations: 20 deductions + 20 purges re-check; defaults eliminated",
        ok,
    )


# 9 ---------------------------------------------------------------------------


def test_criterion_9_machines():
    case_machine = rm.Machine(
        1,
        2,
        4,
        (
            rm.Command("case", 1, branches=(4, 2, 3)),
            rm.Command("prepend0", 2, 2, 4),
            rm.Command("prepend1", 2, 2, 4),
        ),
    )
    pred_machine = rm.Machine(
        0, 2, 3, (rm.Command("prepend1", 1, 2, 3), rm.Command("pred", 2, 1, 1))
    )
    agree = True
    for m in (rm.const0_machine(), case_machine, pred_machine):
        compiled = rm.compile_g(m)
        for c in rm.all_configurations(m, 2):
            if rm.step(m, c) != rm.compiled_step(m, c, compiled):
                agree = False
    kb = rm.k_upper_bound("", len_cap=6, budget=20)
    trivial_len = len(rm.encode_machine(rm.Machine(0, 1, 1, ())))
    kb_small = rm.k_upper_bound("0", len_cap=8, budget=30)
    kb_more_budget = rm.k_upper_bound("0", len_cap=8, budget=300)
    kb_more_cap = rm.k_upper_bound("0", len_cap=12, budget=30)
    monotone = (
        kb_small is not None
        and kb_more_budget.length <= kb_small.length
        and kb_more_cap.length <= kb_small.length
    )
    ok = agree and kb is not None and kb.length == trivial_len and monotone
    _report(
        "machines: direct/compiled agree exhaustively; complexity bound found and monotone",
        ok,
        f"K('') <= {kb.length} bits",
    )
