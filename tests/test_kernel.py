import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import numeral, truth_table_consequence
from proofkit import normform as nf
from proofkit import propcalc as pc
from proofkit import stringarith
from proofkit import syntax as sx
from proofkit.errors import BudgetExhausted, CheckError, ParseError, SizeGuardExceeded
from proofkit.kernel import (
    ProofLine,
    ProofObject,
    Registry,
    Theory,
    bsi_template,
    check_proof,
    check_script,
    classify_delta,
    parse_script_file,
    proves,
)
from proofkit.meta.proofs import (
    ProofBuilder,
    deduction_transform,
    equality_substitution,
    extract_special_sequence,
    freeze_proof,
    negation_form_proof,
    prenex_equivalence_proof,
    purge_extraneous,
    special_axiom,
    special_case_proof,
    variant_iff_proof,
)
from proofkit.kernel import core, scripts as ks
from proofkit.syntax import (
    App,
    Atom,
    Exists,
    FnSym,
    Language,
    Not,
    Or,
    PredSym,
    SymbolTable,
    Var,
    EPS,
    S0,
    S1,
    PD,
    CAT,
    ZPROD,
)

Q = PredSym("q", 1)
P2 = PredSym("p", 2)
LANG = Language((EPS, S0, S1, PD, CAT, ZPROD), (Q, P2), EPS)
ST = SymbolTable(LANG)
TOY = Theory("toy", (), EPS)
E = App(EPS)


def parse(t, kind="formula"):
    return sx.parse(t, kind, ST)


# --- delta classification ----------------------------------------------------


def test_classify_special_axiom():
    e = parse("(exists x (q x))")
    r = sx.special_constant(e)
    cls = classify_delta(TOY, sx.fimp(e, Atom(Q, (r,))))
    assert cls.kind == "special-axiom" and cls.owner == r


def test_classify_substitution_formula():
    e = parse("(exists x (q x))")
    cls = classify_delta(TOY, sx.fimp(Atom(Q, (E,)), e))
    assert cls.kind == "substitution"
    assert cls.detail[1] == E


def test_classify_identity_and_equality():
    assert classify_delta(TOY, parse("(= eps eps)")).kind == "identity"
    f = sx.fimp(
        sx.conj([sx.eq(E, App(PD, (E,)))]),
        sx.eq(App(S0, (E,)), App(S0, (App(PD, (E,)),))),
    )
    assert classify_delta(TOY, f).kind == "equality"


def test_classify_axiom_instance_and_rejection():
    t = Theory("t", (Atom(Q, (Var("x"),)),), EPS)
    cls = classify_delta(t, Atom(Q, (App(S0, (E,)),)))
    assert cls.kind == "axiom-instance" and cls.detail[0] == 0
    with pytest.raises(CheckError) as err:
        classify_delta(t, Not(Atom(Q, (E,))))
    assert "not a" in str(err.value)
    with pytest.raises(CheckError):
        classify_delta(t, Atom(Q, (Var("x"),)))  # not closed


def test_rho_cap_excludes_high_rank_owners():
    e2 = parse("(exists x (exists y (p x y)))")
    r2 = sx.special_constant(e2)
    spa = special_axiom(r2)
    assert classify_delta(TOY, spa, rho_cap=2).kind == "special-axiom"
    with pytest.raises(CheckError):
        classify_delta(TOY, spa, rho_cap=1)


# --- proof checking -----------------------------------------------------------


def test_check_proof_accepts_identity_line():
    proof = ProofObject((ProofLine(parse("(= eps eps)")),))
    assert check_proof(TOY, proof).ok
    assert proves(TOY, proof, parse("(= eps eps)"))


def test_check_proof_rejects_bare_consequent():
    e = parse("(exists x (q x))")
    r = sx.special_constant(e)
    proof = ProofObject((ProofLine(Atom(Q, (r,))),))
    v = check_proof(TOY, proof)
    assert not v.ok and v.failed_index == 0


def test_check_proof_rejects_open_formula():
    proof = ProofObject((ProofLine(parse("(q x)"), ("taut", ())),))
    v = check_proof(TOY, proof)
    assert not v.ok and "closed" in v.message


def test_theorem5_skeleton_accepted():
    # special axiom, substitution formula, biconditional as consequence
    e = parse("(exists x (not (q x)))")
    r = sx.special_constant(e)
    spa = special_axiom(r)
    inst = sx.subst(e.body, {"x": r})
    subf = sx.fimp(inst, e)
    bic = sx.fiff(sx.fall("x", Atom(Q, (Var("x"),))), Atom(Q, (r,)))
    pb = ProofBuilder()
    i1 = pb.delta(spa)
    i2 = pb.delta(subf)
    pb.taut(bic, (i1, i2))
    assert check_proof(TOY, pb.build()).ok


def test_a_taut_line_without_indices_cites_every_preceding_line():
    # q(eps) -> e and e -> q(r) give q(eps) -> q(r) only together
    e = parse("(exists x (q x))")
    r = sx.special_constant(e)
    lines = (
        ProofLine(sx.fimp(Atom(Q, (E,)), e)),
        ProofLine(special_axiom(r)),
        ProofLine(sx.fimp(Atom(Q, (E,)), Atom(Q, (r,))), ("taut", None)),
    )
    assert check_proof(TOY, ProofObject(lines)).ok
    one = lines[:2] + (lines[2]._replace(just=("taut", (1,))),)
    v = check_proof(TOY, ProofObject(one))
    assert (v.ok, v.failed_index, v.message) == (
        False, 2, "not a tautological consequence of cited lines"
    )
    v = check_proof(TOY, ProofObject(lines[1:]))
    assert (v.ok, v.failed_index) == (False, 1)


def test_check_proof_refuses_a_default_line_that_is_no_default_formula():
    proof = ProofObject((ProofLine(parse("(= eps eps)"), ("default",)),))
    v = check_proof(TOY, proof, allow_defaults=True)
    assert (v.ok, v.failed_index, v.message) == (False, 0, "not a default formula")


def test_check_proof_refuses_an_unknown_justification():
    proof = ProofObject((ProofLine(parse("(= eps eps)"), ("lemma", ())),))
    v = check_proof(TOY, proof)
    assert (v.ok, v.failed_index, v.message) == (False, 0, "unknown justification 'lemma'")


def test_taut_premises_must_strictly_precede():
    proof = ProofObject(
        (
            ProofLine(parse("(= eps eps)"), ("taut", (0,))),
        )
    )
    v = check_proof(TOY, proof)
    assert not v.ok


def test_level_cap():
    e = parse("(exists x (q x))")
    r = sx.special_constant(e)
    e2 = Exists("y", sx.eq(Var("y"), r))
    r2 = sx.special_constant(e2)
    proof = ProofObject((ProofLine(special_axiom(r2)),))
    assert check_proof(TOY, proof, level_cap=2).ok
    assert not check_proof(TOY, proof, level_cap=1).ok


# --- generated proofs ----------------------------------------------------------


def test_equality_substitution_instances():
    a, b = E, App(PD, (E,))
    f, proof = equality_substitution(a, b, parse("(= x x)"), "x")
    assert f == sx.fimp(
        sx.conj([sx.eq(a, b), sx.eq(a, a)]), sx.eq(b, b)
    )
    assert check_proof(TOY, proof).ok
    # atomic case is a single equality-formula step plus glue
    f2, proof2 = equality_substitution(a, b, Atom(Q, (Var("x"),)), "x")
    assert check_proof(TOY, proof2).ok
    # existential case per the induction
    f3, proof3 = equality_substitution(a, b, parse("(exists y (= y x))"), "x")
    assert check_proof(TOY, proof3).ok


def test_equality_substitution_rejects_open_terms():
    with pytest.raises(CheckError):
        equality_substitution(Var("v"), E, parse("(= x x)"), "x")
    with pytest.raises(CheckError):
        equality_substitution(E, App(PD, (Var("v"),)), parse("(= x x)"), "x")


def test_special_case_proofs_check():
    f = sx.fall("x", Exists("y", Atom(P2, (Var("x"), Var("y")))))
    d = nf.SpecialCaseDirective((("term", E), ("witness", "w")))
    out, proof, idx = special_case_proof(f, d)
    assert proof.lines[idx].formula == sx.fimp(f, out)
    assert check_proof(TOY, proof).ok


def test_freeze_proof_checks():
    f = parse("(imp (= (cat x y) eps) (= x eps))")
    res = nf.freeze(f)
    proof, idx = freeze_proof(f, res)
    assert check_proof(TOY, proof).ok
    assert proof.lines[idx].formula == sx.fiff(sx.closure(f), res.frozen)


def test_variant_iff_proof_checks():
    a = parse("(exists x (q x))")
    b = parse("(exists z (q z))")
    proof, idx = variant_iff_proof(a, b)
    assert check_proof(TOY, proof).ok


def test_negation_form_proof_checks():
    f = Not(parse("(exists x (or (q x) (not (q eps))))"))
    proof, idx = negation_form_proof(f)
    assert check_proof(TOY, proof).ok
    target = proof.lines[idx].formula
    assert target == sx.fiff(f, nf.to_negation_form(f))


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
    "(or (forall x (q x)) (forall y (q y)))",
    "(not (exists x (or (q x) (exists y (p x y)))))",
    "(exists x (or (q x) (exists y (p x y))))",
    "(imp (forall x (q x)) (exists y (q y)))",
]


@pytest.mark.parametrize("text", PRENEX_TEMPLATES)
def test_prenex_equivalence_proofs(text):
    st2 = SymbolTable(LANG, auto_predicates=True)
    f = sx.parse(text, "formula", st2)
    assert not sx.free_vars(f)
    proof, idx = prenex_equivalence_proof(f)
    v = check_proof(TOY, proof)
    assert v.ok, v.message
    assert proof.lines[idx].formula == sx.fiff(f, nf.to_prenex(f))


# --- deduction and purge -------------------------------------------------------


def _random_proof(rng, theory):
    """A small random but honest proof: axiom instances, substitution
    formulas, and tautological consequences."""
    pb = ProofBuilder()
    terms = [E, App(S0, (E,)), App(PD, (E,))]
    lines = []
    for ax in theory.axioms:
        fv = sx.free_vars(ax)
        inst = sx.subst(ax, {x: rng.choice(terms) for x in fv})
        lines.append(pb.delta(inst))
    e = Exists("x", Atom(Q, (Var("x"),)))
    a = rng.choice(terms)
    lines.append(pb.delta(sx.fimp(Atom(Q, (a,)), e)))
    if lines:
        fs = [pb.lines[i].formula for i in lines]
        pb.taut(sx.disj([fs[0]] + [Not(Not(f)) for f in fs[1:]]), tuple(lines))
    return pb.build()


def test_deduction_transform_examples_and_replay():
    c = parse("(exists x (q x))")  # closed hypothesis of rank 1
    pb = ProofBuilder()
    pb.delta(c)  # instance of the new axiom C in T[C]
    proof = pb.build()
    out = deduction_transform(TOY, c, proof)
    assert out.contains(sx.fimp(c, c))
    assert check_proof(TOY, out).ok

    rng = random.Random(3)
    t = Theory("t", (Atom(Q, (Var("x"),)), parse("(= (pd eps) eps)")), EPS)
    for _ in range(20):
        p = _random_proof(rng, t.extend(c))
        assert check_proof(t.extend(c), p).ok
        out = deduction_transform(t, c, p)
        v = check_proof(t, out)
        assert v.ok, v.message
        assert all(
            out.contains(sx.fimp(c, ln.formula)) for ln in p.lines
        )


def test_deduction_requires_closed_hypothesis():
    with pytest.raises(CheckError):
        deduction_transform(TOY, parse("(q x)"), ProofObject(()))


def test_purge_extraneous():
    scratch = PredSym("scratch", 1)
    t = Theory("t", (Atom(Q, (Var("x"),)),), EPS)
    pb = ProofBuilder()
    i1 = pb.delta(Atom(Q, (E,)))
    i2 = pb.delta(sx.fimp(sx.conj([sx.eq(E, E), Atom(scratch, (E,))]), Atom(scratch, (E,))))
    pb.taut(Or(Atom(Q, (E,)), Atom(scratch, (E,))), (i1, i2))
    proof = pb.build()
    goal = Atom(Q, (E,))
    out = purge_extraneous(t, goal, proof)
    v = check_proof(t, out)
    assert v.ok, v.message
    keep = t.language_symbols()
    for ln in out.lines:
        assert scratch not in sx.appearing_symbols(ln.formula)
    assert out.contains(sx.eq(E, E))

    rng = random.Random(4)
    for _ in range(20):
        p = _random_proof(rng, t)
        out = purge_extraneous(t, Atom(Q, (E,)), p)
        assert check_proof(t, out).ok


def test_purge_unchanged_when_already_inside():
    t = Theory("t", (Atom(Q, (Var("x"),)),), EPS)
    pb = ProofBuilder()
    pb.delta(Atom(Q, (E,)))
    proof = pb.build()
    out = purge_extraneous(t, Atom(Q, (E,)), proof)
    assert [l.formula for l in out.lines][1:] == [Atom(Q, (E,))]


def test_purge_rewrites_inside_subscripts():
    t = Theory("t", (Atom(Q, (Var("x"),)),), EPS)
    scratch = PredSym("pin_scratch", 1)
    w = Var("pin_w")
    c = sx.special_constant(Exists("pin_w", Or(Atom(Q, (w,)), Atom(scratch, (w,)))))
    plain = sx.special_constant(Exists("pin_z", Atom(Q, (Var("pin_z"),))))
    pb = ProofBuilder()
    pb.taut(Or(Atom(Q, (c,)), Atom(Q, (plain,))), ())
    out = purge_extraneous(t, Atom(Q, (E,)), pb.build())
    line = out.lines[-1].formula
    purged, kept = line.left.args[0], line.right.args[0]
    assert purged == sx.special_constant(Exists("pin_w", Or(Atom(Q, (w,)), sx.eq(E, E))))
    assert kept is plain


# --- special sequences ----------------------------------------------------------


def test_extract_special_sequence_toy():
    t = Theory("t", (Atom(Q, (Var("x"),)), Not(Atom(Q, (Var("y"),)))), EPS)
    pb = ProofBuilder()
    i1 = pb.delta(Atom(Q, (E,)))
    i2 = pb.delta(Not(Atom(Q, (E,))))
    pb.taut(t.zero_ne_zero(), (i1, i2))
    seq = extract_special_sequence(t, pb.build())
    assert seq.formulas == (Atom(Q, (E,)), Not(Atom(Q, (E,))))
    assert core.sequence_valid(seq)


def test_sequence_valid_on_25_atoms_and_an_exhausted_budget():
    atoms = [Atom(PredSym(f"a{i}", 0)) for i in range(25)]
    valid = core.SpecialSequence(tuple(atoms) + (Not(atoms[0]),))
    invalid = core.SpecialSequence(tuple(atoms))
    assert core.sequence_valid(valid)
    assert not core.sequence_valid(invalid)
    # an exhausted search is neither answer
    for seq in (valid, invalid):
        with pytest.raises(BudgetExhausted, match=r"^budget exhausted \(6 spent, budget 5\)$"):
            core.sequence_valid(seq, budget=5)


def test_a_special_sequence_hashes_as_its_field_tuple():
    # the field tuple's hash: the order of a set of sequences under a fixed
    # PYTHONHASHSEED rests on it
    fs = (Atom(Q, (E,)), Not(Atom(Q, (E,))))
    assert hash(core.SpecialSequence(fs)) == hash((fs,))


S0E = App(S0, (E,))
# equalities are opaque atoms to the propositional search, so the sequence
# e = s0(e), not s0(e) = e is not valid
EQUATIONS = [sx.eq(E, E), sx.eq(E, S0E), sx.eq(S0E, E)]


def _sequences():
    letters = [Atom(PredSym(f"a{i}", 0)) for i in range(5)]
    atoms = st.sampled_from(letters + EQUATIONS + [Exists("x", Atom(Q, (Var("x"),)))])
    formula = st.recursive(
        atoms,
        lambda c: st.one_of(c.map(Not), st.tuples(c, c).map(lambda p: Or(*p))),
        max_leaves=5,
    )
    return st.lists(formula, min_size=1, max_size=5).map(lambda fs: core.SpecialSequence(tuple(fs)))


@given(_sequences())
@example(core.SpecialSequence((EQUATIONS[1], Not(EQUATIONS[2]))))
@settings(max_examples=300, deadline=None)
def test_sequence_valid_is_the_negation_disjunctions_truth_table(seq):
    assert core.sequence_valid(seq) == truth_table_consequence(
        sx.disj([Not(f) for f in seq.formulas])
    )


def test_sequence_valid_refuses_a_clause_form_past_the_guard():
    # two atoms, but 2^14 clauses: refused as a taut line's premises are,
    # never answered
    p, q = Atom(PredSym("p", 0)), Atom(PredSym("q", 0))
    seq = core.SpecialSequence((sx.disj([sx.fand(p, q)] * 14), Not(p)))
    with pytest.raises(SizeGuardExceeded, match=r"^clausification blowup \(projected size: 16384\)$"):
        core.sequence_valid(seq)


def test_sequence_valid_bounds_a_small_sequence_by_its_budget():
    p, q = Atom(PredSym("p", 0)), Atom(PredSym("q", 0))
    seq = core.SpecialSequence((Or(p, q), Not(p), Not(q)))
    assert core.sequence_valid(seq)
    with pytest.raises(BudgetExhausted, match=r"^budget exhausted \(2 spent, budget 1\)$"):
        core.sequence_valid(seq, budget=1)


def test_extract_requires_inconsistency():
    pb = ProofBuilder()
    pb.delta(parse("(= eps eps)"))
    with pytest.raises(CheckError):
        extract_special_sequence(TOY, pb.build())


def test_extract_adds_zero_identity_when_needed():
    t = Theory("t", (Not(sx.eq(Var("x"), Var("x"))),), EPS)
    pb = ProofBuilder()
    i1 = pb.delta(Not(sx.eq(E, E)))
    pb.taut(t.zero_ne_zero(), (i1,))
    seq = extract_special_sequence(t, pb.build())
    assert t.zero_eq_zero() in seq.formulas


# --- scripts ---------------------------------------------------------------------


def _toy_registry():
    st2 = SymbolTable(LANG)
    reg = Registry(st2)
    reg.add_axiom("ax1", parse("(q x)"))
    reg.add_axiom("ax2", parse("(imp (q x) (p x x))"))
    reg.add_definition("dd", sx.fiff(Atom(P2, (Var("x"), Var("y"))), parse("(exists z (and (q z) (= z x)))")))
    return reg


def test_script_parse_format():
    scripts = parse_script_file(
        """
theorem demo : (p x x)
proof
  H : x
  use ax1 ; x
  use ax2 ; x
qed
"""
    )
    (s,) = scripts
    assert s.label == "demo" and s.h_names == ("x",)
    assert [u.label for u in s.lines] == ["ax1", "ax2"]


def test_check_script_accepts_and_rejects():
    reg = _toy_registry()
    (good,) = parse_script_file(
        "theorem demo : (p x x)\nproof\n  H : x\n  use ax1 ; x\n  use ax2 ; x\nqed\n"
    )
    v = check_script(reg, good)
    assert v.ok, v.message
    (bad,) = parse_script_file(
        "theorem demo2 : (p x x)\nproof\n  H : x\n  use ax1 ; x\nqed\n"
    )
    v2 = check_script(reg, bad)
    assert not v2.ok and "refutation failed" in v2.message


def test_script_unresolved_and_unchecked_citations():
    reg = _toy_registry()
    (s,) = parse_script_file(
        "theorem demo3 : (q eps)\nproof\n  H\n  use nosuch\nqed\n"
    )
    assert "unresolved" in check_script(reg, s).message
    reg.add_theorem("later", parse("(q (pd x))"))
    (s2,) = parse_script_file(
        "theorem demo4 : (q (pd eps))\nproof\n  H\n  use later ; eps\nqed\n"
    )
    assert "unchecked" in check_script(reg, s2).message


def test_script_direction_markers_and_witnesses():
    reg = _toy_registry()
    (s,) = parse_script_file(
        "theorem demo5 : (imp (p x y) (q x))\nproof\n  H : x : y\n  use dd.fw ; x ; y : w\nqed\n"
    )
    v = check_script(reg, s)
    assert v.ok, v.message
    # fresh witness-name collisions are rejected
    (s2,) = parse_script_file(
        "theorem demo6 : (imp (p x y) (q x))\nproof\n  H : x : y\n  use dd.fw ; x ; y : x\nqed\n"
    )
    assert "already bound" in check_script(reg, s2).message


def test_claim_blocks_and_inlining_equivalence():
    reg = _toy_registry()
    claimed = parse_script_file(
        """
theorem demo7 : (p eps eps)
proof
  H
  claim (q eps)
  use ax1 ; eps
  shown
  use ax2 ; eps
qed
"""
    )[0]
    flat = parse_script_file(
        "theorem demo8 : (p eps eps)\nproof\n  H\n  use ax1 ; eps\n  use ax2 ; eps\nqed\n"
    )[0]
    v1 = check_script(reg, claimed)
    v2 = check_script(reg, flat)
    assert v1.ok == v2.ok == True


def test_explicit_very_simple_proof():
    st2 = SymbolTable(LANG)
    reg = Registry(st2)
    reg.add_axiom("ax1", parse("(q x)"))
    reg.add_axiom("ax3", parse("(or (not (q x)) (p x x))"))
    script = parse_script_file(
        """
theorem vs1 : (p eps eps)
explicit
  special ax1 ; eps
  special ax3 ; eps
  resolve 2 3
qed
"""
    )[0]
    v = check_script(reg, script)
    assert v.ok, v.message
    bad = parse_script_file(
        "theorem vs2 : (p eps eps)\nexplicit\n  special ax1 ; eps\nqed\n"
    )[0]
    assert "no contradiction" in check_script(reg, bad).message


def test_explicit_proof_ending_in_self_inequality():
    st2 = SymbolTable(LANG)
    reg = Registry(st2)
    reg.add_axiom("ax4", parse("(not (= (pd x) (pd x)))"))
    script = parse_script_file(
        "theorem vs3 : (q eps)\nexplicit\n  special ax4 ; eps\nqed\n"
    )[0]
    v = check_script(reg, script)
    assert v.ok, v.message
    assert Not(sx.eq(App(PD, (E,)), App(PD, (E,)))) in v.instances


def _explicit_registry(**axioms):
    reg = Registry(SymbolTable(LANG))
    for label, text in axioms.items():
        reg.add_axiom(label, parse(text))
    return reg


def _check_explicit(reg, goal, *steps):
    lines = "".join(f"  {step}\n" for step in steps)
    (script,) = parse_script_file(f"theorem t : {goal}\nexplicit\n{lines}qed\n")
    return check_script(reg, script)


def test_an_existential_conjunct_takes_a_witness_not_a_term():
    # a true axiom whose first conjunct is an existential; read as a
    # universal, `use tex ; eps` gave the false -[eps = eps v eps != eps],
    # from which the false goal followed
    reg = _explicit_registry(tex="(and (exists y (not (= y eps))) (= eps eps))")
    (bogus,) = parse_script_file(
        "theorem bogus : (= (s0 eps) eps)\nproof\n  H\n  use tex ; eps\nqed\n"
    )
    v = check_script(reg, bogus)
    assert not v.ok and v.message == "term argument at existential position (step 1)"
    (script,) = parse_script_file("theorem t : (q eps)\nproof\n  H\n  use tex : w\nqed\n")
    env = {}
    instance = ks.elaborate_citation(reg, script.lines[0], env)
    names = {c: name for name, c in env.items()}
    assert sx.render(instance, "infix-pretty", names) == "w != eps & eps = eps"
    # the generated proof reads the conjunction the same way, and checks
    base = nf.to_negation_form(reg.lookup("tex").statement)
    directive = nf.SpecialCaseDirective((("witness", "w"),))
    out, proof, idx = special_case_proof(base, directive)
    assert out == instance == nf.special_case(base, directive)
    assert proof.lines[idx].formula == sx.fimp(base, out)
    assert check_proof(TOY, proof).ok


def test_citations_share_one_prepared_base_per_statement_and_direction():
    reg = _toy_registry()
    (s,) = parse_script_file(
        "theorem d : (p x x)\nproof\n  H : x\n"
        "  use ax1 ; x\n  use ax1 ; eps\n  use ax2 ; x\n  use dd.fw ; x ; x : w\n"
        "  use dd.bw ; x ; x\n  use dd.fw ; eps ; eps : v\n  use ax2 ; x\nqed\n"
    )
    assert check_script(reg, s).ok
    bases = [("ax1", None), ("ax2", None), ("dd", "fw"), ("dd", "bw")]
    assert list(reg.bases) == bases
    # an unchecked theorem and a direction on a non-biconditional are
    # refused at every citation, and nothing is stored for them
    reg.add_theorem("later", parse("(q (pd x))"))
    uses = {}
    for line, message in (("use later ; eps", "unchecked"), ("use ax1.fw ; eps", "direction marker")):
        (bad,) = parse_script_file(f"theorem b : (q eps)\nproof\n  H\n  {line}\nqed\n")
        uses[message] = bad.lines[0]
        for _ in range(2):
            with pytest.raises(CheckError, match=message):
                ks.elaborate_citation(reg, uses[message], {})
    assert list(reg.bases) == bases
    reg.lookup("later").checked = True
    assert ks.elaborate_citation(reg, uses["unchecked"], {}) == parse("(q (pd eps))")
    assert list(reg.bases) == bases + [("later", None)]


def test_explicit_mutations_fail_with_their_own_message():
    reg = _explicit_registry(ax1="(q x)", ax3="(or (not (q x)) (p x x))")
    good = ("special ax1 ; eps", "special ax3 ; eps", "resolve 2 3")
    assert _check_explicit(reg, "(p eps eps)", *good).ok
    for steps, message in (
        # a resolve that cites a step not yet derived
        (good[:2] + ("resolve 2 5",), "resolution premises must precede"),
        # an equality substitution over an open formula
        (good + ("eqsub ; eps ; (s0 eps) ; x ; (q y)",), "equality substitution is not closed"),
        # a special case at another term
        (("special ax1 ; (s0 eps)",) + good[1:], "opposite of the pivot is not in the clause"),
    ):
        v = _check_explicit(reg, "(p eps eps)", *steps)
        assert not v.ok and message in v.message, (steps, v.message)


def test_explicit_verdict_is_the_replayed_certificate(monkeypatch):
    reg = _explicit_registry(ax1="(q x)", ax3="(or (not (q x)) (p x x))")
    steps = ("special ax1 ; eps", "special ax3 ; eps", "resolve 2 3")
    replayed = []
    replay = pc.replay

    def spy(cert, inputs):
        replayed.append(cert.steps)
        return replay(cert, inputs)

    monkeypatch.setattr(pc, "replay", spy)
    assert _check_explicit(reg, "(p eps eps)", *steps).ok
    # the negated goal, two axiom instances, the cited resolution, and the
    # closing resolution of not p(eps, eps) against the derived p(eps, eps)
    (cert,) = replayed
    assert [step[0] for step in cert] == ["input"] * 3 + ["resolve"] * 2
    assert cert[3:] == [("resolve", 1, 2), ("resolve", 0, 3)]

    def refuse(cert, inputs):
        raise CheckError("replay refused")

    monkeypatch.setattr(pc, "replay", refuse)
    v = _check_explicit(reg, "(p eps eps)", *steps)
    assert not v.ok and v.message == "replay refused"


def test_explicit_special_step_names_its_conjunct():
    reg = _explicit_registry(ax5="(and (q x) (p x x))")
    v = _check_explicit(reg, "(p eps eps)", "special ax5 ; eps conjunct 2", "resolve 2 1")
    assert v.ok, v.message
    assert v.instances == (Not(Atom(P2, (E, E))), Atom(P2, (E, E)))
    for k, message in (
        ("1", "opposite of the pivot is not in the clause"),
        ("3", "no conjunct 3"),
        ("0", "no conjunct 0"),
    ):
        v = _check_explicit(reg, "(p eps eps)", f"special ax5 ; eps conjunct {k}", "resolve 2 1")
        assert (v.ok, v.message) == (False, message), k
    v = _check_explicit(reg, "(p eps eps)", "special ax5 ; eps", "resolve 2 1")
    assert (v.ok, v.message) == (False, "ambiguous conjunct; say `conjunct <k>`")


def test_explicit_unit_against_unit_ends_the_certificate():
    reg = _explicit_registry(ax1="(q x)")
    v = _check_explicit(reg, "(q eps)", "special ax1 ; eps", "resolve 2 1")
    assert v.ok, v.message
    assert v.instances == (Not(Atom(Q, (E,))), Atom(Q, (E,)))
    # steps after the empty clause are checked but not needed
    assert _check_explicit(reg, "(q eps)", "special ax1 ; eps", "resolve 2 1", "special ax1 ; (s0 eps)").ok
    assert not _check_explicit(reg, "(q eps)", "special ax1 ; eps", "resolve 2 1", "resolve 9 1").ok


def test_explicit_witness_is_cited_by_a_later_step():
    reg = _explicit_registry(ax1="(exists y (q y))", ax2="(not (q x))")
    v = _check_explicit(reg, "(q eps)", "special ax1 : w", "special ax2 ; w", "resolve 2 3")
    assert v.ok, v.message
    # a name names one witness
    v = _check_explicit(reg, "(q eps)", "special ax1 : w", "special ax1 : w")
    assert not v.ok and "witness name 'w' is already bound" in v.message


def test_explicit_step_names_the_goals_frozen_variable():
    # not (q y) freezes y; `special ax1 ; y` instantiates the axiom at the
    # frozen constant, which the negated goal's unit then refutes
    reg = _explicit_registry(ax1="(q x)")
    v = _check_explicit(reg, "(q y)", "special ax1 ; y", "resolve 2 1")
    assert v.ok, v.message
    # the name is bound once, so a witness cannot take it
    v = _check_explicit(reg, "(q y)", "special ax1 : y")
    assert not v.ok and "witness name 'y' is already bound" in v.message


def test_explicit_special_reads_its_items_as_a_citation_does():
    # an unbound name is a variable, so the instance is not closed: refused
    # with the citation's message, in both paths
    reg = _explicit_registry(ax1="(q x)")
    v = _check_explicit(reg, "(q eps)", "special ax1 ; x")
    assert not v.ok and v.message == "citation term 'x' is not variable free"
    reg.add_axiom("tx", parse("(imp (q x) (q x))"))
    (s,) = parse_script_file("theorem u : (q eps)\nproof\n  H\n  use tx ; x\nqed\n")
    assert check_script(reg, s).message == "citation term 'x' is not variable free"


def test_explicit_substitution_variable_shadows_a_goal_variable():
    # the goal binds x to its frozen constant, yet in the eqsub body x is the
    # variable substituted: the step is (eps != s0 eps) | -(q eps) | (q (s0 eps))
    reg = _explicit_registry(ax6="(= eps (s0 eps))", ax1="(q eps)", ax2="(not (q (s0 eps)))")
    v = _check_explicit(
        reg,
        "(p x x)",
        "special ax6",
        "special ax1",
        "special ax2",
        "eqsub ; eps ; (s0 eps) ; x ; (q x)",
        "resolve 2 5",
        "resolve 3 6",
        "resolve 4 7",
    )
    assert v.ok, v.message


def test_explicit_equality_substitution_takes_any_closed_formula():
    # a quantified A, with closed existentials as resolution pivots: the
    # axioms are inconsistent, for all y p(y, eps) and some y not p(y, s0 eps)
    reg = _explicit_registry(
        ax9="(not (exists y (not (p y eps))))",
        ax11="(exists y (not (p y (s0 eps))))",
        ax6="(= (s0 eps) eps)",
    )
    v = _check_explicit(
        reg,
        "(q eps)",
        "special ax9",
        "special ax11",
        "special ax6",
        "eqsub ; (s0 eps) ; eps ; x ; (exists y (not (p y x)))",
        "resolve 3 5",
        "resolve 4 6",
    )
    assert v.ok, v.message
    assert v.instances[-1] == parse("(exists y (not (p y eps)))")
    # a disjunctive A is accepted as a step
    reg = _explicit_registry(ax1="(q x)", ax3="(or (not (q x)) (p x x))")
    steps = ("special ax1 ; eps", "special ax3 ; eps", "resolve 2 3")
    eqsub = "eqsub ; eps ; (s0 eps) ; x ; (or (q x) (p x x))"
    v = _check_explicit(reg, "(p eps eps)", *steps, eqsub)
    assert v.ok, v.message
    s0 = App(S0, (E,))
    clause = sx.disj([
        Not(sx.eq(E, s0)),
        Not(Or(Atom(Q, (E,)), Atom(P2, (E, E)))),
        Or(Atom(Q, (s0,)), Atom(P2, (s0, s0))),
    ])
    assert clause in v.instances


@pytest.mark.parametrize("blocks, line", [
    ("proof\n  H\n  use ax1 ; eps\nexplicit\n  special ax1 ; eps\n", 5),
    ("explicit\n  special ax1 ; eps\nexplicit\n  special ax1 ; eps\n", 4),
    ("explicit\n  special ax1 ; eps\nproof\n", 4),
], ids=["proof-then-explicit", "two-explicit", "explicit-then-proof"])
def test_one_proof_block_per_theorem(blocks, line):
    with pytest.raises(ParseError, match=f"second proof block in theorem t1 at {line}:1$"):
        parse_script_file(f"theorem t1 : (q eps)\n{blocks}qed\n")


def test_registry_refuses_a_repeated_phi_label():
    reg = _toy_registry()
    reg.register_phi("b1", parse("(q x)"))
    with pytest.raises(CheckError, match=r"^duplicate phi label 'b1'$"):
        reg.register_phi("b1", parse("(q (s0 x))"))
    assert reg.phi_formulas["b1"] == parse("(q x)")


def test_bsi_template_shape():
    t = bsi_template()
    assert sx.free_vars(t) == ("x",)
    assert sx.unnested_rank(t) == 1


def test_every_corpus_segment_refutation_replays(monkeypatch):
    # check_script asks for no certificate; each segment's inputs are
    # recorded here and refuted again with one
    segments = []
    refute = pc.ground_refute

    def spy(inputs, budget=pc.DEFAULT_BUDGET, want_cert=True):
        segments.append((list(inputs), budget))
        return refute(inputs, budget, want_cert)

    monkeypatch.setattr(ks.propcalc, "ground_refute", spy)
    bundle = stringarith.load_theory()
    assert stringarith.check_corpus(bundle, stringarith.load_corpus()).ok
    monkeypatch.undo()
    assert len(segments) >= 76
    for inputs, budget in segments:
        res = pc.ground_refute(inputs, budget)
        assert isinstance(res, pc.Refutation)
        assert pc.replay(res, inputs)


# The SHA-256 of each corpus script's label, verdict and `spent`, and of
# each of its instances in prefix form, in infix form and with the
# subscripts of every special constant appearing in it, the scripts checked
# in dependency order.  Infix form names a script's constants c1, c2, ...
# in order of first appearance over its instances.  The prefix forms,
# subscripts and `spent` are as they were while each citation was still
# instantiated one leftmost quantifier at a time.  The corpus is checked
# twice in one interpreter at a fixed hash seed: nothing the first pass
# builds may change what the second prints.
CORPUS_ELABORATION_DIGEST = "445fd6145b769b814dc3586b5003156728939b7e9a702117754ce5831f9d1f02"

_CORPUS_ELABORATION = """
import hashlib
from proofkit import stringarith, syntax as sx

for _ in range(2):
    report = stringarith.check_corpus(stringarith.load_theory())
    digest = hashlib.sha256()
    for e in report.entries:
        digest.update(f"{e.label} {e.ok} {e.spent}\\n".encode())
        names = {}
        for inst in e.instances:
            consts = sorted(sx.render(c.subscript) for c in sx.appearing_constants(inst))
            pretty = sx.render(inst, "infix-pretty", names)
            digest.update(f"{sx.render(inst)} | {pretty} | {consts}\\n".encode())
    print(len(report.entries), report.ok, digest.hexdigest())
"""


def test_corpus_elaboration_is_pinned():
    src = Path(stringarith.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", _CORPUS_ELABORATION],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["76", "True", CORPUS_ELABORATION_DIGEST] * 2


def test_check_proof_reports_an_exhausted_budget_as_such():
    # the links a0 -> a1, ..., a10 -> a11 over 12 atoms give a0 -> a11:
    # decided at budget 1,000, not at budget 2, where the search stops
    # before it has an answer
    atoms = [Atom(Q, (numeral(i),)) for i in range(12)]
    chain = sx.conj([sx.fimp(a, b) for a, b in zip(atoms, atoms[1:])])

    def one_line(f):
        return ProofObject((ProofLine(f, ("taut", ())),))

    proof = one_line(sx.fimp(chain, sx.fimp(atoms[0], atoms[-1])))
    assert check_proof(TOY, proof, budget=1000).ok
    v = check_proof(TOY, proof, budget=2)
    assert not v.ok and v.failed_index == 0
    assert v.message == (
        "budget exhausted (3 spent, budget 2) before deciding tautological "
        "consequence of cited lines"
    )
    v = check_proof(TOY, one_line(sx.fimp(chain, sx.fimp(atoms[-1], atoms[0]))), budget=1000)
    assert not v.ok and v.message == "not a tautological consequence of cited lines"


def test_check_proof_reports_a_clausification_blowup_as_a_failing_line():
    # 15 two-atom conjunctions in one disjunction: distributing it passes
    # the clause guard, which fails the line instead of raising
    atoms = [Atom(Q, (numeral(i),)) for i in range(30)]
    big = sx.disj([sx.fand(a, b) for a, b in zip(atoms[::2], atoms[1::2])])
    pb = ProofBuilder()
    pb.taut(sx.fimp(big, big), ())
    v = check_proof(TOY, pb.build())
    assert not v.ok and v.failed_index == 0
    assert v.message == (
        "clausification blowup (16384 clauses, guard 10000) before deciding "
        "tautological consequence of cited lines"
    )
