import random

import pytest
from hypothesis import example, given, settings, strategies as st

from proofkit import hilbertack as ha
from proofkit import propcalc as pc
from proofkit import syntax as sx
from conftest import demo_valid_28_atoms, replace_subformula
from proofkit.errors import BudgetExhausted, CheckError
from proofkit.kernel import SpecialSequence, Theory, check_proof, core
from proofkit.meta.proofs import reassemble_proof, theorem22_bound
from proofkit.syntax import App, Atom, Exists, Not, Or, PredSym, Var, EPS, S0

Q = PredSym("q", 1)
E = App(EPS)


def qa(t):
    return Atom(Q, (t,))


# --- tower arithmetic --------------------------------------------------------


def test_bound_eval_matches_hand_computation():
    b = ha.bound_eval(2, 1, 1, 0)
    # lam_3 = 2^2^2^1 = 16, (2^2^1) = 4, 4^16 = 4294967296
    assert b.eval() == 4294967296
    assert ha.lam_mu(1, 3).eval() == 16


def test_bound_eval_symbolic_above_cutoff():
    b = ha.bound_eval(2, 64, 1, 0)
    assert b.eval() is None
    assert "^" in str(b)


def test_theorem22_bound():
    assert theorem22_bound(3, 2).eval() == 3 ** 4


# --- profiling ----------------------------------------------------------------


def test_profile_rank_zero():
    seq = SpecialSequence((qa(E), Not(qa(E))))
    p = ha.profile(seq)
    assert (p.rho, p.lam, p.kappa, p.valid) == (0, 0, 0, True)


def test_profile_toy_sequence():
    theory, seq = ha.demo_rank1()
    p = ha.profile(seq)
    assert (p.rho, p.lam, p.kappa) == (1, 1, 1)
    assert p.valid


def test_profile_invalid_sequence():
    assert not ha.profile(SpecialSequence((qa(E),))).valid


def test_empty_sequence_is_not_valid():
    # the empty negation disjunction is false
    assert core.sequence_valid(SpecialSequence(())) is False
    assert not ha.profile(SpecialSequence(())).valid


# --- one elimination step -------------------------------------------------------


def test_ha_step_toy_matches_documented_trace():
    theory, seq = ha.demo_rank1()
    out, trace = ha.ha_step(theory, seq)
    e = Exists("x", qa(Var("x")))
    r = sx.special_constant(e)
    assert set(out.formulas) == {qa(E), Not(qa(r)), Not(qa(E))}
    assert trace.mode == "batch"
    assert trace.pairs == ((r, E),)
    assert trace.size_out_multiset == 4 <= 16
    assert trace.profile_out.kappa == 0
    assert core.sequence_valid(out)


def test_ha_step_size_and_level_bounds_hold():
    rng = random.Random(11)
    for i in range(12):
        theory, seq = ha.generate_inconsistent_case(rng, 1 + (i % 2))
        out, trace = ha.ha_step(theory, seq)
        assert trace.size_out_multiset <= trace.size_in ** 2
        assert trace.profile_out.lam <= 2 * max(trace.profile_in.lam, 1)


def test_ha_step_hypothesis_violations():
    theory, _ = ha.demo_rank1()
    flat = SpecialSequence((qa(E), Not(qa(E))))
    with pytest.raises(CheckError, match="nothing to eliminate"):
        ha.ha_step(theory, flat)  # nothing above rank 0
    with pytest.raises(CheckError, match="input is not a special sequence"):
        ha.ha_step(theory, SpecialSequence((qa(E),)))  # invalid
    impure = Theory("impure", (Exists("x", qa(Var("x"))),), EPS)
    with pytest.raises(CheckError, match="requires plain nonlogical axioms"):
        ha.ha_step(impure, flat)  # nonlogical axioms must be open and plain


def test_empty_elimination_output_fails_reverification():
    # a sequence of the target's special axiom alone eliminates to nothing
    theory, _ = ha.demo_rank1()
    e = Exists("x", qa(Var("x")))
    r = sx.special_constant(e)
    seq = SpecialSequence((sx.fimp(e, qa(r)),))
    analysis = ha._Analysis(theory, pc.DEFAULT_BUDGET)
    with pytest.raises(CheckError, match="output failed the tautology re-verification"):
        ha._eliminate(analysis, seq, (r,), analysis.profile(seq), "batch")


def test_ha_step_falls_back_to_one_target_when_the_batch_fails():
    # two constants of one rank and level, each with its special axiom and
    # a substitution formula at eps, and a formula that names both.  Both
    # at once give  q(c) v p(c') v -q(eps) v -p(eps)...  with c and c' left
    # false: no longer valid.  One at a time keeps the other's formulas.
    p = PredSym("p", 1)
    pa = lambda t: Atom(p, (t,))
    x, y = Var("x"), Var("y")
    theory = Theory("two", (qa(x), pa(x), Or(Not(qa(x)), Not(pa(y)))), EPS)
    eq_, ep = Exists("x", qa(x)), Exists("x", pa(x))
    rq, rp = sx.special_constant(eq_), sx.special_constant(ep)
    seq = SpecialSequence((
        sx.fimp(eq_, qa(rq)),
        sx.fimp(qa(E), eq_),
        sx.fimp(ep, pa(rp)),
        sx.fimp(pa(E), ep),
        qa(E),
        pa(E),
        Or(Not(qa(rq)), Not(pa(rp))),
    ))
    analysis = ha._Analysis(theory, pc.DEFAULT_BUDGET)
    with pytest.raises(CheckError, match="output failed the tautology re-verification"):
        ha._eliminate(analysis, seq, (rp, rq), analysis.profile(seq), "batch")
    out, trace = ha.ha_step(theory, seq)
    # the targets sort by subscript, so p's constant is the one taken
    assert (trace.mode, trace.targets, trace.pairs) == ("singleton", (rp,), ((rp, E),))
    assert core.sequence_valid(out) and rp not in trace.profile_out.owners
    assert rq in trace.profile_out.owners
    result = ha.ha_run(theory, seq)
    assert [t.mode for t in result.trace] == ["singleton", "batch"]
    assert all(o is None for o in ha.profile(result.final).owners)


def test_ha_step_retargets_lower_owned_rank():
    # a constant of rank 2 merely occurs; ownership is at rank 1
    theory, seq = ha.demo_rank1()
    e2 = Exists("x", Exists("y", sx.eq(Var("x"), Var("y"))))
    r2 = sx.special_constant(e2)
    spiked = SpecialSequence(seq.formulas + (sx.eq(r2, r2),))
    out, trace = ha.ha_step(theory, spiked)
    assert all(sx.const_rank(t) == 1 for t in trace.targets)


# --- the occurrence test of the targets' subscripts ---------------------------


def _rebuilt_differs(f, targets):
    """The eliminator's former check: rewrite each target's subscript e in f
    to its instance at the target, and compare."""
    image = f
    for e in targets:
        image = replace_subformula(image, e, sx.subst(e.body, {e.var: sx.special_constant(e)}))
    return image != f


@st.composite
def _formula_and_targets(draw):
    """A closed formula over ground q-atoms and random closed
    instantiations, each of which may mention earlier ones as a subformula
    or through their special constants; and a nonempty list of targets."""
    subs = []
    for _ in range(draw(st.integers(1, 4))):
        terms = [E, App(S0, (E,)), Var("v")] + [sx.special_constant(e) for e in subs]
        leaves = st.one_of(st.sampled_from(terms).map(qa), st.sampled_from(subs or [qa(E)]))
        subs.append(Exists("v", draw(_connectives(leaves, 4))))
    ground = [E] + [sx.special_constant(e) for e in subs]
    leaves = st.one_of(st.sampled_from(ground).map(qa), st.sampled_from(subs))
    f = draw(_connectives(leaves, 8))
    targets = draw(st.lists(st.sampled_from(subs), min_size=1, max_size=3, unique=True))
    return f, targets


def _connectives(leaves, max_leaves):
    return st.recursive(
        leaves,
        lambda c: st.one_of(
            c.map(Not),
            st.tuples(c, c).map(lambda p: Or(*p)),
            c.map(lambda g: Exists("z", g)),
        ),
        max_leaves=max_leaves,
    )


E1 = Exists("x", qa(Var("x")))
E2 = Exists("x", Or(qa(Var("x")), E1))


@given(_formula_and_targets())
@example((Or(qa(E), Not(E1)), [E1]))  # nested under Not and Or
@example((qa(sx.special_constant(E2)), [E1]))  # only inside another subscript
@settings(max_examples=300, deadline=None)
def test_occurrence_test_agrees_with_rebuilding(case):
    f, targets = case
    assert sx.has_subformula(f, set(targets)) == _rebuilt_differs(f, targets)


def test_occurrence_test_on_nested_and_hidden_subscripts():
    assert sx.has_subformula(Or(qa(E), Not(E1)), {E1})
    assert not sx.has_subformula(qa(sx.special_constant(E2)), {E1})


# --- the driver ------------------------------------------------------------------


def test_ha_run_toy_terminates_within_bound():
    theory, seq = ha.demo_rank1()
    res = ha.ha_run(theory, seq)
    assert len(res.trace) == 1
    assert res.within_bound
    got = pc.ground_refute(list(res.final.formulas), want_cert=False)
    assert isinstance(got, pc.Refutation)


def test_ha_run_no_op_on_rank_zero():
    theory, _ = ha.demo_rank1()
    seq = SpecialSequence((qa(E), Not(qa(E))))
    res = ha.ha_run(theory, seq)
    assert res.trace == [] and res.final is seq


def test_ha_run_fifty_generated_theories():
    rng = random.Random(2024)
    for i in range(50):
        theory, seq = ha.generate_inconsistent_case(rng, 1 + (i % 2))
        res = ha.ha_run(theory, seq)
        assert all(t.size_out_multiset <= t.size_in ** 2 for t in res.trace)
        assert all(
            t.profile_out.lam <= 2 * max(t.profile_in.lam, 1) for t in res.trace
        )
        assert ha._owned_rank(ha.profile(res.final).owners) == 0
        got = pc.ground_refute(list(res.final.formulas), want_cert=False)
        assert isinstance(got, pc.Refutation)


def test_ha_run_analyses_each_sequence_and_formula_once(monkeypatch):
    # one validity check per (sequence, budget), one special match and one
    # delta classification per formula, over a whole multi-step run
    seen = {}

    def spy(name, key):
        real = getattr(core, name)

        def wrapper(*args, **kwargs):
            seen.setdefault(name, []).append(key(*args, **kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(core, name, wrapper)

    spy("sequence_valid", lambda seq, budget=pc.DEFAULT_BUDGET: (seq, budget))
    spy("match_special", lambda f: f)
    spy("classify_matched", lambda theory, f, special: f)
    theory, seq = ha.generate_inconsistent_case(random.Random(7), 2)
    res = ha.ha_run(theory, seq)
    assert len(res.trace) >= 2
    assert sorted(seen) == ["classify_matched", "match_special", "sequence_valid"]
    for name, keys in seen.items():
        assert len(keys) == len(set(keys)), f"{name}: {len(keys)} calls, {len(set(keys))} distinct"


def test_profile_reports_an_exhausted_budget_as_such():
    _, seq = demo_valid_28_atoms()
    assert ha.profile(seq).valid and ha.profile(seq, budget=28).valid
    with pytest.raises(BudgetExhausted, match=r"^budget exhausted \(6 spent, budget 5\)$"):
        ha.profile(seq, budget=5)


def test_monotone_progress_measure():
    rng = random.Random(5)
    theory, seq = ha.generate_inconsistent_case(rng, 2)
    res = ha.ha_run(theory, seq)
    ranks = [max((sx.const_rank(t) for t in tr.targets), default=0) for tr in res.trace]
    assert ranks == sorted(ranks, reverse=True)


# --- theorem-24 reassembly --------------------------------------------------------


def test_reassemble_low_rank_proof():
    q = Q
    theory = Theory("t", (qa(Var("x")),), EPS)
    goal = qa(E)
    neg = Not(sx.closure(goal))
    # a special sequence extracted from the contradiction in T[not goal]:
    seq = SpecialSequence((qa(E), neg))
    assert core.sequence_valid(seq)
    proof = reassemble_proof(theory, goal, seq)
    assert core.proves(theory, proof, goal)
