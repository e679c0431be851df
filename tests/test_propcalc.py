import collections
import hashlib
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    brute_force_quasitaut_unsat,
    elementary_subformulas,
    ground_subterms,
    random_ground_problem,
    random_qf_formula,
    reference_as_horn,
    reference_replay,
    truth_table_consequence,
)
from proofkit import checker, nodes, stringarith
from proofkit import propcalc as pc
from proofkit import syntax as sx
from proofkit.errors import CheckError
from proofkit.kernel import core, scripts as kscripts
from proofkit.syntax import App, Atom, Exists, FnSym, Not, Or, PredSym, Var

A = Atom(PredSym("a", 0))
B = Atom(PredSym("b", 0))
C = Atom(PredSym("c", 0))
E1, E2, E3 = (App(FnSym(n, 0)) for n in ("e1", "e2", "e3"))


# --- truth valuations ------------------------------------------------------


def test_valuation_extension_rules():
    v = pc.TruthValuation({A: True, B: False})
    assert v.value(Not(B)) and v.value(Or(B, A)) and not v.value(Not(Or(B, A)))


def test_a_model_values_a_clause_of_five_thousand_literals():
    # -p0 | ... | -p4998 | p4999 with the units p0 ... p4998: the refuter
    # saturates, and its model values the clause and a negation chain as
    # long, left operands first, without recursing along them
    ps = [Atom(PredSym(f"p{i}", 0)) for i in range(5_000)]
    clause = sx.disj([Not(p) for p in ps[:-1]] + [ps[-1]])
    res = pc.ground_refute([*ps[:-1], clause])
    assert isinstance(res, pc.Saturated)
    assert res.model.value(clause) and res.model.assignment[ps[-1]] is True
    chain = ps[0]
    for _ in range(5_001):
        chain = Not(chain)
    assert res.model.value(chain) is False
    # a missing atom raises where the left-to-right reading first needs it
    v = pc.TruthValuation({A: True})
    assert v.value(Or(A, B)) and v.value(Not(Not(Or(A, B))))
    for f, missing in (
        (Or(Not(A), B), B),
        (Not(Or(Not(A), Or(B, C))), B),
        (Or(Or(Not(A), C), B), C),
    ):
        with pytest.raises(KeyError) as err:
            v.value(f)
        assert err.value.args == (missing,)
    with pytest.raises(TypeError):
        v.value(Not(E1))


# --- one-resolution ---------------------------------------------------------


def _negation(lit):
    return lit.body if isinstance(lit, Not) else Not(lit)


def _resolves_to(unit, clause, derived):
    """Replay the one resolution of the input clause by the input unit, then
    resolve each literal of `derived` away against its negation, given as
    an input: accepted exactly when the resolvent holds those literals."""
    inputs = [unit, clause] + [_negation(lit) for lit in derived]
    steps = [("input", unit), ("input", clause), ("resolve", 0, 1)]
    for lit in derived:
        steps += [("input", _negation(lit)), ("resolve", len(steps), len(steps) - 1)]
    return checker.replay(checker.Refutation(steps), inputs)


def test_one_resolution_examples():
    p = Atom(PredSym("p0", 0))
    q = Atom(PredSym("q0", 0))
    s = Atom(PredSym("s0p", 0))
    assert _resolves_to(p, Or(Not(p), q), [q])
    assert _resolves_to(Not(sx.eq(E1, E2)), sx.disj([sx.eq(E1, E2), q, s]), [q, s])
    assert _resolves_to(p, Not(p), [])  # unit against unit
    e = Exists("x", Atom(PredSym("r", 1), (Var("x"),)))
    assert _resolves_to(Not(e), Or(e, q), [q])  # closed existential
    for unit, clause in (
        (Not(Or(p, q)), Or(p, q)),  # pivot not a literal
        (Not(Not(p)), Or(Not(p), q)),  # not not p is keyed by not p
        (Atom(PredSym("r", 1), (Var("x"),)), q),  # pivot open
        (Or(p, q), Not(p)),  # premise not a unit
    ):
        with pytest.raises(CheckError, match="^resolution pivot must be a closed elementary literal$"):
            _resolves_to(unit, clause, [])
    with pytest.raises(CheckError, match="^opposite of the pivot is not in the clause$"):
        _resolves_to(p, Or(p, q), [])
    with pytest.raises(CheckError, match="^resolution premises must precede$"):
        checker.replay(checker.Refutation([("input", p), ("resolve", 0, 1)]), [p])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10_000))
def test_one_resolution_soundness(seed):
    rng = random.Random(seed)
    q = Atom(PredSym("q0", 0))
    lits = [q, Not(q), A, Not(A), B, Not(B)]
    d = tuple(rng.choice(lits) for _ in range(rng.randint(1, 4)))
    c = rng.choice(lits)
    table: dict = {}
    have = [checker.literal_codes(table, (c,)), checker.literal_codes(table, d)]
    literal = dict(zip(checker.literal_codes(table, lits), lits))
    try:
        out = checker.resolvent(have, 0, 1)
    except CheckError:
        return
    derived = sx.disj([literal[x] for x in out]) if out else sx.fand(q, Not(q))
    assert truth_table_consequence(derived, [c, sx.disj(d)])


# --- ground refutation ------------------------------------------------------


def test_theorem_one_symmetry_and_transitivity_certified():
    inputs = [sx.eq(E1, E2), Not(sx.eq(E2, E1))]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation)
    assert checker.replay(res, inputs)
    inputs2 = [sx.eq(E1, E2), sx.eq(E2, E3), Not(sx.eq(E1, E3))]
    res2 = pc.ground_refute(inputs2)
    assert isinstance(res2, pc.Refutation)
    assert checker.replay(res2, inputs2)


def test_consistent_set_saturates_with_model():
    q = PredSym("q", 1)
    inputs = [Atom(q, (App(sx.EPS),))]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Saturated)
    assert res.model.value(inputs[0])


def test_congruence_lifts_predicates():
    q = PredSym("q", 1)
    inputs = [sx.eq(E1, E2), Atom(q, (E1,)), Not(Atom(q, (E2,)))]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation)
    assert checker.replay(res, inputs)


def test_function_congruence():
    f = FnSym("f1", 1)
    inputs = [sx.eq(E1, E2), Not(sx.eq(App(f, (E1,)), App(f, (E2,))))]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)


def _iterate(fn, t, n):
    for _ in range(n):
        t = App(fn, (t,))
    return t


def _refuted_and_replayed(inputs):
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation)
    assert checker.replay(res, inputs)


def test_congruence_over_several_rounds_cycles():
    # f^3(a) = a and f^5(a) = a give f(a) = a (gcd 1), through merges that
    # each enable the next
    f = FnSym("f1", 1)
    _refuted_and_replayed(
        [
            sx.eq(_iterate(f, E1, 3), E1),
            sx.eq(_iterate(f, E1, 5), E1),
            Not(sx.eq(App(f, (E1,)), E1)),
        ]
    )


def test_congruence_of_a_binary_symbol():
    g = FnSym("g2", 2)
    e4 = App(FnSym("e4", 0))
    _refuted_and_replayed(
        [
            sx.eq(E1, E3),
            sx.eq(E2, e4),
            Not(sx.eq(App(g, (E1, E2)), App(g, (E3, e4)))),
        ]
    )


def test_congruence_lifts_predicates_over_nested_terms():
    q = PredSym("q", 1)
    f = FnSym("f1", 1)
    _refuted_and_replayed(
        [
            sx.eq(E1, E2),
            Atom(q, (_iterate(f, E1, 2),)),
            Not(Atom(q, (_iterate(f, E2, 2),))),
        ]
    )


def test_budget_meters_congruence_merges():
    # n + 1 unit clauses, then n equation merges and one congruence merge
    n = 6
    es = [App(FnSym(f"e{i}", 0)) for i in range(n + 1)]
    f = FnSym("f1", 1)
    inputs = [sx.eq(es[i], es[i + 1]) for i in range(n)]
    inputs.append(Not(sx.eq(App(f, (es[0],)), App(f, (es[n],)))))
    assert isinstance(pc.ground_refute(inputs, budget=n + 1), pc.OutOfBudget)
    res = pc.ground_refute(inputs, budget=2 * (n + 1))
    assert isinstance(res, pc.Refutation) and res.spent == 2 * (n + 1)
    assert checker.replay(res, inputs)


def test_adversarial_unions_reroot_the_smaller_proof_tree():
    # a chain k0 = ... = k_half, then fresh constants joined to its two ends
    # in turn, the end first: re-rooting the end's side of the proof forest
    # each time would walk the whole chain, quadratic in all.  The constants
    # are term ids 0..n of a table whose shapes are all constants.
    n, half = 10_000, 5_000
    ks = list(range(n + 1))
    core = pc.CongruenceCore([(None, ())] * (n + 1))
    start = time.perf_counter()
    for i in range(half):
        core.assert_eq(ks[i], ks[i + 1], ("eq", (ks[i], ks[i + 1])))
    for j in range(half + 1, n + 1):
        end = ks[0] if j % 2 else ks[half]
        core.assert_eq(end, ks[j], ("eq", (end, ks[j])))
    assert time.perf_counter() - start < 5.0
    assert core.merges == n
    edges = pc.explain_path(core.forest(), ks[0], ks[half])
    assert len(edges) == half
    assert [p for p, _, _ in edges] == ks[:half]
    assert [q for _, q, _ in edges] == ks[1 : half + 1]
    assert all(reason == ("eq", (p, q)) for p, q, reason in edges)


def _reference_classes(shapes, eqs) -> list:
    """Each term's root in the congruence closure of eqs over a table's
    terms, computed from scratch: join the equations, then join every two
    applications of one symbol whose arguments are joined, until none is
    left to join."""
    root = list(range(len(shapes)))

    def find(t):
        while root[t] != t:
            t = root[t]
        return t

    for a, b in eqs:
        root[find(a)] = find(b)
    changed = True
    while changed:
        changed = False
        for s, (f, xs) in enumerate(shapes):
            for t, (g, ys) in enumerate(shapes):
                joined = list(map(find, xs)) == list(map(find, ys))
                if xs and f == g and find(s) != find(t) and joined:
                    root[find(s)] = find(t)
                    changed = True
    return [find(t) for t in range(len(shapes))]


@st.composite
def _term_tables(draw):
    # constants, then applications of unary symbols 1 and 2 and binary
    # symbol 3 to earlier terms, each shape once, as a `_Terms` table has
    shapes = [(None, ())] * draw(st.integers(1, 6))
    for _ in range(draw(st.integers(0, 16))):
        fn = draw(st.integers(1, 3))
        args = tuple(draw(st.integers(0, len(shapes) - 1)) for _ in range(1 if fn < 3 else 2))
        if (fn, args) not in shapes:
            shapes.append((fn, args))
    return shapes


_core_ops = st.lists(
    st.one_of(
        st.tuples(st.just("eq"), st.integers(0, 99), st.integers(0, 99)),
        st.tuples(st.just("undo"), st.integers(0, 8)),
    ),
    max_size=40,
)


@settings(max_examples=500, deadline=None)
@given(_term_tables(), _core_ops)
# c = f1(c), undone, then c = f2(c): no signature the undone merge added
# may outlive it
@example(
    [(None, ()), (1, (0,)), (2, (0,)), (1, (1,)), (2, (1,)), (3, (0, 0)), (1, (4,))],
    [("eq", 0, 1), ("undo", 0), ("eq", 0, 2)],
)
def test_backtracked_closure_is_the_closure_of_the_equations_in_force(shapes, ops):
    # equation k is asserted under mark k, as the search marks each
    # equation by its trail position, and undoing to mark k drops the
    # equations from k on
    core = pc.CongruenceCore(shapes)
    eqs: list = []
    n = len(shapes)
    for op in ops:
        if op[0] == "eq":
            a, b = op[1] % n, op[2] % n
            core.mark(len(eqs))
            core.assert_eq(a, b, ("eq", (a, b)))
            eqs.append((a, b))
        else:
            core.backtrack(op[1])
            del eqs[op[1] :]
        want = _reference_classes(shapes, eqs)
        got = [core.find(t) for t in range(n)]
        forest = core.forest()
        tops = []  # each term's proof-tree root
        for t in range(n):
            top = t
            for _ in range(n):  # a walk up the forest ends
                if forest[0][top] is None:
                    break
                top = forest[0][top]
            assert forest[0][top] is None
            tops.append(top)
        for a in range(n):
            for b in range(n):
                joined = want[a] == want[b]
                assert (got[a] == got[b]) == joined and (tops[a] == tops[b]) == joined
                if a == b or not joined:
                    continue
                # the forest joins a to b by edges that the equations in
                # force and congruence justify
                edges = pc.explain_path(forest, a, b)
                assert edges[0][0] == a and edges[-1][1] == b
                assert all(e[1] == d[0] for e, d in zip(edges, edges[1:]))
                for p, q, reason in edges:
                    if reason[0] == "eq":
                        assert reason[1] in eqs and {p, q} == set(reason[1])
                    else:
                        (f, xs), (g, ys) = shapes[p], shapes[q]
                        assert reason == ("cong",) and xs and f == g
                        assert [want[x] for x in xs] == [want[y] for y in ys]


def test_budget_grows_linearly_along_an_equation_chain():
    # k_i = k_(i+1) | f1(k_i) = k_(i+1): one closure per search charges each
    # merge once, where a closure rebuilt at every node charged the merges
    # above it again (20,300 at n = 100, and out of budget at n = 300)
    f = FnSym("f1", 1)

    def spent(n):
        ks = [App(FnSym(f"k{i}", 0)) for i in range(n + 1)]
        res = pc.ground_refute(
            [Or(sx.eq(ks[i], ks[i + 1]), sx.eq(App(f, (ks[i],)), ks[i + 1])) for i in range(n)]
        )
        assert isinstance(res, pc.Saturated)
        return res.spent

    at_100 = spent(100)
    spent(300)
    assert spent(1000) <= 11 * at_100


def test_deep_terms_equal_below_are_refuted_and_replay():
    # c = d, f1^200(c) != f1^200(d): roots are compared by identity, so the
    # two distinct deep terms are never walked side by side
    f = FnSym("f1", 1)
    inputs = [sx.eq(E1, E2), Not(sx.eq(_iterate(f, E1, 200), _iterate(f, E2, 200)))]
    start = time.perf_counter()
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)
    assert time.perf_counter() - start < 5.0


def test_deeper_terms_equal_below_are_refuted_without_certificate():
    # a tree walk of depth 300 per comparison would exceed the recursion limit
    f = FnSym("f1", 1)
    inputs = [sx.eq(E1, E2), Not(sx.eq(_iterate(f, E1, 300), _iterate(f, E2, 300)))]
    assert isinstance(pc.ground_refute(inputs, want_cert=False), pc.Refutation)


def test_deep_certified_equalities_compare_stored_hashes_first():
    # c = d, g^300(c) != g^300(d), certified: the emitter and the checker
    # tell the two towers' terms apart by their stored hashes, never by
    # walking them side by side.  The symbols are this test's own: the
    # structural measures are cached process-wide, and equal towers built
    # elsewhere would be walked when looked up.
    g = FnSym("tower1", 1)
    c, d, k = (App(FnSym(f"tower_{x}", 0)) for x in "cdk")
    gc, gd = _iterate(g, c, 300), _iterate(g, d, 300)
    equal_below = [sx.eq(c, d), Not(sx.eq(gc, gd))]
    joined_through_k = [sx.eq(k, gc), sx.eq(k, gd), Not(sx.eq(gc, gd))]
    for inputs in (equal_below, joined_through_k):
        res = pc.ground_refute(inputs)
        assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)


def test_long_unit_chain_certificate_replays():
    # p0, -p0 | p1, ..., -p1999 | p2000, -p2000: the conflict's certificate
    # derives every link of the chain
    ps = [Atom(PredSym(f"p{i}", 0)) for i in range(2001)]
    inputs = [ps[0], *(Or(Not(ps[i]), ps[i + 1]) for i in range(2000)), Not(ps[2000])]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and res.spent == 2001
    assert checker.replay(res, inputs)


def test_refute_requires_closed_inputs():
    with pytest.raises(CheckError):
        pc.ground_refute([sx.eq(Var("x"), Var("x"))])


def test_closedness_is_judged_through_existential_atoms():
    r = PredSym("r", 2)
    q = PredSym("q", 1)
    # y is free inside the quantified atom, which clausifies as one atom
    open_input = Or(A, Not(Exists("x", Atom(r, (Var("x"), Var("y"))))))
    with pytest.raises(CheckError) as err:
        pc.ground_refute([Atom(q, (E1,)), open_input])
    assert str(err.value) == (
        f"ground_refute requires closed inputs: {sx.render(open_input)}"
    )
    closed = Exists("x", Atom(q, (Var("x"),)))
    res = pc.ground_refute([Or(A, closed), Not(A)])
    assert isinstance(res, pc.Saturated) and res.model.value(closed)


def test_budget_exhaustion_reports_cap():
    atoms = [Atom(PredSym(f"h{i}", 0)) for i in range(14)]
    clauses = []
    rng = random.Random(0)
    for _ in range(60):
        lits = [a if rng.random() < 0.5 else Not(a) for a in rng.sample(atoms, 3)]
        clauses.append(sx.disj(lits))
    res = pc.ground_refute(clauses, budget=5)
    assert isinstance(res, (pc.OutOfBudget, pc.Refutation, pc.Saturated))
    assert isinstance(pc.ground_refute(clauses, budget=2), pc.OutOfBudget)


def test_split_certificates_replay():
    q = PredSym("q", 1)
    f = FnSym("f1", 1)
    # requires a case split plus congruence in each branch
    inputs = [
        Or(sx.eq(E1, E2), sx.eq(E1, E3)),
        Atom(q, (E1,)),
        Not(Atom(q, (E2,))),
        Not(Atom(q, (E3,))),
    ]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation)
    assert any(s[0] == "split" for s in res.steps)
    assert checker.replay(res, inputs)


def test_instantiations_are_opaque_atoms():
    q = PredSym("q", 1)
    e = Exists("x", Atom(q, (Var("x"),)))
    inputs = [sx.fimp(Atom(q, (E1,)), e), Atom(q, (E1,)), Not(e)]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)


def test_oracle_agreement_random_problems():
    rng = random.Random(42)
    for _ in range(120):
        problem = random_ground_problem(rng)
        mine = pc.ground_refute(problem, want_cert=False)
        brute = brute_force_quasitaut_unsat(problem)
        assert isinstance(mine, (pc.Refutation, pc.Saturated))
        assert isinstance(mine, pc.Refutation) == brute


def test_oracle_agreement_nested_problems():
    rng = random.Random(7)
    refuted = 0
    for _ in range(120):
        problem = random_ground_problem(rng, nesting=3)
        mine = pc.ground_refute(problem)
        brute = brute_force_quasitaut_unsat(problem)
        assert isinstance(mine, (pc.Refutation, pc.Saturated))
        assert isinstance(mine, pc.Refutation) == brute
        if brute:
            refuted += 1
            assert checker.replay(mine, problem)
    assert refuted >= 10


def test_certificates_always_replay_on_random_refutables():
    rng = random.Random(99)
    found = 0
    for _ in range(200):
        problem = random_ground_problem(rng)
        res = pc.ground_refute(problem)
        if isinstance(res, pc.Refutation):
            found += 1
            assert checker.replay(res, problem)
    assert found >= 10


# Two SHA-256 digests of what `ground_refute`, certificates on, gives on
# every problem of `_pinned_problems`.  VERDICTS_DIGEST pins each verdict's
# class and a Saturated one's sorted model: it has held since the refuter
# still worked on formula nodes, before it numbered each problem's atoms
# and terms, and through the change to one backtracking congruence closure
# per search.  COSTS_DIGEST pins each verdict's `spent` and a refutation's
# rendered steps: it was recorded when that closure began to charge each
# merge once, when it is made; the steps themselves were the same before.
# Any change to a verdict, a model, a spent figure or a step changes one
# of them.
VERDICTS_DIGEST = "4fc2d32c9197ef152618d4c429b7e811a514cf1222f147a02558d7989cfad365"
COSTS_DIGEST = "6f296b5bfe0113e02717cb996803f870d71bdd3955c9aa81ad239a09d3c7fd1d"


def _pinned_problems():
    rng = random.Random(24)
    out = [random_ground_problem(rng, max_atoms=8) for _ in range(200)]
    out += [random_ground_problem(rng, nesting=3) for _ in range(30)]
    out += [random_ground_problem(rng, nesting=400) for _ in range(8)]
    # towers that the closure joins level by level, over 262 terms
    f, k1, k2 = FnSym("f1", 1), App(FnSym("k1", 0)), App(FnSym("k2", 0))
    t1, t2 = _iterate(f, k1, 130), _iterate(f, k2, 130)
    out.append([sx.eq(k1, k2), Not(sx.eq(t1, t2))])
    pr = PredSym("pr", 1)
    out.append([sx.eq(k2, k1), Atom(pr, (t1,)), Not(Atom(pr, (t2,)))])
    return out


def _rendered(x) -> str:
    if isinstance(x, (list, tuple)):
        return "(" + " ".join(map(_rendered, x)) + ")"
    if isinstance(x, (sx.Term, sx.Formula)):
        return sx.render(x)
    return str(x)


def pinned_digests() -> tuple[str, str]:
    """The verdicts digest and the costs digest of `_pinned_problems`."""
    verdicts, costs = hashlib.sha256(), hashlib.sha256()
    for problem in _pinned_problems():
        res = pc.ground_refute(problem)
        model = ""
        if isinstance(res, pc.Saturated):
            model = _rendered(sorted((sx.render(a), v) for a, v in res.model.assignment.items()))
        steps = _rendered(res.steps) if isinstance(res, pc.Refutation) else ""
        verdicts.update(f"{type(res).__name__} {model}\n".encode())
        costs.update(f"{res.spent} {steps}\n".encode())
    return verdicts.hexdigest(), costs.hexdigest()


def test_pinned_problems_hold_a_table_past_the_small_int_cache():
    # The towers give one problem more than 256 distinct terms under
    # equations, so term ids run past CPython's small-int cache; each id is
    # one int object made once by its table, so `is` on ids would pass the
    # digests too, and `==` is kept by design, not by them.  This only
    # guards that the data still holds such a problem.
    atoms = [
        [d.body if isinstance(d, Not) else d for f in p for d in sx.disjuncts(f)]
        for p in _pinned_problems()
    ]
    assert max(len(ground_subterms([a for a in p if a.pred == sx.EQ])) for p in atoms) > 256


def test_verdicts_spent_models_and_certificates_are_pinned():
    # in a fresh interpreter at each of two hash seeds: the search, its
    # models and its certificates depend on no set or dict order of nodes
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join(map(str, (tests.parent / "src", tests)))
    run = "import test_propcalc as t; print(*t.pinned_digests())"
    for hash_seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", run], env=env, capture_output=True, text=True, check=True
        ).stdout.split()
        assert out == [VERDICTS_DIGEST, COSTS_DIGEST], f"PYTHONHASHSEED={hash_seed}"


# --- the search: watched positions, the trail, backtracking ----------------

Q = PredSym("q", 1)
_POOL = [A, B, C, sx.eq(E1, E2), sx.eq(E2, E3), sx.eq(E1, E3), Atom(Q, (E1,)), Atom(Q, (E3,))]
_literal = st.builds(
    lambda a, pol: a if pol else Not(a), st.sampled_from(_POOL), st.booleans()
)
# small pools make duplicate positions, tautologies and unit clauses common
_clause_sets = st.lists(
    st.lists(_literal, min_size=1, max_size=4).map(sx.disj), min_size=1, max_size=7
)


def _reference_search(problem):
    """What the refuter must find, by a plain recursive search that decides
    atoms in order of first occurrence, True first, propagates a clause
    whose positions are all false but one, and rejects a node whose
    assigned literals the brute-force oracle refutes.  Returns
    ("sat", model) or ("refuted", splits), where splits is the tree of case
    splits as nested (atom, splits, splits) tuples, None at a leaf.  Both
    are independent of the order in which units are propagated."""
    clauses = [lits for f in problem for lits in pc.clausify(f)]
    atoms = elementary_subformulas(problem)

    def search(assign):
        while True:
            unit = None
            for lits in clauses:
                if any(assign.get(a) == pol for a, pol in lits):
                    continue
                free = [(a, pol) for a, pol in lits if a not in assign]
                if not free:
                    return "refuted", None
                if len(free) == 1:
                    unit = free[0]
                    break
            if unit is None:
                break
            assign = {**assign, unit[0]: unit[1]}
        if brute_force_quasitaut_unsat([a if v else Not(a) for a, v in assign.items()]):
            return "refuted", None
        pick = next((a for a in atoms if a not in assign), None)
        if pick is None:
            return "sat", {a: assign[a] for a in atoms}
        branches = []
        for value in (True, False):
            got = search({**assign, pick: value})
            if got[0] == "sat":
                return got
            branches.append(got[1])
        return "refuted", (pick, *branches)

    return search({})


def _splits(steps):
    """The tree of case splits of a certificate, as _reference_search
    gives it."""
    if steps and steps[-1][0] == "split":
        _, atom, first, second = steps[-1]
        return atom, _splits(first), _splits(second)
    return None


P, R = Atom(PredSym("p", 0)), Atom(PredSym("r", 0))


@settings(max_examples=150, deadline=None)
@given(_clause_sets)
@example([Or(P, Or(P, R)), Not(R)])  # p | p | r is no unit clause when r is false
@example([Or(P, Or(P, R)), Not(R), Not(P)])
@example([Or(P, Not(P)), R])  # a tautology
@example([Or(P, Not(P))])
@example([P, Not(P)])  # two unit clauses in conflict at level 0
@example([Or(Not(P), R), Or(Not(P), Not(R)), Or(Not(R), A), Or(R, B)])
@example(  # p forces r and b, which clash; then p is false
    [Or(P, A), Or(Not(P), R), Or(Not(P), B), Or(Not(R), Not(B)), Or(Not(A), C)]
)
@example(  # p forces r, whose clauses meet a conflict before -r | -b is
    # visited; -r | -b must still watch -r when r is forced again under -p
    [
        sx.disj([Not(P), Not(R), A]),
        sx.disj([Not(P), Not(R), Not(A)]),
        Or(Not(R), Not(B)),
        Or(Not(P), R),
        Or(R, P),
        Or(B, C),
        Or(B, Not(C)),
    ]
)
def test_search_agrees_with_brute_force_and_a_recursive_search(problem):
    res = pc.ground_refute(problem)
    assert isinstance(res, (pc.Refutation, pc.Saturated))
    assert isinstance(res, pc.Refutation) == brute_force_quasitaut_unsat(problem)
    kind, want = _reference_search(problem)
    if isinstance(res, pc.Refutation):
        assert checker.replay(res, problem)
        assert kind == "refuted" and _splits(res.steps) == want
    else:
        assert all(res.model.value(f) for f in problem)
        assert kind == "sat" and res.model.assignment == want


@pytest.mark.parametrize("pairs", [600, 5_000])
def test_deep_inputs_are_decided(pairs):
    # one decision level per atom: far deeper than the recursion limit
    rng = random.Random(pairs)
    atoms = [Atom(PredSym(f"d{i}", 0)) for i in range(2 * pairs)]
    inputs = [
        sx.disj([a if rng.random() < 0.5 else Not(a) for a in atoms[2 * i : 2 * i + 2]])
        for i in range(pairs)
    ]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Saturated)
    assert all(res.model.value(f) for f in inputs)


# --- clausify ---------------------------------------------------------------


def _reference_clauses(f):
    """The conjunctive form by the textbook rules: a disjunction is the
    product of its operands' clauses, a double negation is dropped, and a
    negated disjunction is the clauses of both negated operands."""
    if isinstance(f, Or):
        return [a + b for a in _reference_clauses(f.left) for b in _reference_clauses(f.right)]
    if isinstance(f, Not):
        g = f.body
        if isinstance(g, Not):
            return _reference_clauses(g.body)
        if isinstance(g, Or):
            return _reference_clauses(Not(g.left)) + _reference_clauses(Not(g.right))
        return [((g, False),)]
    return [((f, True),)]


_INSTANTIATION = Exists("x", Not(Atom(Q, (Var("x"),))))
_mixed = st.recursive(
    st.one_of(_literal, st.sampled_from([_INSTANTIATION, Not(_INSTANTIATION)])),
    lambda sub: st.one_of(
        st.builds(Or, sub, sub),
        st.builds(sx.fand, sub, sub),
        st.builds(lambda f: Not(Not(f)), sub),
        st.builds(lambda f, g: Not(Or(f, g)), sub, sub),
        st.lists(sub, min_size=2, max_size=5).map(sx.disj),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(_mixed)
@example(sx.disj([A, Not(B), C]))  # a clause already
@example(Or(Not(Not(A)), B))  # a clause once a double negation goes
@example(Or(Or(A, Not(B)), Or(C, A)))  # a clause whose left operand is one
def test_clausify_agrees_with_the_textbook_rules(f):
    assert pc.clausify(f) == _reference_clauses(f)


def test_an_input_that_is_not_literally_a_clause_enters_by_a_conjunct_step():
    source = Or(Not(Not(P)), R)
    inputs = [source, Not(P), Not(R)]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)
    steps = list(_every_step(res.steps))
    assert ("conjunct", (P, R), source) in steps
    assert ("input", source) not in steps
    assert ("input", Not(P)) in steps


def test_resolvent_finds_an_equal_opposite_built_apart():
    def q_e1():
        return Atom(Q, (App(FnSym("e1", 0)),))

    pivot, twin = q_e1(), q_e1()
    assert pivot is not twin and pivot == twin
    # the checker's table gives equal literals one code
    table: dict = {}
    assert checker.literal_codes(table, (pivot, twin, Not(q_e1()))) == (1, 1, 0)
    # a positive pivot removes the first negation of it
    last = Not(q_e1())
    assert _resolves_to(pivot, sx.disj([B, Not(twin), last]), [B, last])
    # a negative pivot removes the first occurrence of its body
    assert _resolves_to(Not(pivot), Or(twin, B), [B])
    # a literal of the pivot's own polarity is no opposite
    with pytest.raises(CheckError, match="opposite of the pivot is not in the clause"):
        _resolves_to(pivot, Or(twin, B), [])


def test_a_clause_of_five_thousand_literals_is_refuted_and_replays():
    atoms = [Atom(PredSym(f"w{i}", 0)) for i in range(5_000)]
    inputs = [sx.disj(atoms)] + [Not(a) for a in atoms]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)
    assert res.steps[0] == ("input", inputs[0])


# --- certificates: built only for refutations, checked by replay ----------

# needs a case split, congruence in both branches, and its first input is
# no clause, so that its clauses enter by "conjunct" steps
_SPLIT_INPUTS = [
    sx.fand(Or(sx.eq(E1, E2), sx.eq(E1, E3)), Atom(Q, (E1,))),
    Not(Atom(Q, (E2,))),
    Not(Atom(Q, (E3,))),
]


def _first(steps, kind, depth=0):
    """(branch, index, position) of the first step of a kind, depth first;
    a branch's positions start after its depth's split assumptions."""
    for k, step in enumerate(steps):
        if step[0] == kind:
            return steps, k, depth + k
        if step[0] == "split":
            for branch in step[2:]:
                got = _first(branch, kind, depth + k + 1)
                if got is not None:
                    return got
    return None


def _every_step(steps):
    for step in steps:
        yield step
        if step[0] == "split":
            yield from _every_step(step[2])
            yield from _every_step(step[3])


def test_every_corpus_refutation_makes_a_certificate_that_replays(corpus_scripts, monkeypatch):
    # check_script asks for no certificate; here each refuted segment's is
    # made and replayed, so the checker reads every eq_axiom and conjunct
    # step the emitter writes for the corpus
    real = pc.ground_refute
    replayed, kinds = [], collections.Counter()

    def certified(inputs, budget=pc.DEFAULT_BUDGET, want_cert=True):
        res = real(inputs, budget, want_cert=True)
        if isinstance(res, pc.Refutation):
            replayed.append(checker.replay(res, inputs))
            kinds.update(step[0] for step in _every_step(res.steps))
        return res

    monkeypatch.setattr(pc, "ground_refute", certified)
    report = stringarith.check_corpus(stringarith.load_theory(), corpus_scripts)
    assert len(report.entries) == 76 and all(e.ok for e in report.entries)
    # one segment for each claim and one for the goal
    segments = sum(
        1 + sum(isinstance(line, kscripts.ClaimBlock) for line in script.lines)
        for script in corpus_scripts
    )
    assert replayed == [True] * segments
    assert kinds["eq_axiom"] and kinds["conjunct"]


def test_certificate_steps_are_compact():
    res = pc.ground_refute(_SPLIT_INPUTS)
    assert isinstance(res, pc.Refutation) and checker.replay(res, _SPLIT_INPUTS)
    kinds = {step[0] for step in _every_step(res.steps)}
    assert kinds == {"input", "conjunct", "eq_axiom", "resolve", "split"}
    branch, k, _ = _first(res.steps, "conjunct")
    assert branch[k][1] == (Atom(Q, (E1,)),)  # a tuple of literals
    branch, k, pos = _first(res.steps, "resolve")
    _, i, j = branch[k]
    assert type(i) is int and type(j) is int and 0 <= i < pos and 0 <= j < pos


# name -> (kind of the step altered, the steps that replace it)
_MUTATIONS = {
    "input cites a non-input": ("input", lambda s, pos: [("input", Not(s[1]))]),
    "conjunct is not one": ("conjunct", lambda s, pos: [("conjunct", s[1][:-1], s[2])]),
    "conjunct of a non-input": (
        "conjunct",
        lambda s, pos: [("conjunct", s[1], Or(s[2], A))],
    ),
    "axiom is no instance": ("eq_axiom", lambda s, pos: [("eq_axiom", sx.eq(E1, E2))]),
    "premise points forward": ("resolve", lambda s, pos: [("resolve", s[1], pos)]),
    "premise points before 0": ("resolve", lambda s, pos: [("resolve", -1, s[2])]),
    "pivot is the clause itself": ("resolve", lambda s, pos: [("resolve", s[2], s[2])]),
    "split atom is open": (
        "split",
        lambda s, pos: [("split", Atom(Q, (Var("x"),)), s[2], s[3])],
    ),
    "split atom is no atom": (
        "split",
        lambda s, pos: [("split", Or(A, B), s[2], s[3])],
    ),
    "step after a split": ("split", lambda s, pos: [s, ("input", _SPLIT_INPUTS[1])]),
    "unknown kind": ("input", lambda s, pos: [("lemma", s[1])]),
    "malformed step": ("resolve", lambda s, pos: [("resolve", s[1])]),
}


@pytest.mark.parametrize("name", sorted(_MUTATIONS))
def test_replay_rejects_a_certificate_with_one_field_altered(name):
    kind, mutate = _MUTATIONS[name]
    res = pc.ground_refute(_SPLIT_INPUTS)
    branch, k, pos = _first(res.steps, kind)
    branch[k : k + 1] = mutate(branch[k], pos)
    with pytest.raises(CheckError):
        checker.replay(res, _SPLIT_INPUTS)


def test_replay_rejects_a_leaf_short_of_the_empty_clause():
    res = pc.ground_refute(_SPLIT_INPUTS)
    branch, _, _ = _first(res.steps, "input")
    assert branch[-1][0] == "resolve"
    branch.pop()
    with pytest.raises(CheckError):
        checker.replay(res, _SPLIT_INPUTS)


# name -> (steps, inputs): certificates that are no certificates, on each
# of which the node-walking reference checker fails by a TypeError or an
# IndexError
_MALFORMED = {
    "a step that is no tuple": ([5], [A]),
    "an empty step": ([()], [A]),
    "an unhashable kind": ([([1], A)], [A]),
    "an unhashable input": ([("input", [1])], [A]),
    "an eq_axiom of no formula": ([("eq_axiom", 3)], [A]),
    "a conjunct of an unhashable formula": ([("conjunct", (A,), [1])], [A]),
    "an unhashable conjunct": ([("conjunct", [A], sx.fand(A, B))], [sx.fand(A, B)]),
    "a split branch that is no list": ([("split", A, 5, [])], [A]),
    "no steps at all": (None, [A]),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED))
def test_replay_refuses_a_malformed_certificate_by_a_check_error(name):
    steps, inputs = _MALFORMED[name]
    with pytest.raises((TypeError, LookupError)):
        reference_replay(checker.Refutation(steps), inputs)
    with pytest.raises(CheckError):
        checker.replay(checker.Refutation(steps), inputs)


# A split whose branch is the very list that holds it: without the check,
# replay pushes it without end, so it is replayed in a process of its own
# under a memory limit and a timeout.
_SELF_HOLDING = """
import resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from proofkit import checker
from proofkit.errors import CheckError
from proofkit.syntax import Atom, Not, PredSym
a, c = (Atom(PredSym(name, 0)) for name in "ac")
holds_itself = []
holds_itself.append(("split", a, holds_itself, [("input", c)]))
try:
    checker.replay(checker.Refutation(holds_itself), [c, Not(c)])
except CheckError as e:
    print(e)
"""


def test_replay_refuses_a_branch_it_meets_twice():
    # a certificate is a tree: a split that holds itself is none, and one
    # branch shared by both sides of a split, though it refutes either way,
    # is no tree either
    src = Path(checker.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", _SELF_HOLDING],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert (done.returncode, done.stdout) == (0, "a certificate branch occurs in it twice\n")
    inputs = [C, Not(C)]
    shared = [("input", C), ("input", Not(C)), ("resolve", 1, 2)]
    with pytest.raises(CheckError, match="^a certificate branch occurs in it twice$"):
        checker.replay(checker.Refutation([("split", A, shared, shared)]), inputs)
    assert checker.replay(checker.Refutation([("split", A, shared, list(shared))]), inputs)


def _steps_copy(steps):
    return [
        (*s[:2], _steps_copy(s[2]), _steps_copy(s[3])) if s[0] == "split" else s
        for s in steps
    ]


def _branches(steps):
    """Every branch of a certificate, depth first."""
    yield steps
    for s in steps:
        if s[0] == "split":
            yield from _branches(s[2])
            yield from _branches(s[3])


def _verdict(check, cert, inputs):
    try:
        return check(cert, inputs)
    except CheckError as e:
        return str(e)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_replay_agrees_with_the_node_walking_reference(seed):
    # a random refutable problem, its first two inputs sometimes joined into
    # one conjunction so that conjunct steps occur, and its certificate with
    # one field of one step (or the whole step) replaced by another step's
    # field or a stray value: both checkers accept, or both refuse with one
    # message; where the reference fails otherwise, replay still refuses
    rng = random.Random(seed)
    while True:
        problem = random_ground_problem(rng, nesting=rng.choice((0, 0, 3)))
        if rng.random() < 0.3:
            problem = [sx.fand(problem[0], problem[1])] + problem[2:]
        res = pc.ground_refute(problem)
        if isinstance(res, pc.Refutation):
            break
    assert checker.replay(res, problem) and reference_replay(res, problem)
    steps = _steps_copy(res.steps)
    branch = rng.choice([b for b in _branches(steps) if b])
    k = rng.randrange(len(branch))
    # the fields come from a copy of their own, so that no branch comes to
    # hold itself
    fields = [x for b in _branches(_steps_copy(steps)) for s in b for x in (s, *s[1:])]
    stray = [None, 5, -1, 0, True, "resolve", (), [], [1], A, Not(A), Or(A, B), E1]
    stray += [Atom(Q, (Var("x"),)), sx.eq(E1, E1)]
    # the whole step (at -1), its kind (at 0), or, four times as often, a
    # field after the kind; an index field also moves by one
    step = branch[k]
    at = rng.choice([-1, 0] + 4 * list(range(1, len(step))))
    value = rng.choice(fields + stray)
    if at > 0 and type(step[at]) is int and rng.random() < 0.5:
        value = step[at] + rng.choice((-1, 1))
    branch[k] = value if at < 0 else (*step[:at], value, *step[at + 1 :])
    cert = checker.Refutation(steps)
    mine = _verdict(checker.replay, cert, problem)
    try:
        reference = _verdict(reference_replay, cert, problem)
    except (TypeError, LookupError):
        assert isinstance(mine, str)
    else:
        assert mine == reference


def test_replay_decides_closedness_once_per_atom(monkeypatch):
    # every clause over a, b and c: a refutation that splits and resolves,
    # with no eq_axiom step; the checker asks whether an atom is closed once
    letters = (A, B, C)
    inputs = [
        sx.disj([x if (n >> i) & 1 else Not(x) for i, x in enumerate(letters)])
        for n in range(8)
    ]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation)
    kinds = [s[0] for s in _every_step(res.steps)]
    assert "eq_axiom" not in kinds and kinds.count("resolve") > len(letters)
    asked = []
    for name in ("free_vars", "is_variable_free"):
        real = getattr(nodes, name)
        monkeypatch.setattr(nodes, name, lambda node, real=real: asked.append(node) or real(node))
    assert checker.replay(res, inputs)
    assert 0 < len(asked) <= len(letters)


def test_replay_recognizes_a_repeated_equality_axiom_instance_once(monkeypatch):
    # a split on a whose branches both close by one congruence instance,
    # built apart; the second branch's copy is accepted as the first's was,
    # and a different formula in its place is refused
    inputs = [sx.eq(E1, E2), Atom(Q, (E1,)), Not(Atom(Q, (E2,)))]

    def branch(conclusion):
        instance = sx.disj([Not(sx.eq(E1, E2)), Not(Atom(Q, (E1,))), conclusion])
        return [("eq_axiom", instance), ("input", inputs[0]), ("resolve", 2, 1),
                ("input", inputs[1]), ("resolve", 4, 3), ("input", inputs[2]),
                ("resolve", 6, 5)]

    recognized = []
    real = checker.is_equality_axiom_instance
    monkeypatch.setattr(
        checker, "is_equality_axiom_instance", lambda f, *a: recognized.append(f) or real(f, *a)
    )
    good = Atom(Q, (E2,))
    assert checker.replay(checker.Refutation([("split", A, branch(good), branch(good))]), inputs)
    assert len(recognized) == 1
    bad = checker.Refutation([("split", A, branch(good), branch(Atom(Q, (E3,))))])
    with pytest.raises(CheckError, match="^not an identity/equality axiom instance: "):
        checker.replay(bad, inputs)


def test_a_refutation_builds_each_equality_axiom_instance_once():
    # p or r, and either gives e1 = e2, which q(e1) and not q(e2) refute by
    # one congruence instance: both leaves of the split on p cite it, and
    # the refutation builds it once
    inputs = [Or(P, R), Atom(Q, (E1,)), Not(Atom(Q, (E2,)))]
    inputs += [Or(Not(P), sx.eq(E1, E2)), Or(Not(R), sx.eq(E1, E2))]
    res = pc.ground_refute(inputs)
    assert isinstance(res, pc.Refutation) and checker.replay(res, inputs)
    (split,) = res.steps
    instance = sx.disj([Not(sx.eq(E1, E2)), Not(Atom(Q, (E1,))), Atom(Q, (E2,))])
    cited = [[s[1] for s in b if s[0] == "eq_axiom"] for b in split[2:]]
    assert cited[0] == cited[1] == [instance] and cited[0][0] is cited[1][0]


def test_certificate_is_built_only_for_a_refutation(monkeypatch):
    built = []
    emit = pc._Emitter.emit

    def spy(self, step):
        built.append(step)
        return emit(self, step)

    monkeypatch.setattr(pc._Emitter, "emit", spy)
    # p is decided True first and meets a conflict (r and -r); the search
    # then saturates under -p
    sat = [Or(P, A), Or(Not(P), R), Or(Not(P), Not(R))]
    res = pc.ground_refute(sat)
    assert isinstance(res, pc.Saturated) and res.model.assignment[P] is False
    assert built == []
    refutable = _SPLIT_INPUTS
    res = pc.ground_refute(refutable, want_cert=False)
    assert isinstance(res, pc.Refutation) and built == []
    res = pc.ground_refute(refutable)
    assert isinstance(res, pc.Refutation)
    assert built == [s for s in _every_step(res.steps) if s[0] != "split"]
    assert checker.replay(res, refutable)
    kind, want = _reference_search(refutable)
    assert kind == "refuted" and _splits(res.steps) == want and want is not None


# --- recognizers ------------------------------------------------------------


def test_equality_axiom_instance_recognizer():
    f = FnSym("f1", 1)
    good = sx.fimp(sx.conj([sx.eq(E1, E2)]), sx.eq(App(f, (E1,)), App(f, (E2,))))
    assert checker.is_equality_axiom_instance(good)
    clause = sx.disj([Not(sx.eq(E1, E2)), sx.eq(App(f, (E1,)), App(f, (E2,)))])
    assert checker.is_equality_axiom_instance(clause)
    assert not checker.is_equality_axiom_instance(sx.eq(E1, E1))
    assert checker.is_identity_instance(sx.eq(E1, E1))
    sym = sx.fimp(
        sx.conj([sx.eq(E1, E2), sx.eq(E1, E1), sx.eq(E1, E1)]), sx.eq(E2, E1)
    )
    # the checker reads the clause spelling alone, into which kernel.core
    # respells a Hilbert line's conjunction of hypotheses
    assert not checker.is_equality_axiom_instance(sym)
    assert checker.is_equality_axiom_instance(core.clause_spelling(sym))


def test_recognizers_accept_equal_terms_built_apart_and_refuse_others():
    # every kind of axiom instance, its terms copies built separately: equal
    # ones are accepted, and a copy that differs at the bottom is refused
    f, q = FnSym("f1", 1), PredSym("q1", 1)
    a1, a2 = _iterate(f, E1, 40), _iterate(f, E1, 40)
    b1, b2 = _iterate(f, E2, 40), _iterate(f, E2, 40)
    c = _iterate(f, E3, 40)
    assert a1 is not a2 and a1 == a2
    assert checker.is_identity_instance(sx.eq(a1, a2))
    assert not checker.is_identity_instance(sx.eq(a1, b1))
    cong = lambda s, t: sx.disj([Not(sx.eq(a1, b1)), sx.eq(App(f, (s,)), App(f, (t,)))])
    assert checker.is_equality_axiom_instance(cong(a2, b2))
    assert not checker.is_equality_axiom_instance(cong(a2, c))
    # u = s, u = v, u = u -> s = v
    trans = lambda v: sx.disj(
        [Not(sx.eq(a1, b1)), Not(sx.eq(a2, v)), Not(sx.eq(a2, a1)), sx.eq(b2, b1)]
    )
    assert checker.is_equality_axiom_instance(trans(b2))
    assert not checker.is_equality_axiom_instance(trans(c))
    pred = lambda t: sx.disj([Not(sx.eq(a1, b1)), Not(Atom(q, (a2,))), Atom(q, (t,))])
    assert checker.is_equality_axiom_instance(pred(b2))
    assert not checker.is_equality_axiom_instance(pred(c))


def test_equality_axiom_instances_are_closed_by_their_atoms():
    # closedness is read off the atoms, nodes the refuter shares: a freshly
    # built instance adds nothing to the process-wide name cache
    f, x = FnSym("f1", 1), Var("x")
    hyp, concl = sx.eq(E1, E2), sx.eq(App(f, (E1,)), App(f, (E2,)))
    assert all(map(sx.is_variable_free, (hyp, concl)))
    before = sx.occurring_var_names.cache_info().currsize
    assert checker.is_equality_axiom_instance(sx.disj([Not(hyp), concl]))
    assert checker.is_equality_axiom_instance(sx.fimp(hyp, concl))
    assert sx.occurring_var_names.cache_info().currsize == before
    # an instance's shape over an open atom is none
    q = PredSym("q1", 1)
    for shaped in (
        sx.fimp(sx.eq(E1, x), sx.eq(App(f, (E1,)), App(f, (x,)))),
        sx.disj([Not(sx.eq(x, E2)), Not(Atom(q, (x,))), Atom(q, (E2,))]),
    ):
        assert not checker.is_equality_axiom_instance(shaped)


_F1, _Q1, _R1 = FnSym("f1", 1), PredSym("q1", 1), PredSym("r1", 1)

# name -> a closed formula that is no identity or equality axiom instance
_NOT_EQUALITY_AXIOMS = {
    # a hypothesis that is no negated atom: as_horn finds no reading
    "hypothesis not a negated atom": sx.disj([Atom(_Q1, (E1,)), sx.eq(E1, E1)]),
    # an equality conclusion needs equality hypotheses
    "equality from a non-equality": sx.fimp(Atom(_Q1, (E1,)), sx.eq(E1, E2)),
    # a predicate conclusion needs one hypothesis per argument and a premise
    "predicate, premise missing": sx.fimp(sx.eq(E1, E2), Atom(_Q1, (E2,))),
    # q(e1) -> q(e2) wants e1 = e2: taken, it would refute {q(e1), -q(e2)}
    "predicate, argument hypothesis missing": sx.fimp(Atom(_Q1, (E1,)), Atom(_Q1, (E2,))),
    "nullary predicate": sx.fimp(sx.eq(E1, E2), A),
    "premise of another predicate": sx.disj(
        [Not(sx.eq(E1, E2)), Not(Atom(_R1, (E1,))), Atom(_Q1, (E2,))]
    ),
    "argument hypothesis no equality": sx.disj(
        [Not(Atom(_R1, (E1,))), Not(Atom(_Q1, (E1,))), Atom(_Q1, (E2,))]
    ),
}


def _closed_by_its_axiom(f):
    """A certificate that takes f as an eq_axiom step and resolves its
    clause against the negation of each literal, given as inputs."""
    negations = [lit.body if isinstance(lit, Not) else Not(lit) for lit in sx.disjuncts(f)]
    steps = [("eq_axiom", f)] + [("input", n) for n in negations]
    for k in range(len(negations)):
        steps.append(("resolve", k + 1, len(steps) - 1 if k else 0))
    return checker.Refutation(steps), negations


@pytest.mark.parametrize("name", sorted(_NOT_EQUALITY_AXIOMS))
def test_replay_refuses_an_eq_axiom_step_that_is_no_instance(name):
    f = _NOT_EQUALITY_AXIOMS[name]
    assert sx.is_variable_free(f)
    assert not checker.is_identity_instance(f) and not checker.is_equality_axiom_instance(f)
    if name == "hypothesis not a negated atom":
        assert checker.as_horn(f) is None
    # only the recognizer stands in the way: an instance closes the same way
    instance = sx.fimp(sx.eq(E1, E2), sx.eq(App(_F1, (E1,)), App(_F1, (E2,))))
    assert checker.replay(*_closed_by_its_axiom(instance))
    with pytest.raises(CheckError, match="^not an identity/equality axiom instance: "):
        checker.replay(*_closed_by_its_axiom(f))


def test_replay_refuses_the_conjunction_spelling_that_kernel_core_classifies():
    # h1 & h2 -> c is no eq_axiom step, though a Hilbert proof line so
    # spelled is an equality formula: its clause spelling is the step
    f = sx.fimp(sx.conj([sx.eq(E1, E2), Atom(_Q1, (E1,))]), Atom(_Q1, (E2,)))
    assert checker.as_horn(f) is None
    with pytest.raises(CheckError, match="^not an identity/equality axiom instance: "):
        checker.replay(*_closed_by_its_axiom(f))
    assert checker.replay(*_closed_by_its_axiom(core.clause_spelling(f)))
    theory = core.Theory("t", (), FnSym("e1", 0))
    assert core.classify_delta(theory, f).kind == "equality"


# Formulas in clause form and in conjunction form, with hypotheses and
# conclusions that are sometimes no atom, and any formula over a few atoms.
_HORN_ATOMS = st.sampled_from([A, B, sx.eq(E1, E2), Atom(_Q1, (E1,))])
_HORN_ANY = st.recursive(
    _HORN_ATOMS,
    lambda sub: st.one_of(sub.map(Not), st.tuples(sub, sub).map(lambda p: Or(*p))),
    max_leaves=6,
)
_HORN_PART = st.one_of(_HORN_ATOMS, _HORN_ANY)
_HORN_SHAPES = st.one_of(
    st.builds(
        lambda hyps, concl: sx.disj(hyps + [concl]),
        st.lists(st.one_of(_HORN_ATOMS.map(Not), _HORN_PART), min_size=1, max_size=4),
        _HORN_PART,
    ),
    st.builds(
        lambda hyps, concl: Or(sx.disj([Not(h) for h in hyps]), concl),
        st.lists(_HORN_ATOMS, min_size=1, max_size=3),
        _HORN_PART,
    ),
    st.builds(
        lambda hyps, concl: sx.fimp(sx.conj(hyps), concl),
        st.lists(_HORN_PART, min_size=1, max_size=4),
        _HORN_PART,
    ),
    _HORN_ANY,
)


@given(_HORN_SHAPES)
@example(sx.disj([Not(A), Not(B), C]))
@example(sx.fimp(sx.conj([A, B]), C))
@example(sx.fimp(A, C))
@settings(max_examples=400, deadline=None)
def test_as_horn_reads_clause_form_first_as_the_reference_reads_it(f):
    # the checker reads the clause form alone; respelled into it by
    # kernel.core, a line reads as the reference read either spelling
    assert checker.as_horn(core.clause_spelling(f)) == reference_as_horn(f)


def test_replay_reads_a_negated_disjunction_as_its_negated_disjuncts():
    source = Not(Or(A, B))
    inputs = [source, A]
    good = [("conjunct", (Not(A),), source), ("input", A), ("resolve", 1, 0)]
    assert checker.replay(checker.Refutation(good), inputs)
    for clause in ((A,), (Not(A), Not(B)), (Not(C),)):
        bad = [("conjunct", clause, source)] + good[1:]
        with pytest.raises(CheckError, match="^claimed conjunct is not one$"):
            checker.replay(checker.Refutation(bad), inputs)


def test_replay_refuses_a_list_claimed_as_a_conjunct():
    # a clause is a tuple: a list of literals is no clause of any input,
    # though it would code as one, and taken it would refute {q(e1)}
    q_e1 = Atom(_Q1, (E1,))
    claim = ("conjunct", [Not(q_e1)], q_e1)
    for steps in ([claim], [("input", q_e1), claim, ("resolve", 0, 1)]):
        with pytest.raises(CheckError, match="^claimed conjunct is not one$"):
            checker.replay(checker.Refutation(steps), [q_e1])


def test_replay_reads_a_conjunctive_form_of_at_most_ten_thousand_clauses():
    def product(m, n):
        """(p0 & ... & pm-1) v (q0 & ... & qn-1), of m * n clauses."""
        ps = [Atom(PredSym(f"p{i}", 0)) for i in range(m)]
        qs = [Atom(PredSym(f"q{i}", 0)) for i in range(n)]
        return Or(sx.conj(ps), sx.conj(qs)), (ps[0], qs[0])

    for (m, n), message in (
        ((101, 101), "^conjunctive form too large to check$"),
        ((73, 137), "^conjunctive form too large to check$"),  # one past the limit
        # at the limit the form is read, and the claim is found in it
        ((100, 100), "^certificate branch reaches no contradiction$"),
    ):
        f, clause = product(m, n)
        with pytest.raises(CheckError, match=message):
            checker.replay(checker.Refutation([("conjunct", clause, f)]), [f])
