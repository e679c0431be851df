import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_variant, random_qf_formula, truth_table_consequence, unfreeze
from proofkit import normform as nf
from proofkit import syntax as sx
from proofkit.errors import CheckError, SizeGuardExceeded
from proofkit.meta.proofs import prenex_prefix
from proofkit.syntax import App, Atom, Exists, Not, Or, PredSym, Var, EPS

Q = PredSym("q", 1)
P = PredSym("p0", 0)
R2 = PredSym("p", 2)


def qx(v="x"):
    return Atom(Q, (Var(v),))


def taut_equiv(a, b):
    return truth_table_consequence(sx.fiff(a, b))


# --- negation form ----------------------------------------------------------


def test_negation_form_table():
    assert nf.to_negation_form(Not(Exists("x", qx()))) == sx.fall("x", Not(qx()))
    assert nf.to_negation_form(Not(Not(Atom(P)))) == Atom(P)
    assert nf.to_negation_form(Not(Or(Atom(P), qx()))) == sx.fand(
        Not(Atom(P)), Not(qx())
    )
    assert nf.to_negation_form(Not(sx.fand(Atom(P), qx()))) == Or(
        Not(Atom(P)), Not(qx())
    )
    assert nf.to_negation_form(Not(sx.fall("x", qx()))) == Exists("x", Not(qx()))


def _proper_negs_before_atoms(f):
    def walk(g):
        pair = sx.as_all(g)
        if pair:
            return walk(pair[1])
        pair = sx.as_and(g)
        if pair:
            return walk(pair[0]) and walk(pair[1])
        if isinstance(g, Atom):
            return True
        if isinstance(g, Not):
            return isinstance(g.body, Atom)
        if isinstance(g, Or):
            return walk(g.left) and walk(g.right)
        if isinstance(g, Exists):
            return walk(g.body)
        return False

    return walk(f)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_negation_form_equivalent_and_proper(seed):
    rng = random.Random(seed)
    f = random_qf_formula(rng, max_atoms=6, depth=4)
    g = nf.to_negation_form(f)
    assert _proper_negs_before_atoms(g)
    assert taut_equiv(f, g)


# --- prenex form ------------------------------------------------------------


def test_prenex_examples():
    f = Or(Atom(P), Exists("x", qx()))
    assert nf.to_prenex(f) == Exists("x", Or(Atom(P), qx()))
    g = sx.fand(sx.fall("x", qx()), Atom(P))
    assert nf.to_prenex(g) == sx.fall("x", sx.fand(qx(), Atom(P)))
    open_f = Or(Atom(P), Not(Atom(P)))
    assert nf.to_prenex(open_f) == open_f


def test_prenex_open_matrix_and_free_variables():
    f = Or(Exists("x", Atom(R2, (Var("x"), Var("y")))), Not(Exists("z", qx("z"))))
    p = nf.to_prenex(f)
    prefix, matrix = prenex_prefix(p)
    assert prefix and sx.is_open(matrix)
    assert sx.free_vars(p) == sx.free_vars(f)


def test_prenex_left_quantifier_pulled_first():
    f = Or(Exists("x", qx()), Exists("y", qx("y")))
    p = nf.to_prenex(f)
    prefix, _ = prenex_prefix(p)
    assert [k for k, _ in prefix] == ["E", "E"]
    assert [v for _, v in prefix] == ["x", "y"]


# --- conjunctive and normal form ---------------------------------------------


def test_conjunctive_examples():
    p, q, s = Atom(P), Atom(PredSym("q0", 0)), Atom(PredSym("s0p", 0))
    f = Or(p, sx.fand(q, s))
    out = nf.to_conjunctive(f)
    assert out == sx.fand(Or(p, q), Or(p, s))
    lits = sx.conj([p, Not(q), s])
    assert nf.to_conjunctive(lits) == lits


def test_conjunctive_guard_triggers_on_parity_blowup():
    xs = [Atom(PredSym(f"x{i}", 0)) for i in range(15)]  # 16,384 clauses
    f = xs[0]
    for x in xs[1:]:
        f = Or(sx.fand(f, Not(x)), sx.fand(Not(f), x))  # xor chain
    with pytest.raises(SizeGuardExceeded):
        nf.to_conjunctive(f)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 100_000))
def test_conjunctive_truth_table_equivalent(seed):
    rng = random.Random(seed)
    f = random_qf_formula(rng, max_atoms=8, depth=4)
    try:
        g = nf.to_conjunctive(f)
    except SizeGuardExceeded:
        return
    assert taut_equiv(f, g)


def test_normal_form_requires_closed():
    with pytest.raises(CheckError):
        nf.to_normal_form(qx())
    f = Not(Exists("x", Or(qx(), Atom(P))))
    out = nf.to_normal_form(f)
    prefix, matrix = prenex_prefix(out)
    assert prefix == [("A", "x")]
    assert sx.is_open(matrix)


# --- freezing ----------------------------------------------------------------


def test_freeze_unary_example():
    f = sx.eq(Var("x"), Var("x"))
    res = nf.freeze(f)
    (xname, r), = res.witnesses
    assert xname == "x"
    assert r.subscript == Exists("x", Not(sx.eq(Var("x"), Var("x"))))
    assert res.frozen == sx.eq(r, r)
    assert not sx.free_vars(res.frozen)


def test_freeze_closed_identity():
    f = sx.eq(App(EPS), App(EPS))
    res = nf.freeze(f)
    assert res.frozen == f and res.witnesses == ()


def test_freeze_two_variables_nested_levels():
    f = Atom(R2, (Var("x"), Var("y")))
    res = nf.freeze(f)
    (x, rx), (y, ry) = res.witnesses
    assert sx.const_level(rx) == 1
    assert sx.const_level(ry) == 2
    assert rx in sx.appearing_constants(ry.subscript)
    assert not sx.free_vars(res.frozen)


def test_unfreeze_gives_variant_of_matrix():
    f = Or(qx(), Exists("z", Atom(R2, (Var("z"), Var("y")))))
    res = nf.freeze(f)
    back = unfreeze(res)
    assert is_variant(back, f)


def _freeze_with_capture_checks(f):
    """freeze as a chain of substitutions that each make the capture check."""
    cur, witnesses = sx.closure(f), []
    for x in sx.free_vars(f):
        _, body = sx.as_all(cur)
        r = sx.special_constant(Exists(x, Not(body)))
        witnesses.append((x, r))
        cur = sx.subst(body, {x: r}, check=True)
    return cur, tuple(witnesses)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_freeze_equals_freezing_with_capture_checks(data):
    f = data.draw(_quantified_formulas())
    got = nf.freeze(f)
    frozen, witnesses = _freeze_with_capture_checks(f)
    assert (got.frozen, got.witnesses) == (frozen, witnesses)


# --- special cases -----------------------------------------------------------


def test_special_case_examples():
    f = sx.fall("x", Exists("y", Atom(R2, (Var("x"), Var("y")))))
    d = nf.SpecialCaseDirective((("term", App(EPS)), ("witness", "w")))
    out = nf.special_case(f, d)
    r = sx.special_constant(Exists("y", Atom(R2, (App(EPS), Var("y")))))
    assert out == Atom(R2, (App(EPS), r))
    assert nf.special_case(f, nf.SpecialCaseDirective(())) == f


def test_special_case_conjuncts():
    p, q, s = Atom(P), Atom(PredSym("q0", 0)), Atom(PredSym("s0p", 0))
    f = sx.fand(Or(p, q), s)
    assert sx.conjuncts(f) == [Or(p, q), s]


def test_special_case_errors():
    f = sx.fall("x", qx())
    with pytest.raises(CheckError):
        nf.special_case(
            f, nf.SpecialCaseDirective((("term", App(EPS)), ("term", App(EPS))))
        )
    with pytest.raises(CheckError):
        nf.special_case(f, nf.SpecialCaseDirective((("witness", "w"),)))
    with pytest.raises(CheckError):
        nf.special_case(
            Exists("x", qx()), nf.SpecialCaseDirective((("term", App(EPS)),))
        )
    with pytest.raises(CheckError):
        nf.special_case(
            f, nf.SpecialCaseDirective((("term", Var("v")),))
        )


def test_special_case_reads_a_conjunction_as_a_connective():
    # an existential conjunct is an existential: some y differs from eps
    e = App(EPS)
    ex = Exists("y", Not(sx.eq(Var("y"), e)))
    f = sx.fand(ex, sx.fall("x", qx()))
    assert nf.leftmost_quantifier(f) == ("E", (0, 0, 0))
    d = nf.SpecialCaseDirective((("witness", "w"), ("term", e)))
    w = sx.special_constant(ex)
    assert nf.special_case(f, d) == sx.fand(Not(sx.eq(w, e)), Atom(Q, (e,)))
    for steps, message in (
        ((("term", e),), r"term argument at existential position \(step 1\)"),
        ((("witness", "w"), ("witness", "v")), r"witness name at universal position \(step 2\)"),
        (d.steps + (("term", e),), r"directive longer than quantifier prefix \(step 3\)"),
    ):
        with pytest.raises(CheckError, match=f"^{message}$"):
            nf.special_case(f, nf.SpecialCaseDirective(steps))


def test_special_case_binds_each_variable_in_its_own_scope():
    # forall x [forall x q(x) & p(x, x)]: the inner x takes the second term,
    # and the right conjunct still reads the outer one
    e, s0e = App(EPS), App(sx.S0, (App(EPS),))
    f = sx.fall("x", sx.fand(sx.fall("x", qx()), Atom(R2, (Var("x"), Var("x")))))
    d = nf.SpecialCaseDirective((("term", e), ("term", s0e)))
    assert nf.special_case(f, d) == sx.fand(Atom(Q, (s0e,)), Atom(R2, (e, e)))


def _one_quantifier_at_a_time(f, steps):
    """special_case's reference: find the leftmost quantifier from the root
    and replace it, once per step."""
    cur = f
    for k, (kind, payload) in enumerate(steps, 1):
        loc = nf.leftmost_quantifier(cur)
        if loc is None:
            raise CheckError(f"directive longer than quantifier prefix (step {k})")
        qkind, path = loc
        node = sx.node_at(cur, path)
        if kind == "term":
            if qkind != "A":
                raise CheckError(f"term argument at existential position (step {k})")
            e = node.body
            body = e.body.body if isinstance(e.body, Not) else Not(e.body)
            repl = sx.subst(body, {e.var: payload})
        else:
            if qkind != "E":
                raise CheckError(f"witness name at universal position (step {k})")
            repl = sx.subst(node.body, {node.var: sx.special_constant(node)})
        cur = sx.replace_at(cur, path, repl)
    return cur


def _quantified_formulas():
    names = st.sampled_from(["x", "y", "z"])
    term = st.one_of(names.map(Var), st.just(App(EPS)))
    atoms = st.one_of(
        term.map(lambda t: Atom(Q, (t,))),
        st.tuples(term, term).map(lambda p: Atom(R2, p)),
    )
    return st.recursive(
        atoms,
        lambda c: st.one_of(
            c.map(Not),
            st.tuples(c, c).map(lambda p: Or(*p)),
            st.tuples(c, c).map(lambda p: sx.fand(*p)),
            st.tuples(names, c).map(lambda p: Exists(*p)),
            st.tuples(names, c).map(lambda p: sx.fall(*p)),
        ),
        max_leaves=7,
    )


_directive_steps = st.lists(
    st.one_of(
        st.sampled_from([App(EPS), App(sx.S0, (App(EPS),))]).map(lambda t: ("term", t)),
        st.sampled_from(["w1", "w2", "w3"]).map(lambda w: ("witness", w)),
    ),
    max_size=5,
).map(tuple)


@settings(max_examples=300, deadline=None)
@given(_quantified_formulas(), _directive_steps)
def test_special_case_is_one_quantifier_at_a_time(f, steps):
    base = nf.to_negation_form(sx.closure(f))
    try:
        want = _one_quantifier_at_a_time(base, steps)
    except CheckError as e:
        with pytest.raises(CheckError, match=f"^{re.escape(str(e))}$"):
            nf.special_case(base, nf.SpecialCaseDirective(steps))
    else:
        assert nf.special_case(base, nf.SpecialCaseDirective(steps)) == want


def test_special_case_closed_when_directive_exhausts_prefix():
    f = sx.fall("x", Exists("y", Atom(R2, (Var("x"), Var("y")))))
    d = nf.SpecialCaseDirective((("term", App(EPS)), ("witness", "w")))
    assert not sx.free_vars(nf.special_case(f, d))
