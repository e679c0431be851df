import dataclasses
import time

import pytest
from hypothesis import given, settings, strategies as st

from conftest import is_adjusted, is_variant, replace_subformula
from proofkit import syntax as sx
from proofkit.errors import ArityError, CaptureError, ParseError
from proofkit.meta.proofs import special_axiom
from proofkit.syntax import (
    App,
    Atom,
    Exists,
    FnSym,
    Language,
    Not,
    Or,
    PredSym,
    SpecialConst,
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


def parse(text, kind="formula"):
    return sx.parse(text, kind, ST)


# --- strategies -----------------------------------------------------------

names = st.sampled_from(["x", "y", "z", "w"])


def terms(depth=3):
    base = st.one_of(names.map(Var), st.just(App(EPS)))
    return st.recursive(
        base,
        lambda c: st.one_of(
            c.map(lambda t: App(S0, (t,))),
            c.map(lambda t: App(PD, (t,))),
            st.tuples(c, c).map(lambda p: App(CAT, p)),
        ),
        max_leaves=6,
    )


def formulas():
    atoms = st.one_of(
        st.tuples(terms(), terms()).map(lambda p: sx.eq(*p)),
        terms().map(lambda t: Atom(Q, (t,))),
    )
    return st.recursive(
        atoms,
        lambda c: st.one_of(
            c.map(Not),
            st.tuples(c, c).map(lambda p: Or(*p)),
            st.tuples(names, c).map(lambda p: Exists(*p)),
        ),
        max_leaves=8,
    )


# --- parsing and printing -------------------------------------------------


def test_parse_desugars_imp():
    f = parse("(imp (q x) (q y))")
    assert f == Or(Not(Atom(Q, (Var("x"),))), Atom(Q, (Var("y"),)))


def test_parse_desugars_iff():
    qx, qy = Atom(Q, (Var("x"),)), Atom(Q, (Var("y"),))
    assert parse("(iff (q x) (q y))") == sx.fiff(qx, qy)
    with pytest.raises(ParseError, match="iff expects 2 arguments, got 1"):
        parse("(iff (q x))")


def test_parse_bounded_quantifier_expansion():
    leq = PredSym("leq", 2)
    st2 = SymbolTable(LANG.extend(predicates=[leq]), order=leq)
    f = sx.parse("(exists<= x b (q x))", "formula", st2)
    # exists x not [ not leq(x,b) v not q(x) ]
    assert f == Exists(
        "x", sx.fand(Atom(leq, (Var("x"), Var("b"))), Atom(Q, (Var("x"),)))
    )
    with pytest.raises(ParseError):
        sx.parse("(exists<= x (s0 x) (q x))", "formula", st2)
    # forall x [leq(x, b) -> q(x)], that is, not exists x not [...]
    g = sx.parse("(forall<= x b (q x))", "formula", st2)
    assert g == sx.fall("x", sx.fimp(Atom(leq, (Var("x"), Var("b"))), Atom(Q, (Var("x"),))))
    with pytest.raises(ParseError, match="no order symbol registered"):
        parse("(forall<= x b (q x))")


def test_parse_eq_atom_is_closed_and_plain():
    f = parse("(= eps eps)")
    assert not sx.free_vars(f) and sx.is_plain(f) and sx.is_open(f)


def test_parse_errors_have_locations():
    with pytest.raises(ParseError) as e:
        parse("(q x y)")
    assert "expects" in str(e.value)
    with pytest.raises(ParseError):
        parse("(unknownop x)")


@pytest.mark.parametrize("text, message, line, col", [
    ("(= eps\n   (s0 eps))\n  )", "trailing input ')'", 3, 3),
    ("(or (q eps)\n\t(= (s0 eps)\n      (foo eps)))", "unknown function symbol 'foo'", 3, 8),
    ("\n\n  (= eps", "unclosed parenthesis", 3, 3),
    ("(q eps)\n\n(q", "trailing input '('", 3, 1),
], ids=["trailing", "unknown-symbol", "unclosed", "blank-line"])
def test_parse_error_line_and_column_on_multi_line_input(text, message, line, col):
    with pytest.raises(ParseError) as e:
        parse(text)
    assert (str(e.value), e.value.line, e.value.col) == (f"{message} at {line}:{col}", line, col)


# bare names, 0-ary symbols, predicate names as terms, bad identifiers and
# wrong arities: the node read, or the error with its message and position
READ = [
    ("x", "term", Var("x")),
    ("  x  ", "term", Var("x")),
    ("x'", "term", Var("x'")),
    ("eps", "term", App(EPS)),
    ("(eps)", "term", App(EPS)),
    ("s0", "term", (ParseError, "s0 expects 1 arguments, got 0", 1, 1)),
    ("q", "term", (ParseError, "q is a predicate symbol, not a term", 1, 1)),
    ("\n  p", "term", (ParseError, "p is a predicate symbol, not a term", 2, 3)),
    ("X", "term", (ParseError, "bad identifier 'X'", 1, 1)),
    ("1x", "term", (ParseError, "bad identifier '1x'", 1, 1)),
    ("x.y", "term", (ParseError, "bad identifier 'x.y'", 1, 1)),
    ("(s0)", "term", (ParseError, "s0 expects 1 arguments, got 0", 1, 1)),
    ("(cat eps)", "term", (ParseError, "cat expects 2 arguments, got 1", 1, 1)),
    ("(s0 eps eps)", "term", (ParseError, "s0 expects 1 arguments, got 2", 1, 1)),
    ("(s0\n  (cat x))", "term", (ParseError, "cat expects 2 arguments, got 1", 2, 3)),
    ("(foo eps)", "term", (ParseError, "unknown function symbol 'foo'", 1, 2)),
    ("()", "term", (ParseError, "empty term", 1, 1)),
    ("((s0) eps)", "term", (ParseError, "term must start with a symbol", 1, 2)),
    ("   ", "term", (ParseError, "unexpected end of input", None, None)),
    (")", "term", (ParseError, "unbalanced ')'", 1, 1)),
    ("x y", "term", (ParseError, "trailing input 'y'", 1, 3)),
    ("(s0 x", "term", (ParseError, "unclosed parenthesis", 1, 1)),
    ("q", "formula", (ParseError, "q expects 1 arguments, got 0", 1, 1)),
    ("(q x y)", "formula", (ParseError, "q expects 1 arguments, got 2", 1, 1)),
    ("(p x)", "formula", (ParseError, "p expects 2 arguments, got 1", 1, 1)),
    ("x", "formula", (ParseError, "expected a formula, got 'x'", 1, 1)),
    ("(exists X (q x))", "formula", (ParseError, "quantifier expects a variable", 1, 1)),
    ("(q X)", "formula", (ParseError, "bad identifier 'X'", 1, 4)),
    ("(r x)", "formula", (ParseError, "unknown predicate or operator 'r'", 1, 2)),
    ("((q x))", "formula", (ParseError, "formula must start with an operator", 1, 2)),
    ("(forall x\n\t(q (s0)))", "formula", (ParseError, "s0 expects 1 arguments, got 0", 2, 5)),
    ("(q x)", "nope", (ParseError, "unknown parse kind 'nope'", None, None)),
    ("(q s0)", "formula", (ParseError, "s0 expects 1 arguments, got 0", 1, 4)),
]


@pytest.mark.parametrize("text, kind, want", READ)
def test_read_table(text, kind, want):
    if not isinstance(want, tuple):
        assert sx.parse(text, kind, ST) == want
        return
    error, message, line, col = want
    with pytest.raises(error) as e:
        sx.parse(text, kind, ST)
    assert str(e.value) == message + ("" if line is None else f" at {line}:{col}")
    if error is ParseError:
        assert (e.value.line, e.value.col) == (line, col)


def test_tokens_of_one_long_line_cost_linear_time():
    # each token once: 80,000 tokens on one line take no longer than the same
    # tokens one per line, up to noise (a rescan to the line's start per
    # token made the one line about five times slower)
    def best(text):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            sx._Reader(text)
            times.append(time.perf_counter() - start)
        return min(times)

    tokens = ["abcdefgh"] * 80_000
    assert best(" ".join(tokens)) < 2 * best("\n".join(tokens))


@settings(max_examples=300, deadline=None)
@given(formulas())
def test_render_parse_round_trip(f):
    assert parse(sx.render(f)) == f


@settings(max_examples=100, deadline=None)
@given(st.lists(formulas(), min_size=1, max_size=4))
def test_concatenation_unique_readability(fs):
    """A concatenation of rendered formulas decomposes back into exactly the
    same list, reading greedily one formula at a time."""
    text = " ".join(sx.render(f) for f in fs)
    reader = sx._Reader(text)
    out = []
    while reader.peek() is not None:
        out.append(sx._parse_formula(reader.read_sexpr(), ST, {}))
    assert out == fs


def test_infix_precedence_examples():
    # not-exists binds tightly; disjunctions of negations display as
    # implications (identical trees under the abbreviations)
    f = parse("(imp (not (exists x (q x))) (or (not (q y)) (q z)))")
    assert sx.render(f, "infix-pretty") == "-[exists x q(x)] -> q(y) -> q(z)"
    g = parse("(or (q x) (q y))")
    assert sx.render(g, "infix-pretty") == "q(x) v q(y)"
    h = parse("(and (or (q x) (q y)) (q z))")
    assert sx.render(h, "infix-pretty") == "[q(x) v q(y)] & q(z)"
    # forall binds tightly; <-> associates to the right, looser than ->
    a = parse("(forall x (iff (q x) (forall y (q y))))")
    assert sx.render(a, "infix-pretty") == "forall x [q(x) <-> forall y q(y)]"
    b = parse("(iff (iff (q x) (q y)) (imp (q z) (q w)))")
    assert sx.render(b, "infix-pretty") == "[q(x) <-> q(y)] <-> q(z) -> q(w)"
    assert sx.render(parse("(not (forall x (q x)))"), "infix-pretty") == "-[forall x q(x)]"


def test_infix_names_constants_by_first_appearance_within_one_output():
    a = sx.special_constant(parse("(exists x (q x))"))
    b = sx.special_constant(parse("(exists x (not (q x)))"))
    f = Or(Atom(P2, (b, a)), Atom(Q, (b,)))
    assert sx.render(f, "infix-pretty") == "p(c1, c2) v q(c1)"
    # a name the caller gives is used, and never handed out again
    names = {a: "c1"}
    assert sx.render(f, "infix-pretty", names) == "p(c2, c1) v q(c2)"
    # one dict through several calls names each constant once
    assert names == {a: "c1", b: "c2"}
    assert sx.render(Atom(Q, (b,)), "infix-pretty", names) == "q(c2)"
    # nothing outlives a call: a fresh output numbers from c1 again
    assert sx.render(Atom(Q, (a,)), "infix-pretty") == "q(c1)"
    # prefix form writes the subscript and takes no name
    assert sx.render(Atom(Q, (a,)), "prefix-canonical", {a: "w"}) == "(q (sc (exists x (q x))))"


# --- substitution ---------------------------------------------------------


def test_substitute_capture_error_names_the_binder():
    f = parse("(exists x (not (= x y)))")
    with pytest.raises(CaptureError) as e:
        sx.subst(f, {"y": Var("x")})
    assert e.value.variable == "y" and e.value.binder == "x"


def test_substitute_examples():
    assert sx.subst(parse("(= x x)"), {"x": App(EPS)}) == parse("(= eps eps)")
    f = parse("(q x)")
    assert sx.subst(f, {}) == f


@settings(max_examples=150, deadline=None)
@given(formulas(), terms())
def test_variable_free_terms_always_substitutable(f, t):
    if sx.is_variable_free(t):
        for x in sx.free_vars(f):
            assert sx.substitutable(t, x, f) is None


def test_simultaneous_substitution():
    f = parse("(p x y)")
    out = sx.subst(f, {"x": Var("y"), "y": Var("x")})
    assert out == parse("(p y x)")


# --- closure, variants ----------------------------------------------------


def test_closure_order_of_first_free_occurrence():
    f = parse("(imp (= (cat x y) eps) (= y x))")
    assert sx.free_vars(f) == ("x", "y")
    c = sx.closure(f)
    assert sx.as_all(c)[0] == "x"
    assert not sx.free_vars(c)
    assert sx.closure(c) == c


def test_adjusted_variant():
    f = parse("(or (exists x (q x)) (exists x (= x y)))")
    v = sx.make_adjusted_variant(f, avoid={"x"})
    assert is_adjusted(v)
    assert "x" not in sx.all_var_names(v)
    assert is_variant(f, v)
    g = parse("(q x)")
    assert sx.make_adjusted_variant(g) == g


@settings(max_examples=150, deadline=None)
@given(formulas())
def test_variant_symmetry(f):
    v = sx.make_adjusted_variant(f, avoid={"x"})
    assert is_variant(f, v) and is_variant(v, f)


# --- special constants ----------------------------------------------------


def test_special_constant_canonical_and_levels():
    q9 = PredSym("q9", 1)
    e = Exists("x", Atom(q9, (Var("x"),)))
    r = sx.special_constant(e)
    assert sx.special_constant(e) is r
    assert sx.const_level(r) == 1 and sx.const_rank(r) == 1
    e2 = Exists("y", sx.eq(Var("y"), r))
    r2 = sx.special_constant(e2)
    assert sx.const_level(r2) == 2
    assert sx.const_level(r2) > sx.const_level(r)
    assert sx.render(special_axiom(r), "infix-pretty") == "exists x q9(x) -> q9(c1)"
    assert sx.render(special_axiom(r), "infix-pretty", {r: "r"}) == "exists x q9(x) -> q9(r)"


def test_replace_const_rewrites_inside_subscripts():
    pin = PredSym("pin_rc", 2)
    c = sx.special_constant(Exists("x", Atom(pin, (Var("x"), Var("x")))))
    d = sx.special_constant(Exists("y", Atom(pin, (Var("y"), c))))
    out = sx.replace_const(Atom(Q, (d,)), c, App(EPS))
    (inner,) = out.args
    assert inner == sx.special_constant(Exists("y", Atom(pin, (Var("y"), App(EPS)))))
    # nothing to replace: the constant itself is kept
    other = sx.special_constant(Exists("z", Atom(pin, (Var("z"), App(EPS)))))
    assert sx.replace_const(Atom(Q, (d,)), other, App(EPS)).args[0] is d


def test_map_atoms_leaves_subscripts_alone():
    pin, swap = PredSym("pin_ma", 1), PredSym("pin_ma2", 1)
    c = sx.special_constant(Exists("x", Atom(pin, (Var("x"),))))
    f = Or(Atom(pin, (c,)), Not(Atom(Q, (c,))))
    out = sx.map_atoms(f, lambda a: Atom(swap, a.args) if a.pred == pin else a)
    assert out == Or(Atom(swap, (c,)), Not(Atom(Q, (c,))))
    assert out.left.args[0].subscript == Exists("x", Atom(pin, (Var("x"),)))
    assert out.left.args[0] is c


def test_special_constant_requires_closed_instantiation():
    with pytest.raises(ArityError):
        sx.special_constant(parse("(exists x (= x y))"))
    with pytest.raises(ArityError):
        sx.special_constant(parse("(q eps)"))


def test_appears_in_through_subscripts():
    e = parse("(exists x (q x))")
    r = sx.special_constant(e)
    f = Atom(Q, (r,))
    assert "x" not in sx.occurring_var_names(f)
    assert "x" in sx.all_var_names(f)


def test_rank_examples():
    two = parse("(exists x (exists y (p x y)))")
    assert sx.nested_rank(two) == 2 and sx.unnested_rank(two) == 2
    split = parse("(or (exists x (q x)) (exists y (q y)))")
    assert sx.nested_rank(split) == 1 and sx.unnested_rank(split) == 2


def test_sc_term_round_trip():
    e = parse("(exists x (q x))")
    r = sx.special_constant(e)
    t = App(CAT, (r, App(EPS)))
    assert sx.parse(sx.render(t), "term", ST) == t


# --- stored hashes ----------------------------------------------------------


def _one_of_each_kind():
    x = Var("x")
    qx, qe = Atom(Q, (x,)), Atom(Q, (App(EPS),))
    sub = Exists("x", qx)
    return [
        (x, ("x",)),
        (App(S0, (x,)), (S0, (x,))),
        (SpecialConst(sub), (sub,)),
        (qx, (Q, (x,))),
        (Not(qx), (qx,)),
        (Or(qx, qe), (qx, qe)),
        (sub, ("x", qx)),
    ]


def test_stored_hash_is_the_dataclass_hash():
    # hash of the tuple of compare fields, as the generated dataclass hash,
    # so set and dict orders under a fixed hash seed do not change
    kinds = _one_of_each_kind()
    assert len({type(n) for n, _ in kinds}) == 7
    for node, compare_fields in kinds:
        assert hash(node) == hash(compare_fields), type(node).__name__


def test_special_constant_is_its_subscript_alone():
    sub = Exists("x", Atom(Q, (Var("x"),)))
    a, b = SpecialConst(sub), sx.special_constant(sub)
    assert a == b and hash(a) == hash(b) and a is not b
    assert sx.special_constant(Exists("x", Atom(Q, (Var("x"),)))) is b


def test_replace_recomputes_the_stored_hash():
    node = App(CAT, (Var("x"), Var("y")))
    moved = dataclasses.replace(node, args=(Var("y"), Var("x")))
    assert moved == App(CAT, (Var("y"), Var("x")))
    assert hash(moved) == hash(App(CAT, (Var("y"), Var("x"))))


def test_nodes_have_no_instance_dict():
    for node, _ in _one_of_each_kind():
        assert not hasattr(node, "__dict__"), type(node).__name__


def test_deep_chain_hashes_without_recursion():
    t = App(EPS)
    for _ in range(100_000):
        t = App(S0, (t,))
    seen = {t}
    assert t in seen
    assert App(S0, (t,)) not in seen


# each node and symbol class's dataclass fields, in order
FIELDS = {
    Var: ("name", "_hash"),
    App: ("fn", "args", "_hash"),
    SpecialConst: ("subscript", "_hash"),
    Atom: ("pred", "args", "_hash"),
    Not: ("body", "_hash"),
    Or: ("left", "right", "_hash"),
    Exists: ("var", "body", "_hash"),
    FnSym: ("name", "arity"),
    PredSym: ("name", "arity"),
}


def _one_of_each_class():
    return [node for node, _ in _one_of_each_kind()] + [S0, Q]


def test_nodes_and_symbols_are_frozen():
    objs = _one_of_each_class()
    assert {type(o) for o in objs} == set(FIELDS)
    for obj in objs:
        for name in FIELDS[type(obj)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(obj, name)


def test_field_names_are_unchanged():
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls.__name__


def test_replace_rebuilds_through_the_constructor():
    for obj in _one_of_each_class():
        again = dataclasses.replace(obj)
        assert again == obj and again is not obj and hash(again) == hash(obj)
    with pytest.raises(ArityError, match="^s0 expects 1 arguments$"):
        dataclasses.replace(App(S0, (Var("x"),)), args=())
    sc = SpecialConst(Exists("x", Atom(Q, (Var("x"),))))
    with pytest.raises(ArityError, match="^special-constant subscript must be closed$"):
        dataclasses.replace(sc, subscript=Exists("x", Atom(P2, (Var("x"), Var("y")))))
    assert hash(dataclasses.replace(S0, arity=2)) == hash(("s0", 2))


@settings(max_examples=50, deadline=None)
@given(st.text(max_size=6), st.integers(0, 5))
def test_symbol_hash_is_the_hash_of_name_and_arity(name, arity):
    assert hash(FnSym(name, arity)) == hash((name, arity))
    assert hash(PredSym(name, arity)) == hash((name, arity))


@pytest.mark.parametrize("build, message", [
    (lambda: App(S0), "s0 expects 1 arguments"),
    (lambda: App(CAT, (App(EPS),)), "cat expects 2 arguments"),
    (lambda: App(EPS, (App(EPS),)), "eps expects 0 arguments"),
    (lambda: Atom(Q), "q expects 1 arguments"),
    (lambda: Atom(P2, (Var("x"),)), "p expects 2 arguments"),
    (lambda: SpecialConst(Atom(Q, (Var("x"),))), "special-constant subscript must be an instantiation"),
    (lambda: SpecialConst(Exists("x", Atom(P2, (Var("x"), Var("y"))))), "special-constant subscript must be closed"),
], ids=lambda v: v if isinstance(v, str) else "")
def test_constructor_checks_keep_their_messages(build, message):
    with pytest.raises(ArityError) as e:
        build()
    assert str(e.value) == message


def test_disjuncts_are_the_leaves_left_to_right():
    a, b, c, d = (Atom(Q, (t,)) for t in (App(EPS), x, y, z))
    assert sx.disjuncts(a) == [a]
    assert sx.disjuncts(Or(Or(a, Or(b, c)), d)) == [a, b, c, d]
    assert sx.disjuncts(Or(a, Or(Or(b, c), Not(Or(c, d))))) == [a, b, c, Not(Or(c, d))]
    long = [Atom(Q, (Var(f"v{i}"),)) for i in range(10_000)]
    assert sx.disjuncts(sx.disj(long)) == long


# --- the node-shape table and the measures over it ---------------------------

x, y, z, w = map(Var, "xyzw")
C1 = SpecialConst(Exists("u", sx.eq(Var("u"), App(EPS))))
C2 = SpecialConst(Exists("v", Or(sx.eq(Var("v"), C1), Atom(Q, (Var("v"),)))))
SHADOWED = Or(sx.eq(x, C2), Exists("x", Not(Atom(P2, (x, y)))))
NESTED = Not(Exists("z", Or(Atom(Q, (App(S1, (z,)),)), Exists("w", sx.eq(w, z)))))

# node, all_var_names, occurring_var_names, is_plain, special_constants,
# appearing_symbols, and for a formula is_open, unnested_rank and
# nested_rank
MEASURED = [
    # x is free on the left and bound on the right; C1 is inside C2's
    # subscript; p is a predicate other than =
    (SHADOWED, "uvxy", "xy", False, {C2}, {EPS, P2, Q}, (False, 1, 1)),
    (NESTED, "wz", "wz", True, set(), {Q, S1}, (False, 2, 2)),
    (sx.fimp(Atom(Q, (App(S0, (x,)),)), sx.eq(App(EPS), x)), "x", "x", True, set(),
     {EPS, Q, S0}, (True, 0, 0)),
    (App(CAT, (x, C2)), "uvx", "x", False, {C2}, {CAT, EPS, Q}, None),
    (C2, "uv", "", False, {C2}, {EPS, Q}, None),
]


@pytest.mark.parametrize("case", MEASURED, ids=lambda c: sx.render(c[0]))
def test_structural_measures(case):
    node, every, occurring, plain, consts, symbols, formula = case
    assert sx.all_var_names(node) == set(every)
    assert sx.occurring_var_names(node) == set(occurring)
    assert sx.is_plain(node) is plain
    assert sx.special_constants(node) == consts
    assert sx.appearing_symbols(node) == symbols
    measures = (sx.is_open, sx.unnested_rank, sx.nested_rank)
    if formula is None:
        for measure in measures:
            with pytest.raises(TypeError):
                measure(node)
    else:
        assert tuple(m(node) for m in measures) == formula


def test_replace_subformula_examples():
    got = replace_subformula(SHADOWED, Atom(P2, (x, y)), sx.eq(x, y))
    assert got == Or(sx.eq(x, C2), Exists("x", Not(sx.eq(x, y))))
    got = replace_subformula(NESTED, sx.eq(w, z), Atom(Q, (w,)))
    assert got == Not(Exists("z", Or(Atom(Q, (App(S1, (z,)),)), Exists("w", Atom(Q, (w,))))))
    # occurrence is at formula level: an atom's terms are not searched
    assert replace_subformula(NESTED, Atom(Q, (z,)), Atom(Q, (w,))) == NESTED


def test_children_and_node_paths():
    assert sx.children(SHADOWED) == (SHADOWED.left, SHADOWED.right)
    assert sx.children(SHADOWED.right) == (SHADOWED.right.body,)
    assert sx.children(App(CAT, (x, C2))) == (x, C2)
    assert sx.children(x) == () and sx.children(C2) == ()
    path = (1, 0, 0, 1)
    assert sx.node_at(SHADOWED, path) == y
    moved = sx.replace_at(SHADOWED, path, App(EPS))
    assert moved == Or(sx.eq(x, C2), Exists("x", Not(Atom(P2, (x, App(EPS))))))
    assert sx.replace_at(SHADOWED, (), x) == x
    for junk in ("x", 3, None, Q, (x, y)):
        with pytest.raises(TypeError):
            sx.children(junk)
