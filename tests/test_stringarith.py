import collections
import dataclasses
import itertools
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import mutate_script, numeral
from proofkit import extend, stringarith as sa
from proofkit import syntax as sx
from proofkit.errors import CheckError, ParseError
from proofkit.kernel import scripts as ks
from proofkit.meta.extensions import bounded_analysis, instantiate_schema
from proofkit.syntax import App, Atom, FnSym, Not, Or, Var, EPS, S0, S1, PD, CAT, ZPROD

E = App(EPS)


def term(bundle, text, env=None):
    return sx.parse(text, "term", bundle.symbols, env or {})


def formula(bundle, text, env=None):
    return sx.parse(text, "formula", bundle.symbols, env or {})


# --- the interpreter -------------------------------------------------------


def test_eval_term_basics(bundle):
    assert sa.eval_term(term(bundle, "(pd eps)"), {}, bundle) == ""
    assert sa.eval_term(term(bundle, "(zprod (s0 eps) (s0 eps))"), {}, bundle) == "0"
    assert sa.eval_term(term(bundle, "(s0 (s1 eps))"), {}, bundle) == "01"
    assert sa.eval_term(numeral(3), {}, bundle) == "000"
    two = term(bundle, "(s0 (s1 eps))")
    ten = term(bundle, "(s1 (s0 eps))")
    assert sa.eval_term(App(ZPROD, (two, ten)), {}, bundle) == "0000"
    assert (
        sa.eval_term(App(bundle.symbols.fn("zee"), (Var("x"),)), {"x": "110"}, bundle)
        == "000"
    )


def test_eval_term_errors(bundle):
    with pytest.raises(CheckError):
        sa.eval_term(Var("x"), {}, bundle)
    r = sx.special_constant(sx.parse("(exists x (= x x))", "formula", bundle.symbols))
    with pytest.raises(CheckError):
        sa.eval_term(r, {}, bundle)


def test_eval_leq_by_bounded_witness_search(bundle):
    f = formula(bundle, "(leq x y)")
    assert sa.eval_formula(f, {"x": "01", "y": "110"}, bundle)
    assert not sa.eval_formula(f, {"x": "11", "y": "0"}, bundle)
    assert sa.eval_formula(f, {"x": "", "y": "10101"}, bundle)


def test_eval_endswith_and_sim(bundle):
    ew = formula(bundle, "(endswith y x)")
    assert sa.eval_formula(ew, {"y": "1101", "x": "01"}, bundle)
    assert not sa.eval_formula(ew, {"y": "1101", "x": "11"}, bundle)
    sim = formula(bundle, "(sim x y)")
    assert sa.eval_formula(sim, {"x": "00", "y": "11"}, bundle)
    assert not sa.eval_formula(sim, {"x": "0", "y": "11"}, bundle)


def test_eval_rejects_unbounded_quantifier(bundle):
    f = formula(bundle, "(exists z (= (cat z x) y))")
    with pytest.raises(CheckError):
        sa.eval_formula(f, {"x": "0", "y": "10"}, bundle, strict=True)
    # capped mode searches exhaustively
    assert sa.eval_formula(f, {"x": "0", "y": "10"}, bundle, strict=False)


@pytest.mark.parametrize(
    "body", ["(= z z)", "(leq z x)", "(not (= z x))", "(or (= z eps) (endswith z x))", "(endswith x z)"]
)
def test_forall_leq_evaluates_as_its_dual(bundle, body):
    # forall<= z y B expands to not exists z [not (not z <= y v B)]: its
    # guard heads a body that is no conjunction unless B is a negation
    forall = formula(bundle, f"(forall<= z y {body})")
    dual = formula(bundle, f"(not (exists<= z y (not {body})))")
    assert all(bounded_analysis(f, bundle.symbols.order).bounded for f in (forall, dual))
    seen = set()
    for x, y in itertools.product(sa._all_strings(3), repeat=2):
        env = {"x": x, "y": y}
        got = sa.eval_formula(forall, env, bundle)
        assert got is sa.eval_formula(dual, env, bundle), env
        seen.add(got)
    assert seen == ({True} if body == "(= z z)" else {True, False})


def test_eval_phi_b1_unbounded(bundle):
    f = formula(bundle, "(phi_b1 x)")
    with pytest.raises(CheckError):
        sa.eval_formula(f, {"x": "01"}, bundle, strict=True)


def test_concatenation_length_laws_exhaustive(bundle):
    strings = sa._all_strings(4)
    for x in strings:
        for y in strings:
            cat = sa.eval_term(App(CAT, (Var("x"), Var("y"))), {"x": x, "y": y}, bundle)
            prod = sa.eval_term(App(ZPROD, (Var("x"), Var("y"))), {"x": x, "y": y}, bundle)
            assert len(cat) == len(x) + len(y)
            assert len(prod) == len(x) * len(y) and set(prod) <= {"0"}


def test_zee_idempotent_on_values(bundle):
    zee = bundle.symbols.fn("zee")
    for s in sa._all_strings(5):
        once = sa.eval_term(App(zee, (Var("x"),)), {"x": s}, bundle)
        twice = sa.eval_term(App(zee, (App(zee, (Var("x"),)),)), {"x": s}, bundle)
        assert once == twice


def test_leq_coincides_with_length_order(bundle):
    f = formula(bundle, "(leq x y)")
    rng = random.Random(0)
    for _ in range(60):
        x = sa.random_string(rng, 6)
        y = sa.random_string(rng, 6)
        assert sa.eval_formula(f, {"x": x, "y": y}, bundle) == (len(x) <= len(y))


# --- the interpreter's contract ----------------------------------------------


def test_errors_are_raised_only_when_reached(bundle):
    true = formula(bundle, "(= x x)")
    special = sx.special_constant(formula(bundle, "(exists x (= x x))"))
    for bad, message in (
        (Atom(sx.EQ, (special, E)), "special constants are uninterpretable"),
        (formula(bundle, "(phi x)"), "uninterpretable predicate phi"),
    ):
        assert sa.eval_formula(Or(true, bad), {"x": "0"}, bundle)
        with pytest.raises(CheckError) as err:
            sa.eval_formula(Or(Not(true), bad), {"x": "0"}, bundle)
        assert str(err.value) == message
    # every free variable is read before any code runs, reached or not
    with pytest.raises(CheckError) as err:
        sa.eval_formula(Or(true, formula(bundle, "(= y eps)")), {"x": "0"}, bundle)
    assert str(err.value) == "unbound variable y"
    f = formula(bundle, "(exists z (= (cat z x) y))")
    with pytest.raises(CheckError) as err:
        sa.eval_formula(f, {"x": "0", "y": "10"}, bundle)
    assert str(err.value) == "unbounded quantifier: " + sx.render(f)[:80]


def test_compiled_code_is_kept_per_strictness_and_bundle(bundle):
    f = formula(bundle, "(exists z (= (cat z x) y))")
    env = {"x": "0", "y": "10"}
    assert sa.eval_formula(f, env, bundle, strict=False)
    with pytest.raises(CheckError):
        sa.eval_formula(f, env, bundle, strict=True)
    sim = formula(bundle, "(sim x y)")
    assert sa.eval_formula(sim, {"x": "00", "y": "11"}, bundle)
    # the same theory over a chain that defines nothing
    nothing = extend.DefinitionRegistry(bundle.definitions.base)
    bare = dataclasses.replace(bundle, definitions=nothing, schema=None)
    with pytest.raises(CheckError, match="uninterpretable predicate sim"):
        sa.eval_formula(sim, {"x": "00", "y": "11"}, bare)


def test_equational_witness_comes_before_the_order_bound(bundle):
    # Searching z <= y from eps would reach (phi z), which cannot be
    # interpreted; the equation z = y gives the witness at once.
    f = formula(bundle, "(exists z (and (leq z y) (and (or (= z y) (phi z)) (= z y))))")
    env = {"y": "10"}
    assert sa.eval_formula(f, env, bundle)
    assert env == {"y": "10"}


def test_compiled_conjunction_keeps_order_and_lazy_errors(bundle):
    true, false = formula(bundle, "(= x x)"), formula(bundle, "(= x eps)")
    bad = formula(bundle, "(phi x)")
    env = {"x": "0"}
    assert sa.eval_formula(sx.fand(false, bad), env, bundle) is False
    assert sa.eval_formula(sx.fand(true, true), env, bundle) is True
    assert sa.eval_formula(Not(Not(true)), env, bundle) is True
    assert sa.eval_formula(Not(Not(false)), env, bundle) is False
    for raising in (sx.fand(bad, false), sx.fand(true, bad), Not(Not(bad))):
        with pytest.raises(CheckError) as err:
            sa.eval_formula(raising, env, bundle)
        assert str(err.value) == "uninterpretable predicate phi"


# plain-Python meaning of each function symbol, independent of stringarith
REFERENCE = {
    "eps": lambda: "",
    "s0": lambda x: "0" + x,
    "s1": lambda x: "1" + x,
    "pd": lambda x: x[1:],
    "cat": lambda x, y: x + y,
    "zprod": lambda x, y: "0" * (len(x) * len(y)),
    "zee": lambda x: "0" * len(x),
}
LENGTH = {
    "eps": lambda: 0,
    "s0": lambda n: n + 1,
    "s1": lambda n: n + 1,
    "pd": lambda n: max(n - 1, 0),
    "cat": lambda m, n: m + n,
    "zprod": lambda m, n: m * n,
    "zee": lambda n: n,
}
ZEE = FnSym("zee", 1)


def reference(t, env, table=REFERENCE, leaf=lambda s: s):
    if isinstance(t, Var):
        return leaf(env[t.name])
    return table[t.fn.name](*(reference(a, env, table, leaf) for a in t.args))


def interpreter_terms(max_leaves=10):
    leaves = st.sampled_from([App(EPS), Var("x"), Var("y"), Var("z")])
    unary = st.sampled_from([S0, S1, PD, ZEE])
    binary = st.sampled_from([CAT, ZPROD])

    def grow(children):
        return st.one_of(
            st.builds(lambda f, a: App(f, (a,)), unary, children),
            st.builds(lambda f, a, b: App(f, (a, b)), binary, children, children),
        )

    return st.recursive(leaves, grow, max_leaves=max_leaves)


def first_unbound(node, env):
    """The first free variable of node, in free_vars order, that env lacks."""
    return next((x for x in sx.free_vars(node) if x not in env), None)


@settings(max_examples=300, deadline=None)
@given(
    interpreter_terms(),
    st.dictionaries(st.sampled_from("xyz"), st.text(alphabet="01", max_size=5)),
)
# y's value cannot change the product's, yet it must be bound
@example(t=App(ZPROD, (E, Var("y"))), env={"x": "0"})
def test_eval_term_matches_plain_string_operations(bundle, t, env):
    assume(reference(t, {x: env.get(x, "") for x in "xyz"}, LENGTH, len) <= 4096)
    unbound = first_unbound(t, env)
    if unbound is not None:
        with pytest.raises(CheckError, match=f"^unbound variable {unbound}$"):
            sa.eval_term(t, env, bundle)
    else:
        assert sa.eval_term(t, env, bundle) == reference(t, env)


def connective_formulas():
    """Quantifier-free formulas over equations of builtin terms, built with
    every connective the syntax offers."""
    atoms = st.builds(
        lambda a, b: Atom(sx.EQ, (a, b)), interpreter_terms(4), interpreter_terms(4)
    )

    def grow(children):
        return st.one_of(
            st.builds(Not, children),
            st.builds(Or, children, children),
            st.builds(sx.fand, children, children),
            st.builds(sx.fimp, children, children),
            st.builds(sx.fiff, children, children),
        )

    return st.recursive(atoms, grow, max_leaves=8)


def reference_truth(f, env):
    """Truth by the primitive connectives alone, left to right."""
    if isinstance(f, Atom):
        return reference(f.args[0], env) == reference(f.args[1], env)
    if isinstance(f, Not):
        return not reference_truth(f.body, env)
    return reference_truth(f.left, env) or reference_truth(f.right, env)


@settings(max_examples=300, deadline=None)
@given(
    connective_formulas(),
    st.dictionaries(st.sampled_from("xyz"), st.text(alphabet="01", max_size=3)),
)
# the true left disjunct never reaches y, yet y must be bound
@example(f=Or(Atom(sx.EQ, (Var("x"), Var("x"))), Atom(sx.EQ, (Var("y"), E))), env={"x": ""})
def test_eval_formula_matches_the_primitive_connectives(bundle, f, env):
    unbound = first_unbound(f, env)
    if unbound is not None:
        with pytest.raises(CheckError, match=f"^unbound variable {unbound}$"):
            sa.eval_formula(f, env, bundle)
    else:
        assert sa.eval_formula(f, env, bundle) is reference_truth(f, env)


# --- the generated code ---------------------------------------------------------


# what generated code may name besides its own v<i>, w<i>, c<i> and f<i>
GENERATED = {
    "def", "return", "True", "False", "and", "or", "not", "if", "for", "in", "len", "min",
    "_raise", "_zeros", "_all_strings",
}


def test_variable_names_are_never_written_into_the_code(bundle, monkeypatch):
    sources = []
    unit = sa._Generator.unit

    def recording(gen, node):
        got = unit(gen, node)
        sources.extend(gen.defs)
        return got

    monkeypatch.setattr(sa._Generator, "unit", recording)
    f = formula(
        bundle,
        "(and (= (cat len env) (cat return lambda)) (and (not (= x' (s1 v1))) (sim env return)))",
    )
    env = {"len": "0", "env": "1", "return": "01", "lambda": "", "x'": "1", "v1": ""}
    assert sa.eval_formula(f, env, bundle) is False
    assert sa.eval_formula(f, {**env, "x'": "0"}, bundle) is False
    assert sa.eval_formula(f, {**env, "x'": "0", "len": "", "return": "1"}, bundle) is True
    for missing in ("return", "x'", "v1"):
        less = {k: v for k, v in env.items() if k != missing}
        with pytest.raises(CheckError) as err:
            sa.eval_formula(f, less, bundle)
        assert str(err.value) == f"unbound variable {missing}"
    # the first conjunct already fails, but the unbound rest is refused first
    with pytest.raises(CheckError) as err:
        sa.eval_formula(f, {"len": "0", "env": "1", "return": "1", "lambda": ""}, bundle)
    assert str(err.value) == "unbound variable x'"
    assert sources
    for src in sources:
        names = set(re.findall(r"[A-Za-z_][A-Za-z0-9_']*", src))
        assert all(re.fullmatch(r"[vwcf]\d+", n) or n in GENERATED for n in names), names


def test_a_witness_rebinding_a_name_replaces_its_value_in_the_bound(bundle):
    # Without an equation or a bound, z ranges over the strings up to the
    # length of every value in scope plus 4 (at most 10), and needs
    # length 9 here: the values in scope decide.
    inner = "(exists z (= (cat z eps) (cat y (cat y y))))"
    f = formula(bundle, f"(exists x (and (= x eps) {inner}))")
    for env, want in (
        ({"y": "111"}, False),  # 3 + 4 < 9
        ({"y": "11"}, True),  # 2 + 4 = 6, just enough
        ({"x": "1111", "y": "111"}, False),  # the witness x = eps counts, not "1111"
        ({"q": "11", "y": "111"}, False),  # another key is ignored: 3 + 4 < 9
        ({"q": "11", "x": "1111", "y": "111"}, False),
    ):
        assert sa.eval_formula(f, env, bundle, strict=False) is want, env
    longer = formula(bundle, f"(exists x (and (= x (s1 (s1 eps))) {inner}))")
    assert sa.eval_formula(longer, {"y": "111"}, bundle, strict=False) is True  # 3 + 2 + 4
    free = formula(bundle, f"(and (= x x) (exists x (and (= x eps) {inner})))")
    assert sa.eval_formula(free, {"x": "1111", "y": "111"}, bundle, strict=False) is False
    assert sa.eval_formula(free, {"x": "11", "y": "111"}, bundle, strict=False) is False
    shadow = formula(bundle, "(and (= x (s0 eps)) (exists x (= x (s1 eps))))")
    assert sa.eval_formula(shadow, {"x": "0"}, bundle) is True


def test_parameters_named_like_generated_identifiers(tmp_path):
    path = tmp_path / "t.th"
    path.write_text(
        "theory T\n"
        "axiom a1 : (= (cat eps x) x)\n"
        "define fun d1 f1 := (cat w2 (cat env (s1 c3)))\n"
        "define pred d2 f4 : (= (f1 env c3 w2) (cat w2 (s1 env)))\n"
    )
    b = sa.load_theory(path)
    t = term(b, "(f1 x y z)")
    for x, y, z in (("", "", ""), ("0", "1", "10"), ("1", "", "0")):
        assert sa.eval_term(t, {"x": x, "y": y, "z": z}, b) == x + y + "1" + z
        want = x + y + "1" + z == z + "1" + x
        assert sa.eval_formula(formula(b, "(f4 x y z)"), {"x": x, "y": y, "z": z}, b) is want
    assert sa.eval_formula(formula(b, "(f4 x y z)"), {"x": "0", "y": "", "z": "0"}, b) is True
    with pytest.raises(CheckError) as err:
        sa.eval_formula(formula(b, "(f4 x y z)"), {"x": "0", "y": ""}, b)
    assert str(err.value) == "unbound variable z"


def test_deep_terms_and_formulas_keep_their_values(bundle):
    # CPython refuses more than 200 nested parentheses in one expression
    t = Var("x")
    for _ in range(300):
        t = App(S0, (t,))
    assert sa.eval_term(t, {"x": "1"}, bundle) == "0" * 300 + "1"
    f = Atom(sx.EQ, (t, numeral(301)))
    assert sa.eval_formula(f, {"x": "0"}, bundle) is True
    assert sa.eval_formula(f, {"x": "1"}, bundle) is False
    assert sa.eval_term(numeral(300), {}, bundle) == "0" * 300
    leaves = [formula(bundle, text) for text in ("(= x eps)", "(= y (s0 eps))", "(= x y)")]
    f = leaves[0]
    for i in range(300):
        f = Or(Not(f), leaves[i % 3]) if i % 2 else Not(Or(f, Not(leaves[i % 3])))
    for env in ({"x": x, "y": y} for x in ("", "0") for y in ("", "0")):
        assert sa.eval_formula(f, env, bundle) is reference_truth(f, env)
    for env, unbound in (({"x": ""}, "y"), ({"x": "0"}, "y"), ({"y": ""}, "x"), ({"y": "0"}, "x")):
        with pytest.raises(CheckError, match=f"^unbound variable {unbound}$"):
            sa.eval_formula(f, env, bundle)


def test_twenty_five_nested_quantifiers(bundle):
    # CPython refuses more than 20 statically nested blocks in a function
    z = [f"z{i}" for i in range(25)]
    searched = formula(bundle, "(= z24 z24)")
    for i in reversed(range(25)):
        bound = formula(bundle, f"(leq {z[i]} {z[i - 1] if i else 'y'})")
        searched = sx.Exists(z[i], sx.fand(bound, searched))
    assert sa.eval_formula(searched, {"y": "01"}, bundle) is True
    zeros = Var("x")
    for _ in range(25):
        zeros = App(S0, (zeros,))
    for last, want in ((Atom(sx.EQ, (Var("z24"), zeros)), True), (formula(bundle, "(= z24 x)"), False)):
        chain = last
        for i in reversed(range(25)):
            step = formula(bundle, f"(= {z[i]} (s0 {z[i - 1] if i else 'x'}))")
            chain = sx.Exists(z[i], sx.fand(step, chain))
        assert sa.eval_formula(chain, {"x": "1"}, bundle) is want


def erased_length_only(e, length_funs):
    """Whether e's witness is length-only as first defined: it is not free
    once every length function's application is erased to eps."""
    erased = sx.rewrite(
        e.body, app=lambda t: E if t.fn.name in length_funs else t, const=lambda c: c
    )
    return e.var not in sx.free_vars(erased)


def assert_length_only_as_erased(f, length_funs):
    found = []
    sx.rewrite(f, exists=lambda e: found.append(e) or e, const=lambda c: c)
    for e in found:
        outside = sa.occurs_outside_length(e.var, e.body, length_funs)
        assert (not outside) is erased_length_only(e, length_funs), e
    return found


def test_length_only_witnesses_of_the_corpus_as_erased(bundle, corpus_report):
    # the bundled theory's length functions are zprod and zee, d25
    length_funs = sa.length_functions(bundle.schema.defined)
    assert length_funs == sa.length_functions(bundle.definitions.defined) == {"zprod", "zee"}
    seen = []
    for entry in corpus_report.entries:
        stmt = bundle.registry.entries[entry.label].statement
        section = bundle.registry.entries[entry.label].section
        chain = bundle.schema if section == "schema" else bundle.definitions
        seen += assert_length_only_as_erased(stmt, length_funs)
        seen += assert_length_only_as_erased(extend.translate_out(chain, stmt).formula, length_funs)
    assert len(corpus_report.entries) == 76
    length_only = [erased_length_only(e, length_funs) for e in seen]
    assert any(length_only) and not all(length_only)


def quantified(bodies):
    return st.builds(sx.Exists, st.sampled_from("xyz"), bodies)


@settings(max_examples=300, deadline=None)
@given(
    quantified(
        st.one_of(
            connective_formulas(),
            st.builds(sx.fand, connective_formulas(), quantified(connective_formulas())),
        )
    )
)
def test_length_only_witnesses_as_erased(f):
    assert_length_only_as_erased(f, {"zprod", "zee"})


# --- length-pinned witnesses ---------------------------------------------------


def full_range(local, *pins):
    """_zeros with its pins ignored: the whole range of a length-only loop."""
    return map("0".__mul__, range(max(local, (local - 4) * (local - 4) + 4) + 1))


def counting(zeros, tried):
    """`zeros`, appending to `tried` the candidates each loop takes from it."""

    def spy(local, *pins):
        tried.append(0)
        for candidate in zeros(local, *pins):
            tried[-1] += 1
            yield candidate

    return spy


def outcome(bundle, f, env, zeros=sa._zeros, tried=None):
    """f's truth under env, or its CheckError's message, with the length-only
    loops of a fresh copy of bundle ranging over `zeros`."""
    tried = [] if tried is None else tried
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sa, "_zeros", counting(zeros, tried))
        try:
            return sa.eval_formula(f, env, dataclasses.replace(bundle))
        except CheckError as e:
            return str(e)


def length_terms(names, max_leaves=4):
    """Builtin terms and zee over the variables `names`, eps and zee(z); pd,
    whose length is unknown, is rarer than the other symbols."""
    leaves = st.sampled_from([E, App(ZEE, (Var("z"),))] + [Var(x) for x in names])
    unary = st.sampled_from([S0, S1, ZEE] * 3 + [PD])
    binary = st.sampled_from([CAT, ZPROD])

    def grow(children):
        return st.one_of(
            st.builds(lambda f, a: App(f, (a,)), unary, children),
            st.builds(lambda f, a, b: App(f, (a, b)), binary, children, children),
        )

    return st.recursive(leaves, grow, max_leaves=max_leaves)


def pinned_bodies(names=("x", "y"), depth=2):
    """Conjunctions of equations, most of them k * z + a = b in lengths,
    of their negations and disjunctions, of a special constant's equation,
    and of a witness defined by an equation that heads a body of its own:
    u, and within u's body z again."""
    eq = lambda a, b: Atom(sx.EQ, (a, b))
    terms = length_terms(names)
    equation = st.builds(eq, terms, terms)
    # k is 1, 2 or |x|, which may be 0
    factors = st.sampled_from([App(S0, (E,)), App(S0, (App(S0, (E,)),)), Var("x")])
    pinning = st.builds(
        lambda k, a, b, flip: eq(
            *[App(CAT, (App(ZPROD, (k, Var("z"))), App(ZEE, (a,)))), App(ZEE, (b,))][:: flip or -1]
        ),
        factors, terms, terms, st.booleans(),
    )
    sc = sx.special_constant(sx.Exists("y", Not(eq(Var("y"), E))))
    parts = [pinning, equation, st.builds(Not, equation), st.builds(Or, equation, pinning)]
    if depth:
        v = "zu"[depth - 1]
        defined = st.builds(lambda b, flip: eq(*[Var(v), b][:: flip or -1]), terms, st.booleans())
        body = pinned_bodies(names + (v,), depth - 1)
        parts.insert(1, st.builds(lambda d, rest: sx.Exists(v, sx.fand(d, rest)), defined, body))
    return st.lists(st.one_of(*parts, st.just(eq(sc, E))), min_size=1, max_size=3).map(sx.conj)


@settings(max_examples=300, deadline=None)
@given(
    pinned_bodies(),
    st.dictionaries(st.sampled_from("xy"), st.text(alphabet="01", max_size=2)),
)
def test_a_pinned_witness_takes_the_value_of_the_full_range(bundle, body, env):
    f = sx.Exists("z", body)
    assume(not sa.occurs_outside_length("z", body, sa.length_functions(bundle.definitions.defined)))
    pinned = outcome(bundle, f, {"x": "", "y": "", **env})
    assert pinned == outcome(bundle, f, {"x": "", "y": "", **env}, full_range)


def test_pinned_witness_examples(bundle):
    def both(text, env):
        f = formula(bundle, text)
        tried, full = [], []
        got = outcome(bundle, f, env, tried=tried)
        assert got == outcome(bundle, f, env, full_range, full)
        return got, tried, full

    # |z| = |y|^3 is past the bound at |y| = 3 (13), and just in it at 2 (8)
    cube = "(exists z (= (zee z) (zprod y (zprod y y))))"
    assert both(cube, {"y": "111"}) == (False, [0], [14])
    assert both(cube, {"y": "11"}) == (True, [1], [9])
    body = formula(bundle, "(= (zee z) (zprod y (zprod y y)))")
    assert sa.eval_formula(body, {"z": "0" * 27, "y": "111"}, bundle)
    # 2|z| = |y| allows no length when |y| is odd
    halves = "(exists z (= (zprod (s0 (s0 eps)) z) (zee y)))"
    assert both(halves, {"y": "111"}) == (False, [0], [14])
    assert both(halves, {"y": "1111"}) == (True, [1], [3])
    # |z|^2 = |y|^2 is no equation in |z| the code can solve
    square = "(exists z (= (zprod z z) (zprod y y)))"
    assert both(square, {"y": "11"}) == (True, [3], [3])
    # nor is |z|^2 + |z| = |y|, which |z| = 1 solves at |y| = 2
    quadratic = "(exists z (= (cat (zprod z z) (zee z)) (zee y)))"
    assert both(quadratic, {"y": "11"}) == (True, [2], [2])
    # the first equation whose coefficient is not 0 at run time pins
    zero_then = "(exists z (and (= (zprod y z) eps) (= (zee z) (s0 (zee x)))))"
    assert both(zero_then, {"x": "1", "y": ""}) == (True, [1], [3])
    assert both(zero_then, {"x": "1", "y": "0"}) == (False, [1], [9])
    # a coefficient that is 0 at run time, or always, keeps the full range
    for y, factor in (("", "y"), ("1", "eps")):
        zero = f"(exists z (and (= (zprod {factor} z) eps) (not (= (zee z) (zee x)))))"
        assert both(zero, {"x": "", "y": y})[:2] == (True, [2])
    # a body whose code can raise keeps the full range, and raises as it did:
    # pinned past the bound, it would search nothing and be False
    sc = "(sc (exists y (not (= y eps))))"
    after = f"(exists z (and (= (zee z) (zee y)) (= {sc} eps)))"
    assert both(after, {"y": "11"})[:2] == ("special constants are uninterpretable", [3])
    unbounded = "unbounded quantifier: (exists y (not (or (not (= (cat x y) x)) (= y eps))))"
    for first, message in (
        (f"(= {sc} eps)", "special constants are uninterpretable"),
        ("(phi_b1 y)", unbounded),  # a defined symbol whose code can raise
    ):
        before = f"(exists z (and {first} (= (zee z) (zprod y (zprod y y)))))"
        assert both(before, {"y": "111"})[:2] == (message, [1])


def test_builtin_lengths_are_the_lengths_of_their_values():
    assert set(sa.LENGTHS) == set(sa.BUILTINS) - {"pd"}  # pd's length is unknown
    rng = random.Random(5)
    arity = {f.name: f.arity for f in (EPS, S0, S1, CAT, ZPROD)}
    names = ("a", "b")
    for name, rule in sa.LENGTHS.items():
        poly = rule(*(collections.Counter({(x,): 1}) for x in names[: arity[name]]))
        for _ in range(50):
            values = {x: sa.random_string(rng, 12) for x in names}
            value = eval(sa.BUILTINS[name].format(*names), {}, values)
            lengths = sum(i * math.prod(len(values[x]) for x in m) for m, i in poly.items())
            assert lengths == len(value), (name, values)


def test_the_leq_statements_try_one_candidate_per_length_only_loop(bundle, corpus_scripts):
    # t64, sim x y & sim y z -> sim x z, as written and translated: a loop
    # pinned by |z| = |y| - |x| tries that length alone, or none
    script = next(s for s in corpus_scripts if s.label == "t64")
    stmt = formula(bundle, script.statement_text)
    translated = extend.translate_out(bundle.definitions, stmt).formula
    rows = [*itertools.product(sa._all_strings(2), repeat=3)]
    for f, strict in ((stmt, True), (translated, False)):
        tried = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sa, "_zeros", counting(sa._zeros, tried))
            fresh = dataclasses.replace(bundle)
            for x, y, z in rows:
                assert sa.eval_formula(f, {"x": x, "y": y, "z": z}, fresh, strict) is True
        assert len(tried) >= len(rows) and set(tried) == {0, 1}, (strict, collections.Counter(tried))


# --- axioms ------------------------------------------------------------------


def choice_string(rng, maxlen):
    """random_string as one rng.choice("01") per bit."""
    n = rng.randint(0, maxlen)
    return "".join(rng.choice("01") for _ in range(n))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 300))
def test_random_string_draws_what_choice_draws(seed, maxlen):
    mine, theirs = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert sa.random_string(mine, maxlen) == choice_string(theirs, maxlen)
        assert mine.getstate() == theirs.getstate()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.integers(0, 300), st.integers(0, 3))
def test_reader_draws_rows_as_choice_draws_them(seed, maxlen, width):
    # fuzz_axioms' rows: `width` strings each, then one more string
    draw = sa._StringReader(random.Random(seed)).draw
    rng = random.Random(seed)
    for _ in range(20):
        row = tuple(draw(maxlen) for _ in range(width))
        assert row == tuple(choice_string(rng, maxlen) for _ in range(width))
    assert draw(maxlen) == choice_string(rng, maxlen)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**64), st.lists(st.integers(0, 1000), max_size=30))
def test_reader_draws_what_choice_draws_across_maxlens(seed, maxlens):
    draw = sa._StringReader(random.Random(seed)).draw
    rng = random.Random(seed)
    for maxlen in maxlens:
        assert draw(maxlen) == choice_string(rng, maxlen)


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_reader_draws_what_choice_draws_across_refills(monkeypatch, block):
    # blocks of a few words: nearly every string is read over several
    monkeypatch.setattr(sa, "_BLOCK_WORDS", block)
    for seed in range(40):
        draw = sa._StringReader(random.Random(seed)).draw
        shared, rng = random.Random(seed), random.Random(seed)
        for maxlen in (0, 1, 5, 64, 300, 2, 17):
            want = choice_string(rng, maxlen)
            assert draw(maxlen) == want
            assert sa.random_string(shared, maxlen) == want
            assert shared.getstate() == rng.getstate()


@pytest.mark.parametrize("block", [1, 2, 3, 7])
@pytest.mark.parametrize("maxlen", [0, 1, 8, 64, 255, 256, 300])
def test_reader_strings_are_draws_in_a_row(monkeypatch, block, maxlen):
    monkeypatch.setattr(sa, "_BLOCK_WORDS", block)
    for seed in range(12):
        batched = sa._StringReader(random.Random(seed))
        single = sa._StringReader(random.Random(seed))
        rng = random.Random(seed)
        for count in (3, 0, 1, 7, 0, 2):
            got = batched.strings(maxlen, count)
            assert got == [single.draw(maxlen) for _ in range(count)]
            assert got == [choice_string(rng, maxlen) for _ in range(count)]
            assert batched.dropped + batched.pos == single.dropped + single.pos


def test_reader_strings_of_none_draw_nothing():
    reader = sa._StringReader(random.Random(0))
    assert reader.strings(64, 0) == []
    assert reader.dropped + reader.pos == 0 and reader.marks == b""


@pytest.mark.parametrize("maxlen", [0, 1, 2, 7, 8, 255, 256, 2**31 - 1, 2**31, 2**32 - 2])
def test_reader_lengths_are_randint(maxlen):
    reader = sa._StringReader(random.Random(maxlen))
    rng = random.Random(maxlen)
    assert [reader.length(maxlen) for _ in range(50)] == [rng.randint(0, maxlen) for _ in range(50)]


@pytest.mark.parametrize("maxlen", [-1, 2**32 - 1, 2**40])
def test_lengths_needing_more_than_one_word_are_refused(maxlen):
    reader = sa._StringReader(random.Random(0))
    with pytest.raises(CheckError, match="outside 0"):
        reader.draw(maxlen)
    assert reader.dropped + reader.pos == 0 and reader.marks == b""
    rng = random.Random(0)
    state = rng.getstate()
    with pytest.raises(CheckError, match="outside 0"):
        sa.random_string(rng, maxlen)
    assert rng.getstate() == state


def test_fuzz_axioms_refuses_more_random_bits_than_the_bound(bundle, monkeypatch, tmp_path):
    # The widest axioms have three variables: one sample of up to
    # 33,333,333 bits each may draw 99,999,999 bits, one bit more per
    # variable is over 10^8.  A refused run draws nothing.  The run that
    # draws has a10 alone, whose longest term, 99,999,999 characters, is
    # within the length bound that the zero-product axioms exceed.
    def empty(reader, maxlen, count):
        drawn.append(maxlen)
        return [""] * count

    drawn = []
    monkeypatch.setattr(sa._StringReader, "strings", empty)
    path = tmp_path / "a10.th"
    path.write_text("theory T\naxiom a10 : (= (cat x (cat y z)) (cat (cat x y) z))\n")
    rep = sa.fuzz_axioms(sa.load_theory(path), samples=1, maxlen=33_333_333)
    assert rep.ok and drawn and set(drawn) == {33_333_333}
    drawn.clear()
    for samples, maxlen, bits in ((1, 33_333_334, 100_000_002), (200, 2**32 - 1, 200 * 3 * (2**32 - 1))):
        with pytest.raises(CheckError, match=f"may draw {bits} bits, more than 100000000"):
            sa.fuzz_axioms(bundle, samples=samples, maxlen=maxlen)
    assert drawn == []


def test_fuzz_axioms_refuses_a_term_longer_than_the_bound(bundle, monkeypatch):
    # a15's terms hold up to maxlen^3 characters: 464^3 = 99,897,344 is
    # within 10^8 and 465^3 is not, whether or not anything is sampled.
    # A refused run reads no random word.
    assert sa.fuzz_axioms(bundle, samples=0, maxlen=464).checked == 0

    def never(*args):
        raise AssertionError("read random words before refusing")

    monkeypatch.setattr(sa._StringReader, "refill", never)
    message = (
        "axiom a15 has a term that may be 100544625 characters long on strings "
        "up to 465 bits long, more than 100000000"
    )
    for samples in (0, 1):
        with pytest.raises(CheckError, match=f"^{message}$"):
            sa.fuzz_axioms(bundle, samples=samples, maxlen=465)


def test_fuzz_axioms_bounds_a_defined_symbol_through_its_body(tmp_path):
    # zee x is (s0 eps) times x: one character per character of x, so
    # (zee (zprod x x)) holds maxlen^2
    path = tmp_path / "zee.th"
    path.write_text("theory T\naxiom a6 : (= (cat eps x) x)\ndefine fun d25 zee := (zprod (s0 eps) x)\n")
    b = sa.load_theory(path)
    b.registry.add_axiom("z1", sx.parse("(= (zee (zprod x x)) (zprod x x))", "formula", b.symbols))
    assert sa._longest_value(b.registry.entries["z1"].statement, 10_000, b) == 10**8
    with pytest.raises(CheckError, match="^axiom z1 has a term that may be 100020001 characters"):
        sa.fuzz_axioms(b, samples=0, maxlen=10_001)


def test_fuzz_axioms_counterexamples_are_pinned(bundle, monkeypatch):
    # s0 appending its bit breaks a5, a8 and a21.  Per axiom, the seed's
    # samples (drawn as one rng.choice("01") per bit drew them) come first,
    # then every assignment of strings of length at most 1.
    monkeypatch.setitem(sa.BUILTINS, "s0", "{0} + '0'")
    rep = sa.fuzz_axioms(
        dataclasses.replace(bundle), samples=6, maxlen=5, seed=11, exhaustive_len=1
    )
    assert rep.checked == 317
    assert rep.counterexamples == [
        ("a5", {"x": "1", "y": "0"}),
        ("a8", {"x": "100", "y": "10"}),
        ("a8", {"x": "10101", "y": "0110"}),
        ("a8", {"x": "0000", "y": "11"}),
        ("a8", {"x": "111", "y": "0010"}),
        ("a8", {"x": "000", "y": "110"}),
        ("a8", {"x": "", "y": "1"}),
        ("a8", {"x": "0", "y": "1"}),
        ("a8", {"x": "1", "y": "1"}),
        ("a21", {"x": "0111"}),
    ]


def test_fuzz_axioms_checks_an_axiom_without_variables_once_a_sample(bundle, monkeypatch):
    # a zero product adding lengths breaks a12, (s0 eps) times (s0 eps)
    monkeypatch.setitem(sa.BUILTINS, "zprod", "'0' * (len({0}) + len({1}))")
    for exhaustive_len, rows in ((0, 3), (1, 4)):
        rep = sa.fuzz_axioms(
            dataclasses.replace(bundle), samples=3, maxlen=2, exhaustive_len=exhaustive_len
        )
        assert [c for c in rep.counterexamples if c[0] == "a12"] == [("a12", {})] * rows


def test_fuzz_axioms_small(bundle):
    rep = sa.fuzz_axioms(bundle, samples=40, maxlen=10, seed=3)
    assert rep.ok and rep.checked >= 40 * 21


def test_axiom_spot_checks(bundle):
    a10 = bundle.registry.entries["a10"].statement
    assert sa.eval_formula(a10, {"x": "0", "y": "1", "z": "01"}, bundle)
    a19 = bundle.registry.entries["a19"].statement
    rng = random.Random(1)
    for _ in range(40):
        env = {"x": sa.random_string(rng, 5), "y": sa.random_string(rng, 5)}
        assert sa.eval_formula(a19, env, bundle)
    a21 = bundle.registry.entries["a21"].statement
    assert sa.eval_formula(a21, {"x": "10"}, bundle)


# --- schema instances -----------------------------------------------------------


def test_bsi_instance_shapes(bundle):
    inst = sa.bsi_instance(bundle, "b1", Var("x"))
    assert sx.free_vars(inst) == ("x",)
    closed = sa.bsi_instance(bundle, "b1", E)
    assert not sx.free_vars(closed)
    with pytest.raises(CheckError):
        sa.bsi_instance(bundle, "nosuch", E)


def test_bsi_frozen_witness_level(bundle):
    from proofkit import normform as nf

    inst = sa.bsi_instance(bundle, "b1", E)
    base = nf.to_negation_form(inst)
    record = []
    out = nf.special_case(
        base, nf.SpecialCaseDirective((("witness", "x'"),)), record
    )
    (name, const), = record
    assert name == "x'" and sx.const_level(const) >= 1


def test_theory_file_fun_by_citation(tmp_path):
    text = """
theory T
axiom a1 : (not (= (s0 x) eps))
axiom ec1 : (exists y (= y (pd x)))
axiom uc1 : (imp (and (= y (pd x)) (= y' (pd x))) (= y y'))
define fun dfr front : (exists y (= y (pd x))) using ec1 uc1
"""
    path = tmp_path / "t.th"
    path.write_text(text)
    b = sa.load_theory(path)
    assert b.symbols.fn("front").arity == 1
    assert sx.as_iff(b.registry.entries["dfr"].statement) is not None
    bad = tmp_path / "bad.th"
    bad.write_text(text.replace("using ec1 uc1", "using a1 uc1"))
    with pytest.raises(CheckError):
        sa.load_theory(bad)


def test_theory_file_fun_by_citation_wants_a_plain_definiens(tmp_path):
    # cited conditions do not excuse a definiens that holds a special constant
    c = "(sc (exists z (= z eps)))"
    path = tmp_path / "t.th"
    path.write_text(f"""
theory T
axiom ec1 : (exists y (= y (cat x {c})))
axiom uc1 : (imp (and (= y (cat x {c})) (= y' (cat x {c}))) (= y y'))
define fun dfr front : (exists y (= y (cat x {c}))) using ec1 uc1
""")
    with pytest.raises(CheckError, match="definiens must be plain"):
        sa.load_theory(path)


def test_theory_file_refuses_an_axiom_after_a_definition(tmp_path):
    # a false axiom the fuzzer would catch, were it not dropped
    path = tmp_path / "late.th"
    path.write_text(
        "theory T\n"
        "axiom a1 : (not (= (s0 x) eps))\n"
        "define fun d25 zee := (zprod (s0 eps) x)\n"
        "axiom a6 : (= (cat eps x) (s0 x))\n"
    )
    with pytest.raises(ParseError, match=r"axiom a6 .* at 4:1$"):
        sa.load_theory(path)


def test_theory_file_refuses_a_repeated_definiens(tmp_path):
    # the chain hands back d1's stage for d2's definiens; d2 is refused at
    # its line, not left undefined
    path = tmp_path / "dup.th"
    for first, second in (
        ("define pred d1 p1 : (= x eps)", "define pred d2 p2 : (= x eps)"),
        ("define fun d1 g1 := (s0 x)", "define fun d2 g2 := (s0 x)"),
    ):
        path.write_text(f"theory T\naxiom a1 : (not (= (s0 x) eps))\n{first}\n{second}\n")
        with pytest.raises(ParseError, match=r"definition d2 repeats the definiens of d1 at 4:1$"):
            sa.load_theory(path)

def test_theory_file_refuses_a_repeated_phi_label(tmp_path):
    # the second line would rebind b1, and with it every BSI citation of b1
    path = tmp_path / "phi.th"
    path.write_text(
        "theory T\naxiom a1 : (not (= (s0 x) eps))\n"
        "define pred d1 p1 : (= x eps)\ndefine pred d2 p2 : (= (s0 x) eps)\n"
        "phi b1 : p1\nphi c1 : p2\nphi b1 : p2\n"
    )
    message = "phi b1 repeats the label of line 5 at 7:1"
    with pytest.raises(ParseError, match=f"^{re.escape(str(path))}: {message}$"):
        sa.load_theory(path)


def test_length_functions_are_worked_out_from_the_definitions(tmp_path):
    # a length-only witness is read from what a symbol's body computes, not
    # from its name: zee := s0 x is no length function, zed := (s0 eps)
    # times x is one, and so is twice, defined through zed
    def load(defines):
        path = tmp_path / "lengths.th"
        path.write_text("theory T\naxiom a6 : (= (cat eps x) x)\n" + defines)
        return sa.load_theory(path)

    def outcome(b, text, strict):
        try:
            return sa.eval_formula(formula(b, text), {}, b, strict)
        except CheckError as e:
            return str(e)

    b = load("define fun d1 zee := (s0 x)\n")
    assert sa.length_functions(b.definitions.defined) == {"zprod"}
    f = "(exists z (= (zee z) (s0 (s1 eps))))"
    assert outcome(b, f, True) == f"unbounded quantifier: {f}"
    assert outcome(b, f, False) is True
    b = load("define fun d1 zed := (zprod (s0 eps) x)\ndefine fun d2 twice := (cat (zed x) (zed x))\n")
    assert sa.length_functions(b.definitions.defined) == {"zprod", "zed", "twice"}
    for text, want in (
        ("(exists z (= (zed z) (s0 (s0 eps))))", True),
        ("(exists z (= (twice z) (s0 (s0 (s0 (s0 eps))))))", True),
        ("(exists z (= (twice z) (s0 (s0 (s0 eps)))))", False),  # no length is 3/2
    ):
        assert outcome(b, text, True) is outcome(b, text, False) is want, text


def test_theory_file_with_axioms_only(tmp_path):
    path = tmp_path / "axioms.th"
    path.write_text("theory T\naxiom a1 : (not (= (s0 x) eps))\naxiom a6 : (= (cat eps x) x)\n")
    b = sa.load_theory(path)
    assert b.registry.order == ["a1", "a6"]
    assert b.definitions.base.axioms == tuple(b.registry.entries[l].statement for l in ("a1", "a6"))
    assert sa.fuzz_axioms(b, samples=10, maxlen=8, seed=0).checked == 20


def test_schema_chain_continues_the_main_chain_over_its_base(bundle):
    # each axiom once: the base axioms, then the main and the schema stages
    schema, main = bundle.schema, bundle.definitions
    axioms = schema.theory().axioms
    assert len(axioms) == len(set(axioms)) == 33
    assert schema.base is main.base and schema.stages[: len(main.stages)] == main.stages
    d25 = next(s for s in schema.stages if s.label == "d25")
    assert d25.axiom not in schema.theory_before(d25).axioms


# --- the corpus ------------------------------------------------------------------


def test_corpus_loads_expected_labels(corpus_scripts):
    labels = [s.label for s in corpus_scripts]
    assert len(labels) == 76 and len(set(labels)) == 76
    s20 = [l for l in labels if l.startswith("t") and l[1:].isdigit() and 22 <= int(l[1:]) <= 58]
    s21 = [l for l in labels if l.startswith("ta")]
    s22 = [l for l in labels if l[0] == "t" and l[1:].isdigit() and int(l[1:]) >= 60]
    series = [l for l in labels if l[:2] in ("tb", "tc", "td", "te")]
    assert len(s20) == 35
    assert len(s21) == 19
    assert len(s22) + len(series) == 22


def test_corpus_all_pass(corpus_report):
    bad = [e.label for e in corpus_report.entries if not e.ok]
    assert not bad, bad
    assert len(corpus_report.entries) == 76
    agreeing = [e for e in corpus_report.entries if e.oracle == "agrees"]
    assert len(agreeing) >= 40  # every open/bounded statement cross-checks


def test_check_corpus_parses_each_statement_once(corpus_scripts, monkeypatch):
    texts = collections.Counter(s.statement_text for s in corpus_scripts)
    parsed = collections.Counter()
    parse = sx.parse

    def counting(text, *args, **kw):
        if text in texts:
            parsed[text] += 1
        return parse(text, *args, **kw)

    monkeypatch.setattr(sx, "parse", counting)
    report = sa.check_corpus(sa.load_theory(), corpus_scripts)
    assert report.ok and parsed == texts


def test_t24_script_details(bundle, corpus_report):
    entry = next(e for e in corpus_report.entries if e.label == "t24")
    assert entry.ok and len(entry.instances) == 4


def test_mutated_citation_is_rejected(bundle, corpus_report):
    # the documented mutation: /a21 ; y instead of /a21 ; x in t24
    text = """
theorem t24x : (imp (= (cat x y) eps) (and (= x eps) (= y eps)))
proof
  H : x : y
  use a21 ; y
  use t22 ; (pd x) ; y
  use t23 ; (pd x) ; y
  use a6 ; y
qed
"""
    (script,) = ks.parse_script_file(text)
    v = ks.check_script(bundle.registry, script)
    assert not v.ok and "refutation failed" in v.message


def test_random_mutations_sound(bundle, corpus_report, corpus_scripts):
    """Any mutant whose goal the oracle falsifies must be rejected."""
    rng = random.Random(99)
    tried = 0
    rejected_false = 0
    while tried < 20:
        script = rng.choice(corpus_scripts)
        got = mutate_script(rng, script, bundle.symbols)
        if got is None:
            continue
        tried += 1
        mut, mutated = got[0]._replace(label=f"mut{tried}"), got[1]
        stmt = formula(bundle, mut.statement_text)
        false_goal = False
        if sa.evaluable(stmt, bundle):
            for _ in range(120):
                env = {x: sa.random_string(rng, 6) for x in sx.free_vars(stmt)}
                if not sa.eval_formula(stmt, env, bundle):
                    false_goal = True
                    break
        v = ks.check_script(bundle.registry, mut)
        if false_goal:
            assert not v.ok, (mutated, mut.statement_text)
            rejected_false += 1
    assert rejected_false >= 3


def test_schema_reinstantiation(bundle, corpus_report):
    """Re-checking the a-series with phi instantiated to a registered
    concrete unary formula succeeds unchanged."""
    reg2 = instantiate_schema(bundle, "b1")
    scripts = [
        s
        for s in sa.load_corpus([sa.DATA_DIR / "corpus" / "s21.prf"])
    ]
    for s in scripts:
        v = ks.check_script(reg2, s)
        assert v.ok, (s.label, v.message)
        if s.label not in reg2.entries:  # a base theorem is copied already
            reg2.add(ks.Entry(s.label, "theorem", v.statement))


def test_schema_reinstantiation_leaves_the_bundle_as_it_found_it(bundle):
    # the instantiated stages go on a chain of their own, their symbols
    # into the registry's remapping table
    symbols = list(bundle.symbols)
    chains = [(list(c.stages), dict(c.defined)) for c in (bundle.definitions, bundle.schema)]
    reg2 = instantiate_schema(bundle, "c1")
    assert list(bundle.symbols) == symbols
    assert [(c.stages, c.defined) for c in (bundle.definitions, bundle.schema)] == chains
    assert reg2.symbols.pred("phi0").name == "phi0_c1" and bundle.symbols.pred("phi0_c1") is None


# --- translation of the corpus ----------------------------------------------------


def test_translate_corpus_statement_agreement(bundle, corpus_report):
    rng = random.Random(17)
    checked = 0
    for label in ("t24", "t30", "t31", "t35", "t50", "t57"):
        stmt = bundle.registry.entries[label].statement
        out = extend.translate_out(bundle.definitions, stmt)
        assert not extend.contains_defined_symbols(bundle.definitions, out.formula)
        for _ in range(40):
            env = {x: sa.random_string(rng, 5) for x in sx.free_vars(stmt)}
            lhs = sa.eval_formula(stmt, env, bundle)
            rhs = sa.eval_formula(out.formula, env, bundle, strict=False)
            assert lhs == rhs, (label, env)
            assert lhs  # the theorems are true
            checked += 1
    assert checked == 240


# The SHA-256 of each corpus statement's translation out of its chain (the
# schema section's for its statements, as the bench's oracle workload picks
# it, the definitions' for the rest), rendered in both styles, and of each
# obligation with its stage label, the statements registered as theorems in
# corpus order.  It was recorded while translate_out still walked every
# stage of the chain and built a fresh adjusted variant of the definiens at
# every occurrence.  Run in a fresh interpreter at a fixed hash seed, like
# the corpus-elaboration digest.
TRANSLATION_DIGEST = "616fc64830168816fd361d9c109a711a8999280bcac0b95152b30471e9173d3f"

_TRANSLATION = """
import hashlib
from proofkit import extend, stringarith, syntax as sx

bundle = stringarith.load_theory()
digest = hashlib.sha256()
scripts = stringarith.load_corpus()
for script in scripts:
    stmt = sx.parse(script.statement_text, "formula", bundle.registry.symbols)
    bundle.register_theorem(script.label, stmt)
    section = bundle.registry.entries[script.label].section
    chain = bundle.schema if section == "schema" else bundle.definitions
    out = extend.translate_out(chain, stmt)
    pretty = sx.render(out.formula, "infix-pretty")
    digest.update(f"{script.label} {sx.render(out.formula)} | {pretty}\\n".encode())
    for label, ob in out.obligations:
        digest.update(f"{label} {sx.render(ob)}\\n".encode())
print(len(scripts), digest.hexdigest())
"""


def test_corpus_translation_is_pinned():
    src = Path(sa.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", _TRANSLATION],
        env=env, capture_output=True, text=True, check=True,
    ).stdout.split()
    assert out == ["76", TRANSLATION_DIGEST]
