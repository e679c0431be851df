import collections
import dataclasses
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
from proofkit.meta.extensions import instantiate_schema
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
    bare = dataclasses.replace(bundle, stages={})
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


def erased_length_only(e):
    """Whether e's witness is length-only as first defined: it is not free
    once every length function's application is erased to eps."""
    erased = sx.rewrite(
        e.body, app=lambda t: E if t.fn.name in sa.LENGTH_FUNS else t, const=lambda c: c
    )
    return e.var not in sx.free_vars(erased)


def assert_length_only_as_erased(f):
    found = []
    sx.rewrite(f, exists=lambda e: found.append(e) or e, const=lambda c: c)
    for e in found:
        assert (not sa._occurs_outside_length(e.var, e.body)) is erased_length_only(e), e
    return found


def test_length_only_witnesses_of_the_corpus_as_erased(bundle, corpus_report):
    seen = []
    for entry in corpus_report.entries:
        stmt = bundle.registry.entries[entry.label].statement
        section = bundle.registry.entries[entry.label].section
        chain = bundle.schema if section == "schema" else bundle.definitions
        seen += assert_length_only_as_erased(stmt)
        seen += assert_length_only_as_erased(extend.translate_out(chain, stmt).formula)
    assert len(corpus_report.entries) == 76
    assert any(map(erased_length_only, seen)) and not all(map(erased_length_only, seen))


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
    assert_length_only_as_erased(f)


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


def test_fuzz_axioms_refuses_more_random_bits_than_the_bound(bundle, monkeypatch):
    # The widest axioms have three variables: one sample of up to
    # 33,333,333 bits each may draw 99,999,999 bits, one bit more per
    # variable is over 10^8.  A refused run draws nothing.
    def empty(reader, maxlen, count):
        drawn.append(maxlen)
        return [""] * count

    drawn = []
    monkeypatch.setattr(sa._StringReader, "strings", empty)
    rep = sa.fuzz_axioms(bundle, samples=1, maxlen=33_333_333)
    assert rep.ok and drawn and set(drawn) == {33_333_333}
    drawn.clear()
    for samples, maxlen, bits in ((1, 33_333_334, 100_000_002), (200, 2**32 - 1, 200 * 3 * (2**32 - 1))):
        with pytest.raises(CheckError, match=f"may draw {bits} bits, more than 100000000"):
            sa.fuzz_axioms(bundle, samples=samples, maxlen=maxlen)
    assert drawn == []


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
    with pytest.raises(ParseError, match=r"^phi b1 repeats the label of line 5 at 7:1$"):
        sa.load_theory(path)


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
        mut = mutate_script(rng, script, bundle.symbols)
        if mut is None:
            continue
        tried += 1
        mut.label = f"mut{tried}"
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
            assert not v.ok, (mut.mutated, mut.statement_text)
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
        if s.label in reg2.entries:
            reg2.entries[s.label].checked = True
        else:
            reg2.add(
                ks.Entry(
                    s.label,
                    "theorem",
                    sx.parse(s.statement_text, "formula", reg2.symbols),
                    checked=True,
                )
            )


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
