import pytest

from proofkit import extend
from proofkit import normform as nf
from proofkit import propcalc as pc
from proofkit import syntax as sx
from proofkit.errors import CheckError
from proofkit.kernel import Entry, Theory, check_proof
from proofkit.meta import extensions as mx, proofs as pg
from proofkit.meta.proofs import ProofBuilder
from proofkit.syntax import (
    App,
    Atom,
    Exists,
    Not,
    Or,
    PredSym,
    Var,
    EPS,
    S0,
    S1,
    PD,
    CAT,
    ZPROD,
)

Q = PredSym("q", 1)
E = App(EPS)
BASE = Theory("B", (Atom(Q, (Var("x"),)),), EPS)
DECL = (EPS, S0, S1, PD, CAT, ZPROD)


def fresh_registry():
    return extend.DefinitionRegistry(BASE, declared=DECL)


# --- registration ---------------------------------------------------------


def test_define_predicate_arguments_in_occurrence_order():
    reg = fresh_registry()
    d = Exists("z", sx.eq(App(CAT, (Var("z"), Var("x"))), Var("y")))
    st = reg.define_predicate("dp", "pref", d)
    assert st.symbol.arity == 2
    lhs = sx.as_iff(st.axiom)[0]
    assert lhs == Atom(st.symbol, (Var("x"), Var("y")))


def test_definiens_must_be_plain_and_known():
    reg = fresh_registry()
    r = sx.special_constant(Exists("x", Atom(Q, (Var("x"),))))
    with pytest.raises(CheckError):
        reg.define_predicate("dp", "bad", sx.eq(r, r))
    alien = PredSym("alien", 1)
    with pytest.raises(CheckError):
        reg.define_predicate("dp", "bad2", Atom(alien, (Var("x"),)))


def test_reregistration_returns_existing_stage():
    reg = fresh_registry()
    d = sx.fand(Atom(Q, (Var("x"),)), Atom(Q, (Var("x"),)))
    s1 = reg.define_predicate("d1", "one", d)
    s2 = reg.define_predicate("d2", "two", d)
    assert s1 is s2 and len(reg.stages) == 1


def test_explicit_function_definition():
    reg = fresh_registry()
    st = reg.define_function_explicit("df", "zee", App(ZPROD, (App(S0, (E,)), Var("x"))))
    assert st.symbol.arity == 1
    assert st.axiom == sx.eq(
        App(st.symbol, (Var("x"),)), App(ZPROD, (App(S0, (E,)), Var("x")))
    )


def _prove_ec_uc_for_pd():
    """EC and UC proofs for the definiens  y = pd x."""
    d = sx.eq(Var("y"), App(PD, (Var("x"),)))
    ex = Exists("y", d)
    fr = nf.freeze(ex)
    cx = fr.witnesses[0][1]
    pb = ProofBuilder()
    ident = pb.delta(sx.eq(App(PD, (cx,)), App(PD, (cx,))))
    subf = pb.delta(
        sx.fimp(sx.eq(App(PD, (cx,)), App(PD, (cx,))), Exists("y", sx.eq(Var("y"), App(PD, (cx,)))))
    )
    frozen = pb.taut(fr.frozen, (ident, subf))
    fp, fi = pg.freeze_proof(ex, fr)
    remap = pb.extend(fp)
    pb.taut(sx.closure(ex), (frozen, remap[fi]))
    ec = pb.build()
    yp = sx.fresh_name("y'", {"x", "y"})
    uc_f = sx.fimp(sx.fand(d, sx.subst(d, {"y": Var(yp)})), sx.eq(Var("y"), Var(yp)))
    fru = nf.freeze(uc_f)
    pb = ProofBuilder()
    gap = mx.quasitaut_gap(pb, fru.frozen, ())
    fp2, fi2 = pg.freeze_proof(uc_f, fru)
    remap2 = pb.extend(fp2)
    pb.taut(sx.closure(uc_f), (gap, remap2[fi2]))
    uc = pb.build()
    return ex, ec, uc


def test_function_extension_with_ec_uc():
    reg = fresh_registry()
    ex, ec, uc = _prove_ec_uc_for_pd()
    st = reg.define_function("dg", "g1", ex, ec, uc)
    assert st.symbol.arity == 1
    with pytest.raises(CheckError):
        reg2 = fresh_registry()
        reg2.define_function("dg", "g1", ex, ec, ProofBuilder().build())


def test_function_extension_by_cited_entries():
    # an entry stating a condition establishes it as its proof does
    ex, ec, uc = _prove_ec_uc_for_pd()
    by_proof = fresh_registry().define_function("dg", "g1", ex, ec, uc)
    ec_entry = Entry("ec", "theorem", ex)
    uc_entry = Entry("uc", "theorem", extend.uniqueness_condition(ex))
    by_entry = fresh_registry().define_function("dg", "g1", ex, ec_entry, uc_entry)
    assert by_entry.axiom == by_proof.axiom and by_entry.uc_proof is None
    with pytest.raises(CheckError, match="existence citation 'uc' states"):
        fresh_registry().define_function("dg", "g1", ex, uc_entry, uc_entry)


def test_reduce_proof_through_a_stage_defined_by_cited_entries_is_refused():
    # the stage holds no proofs of its conditions, only the entries' word
    ex, _, _ = _prove_ec_uc_for_pd()
    ec_entry = Entry("ec", "theorem", ex)
    uc_entry = Entry("uc", "theorem", extend.uniqueness_condition(ex))
    reg = fresh_registry()
    st = reg.define_function("dg", "g1", ex, ec_entry, uc_entry)
    pb = ProofBuilder()
    pb.delta(sx.subst(st.axiom, {"x": E, "y": E}))
    with pytest.raises(CheckError) as err:
        mx.reduce_proof(reg, pb.build())
    assert str(err.value) == (
        "function stage dg has no proof of its existence condition to reduce through"
    )


# --- translation ----------------------------------------------------------


def _zee_leq_registry():
    reg = fresh_registry()
    zee = reg.define_function_explicit(
        "d25", "zee", App(ZPROD, (App(S0, (E,)), Var("x")))
    ).symbol
    leq = reg.define_predicate(
        "d27",
        "leq",
        Exists("z", sx.eq(App(CAT, (App(zee, (Var("z"),)), App(zee, (Var("x"),)))), App(zee, (Var("y"),)))),
    ).symbol
    return reg, zee, leq


def stage_walks(monkeypatch) -> list:
    """The labels of the stages translate_out walks, in order."""
    walks = []
    walk = extend._translate_stage
    monkeypatch.setattr(
        extend, "_translate_stage", lambda stage, f: walks.append(stage.label) or walk(stage, f)
    )
    return walks


def test_translate_out_removes_defined_symbols(monkeypatch):
    # only leq occurs, but its definiens names the older zee, which is then
    # unfolded too; the obligations are as recorded while every stage was
    # walked
    reg, zee, leq = _zee_leq_registry()
    walks = stage_walks(monkeypatch)
    f = Atom(leq, (Var("x"), E))
    out = extend.translate_out(reg, f)
    assert not extend.contains_defined_symbols(reg, out.formula)
    assert walks == ["d27", "d25"]
    unfolded = "(exists z (= (cat (zee z) (zee x)) (zee eps)))"
    base = (
        "(exists z (exists z1 (not (or (not (= z1 (zprod (s0 eps) eps))) (not (exists z2 "
        "(not (or (not (= z2 (zprod (s0 eps) x))) (not (exists z3 (not (or (not (= z3 "
        "(zprod (s0 eps) z))) (not (= (cat z3 z2) z1))))))))))))))"
    )
    sides = [(label, *map(sx.render, sx.as_iff(ob))) for label, ob in out.obligations]
    assert sides == [("d27", "(leq x eps)", unfolded), ("d25", unfolded, base)]
    assert sx.render(out.formula) == base


def test_translate_out_identity_on_base_language(monkeypatch):
    # no defined symbol occurs, so no stage is walked and f itself comes back
    reg, zee, _ = _zee_leq_registry()
    walks = stage_walks(monkeypatch)
    f = sx.fimp(sx.eq(Var("x"), E), sx.eq(E, Var("x")))
    out = extend.translate_out(reg, f)
    assert out.formula is f and out.obligations == () and walks == []
    # leq's stage is newer than zee's and does not occur: it is skipped
    out = extend.translate_out(reg, sx.eq(App(zee, (Var("x"),)), E))
    assert walks == ["d25"] and [label for label, _ in out.obligations] == ["d25"]


def test_translate_single_f_occurrence_shape():
    reg = fresh_registry()
    g1 = reg.define_function_explicit("df", "g1", App(PD, (Var("x"),))).symbol
    f = Atom(Q, (App(g1, (E,)),))
    out = extend.translate_out(reg, f).formula
    assert isinstance(out, Exists)
    guard, body = sx.as_and(out.body)
    assert guard == sx.eq(Var(out.var), App(PD, (E,)))
    assert body == Atom(Q, (Var(out.var),))


def test_translate_rightmost_first_nesting():
    reg = fresh_registry()
    g1 = reg.define_function_explicit("df", "g1", App(PD, (Var("x"),))).symbol
    f = Atom(PredSym("p", 2), (App(g1, (E,)), App(g1, (App(S0, (E,)),))))
    # need p registered? atoms use raw PredSym; translation only matches g1
    out = extend.translate_out(reg, f).formula
    assert not extend.contains_defined_symbols(reg, out)
    # the innermost existential handles the rightmost occurrence
    assert isinstance(out, Exists) and isinstance(sx.as_and(out.body)[1], Exists)


def test_translate_out_rewrites_inside_subscripts():
    reg, _, leq = _zee_leq_registry()
    c = sx.special_constant(Exists("pin_y", Atom(leq, (Var("pin_y"), E))))
    out = extend.translate_out(reg, Atom(Q, (c,))).formula
    (inner,) = out.args
    assert inner == sx.special_constant(extend.translate_out(reg, c.subscript).formula)
    assert not extend.contains_defined_symbols(reg, out)
    plain = sx.special_constant(Exists("pin_u", Atom(Q, (Var("pin_u"),))))
    assert extend.translate_out(reg, Atom(Q, (plain,))).formula.args[0] is plain


def test_f_homomorphism_rewrites_inside_subscripts():
    reg = fresh_registry()
    st = reg.define_function_explicit("df", "g1", App(PD, (Var("x"),)))
    hom = mx._f_hom(st)
    c = sx.special_constant(
        Exists("pin_v", sx.eq(Var("pin_v"), App(st.symbol, (E,))))
    )
    (inner,) = hom(Atom(Q, (c,))).args
    r = sx.special_constant(Exists(st.out_var, sx.eq(Var(st.out_var), App(PD, (E,)))))
    assert inner == sx.special_constant(Exists("pin_v", sx.eq(Var("pin_v"), r)))
    plain = sx.special_constant(Exists("pin_w", Atom(Q, (Var("pin_w"),))))
    assert hom(Atom(Q, (plain,))).args[0] is plain


# --- relativization ---------------------------------------------------------


def test_relativize_shapes():
    phi = Atom(Q, (Var("x"),))
    a = Exists("u", sx.eq(Var("u"), Var("y")))
    rel = extend.relativize(a, phi)
    assert rel.bounded == Exists("u", sx.fand(Atom(Q, (Var("u"),)), sx.eq(Var("u"), Var("y"))))
    assert rel.relativized == sx.fimp(Atom(Q, (Var("y"),)), rel.bounded)
    closed = Not(sx.eq(E, E))
    rel2 = extend.relativize(closed, phi)
    assert rel2.relativized == rel2.bounded == closed


def test_relativization_distributes():
    phi = Atom(Q, (Var("x"),))
    a = Exists("u", Atom(Q, (Var("u"),)))
    b = sx.eq(Var("y"), E)
    assert extend.relativize(Not(a), phi).bounded == Not(extend.relativize(a, phi).bounded)
    assert extend.relativize(Or(a, b), phi).bounded == Or(
        extend.relativize(a, phi).bounded, extend.relativize(b, phi).bounded
    )


def test_relativize_leaves_subscripts_alone():
    phi = Atom(Q, (Var("x"),))
    c = sx.special_constant(Exists("pin_r", Atom(Q, (Var("pin_r"),))))
    f = Exists("u", sx.eq(Var("u"), c))
    bounded = extend.relativize(f, phi).bounded
    assert bounded == Exists("u", sx.fand(Atom(Q, (Var("u"),)), sx.eq(Var("u"), c)))
    assert sx.as_and(bounded.body)[1].args[1] is c


def test_respects_obligations():
    phi = Atom(Q, (Var("x"),))
    ob = extend.respects_obligation(PD, phi)
    assert ob == sx.fimp(sx.conj([Atom(Q, (Var("x1"),))]), Atom(Q, (App(PD, (Var("x1"),)),)))
    assert extend.respects_obligation(EPS, phi) == Atom(Q, (E,))
    term_ob = mx.respects_term_obligation(App(PD, (App(S0, (Var("u"),)),)), phi)
    assert sx.as_imp(term_ob)[1] == Atom(Q, (App(PD, (App(S0, (Var("u"),)),)),))


# --- bounded formulas --------------------------------------------------------


def test_bounded_analysis_strict():
    reg, zee, leq = _zee_leq_registry()
    ok = Exists("z", sx.fand(Atom(leq, (Var("z"), Var("y"))), sx.eq(Var("z"), Var("z"))))
    assert mx.bounded_analysis(ok, leq).bounded
    bad = Exists("z", sx.eq(Var("z"), Var("z")))
    prof = mx.bounded_analysis(bad, leq)
    assert not prof.bounded and prof.offender == bad
    # the bound may not mention the bound variable
    capture = Exists("z", sx.fand(Atom(leq, (Var("z"), App(S0, (Var("z"),)))), sx.eq(Var("z"), E)))
    assert not mx.bounded_analysis(capture, leq).bounded


def test_bounded_translation_through_chain():
    reg, zee, leq = _zee_leq_registry()
    f = Exists("z", sx.fand(Atom(leq, (Var("z"), Var("y"))), sx.eq(Var("z"), E)))
    prof = mx.bounded_translation_check(reg, f, leq)
    assert prof.bounded, prof.offender and sx.render(prof.offender)


# --- reduction ----------------------------------------------------------------


def test_reduce_image_consistency_formula():
    reg, _, _ = _zee_leq_registry()
    assert extend.reduce_image(reg, BASE.zero_ne_zero()) == BASE.zero_ne_zero()


def test_reduce_image_single_p_stage_is_translation():
    reg, zee, leq = _zee_leq_registry()
    f = Atom(leq, (E, E))
    assert extend.reduce_image(reg, f) == extend.translate_out(reg, f).formula


def _reduce_through_every_stage(reg, f):
    """reduce_image's reference: every stage walked, none skipped."""
    for stage in reversed(reg.stages):
        if stage.kind == "r":
            f = extend.relativize(f, stage.phi).relativized
        else:
            f = extend._translate_stage(stage, f)
    return f


@pytest.mark.parametrize("text, walked", [
    ("(q x)", ["d27", "d25"]),  # the guard on x puts leq in
    ("(leq x y)", ["d27", "d25"]),
    ("(exists u (q (zee u)))", ["d27", "d25"]),  # the guard on u
    ("(q (sc (exists y (leq y eps))))", ["d27", "d25"]),  # a subscript's leq
    ("(= eps eps)", []),  # relativizing changes nothing
])
def test_reduce_image_skips_only_stages_it_cannot_use(monkeypatch, text, walked):
    # zee, then leq over zee, then an r-stage whose relativizer names leq:
    # relativizing puts leq in, and unfolding leq puts zee in.  reduce_image
    # reads only a stage's kind, symbol, definiens and relativizer, so the
    # r-stage is logged without its proofs.
    reg, zee, leq = _zee_leq_registry()
    phi = Atom(leq, (Var("x"), App(S0, (E,))))
    reg.stages.append(extend.Stage("r", "r1", R_ADDED, phi=phi))
    symbols = sx.SymbolTable(DECL + (zee, Q, leq))
    f = sx.parse(text, "formula", symbols)
    want = _reduce_through_every_stage(reg, f)
    walks = stage_walks(monkeypatch)
    got = extend.reduce_image(reg, f)
    assert got == want
    assert not extend.contains_defined_symbols(reg, got)
    assert walks == walked


def test_reduce_proof_through_p_stage():
    reg = fresh_registry()
    d = sx.fand(Atom(Q, (Var("x"),)), Atom(Q, (Var("x"),)))
    st = reg.define_predicate("dp", "both", d)
    p2 = st.symbol
    pb = ProofBuilder()
    ax = pb.delta(sx.fiff(Atom(p2, (E,)), sx.subst(d, {"x": E})))
    qq = pb.delta(Atom(Q, (E,)))
    pb.taut(Atom(p2, (E,)), (ax, qq))
    proof = pb.build()
    red = mx.reduce_proof(reg, proof)
    v = check_proof(BASE, red)
    assert v.ok, v.message
    assert red.contains(sx.subst(d, {"x": E}))
    # an equality formula of pp(x) := exists y [x = s0 y] becomes an
    # instance of the equality theorem
    pp = reg.define_predicate("dpp", "pp", Exists("y", sx.eq(Var("x"), App(S0, (Var("y"),))))).symbol
    s0e, s1e = App(S0, (E,)), App(S1, (E,))
    pb = ProofBuilder()
    pb.delta(sx.fimp(sx.fand(sx.eq(s0e, s1e), Atom(pp, (s0e,))), Atom(pp, (s1e,))))
    proof = pb.build()
    assert check_proof(reg.theory(), proof).ok
    red = mx.reduce_proof(reg, proof)
    v = check_proof(BASE, red)
    assert v.ok and len(red.lines) == 9, v.message


def _no_defined_symbol(reg, proof):
    return not any(extend.contains_defined_symbols(reg, l.formula) for l in proof.lines)


def test_reduce_proof_through_explicit_f_stage():
    # q(g(eps)) from the defining equation of g(x) := s0 x and q(s0 eps);
    # g(eps) becomes the special constant of exists y [y = s0 eps]
    reg = fresh_registry()
    g = reg.define_function_explicit("dg", "g", App(S0, (Var("x"),))).symbol
    pb = ProofBuilder()
    defining = pb.delta(sx.eq(App(g, (E,)), App(S0, (E,))))
    q_s0 = pb.delta(Atom(Q, (App(S0, (E,)),)))
    mx.quasitaut_gap(pb, Atom(Q, (App(g, (E,)),)), (defining, q_s0))
    proof = pb.build()
    assert check_proof(reg.theory(), proof).ok
    red = mx.reduce_proof(reg, proof)
    v = check_proof(BASE, red)
    assert v.ok, v.message
    assert _no_defined_symbol(reg, red)
    r = sx.special_constant(Exists("y", sx.eq(Var("y"), App(S0, (E,)))))
    assert red.lines[-1].formula == Atom(Q, (r,))
    # an equality formula of g: each side's constant satisfies the definiens
    # and they are equal by uniqueness
    s0e, s1e = App(S0, (E,)), App(S1, (E,))
    pb = ProofBuilder()
    pb.delta(sx.fimp(sx.eq(s0e, s1e), sx.eq(App(g, (s0e,)), App(g, (s1e,)))))
    proof = pb.build()
    assert check_proof(reg.theory(), proof).ok
    red = mx.reduce_proof(reg, proof)
    v = check_proof(BASE, red)
    assert v.ok and len(red.lines) == 23, v.message
    assert _no_defined_symbol(reg, red)


def test_reduce_proof_through_f_stage_with_ec_uc_proofs():
    # a closed instance of the defining axiom g1(eps) = eps <-> eps = pd eps
    # reduces through the stage's existence and uniqueness proofs
    ex, ec, uc = _prove_ec_uc_for_pd()
    reg = fresh_registry()
    st = reg.define_function("dg", "g1", ex, ec, uc)
    pb = ProofBuilder()
    pb.delta(sx.subst(st.axiom, {"x": E, "y": E}))
    red = mx.reduce_proof(reg, pb.build())
    v = check_proof(BASE, red)
    assert v.ok, v.message
    assert _no_defined_symbol(reg, red)


# The r-extension of BASE by q(pd(x)) relativized to q(x): the relativizer,
# the added axiom, a proof of its relativization, and the respects proofs
# for eps and pd.
R_PHI = Atom(Q, (Var("x"),))
R_ADDED = Atom(Q, (App(PD, (Var("x"),)),))


def r_extension_proofs():
    relA = extend.relativize(R_ADDED, R_PHI).relativized
    fr = nf.freeze(relA)
    cx = fr.witnesses[0][1]
    pb = ProofBuilder()
    ax_inst = pb.delta(Atom(Q, (App(PD, (cx,)),)))
    fp, fi = pg.freeze_proof(relA, fr)
    remap = pb.extend(fp)
    pb.taut(sx.closure(relA), (ax_inst, remap[fi]))
    rel_proof = pb.build()

    def respects(fsym):
        ob = extend.respects_obligation(fsym, R_PHI)
        if not sx.free_vars(ob):
            pb = ProofBuilder()
            pb.delta(ob) if pg.in_delta(BASE, ob) else pb.taut(ob, ())
            return pb.build()
        frp = nf.freeze(ob)
        cp = frp.witnesses[0][1]
        pb = ProofBuilder()
        axp = pb.delta(Atom(Q, (App(fsym, (cp,)),)))
        fpp, fpi = pg.freeze_proof(ob, frp)
        rm = pb.extend(fpp)
        pb.taut(sx.closure(ob), (axp, rm[fpi]))
        return pb.build()

    return rel_proof, {EPS: respects(EPS), PD: respects(PD)}


def test_r_extension_refuses_a_missing_respects_proof():
    rel_proof, respects = r_extension_proofs()
    del respects[PD]
    reg = extend.DefinitionRegistry(BASE, declared=(EPS, PD))
    with pytest.raises(CheckError, match="^missing respects proof for pd$"):
        reg.add_r_extension("r1", R_ADDED, R_PHI, rel_proof, respects)
    assert reg.stages == []


def test_r_extension_refuses_a_failing_relativized_proof():
    # a proof of the unrelativized axiom does not establish its relativization
    _, respects = r_extension_proofs()
    pb = ProofBuilder()
    pb.delta(R_ADDED)
    reg = extend.DefinitionRegistry(BASE, declared=(EPS, PD))
    with pytest.raises(CheckError, match="^proof of the relativized axiom fails$"):
        reg.add_r_extension("r1", R_ADDED, R_PHI, pb.build(), respects)
    assert reg.stages == []


def test_reduce_proof_through_r_stage_with_defaults():
    added = R_ADDED
    reg = extend.DefinitionRegistry(BASE, declared=(EPS, PD))
    reg.add_r_extension("r1", added, R_PHI, *r_extension_proofs())
    e = Exists("u", Atom(Q, (Var("u"),)))
    r = sx.special_constant(Exists("w", Atom(Q, (Var("w"),))))
    pb = ProofBuilder()
    i1 = pb.delta(sx.subst(added, {"x": E}))
    i2 = pb.delta(sx.fimp(Atom(Q, (r,)), e))
    pb.taut(Or(Not(sx.subst(added, {"x": E})), Or(e, Not(Atom(Q, (r,))))), (i1, i2))
    proof = pb.build()
    assert check_proof(reg.theory(), proof).ok
    red = mx.reduce_proof(reg, proof)
    v = check_proof(BASE, red)
    assert v.ok, v.message
    assert all(l.just[0] != "default" for l in red.lines)


# --- default elimination --------------------------------------------------------


def test_eliminate_defaults_example():
    e = Exists("x", Atom(Q, (Var("x"),)))
    r = sx.special_constant(e)
    pb = ProofBuilder()
    d = pb.default(sx.fimp(Not(e), sx.eq(r, E)))
    spa = pb.delta(pg.special_axiom(r))
    pb.taut(Or(Atom(Q, (r,)), sx.eq(r, E)), (d, spa))
    proof = pb.build()
    assert check_proof(Theory("toy", (), EPS), proof, allow_defaults=True).ok
    assert not check_proof(Theory("toy", (), EPS), proof).ok
    out = mx.eliminate_defaults(Theory("toy", (), EPS), proof)
    v = check_proof(Theory("toy", (), EPS), out)
    assert v.ok, v.message
    assert all(l.just[0] != "default" for l in out.lines)


def test_eliminate_defaults_no_defaults_is_renaming():
    e = Exists("x", Atom(Q, (Var("x"),)))
    r = sx.special_constant(e)
    pb = ProofBuilder()
    pb.delta(pg.special_axiom(r))
    out = mx.eliminate_defaults(Theory("toy", (), EPS), pb.build())
    assert check_proof(Theory("toy", (), EPS), out).ok
    # the image line carries the default-compatible constant in place of r
    last = out.lines[-1].formula
    hyp, concl = sx.as_imp(last)
    assert hyp == e and r not in sx.appearing_constants(concl)


def test_default_special_axiom_specializes():
    # the rewritten constant's special axiom restricted to the first
    # disjunct is exactly the (54) shape produced by the eliminator
    e = Exists("x", Atom(Q, (Var("x"),)))
    r = sx.special_constant(e)
    pb = ProofBuilder()
    pb.delta(pg.special_axiom(r))
    out = mx.eliminate_defaults(Theory("toy", (), EPS), pb.build())
    last = out.lines[-1].formula
    hyp, concl = sx.as_imp(last)
    assert hyp == e
    assert isinstance(concl, Atom) and concl.pred == Q
