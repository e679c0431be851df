"""The paper's reductions through an extension chain, kept apart from the
verdict path: the reduction of a proof over the chain to a proof in the
base theory (Theorems 13 and 16), default-formula elimination (Theorem 15),
the bounded-formula analysis and its translation check (Theorem 19), the
respects obligation of a term, and the re-instantiation of the induction
schema's definitions with a concrete relativizer.

Gap-filling in reduced proofs works by running the ground refuter on a gap
and inserting the identity/equality-formula instances its certificate cites
as delta lines, after which the gap closes tautologically."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import CheckError
from .. import checker, propcalc
from .. import syntax as sx
from ..extend import (
    DefinitionRegistry,
    Stage,
    guard_exists,
    phi_at,
    relativize,
    respects_obligation,
    translate_out,
    uniqueness_condition,
)
from ..kernel import Registry, core, scripts as kscripts
from ..kernel.core import ProofObject, Theory
from ..stringarith import TheoryBundle
from ..syntax import (
    App,
    Atom,
    Exists,
    Formula,
    Not,
    Or,
    PredSym,
    SpecialConst,
    Term,
    Var,
    closure,
    fand,
    fimp,
    free_vars,
    special_constant,
    subst,
)
from .proofs import (
    ProofBuilder,
    equality_theorem_proof,
    in_delta,
    map_proof,
    prenex_prefix,
    purge_extraneous,
    special_axiom,
)

# the refutation budget of one gap in a reduced proof
GAP_BUDGET = 50_000


# ---------------------------------------------------------------------------
# relativization obligations


def respects_term_obligation(b: Term, phi: Formula) -> Formula:
    xs = sorted(sx.occurring_var_names(b))
    concl = phi_at(phi, b)
    if not xs:
        return concl
    return fimp(sx.conj([phi_at(phi, Var(x)) for x in xs]), concl)


# ---------------------------------------------------------------------------
# bounded formulas


@dataclass
class BoundedProfile:
    bounded: bool
    offender: Optional[Formula] = None


def bounded_analysis(f: Formula, order: PredSym) -> BoundedProfile:
    """Strict reading: every existential occurrence is  exists x <= b  with
    x not occurring in b."""
    offender = _find_unbounded(f, order, strict=True)
    return BoundedProfile(offender is None, offender)


def _bounded_shape(g: Exists, order: PredSym, strict: bool) -> Optional[str]:
    parts = sx.conjuncts(g.body)
    head = parts[0]
    if (
        isinstance(head, Atom)
        and head.pred == order
        and head.args[0] == Var(g.var)
        and g.var not in sx.occurring_var_names(head.args[1])
    ):
        return "order"
    if strict:
        return None
    # equationally determined witness: some conjunct z = t or t = z, z not in t
    for p in parts:
        if isinstance(p, Atom) and p.pred == sx.EQ:
            for a, b in (p.args, p.args[::-1]):
                if a == Var(g.var) and g.var not in sx.occurring_var_names(b):
                    return "equation"
    # length-only witness: z occurs only under zprod and some conjunct is an
    # equation one side of which is z-free
    if _length_only(g):
        return "length"
    return None


def _length_only(g: Exists) -> bool:
    z = g.var

    def ok(n, under_zprod=False) -> bool:
        """z occurs in n only as an argument of zprod."""
        if isinstance(n, Var) and n.name == z:
            return under_zprod
        zprod = isinstance(n, App) and n.fn.name == "zprod"
        return all(ok(k, zprod) for k in sx.children(n))

    def bounding(f: Formula) -> bool:
        """Some equation in f has z on exactly one side."""
        if isinstance(f, Atom):
            sides = [z in sx.occurring_var_names(t) for t in f.args]
            return f.pred == sx.EQ and sides[0] != sides[1]
        return any(map(bounding, sx.children(f)))

    return ok(g.body) and bounding(g.body)


def _find_unbounded(f: Formula, order: PredSym, strict: bool) -> Optional[Formula]:
    if isinstance(f, Atom):
        return None
    if isinstance(f, Not):
        return _find_unbounded(f.body, order, strict)
    if isinstance(f, Or):
        return _find_unbounded(f.left, order, strict) or _find_unbounded(
            f.right, order, strict
        )
    if isinstance(f, Exists):
        if _bounded_shape(f, order, strict) is None:
            return f
        return _find_unbounded(f.body, order, strict)
    raise TypeError(f)


def bounded_translation_check(
    reg: DefinitionRegistry, f: Formula, order: PredSym
) -> BoundedProfile:
    """Theorem-19-style check: a bounded formula translates to a bounded
    formula, with equationally determined and length-only witnesses admitted
    for the explicit-function and zero-product unfoldings."""
    out = translate_out(reg, f).formula
    offender = _find_unbounded(out, order, strict=False)
    return BoundedProfile(offender is None, offender)


# ---------------------------------------------------------------------------
# reduction of proofs through the chain


def quasitaut_gap(pb: ProofBuilder, goal: Formula, premise_idx: Sequence[int]) -> int:
    """Justify goal from the cited lines plus identity/equality-formula
    delta lines discovered by the ground refuter within GAP_BUDGET."""
    premises = [pb.lines[i].formula for i in premise_idx]
    res = propcalc.ground_refute(premises + [Not(goal)], GAP_BUDGET)
    if not isinstance(res, propcalc.Refutation):
        raise CheckError(f"gap is not quasitautological: {sx.render(goal)}")
    extra = []

    def collect(steps):
        for s in steps:
            if s[0] == "eq_axiom":
                extra.append(s[1])
            elif s[0] == "split":
                collect(s[2])
                collect(s[3])

    collect(res.steps)
    idxs = list(premise_idx)
    for e in dict.fromkeys(extra):
        idxs.append(pb.delta(e))
    return pb.taut(goal, tuple(idxs))


def instantiate_closure(pb: ProofBuilder, closure_idx: int, terms: Sequence[Term]) -> int:
    """From a line holding a closure  forall x1..xn A, derive the closed
    instance at the given variable-free terms via substitution formulas."""
    cur_idx = closure_idx
    cur = pb.lines[closure_idx].formula
    for t in terms:
        pair = sx.as_all(cur)
        if pair is None:
            raise CheckError("instantiate_closure ran past the prefix")
        x, body = pair
        inst = subst(body, {x: t})
        subf = pb.delta(fimp(Not(inst), Exists(x, Not(body))))
        cur_idx = pb.taut(inst, (cur_idx, subf))
        cur = inst
    return cur_idx


def _embed(pb: ProofBuilder, proof: ProofObject, target: Optional[Formula] = None) -> int:
    """Append a finished proof to pb and return the new index of its line
    holding target, or of its last line when target is None."""
    remap = pb.extend(proof)
    if target is None:
        return remap[len(proof.lines) - 1]
    for j, ln in enumerate(proof.lines):
        if ln.formula == target:
            return remap[j]
    raise CheckError(f"embedded proof lacks {sx.render(target)}")


def reduce_proof(reg: DefinitionRegistry, proof: ProofObject) -> ProofObject:
    """The reduction of a proof over the chain to a proof in the base
    theory.  Default formulas introduced by relativized substitution steps
    are eliminated at the end when the final formulas are plain."""
    cur = proof
    used_defaults = False
    for stage in reversed(reg.stages):
        before = reg.theory_before(stage)
        if stage.kind == "p":
            cur = _reduce_p(before, stage, cur)
        elif stage.kind == "f":
            cur = _reduce_f(before, stage, cur)
        elif stage.kind == "r":
            cur, used = _reduce_r(before, stage, cur)
            used_defaults = used_defaults or used
    if used_defaults:
        cur = eliminate_defaults(reg.base, cur)
    return cur


def _p_hom(stage: Stage):
    args = free_vars(stage.definiens)

    def on_atom(atom: Atom) -> Formula:
        if atom.pred == stage.symbol and sx.is_variable_free(atom):
            return subst(stage.definiens, dict(zip(args, atom.args)))
        return atom

    return lambda node: sx.rewrite(node, atom=on_atom)


def _reduce_p(theory: Theory, stage: Stage, proof: ProofObject) -> ProofObject:
    hom = _p_hom(stage)
    pb = ProofBuilder()
    args = free_vars(stage.definiens)

    def on_delta(line):
        f = line.formula
        g = hom(f)
        if line.just[0] == "default":
            return pb.default(g)
        if in_delta(theory, g):
            return pb.delta(g)
        pair = sx.as_iff(f)
        if pair is not None:
            # instance of the defining axiom maps to a tautology C <-> C
            lhs, rhs = pair
            if hom(lhs) == hom(rhs):
                return pb.taut(g, ())
        # an equality formula for the defined predicate becomes an instance
        # of the equality theorem
        horn = checker.as_horn(f)
        if horn is not None:
            parts, concl = horn
            prem = parts[-1]
            if (
                isinstance(prem, Atom)
                and prem.pred == stage.symbol
                and isinstance(concl, Atom)
                and concl.pred == stage.symbol
            ):
                a_terms = [hom(t) for t in prem.args]
                b_terms = [hom(t) for t in concl.args]
                _, sub_proof = equality_theorem_proof(
                    list(args), a_terms, b_terms, stage.definiens
                )
                return pb.taut(g, (_embed(pb, sub_proof),))
        raise CheckError(f"cannot justify reduced line {sx.render(g)}")

    map_proof(pb, proof, hom, on_delta)
    return pb.build()


def _f_hom(stage: Stage):
    """The T13 homomorphism: each variable-free f-application becomes the
    special constant for the corresponding instantiated definiens."""
    f = stage.symbol
    params = free_vars(Exists(stage.out_var, stage.definiens))

    def on_app(t: App) -> Term:
        if t.fn == f and sx.is_variable_free(t):
            inst = subst(stage.definiens, dict(zip(params, t.args)))
            return special_constant(Exists(stage.out_var, inst))
        return t

    return lambda node: sx.rewrite(node, app=on_app)


def _reduce_f(theory: Theory, stage: Stage, proof: ProofObject) -> ProofObject:
    hom = _f_hom(stage)
    pb = ProofBuilder()
    existential = Exists(stage.out_var, stage.definiens)
    params = free_vars(existential)
    y = stage.out_var

    explicit = stage.explicit_body is not None

    def condition(proof: Optional[ProofObject], what: str) -> ProofObject:
        """The stage's proof of its `what` condition: a stage defined by
        cited entries has none."""
        if proof is None:
            raise CheckError(
                f"function stage {stage.label} has no proof of its {what} condition "
                "to reduce through"
            )
        return proof

    def derive_d_at(pb, arg_terms, r) -> int:
        """Line with  D(args, r)  for r the constant for exists y D(args)."""
        inst_e = Exists(y, subst(stage.definiens, dict(zip(params, arg_terms))))
        if explicit:
            # D is y = body; exists y [y = body(args)] via a substitution
            # formula from the identity  body(args) = body(args)
            val = subst(stage.explicit_body, dict(zip(params, arg_terms)))
            ident = pb.delta(sx.eq(val, val))
            subf = pb.delta(fimp(sx.eq(val, val), inst_e))
            e_idx = pb.taut(inst_e, (ident, subf))
        else:
            base = _embed(pb, condition(stage.ec_proof, "existence"), closure(existential))
            e_idx = instantiate_closure(pb, base, list(arg_terms))
        spa = pb.delta(special_axiom(r))
        d_at_r = subst(stage.definiens, {**dict(zip(params, arg_terms)), y: r})
        return pb.taut(d_at_r, (e_idx, spa))

    def derive_uc_at(pb, arg_terms, t1: Term, t2: Term) -> int:
        """Line with  D(args,t1) & D(args,t2) -> t1 = t2."""
        if explicit:
            # D(args, t) is t = body(args): the implication is a
            # quasitautology
            val = subst(stage.explicit_body, dict(zip(params, arg_terms)))
            goal = fimp(fand(sx.eq(t1, val), sx.eq(t2, val)), sx.eq(t1, t2))
            return quasitaut_gap(pb, goal, ())
        uc = closure(uniqueness_condition(existential))
        base = _embed(pb, condition(stage.uc_proof, "uniqueness"), uc)
        # closure order: params then y then y'
        prefix, _ = prenex_prefix(uc)
        order = [x for _, x in prefix]
        binding = {}
        for x in order:
            if x == y:
                binding[x] = t1
            elif x not in params:
                binding[x] = t2
            else:
                binding[x] = arg_terms[list(params).index(x)]
        return instantiate_closure(pb, base, [binding[x] for x in order])

    def on_delta(line):
        f_line = line.formula
        g = hom(f_line)
        if line.just[0] == "default":
            return pb.default(g)
        if in_delta(theory, g):
            return pb.delta(g)
        if explicit:
            # closed instance of the explicit defining equation f(as) = b
            binding = core.match_instance(
                stage.axiom, f_line, frozenset(sx.free_vars(stage.axiom))
            )
            if binding is not None:
                arg_terms = [hom(binding.get(x, theory.zero_term)) for x in params]
                r = special_constant(
                    Exists(y, subst(stage.definiens, dict(zip(params, arg_terms))))
                )
                idx = derive_d_at(pb, arg_terms, r)
                if pb.lines[idx].formula != g:
                    return quasitaut_gap(pb, g, (idx,))
                return idx
        pair = sx.as_iff(f_line)
        if pair is not None:
            lhs, rhs = pair
            # closed instance of the defining axiom: f(as) = b <-> D(as, b)
            if (
                isinstance(lhs, Atom)
                and lhs.pred == sx.EQ
                and isinstance(lhs.args[0], App)
                and lhs.args[0].fn == stage.symbol
            ):
                arg_terms = [hom(t) for t in lhs.args[0].args]
                b_term = hom(lhs.args[1])
                r = special_constant(
                    Exists(y, subst(stage.definiens, dict(zip(params, arg_terms))))
                )
                d_r = derive_d_at(pb, arg_terms, r)
                # forward: r = b -> D(as, b) by the equality theorem
                eq_f, eq_proof = equality_theorem_proof(
                    [y], [r], [b_term],
                    subst(stage.definiens, dict(zip(params, arg_terms))),
                )
                eq_idx = _embed(pb, eq_proof)
                # backward: D(as, b) & D(as, r) -> b = r by UC
                uc_idx = derive_uc_at(pb, arg_terms, b_term, r)
                return quasitaut_gap(pb, g, (d_r, eq_idx, uc_idx))
        horn = checker.as_horn(f_line)
        if horn is not None:
            parts, concl = horn
            if (
                isinstance(concl, Atom)
                and concl.pred == sx.EQ
                and isinstance(concl.args[0], App)
                and concl.args[0].fn == stage.symbol
                and isinstance(concl.args[1], App)
                and concl.args[1].fn == stage.symbol
            ):
                # equality formula for f: as-eqs -> f(as) = f(bs)
                a_terms = [hom(t) for t in concl.args[0].args]
                b_terms = [hom(t) for t in concl.args[1].args]
                r1 = special_constant(
                    Exists(y, subst(stage.definiens, dict(zip(params, a_terms))))
                )
                r2 = special_constant(
                    Exists(y, subst(stage.definiens, dict(zip(params, b_terms))))
                )
                d1 = derive_d_at(pb, a_terms, r1)
                # as-eqs & D(as, r1) -> D(bs, r1)  by the equality theorem
                if list(params):
                    _, eq_proof = equality_theorem_proof(
                        list(params), a_terms, b_terms,
                        subst(stage.definiens, {y: r1}),
                    )
                    eq_idx = _embed(pb, eq_proof)
                else:
                    eq_idx = None
                d2 = derive_d_at(pb, b_terms, r2)
                uc_idx = derive_uc_at(pb, b_terms, r1, r2)
                prem = (d1, d2, uc_idx) + ((eq_idx,) if eq_idx is not None else ())
                return quasitaut_gap(pb, g, prem)
        raise CheckError(f"cannot justify reduced line {sx.render(g)}")

    map_proof(pb, proof, hom, on_delta)
    return pb.build()


def _r_hom(stage: Stage):
    """Relativization entering subscripts, for the lines of a proof."""
    guard = guard_exists(stage.phi)
    return lambda node: sx.rewrite(node, exists=guard)


def _reduce_r(theory: Theory, stage: Stage, proof: ProofObject):
    # bring the proof into the language of T[A] first: respects proofs only
    # cover the function symbols of L(T)
    proof = purge_extraneous(theory.extend(stage.axiom), stage.axiom, proof)
    hom = _r_hom(stage)
    phi = stage.phi
    pb = ProofBuilder()
    used_defaults = [False]

    def derive_phi(pb, t: Term) -> int:
        """Line with phi(t) for a variable-free t of the reduced language,
        using respects proofs, special axioms, and default formulas."""
        goal = phi_at(phi, t)
        if isinstance(t, SpecialConst):
            spa = pb.delta(special_axiom(t))
            dflt = pb.default(fimp(Not(t.subscript), sx.eq(t, theory.zero_term)))
            used_defaults[0] = True
            phi_zero = derive_phi(pb, theory.zero_term)
            # subscript body is phi(x) & ..., so the special axiom yields
            # phi(t) when the instantiation holds; otherwise t = 0 and
            # phi(0) carries over by equality reasoning
            return quasitaut_gap(pb, goal, (spa, dflt, phi_zero))
        if isinstance(t, App):
            child = [derive_phi(pb, a) for a in t.args]
            pr = stage.respects.get(t.fn)
            if pr is None:
                raise CheckError(f"no respects proof for {t.fn.name}")
            base = _embed(pb, pr, closure(respects_obligation(t.fn, phi)))
            if t.args:
                inst = instantiate_closure(pb, base, list(t.args))
            else:
                inst = base
            return pb.taut(goal, tuple(child) + (inst,))
        raise CheckError("cannot establish phi at a non-ground term")

    def on_delta(line):
        f_line = line.formula
        g = hom(f_line)
        if line.just[0] == "default":
            used_defaults[0] = True
            return pb.default(g)
        cls = None
        try:
            cls = core.classify_delta(theory.extend(stage.axiom), f_line)
        except CheckError:
            pass
        if cls is not None and cls.kind == "axiom-instance":
            k = cls.detail[0]
            axioms = theory.axioms + (stage.axiom,)
            ax = axioms[k]
            if ax == stage.axiom:
                # instance of the adjoined axiom: use the registered proof
                # of A^phi
                goal_cls = closure(relativize(stage.axiom, phi).relativized)
                base = _embed(pb, stage.proof, goal_cls)
                binding = dict(cls.detail[1])
                terms = [hom(binding[x]) for x in free_vars(stage.axiom)]
                inst = instantiate_closure(pb, base, terms)
                guards = [derive_phi(pb, t) for t in terms]
                return quasitaut_gap(pb, g, (inst,) + tuple(guards))
            # instance of a prior axiom: open and plain, so its image is
            # itself an instance
            return pb.delta(g)
        if cls is not None and cls.kind == "identity":
            return pb.delta(g)
        if cls is not None and cls.kind == "equality":
            return pb.delta(g)
        if cls is not None and cls.kind == "special-axiom":
            # image is a tautological consequence of the special axiom of
            # the relativized constant
            e = f_line.left.body  # as_imp: Or(Not(e), ...)
            e2 = hom(e)
            r2 = special_constant(e2)
            spa = pb.delta(special_axiom(r2))
            return pb.taut(g, (spa,))
        if cls is not None and cls.kind == "substitution":
            hyp, e = sx.as_imp(f_line)
            e2 = hom(e)  # exists x [phi(x) & D_phi]
            binding = core.match_instance(e.body, hyp, frozenset({e.var}))
            b_term = binding.get(e.var) if binding else None
            if b_term is None:
                b_term = theory.zero_term
            b2 = hom(b_term)
            subf = pb.delta(fimp(subst(e2.body, {e2.var: b2}), e2))
            guard = derive_phi(pb, b2)
            return pb.taut(g, (subf, guard))
        raise CheckError(f"cannot justify relativized line {sx.render(g)}")

    map_proof(pb, proof, hom, on_delta)
    return pb.build(), used_defaults[0]


# ---------------------------------------------------------------------------
# default-formula elimination (Theorem 15)


def _default_repl(theory: Theory):
    """The map r -> r-bar sending each special constant to the constant of
    the default-compatible instantiation (53)."""
    cache: dict = {}

    def bar(c: SpecialConst) -> SpecialConst:
        if c in cache:
            return cache[c]
        e = c.subscript
        body = hom(e.body)
        x = e.var
        xp = sx.fresh_name(x + "'", sx.all_var_names(body) | {x})
        variant = Exists(xp, subst(body, {x: Var(xp)}))
        new_e = Exists(
            x, Or(body, fand(Not(variant), sx.eq(Var(x), theory.zero_term)))
        )
        out = special_constant(new_e)
        cache[c] = out
        return out

    def hom(node):
        return sx.rewrite(node, const=bar)

    return hom, bar


def eliminate_defaults(theory: Theory, proof: ProofObject) -> ProofObject:
    """Rewrite a proof that uses default formulas into one that does not;
    the goal formulas must be plain (they are unchanged by the rewrite)."""
    hom, bar = _default_repl(theory)
    pb = ProofBuilder()

    def prove_54(pb, c: SpecialConst) -> int:
        """exists x B+ -> B+(r-bar)."""
        cb = bar(c)
        e_plus = cb.subscript.body  # B+ v [not variant & x = 0]
        b_plus = e_plus.left
        x = cb.subscript.var
        e_b = Exists(x, b_plus)
        r0 = special_constant(e_b)
        spa0 = pb.delta(special_axiom(r0))
        variant = _variant_of(cb)
        subf_var = pb.delta(fimp(subst(b_plus, {x: r0}), variant))
        q_at_r0 = subst(e_plus, {x: r0})
        subf_q = pb.delta(fimp(q_at_r0, cb.subscript))
        spa_bar = pb.delta(special_axiom(cb))
        goal = fimp(e_b, subst(b_plus, {x: cb}))
        return pb.taut(goal, (spa0, subf_var, subf_q, spa_bar))

    def prove_55(pb, c: SpecialConst) -> int:
        """not exists x B+ -> r-bar = 0."""
        cb = bar(c)
        e_plus = cb.subscript.body
        b_plus = e_plus.left
        x = cb.subscript.var
        e_b = Exists(x, b_plus)
        variant = _variant_of(cb)
        r1 = special_constant(variant)
        spa1 = pb.delta(special_axiom(r1))
        subf1 = pb.delta(fimp(subst(b_plus, {x: r1}), e_b))
        ident = pb.delta(sx.eq(theory.zero_term, theory.zero_term))
        q_at_0 = subst(e_plus, {x: theory.zero_term})
        subf0 = pb.delta(fimp(q_at_0, cb.subscript))
        spa_bar = pb.delta(special_axiom(cb))
        subf_b = pb.delta(fimp(subst(b_plus, {x: cb}), e_b))
        goal = fimp(Not(e_b), sx.eq(cb, theory.zero_term))
        return pb.taut(goal, (spa1, subf1, ident, subf0, spa_bar, subf_b))

    def _variant_of(cb: SpecialConst) -> Exists:
        second = sx.disjuncts(cb.subscript.body)
        pair = sx.as_and(second[1])
        return pair[0].body  # the (not variant) conjunct's body

    def on_delta(line):
        f = line.formula
        g = hom(f)
        if line.just[0] == "default":
            pair = sx.as_imp(f)
            e = pair[0].body
            c = special_constant(e)
            idx = prove_55(pb, c)
            if pb.lines[idx].formula != g:
                raise CheckError("default image mismatch")
            return idx
        cls = core.classify_delta(theory, f)
        if cls.kind == "special-axiom":
            idx = prove_54(pb, cls.owner)
            if pb.lines[idx].formula != g:
                raise CheckError("default elimination image mismatch")
            return idx
        return pb.delta(g)

    map_proof(pb, proof, hom, on_delta)
    return pb.build()


# ---------------------------------------------------------------------------
# the schema re-instantiation device


class _RemapSymbols(sx.SymbolTable):
    """Resolves the uninterpreted schema names to their instantiated
    predicate symbols, leaving everything else alone."""

    def __init__(self, inner: sx.SymbolTable, override: dict):
        super().__init__(inner.language, inner.order)
        self._override = override

    def pred(self, name):
        got = self._override.get(name)
        if got is not None:
            return got
        return super().pred(name)


def instantiate_schema(bundle: TheoryBundle, phi_label: str) -> Registry:
    """A parallel registry in which the schema definitions are re-registered
    with the uninterpreted predicate replaced by a registered concrete
    unary formula; the schema scripts must re-check against it unchanged."""
    phi = bundle.registry.phi_formulas[phi_label]
    out = Registry(bundle.symbols)
    out.phi_formulas = dict(bundle.registry.phi_formulas)
    out.bsi_template = bundle.registry.bsi_template
    reg2 = bundle.definitions.continued(*bundle.schema_symbols)
    mapping = {}
    for label in bundle.registry.order:
        entry = bundle.registry.entries[label]
        if entry.section != "schema":
            out.add(kscripts.Entry(entry.label, entry.kind, entry.statement, entry.section, entry.checked))
            continue
        if entry.kind == "theorem":
            continue  # re-proved against the instantiated statements
        stages = bundle.schema.stages if bundle.schema else []
        stage = next((s for s in stages if s.label == label), None)
        if stage is None or stage.kind != "p":
            raise CheckError(f"cannot re-instantiate schema entry {label}")
        definiens = kscripts.instantiate_phi(stage.definiens, phi)

        def swap(atom):
            repl = mapping.get(atom.pred)
            if repl is not None:
                return Atom(repl, atom.args)
            return atom

        definiens = sx.map_atoms(definiens, swap)
        name = f"{stage.symbol.name}_{phi_label}"
        st2 = reg2.define_predicate(f"{label}_{phi_label}", name, definiens)
        if bundle.symbols.language.pred(name) is None:
            bundle.symbols.language = bundle.symbols.language.extend(predicates=[st2.symbol])
        bundle.stages[st2.symbol] = st2
        mapping[stage.symbol] = st2.symbol
        out.add(kscripts.Entry(label, "definition", st2.axiom, "schema"))
    override = {old.name: new for old, new in mapping.items()}
    if isinstance(phi, Atom) and len(phi.args) == 1 and phi.args[0] == Var("x"):
        override["phi"] = phi.pred
    out.symbols = _RemapSymbols(bundle.symbols, override)
    return out
