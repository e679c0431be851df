"""Extensions by definitions and relativizations: p-/f-/t-/r-extensions, the
translation back into the base language, relativization, default-formula
elimination, bounded-formula analysis, and the reduction of proofs through an
extension chain.

Gap-filling in reduced proofs works by running the ground refuter on a gap
and inserting the identity/equality-formula instances its certificate cites
as delta lines, after which the gap closes tautologically."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import CheckError
from . import normform as nform
from . import propcalc
from . import syntax as sx
from .kernel import core, proofgen
from .kernel.core import ProofBuilder, ProofObject, Theory
from .syntax import (
    App,
    Atom,
    Exists,
    FnSym,
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
    special_axiom,
    special_constant,
    subst,
)


# ---------------------------------------------------------------------------
# the extension log


@dataclass
class Stage:
    kind: str  # "t" | "p" | "f" | "r"
    label: str
    axiom: Formula
    symbol: Optional[object] = None  # PredSym / FnSym for p/f
    definiens: Optional[Formula] = None  # D for p; D (with output var) for f
    out_var: Optional[str] = None  # f: the y of (41)
    explicit_body: Optional[Term] = None  # explicit f-definitions
    proof: Optional[ProofObject] = None  # t: proof; r: proof of A^phi
    ec_proof: Optional[ProofObject] = None
    uc_proof: Optional[ProofObject] = None
    phi: Optional[Formula] = None  # r: the relativizer (unary, free var x)
    respects: dict = field(default_factory=dict)  # r: FnSym -> ProofObject


class DefinitionRegistry:
    """Base theory plus the append-only log of extensions, keyed by
    canonical definiens: re-registering a structurally identical definiens
    returns the existing symbol."""

    def __init__(self, base: Theory, declared=()):
        self.base = base
        self.declared = tuple(declared)  # language symbols beyond occurrences
        self.stages: list[Stage] = []
        self._by_definiens: dict = {}

    def theory(self) -> Theory:
        t = self.base
        for s in self.stages:
            t = t.extend(s.axiom)
        return t

    def theory_before(self, stage: Stage) -> Theory:
        t = self.base
        for s in self.stages:
            if s is stage:
                return t
            t = t.extend(s.axiom)
        return t

    def symbols(self):
        fns, preds = [], []
        for s in self.stages:
            if s.kind == "p":
                preds.append(s.symbol)
            elif s.kind == "f":
                fns.append(s.symbol)
        return fns, preds

    # -- registration ------------------------------------------------------

    def add_t_extension(self, label: str, statement: Formula, proof: Optional[ProofObject] = None, check: bool = True) -> Stage:
        if check:
            if proof is None:
                raise CheckError("t-extension requires a proof")
            if not core.proves(self.theory(), proof, statement):
                raise CheckError(f"proof does not establish {sx.render(statement)}")
        st = Stage("t", label, statement, proof=proof)
        self.stages.append(st)
        return st

    def define_predicate(self, label: str, name: str, definiens: Formula) -> Stage:
        key = ("p", definiens)
        if key in self._by_definiens:
            return self._by_definiens[key]
        if not sx.is_plain(definiens):
            raise CheckError("definiens must be plain")
        self._check_language(definiens)
        args = free_vars(definiens)
        p = PredSym(name, len(args))
        axiom = sx.fiff(Atom(p, tuple(Var(x) for x in args)), definiens)
        st = Stage("p", label, axiom, symbol=p, definiens=definiens)
        self.stages.append(st)
        self._by_definiens[key] = st
        return st

    def define_function_explicit(self, label: str, name: str, body: Term) -> Stage:
        y = sx.fresh_name("y", sx.occurring_var_names(body))
        definiens = sx.eq(Var(y), body)
        key = ("f", Exists(y, definiens))
        if key in self._by_definiens:
            return self._by_definiens[key]
        if not sx.is_plain(body):
            raise CheckError("definiens must be plain")
        self._check_language(definiens)
        args = free_vars(body)
        f = FnSym(name, len(args))
        head = App(f, tuple(Var(x) for x in args))
        axiom = sx.eq(head, body)
        st = Stage(
            "f", label, axiom, symbol=f, definiens=definiens, out_var=y,
            explicit_body=body,
        )
        self.stages.append(st)
        self._by_definiens[key] = st
        return st

    def define_function(
        self,
        label: str,
        name: str,
        existential: Exists,
        ec_proof: ProofObject,
        uc_proof: ProofObject,
    ) -> Stage:
        key = ("f", existential)
        if key in self._by_definiens:
            return self._by_definiens[key]
        if not isinstance(existential, Exists):
            raise CheckError("function definition wants an existential formula")
        y = existential.var
        definiens = existential.body
        if not sx.is_plain(definiens):
            raise CheckError("definiens must be plain")
        self._check_language(definiens)
        t = self.theory()
        if not core.proves(t, ec_proof, existential):
            raise CheckError("existence condition unproved")
        yp = sx.fresh_name(y + "'", sx.occurring_var_names(definiens))
        uc = fimp(
            fand(definiens, subst(definiens, {y: Var(yp)})), sx.eq(Var(y), Var(yp))
        )
        if not core.proves(t, uc_proof, uc):
            raise CheckError("uniqueness condition unproved")
        args = free_vars(existential)
        f = FnSym(name, len(args))
        head = App(f, tuple(Var(x) for x in args))
        axiom = sx.fiff(sx.eq(head, Var(y)), definiens)
        st = Stage(
            "f", label, axiom, symbol=f, definiens=definiens, out_var=y,
            ec_proof=ec_proof, uc_proof=uc_proof,
        )
        self.stages.append(st)
        self._by_definiens[key] = st
        return st

    def add_r_extension(
        self,
        label: str,
        added: Formula,
        phi: Formula,
        proof: ProofObject,
        respects: Optional[dict] = None,
        check: bool = True,
    ) -> Stage:
        """Adjoin a plain axiom A given a relativizer phi with a checked
        proof of A^phi; respects-proofs cover the function symbols of L(T)
        (the nonlogical-axiom obligations hold automatically for open
        theories)."""
        t = self.theory()
        if tuple(free_vars(phi)) != ("x",):
            raise CheckError("relativizer must be unary with free variable x")
        if not sx.is_plain(added):
            raise CheckError("r-extension axiom must be plain")
        respects = dict(respects or {})
        if check:
            if not t.is_open():
                raise CheckError("r-extensions require an open prior theory here")
            goal = relativize(added, phi).relativized
            if not core.proves(t, proof, goal):
                raise CheckError("proof of the relativized axiom fails")
            language = (
                t.language_symbols()
                | {t.zero}
                | set(self.declared)
                | sx.appearing_symbols(added)
            )
            for fsym in sorted(language, key=lambda s: s.name):
                if not isinstance(fsym, FnSym):
                    continue
                ob = respects_obligation(fsym, phi)
                pr = respects.get(fsym)
                if pr is None or not core.proves(t, pr, ob):
                    raise CheckError(f"missing respects proof for {fsym.name}")
        st = Stage("r", label, added, phi=phi, proof=proof, respects=respects)
        self.stages.append(st)
        return st

    def _check_language(self, f: Formula):
        known = set(self.base.language_symbols()) | set(self.declared)
        for s in self.stages:
            if s.symbol is not None:
                known.add(s.symbol)
        for symb in sx.appearing_symbols(f):
            if symb not in known:
                raise CheckError(f"definiens uses unregistered symbol {symb.name}")


# ---------------------------------------------------------------------------
# translation out of p/f extensions


def _variant_avoiding(d: Formula, avoid) -> Formula:
    return sx.make_adjusted_variant(d, avoid)


def _translate_p_atom(stage: Stage, atom: Atom, avoid) -> Formula:
    d = _variant_avoiding(stage.definiens, avoid)
    args = free_vars(stage.definiens)
    return subst(d, dict(zip(args, atom.args)))


def _translate_f_in_atom(stage: Stage, atom: Atom, avoid: set) -> Formula:
    """Eliminate every occurrence of the stage's function symbol from one
    atomic formula, rightmost first, introducing an existential per
    occurrence."""
    f = stage.symbol

    def rightmost(n):
        """Path to the rightmost f-application in a term or atom, or None."""
        kids = sx.children(n)
        for i in range(len(kids) - 1, -1, -1):
            got = rightmost(kids[i])
            if got is not None:
                return (i,) + got
        if isinstance(n, App) and n.fn == f:
            return ()
        return None

    path = rightmost(atom)
    if path is None:
        return atom
    occurrence = sx.node_at(atom, path)
    z = sx.fresh_name("z", avoid | sx.occurring_var_names(atom))
    avoid = avoid | {z}
    reduced = sx.replace_at(atom, path, Var(z))
    inner = _translate_f_in_atom(stage, reduced, avoid)
    d = _variant_avoiding(stage.definiens, avoid | sx.occurring_var_names(atom))
    params = free_vars(Exists(stage.out_var, stage.definiens))
    binding = dict(zip(params, occurrence.args))
    binding[stage.out_var] = Var(z)
    cond = subst(d, binding)
    return Exists(z, fand(cond, inner))


@dataclass
class TranslationResult:
    formula: Formula
    obligations: tuple  # (stage label, biconditional) pairs


def translate_out(reg: DefinitionRegistry, f: Formula) -> TranslationResult:
    """Eliminate all defined symbols, stage by stage from the most recent;
    the stagewise equivalences are returned as kernel obligations."""
    obligations = []
    cur = f
    for stage in reversed(reg.stages):
        if stage.kind not in ("p", "f"):
            continue
        nxt = _translate_stage(stage, cur)
        if nxt != cur:
            obligations.append((stage.label, sx.fiff(cur, nxt)))
        cur = nxt
    return TranslationResult(cur, tuple(obligations))


def _translate_stage(stage: Stage, f: Formula) -> Formula:
    avoid = set(sx.all_var_names(f))

    def on_atom(atom: Atom) -> Formula:
        if stage.kind == "p" and atom.pred == stage.symbol:
            return _translate_p_atom(stage, atom, avoid | sx.occurring_var_names(atom))
        if stage.kind == "f":
            return _translate_f_in_atom(stage, atom, avoid)
        return atom

    return sx.rewrite(f, atom=on_atom)


def contains_defined_symbols(reg: DefinitionRegistry, f: Formula) -> bool:
    defined = {s.symbol for s in reg.stages if s.symbol is not None}
    return bool(sx.appearing_symbols(f) & defined)


# ---------------------------------------------------------------------------
# relativization


@dataclass
class Relativization:
    bounded: Formula  # A_phi
    relativized: Formula  # A^phi = phi(free A) -> A_phi (A_phi when closed)


def _phi_at(phi: Formula, t: Term) -> Formula:
    return subst(phi, {"x": t})


def _guard_exists(phi: Formula):
    """The relativizing map on a rebuilt existential: exists x [phi(x) & B]."""
    return lambda g: Exists(g.var, fand(_phi_at(phi, Var(g.var)), g.body))


def relativize(f: Formula, phi: Formula) -> Relativization:
    if tuple(free_vars(phi)) != ("x",):
        raise CheckError("relativizer must be unary with free variable x")
    bounded = sx.rewrite(f, exists=_guard_exists(phi), const=lambda c: c)
    frees = free_vars(f)
    if not frees:
        return Relativization(bounded, bounded)
    guard = sx.conj([_phi_at(phi, Var(x)) for x in frees])
    return Relativization(bounded, fimp(guard, bounded))


def respects_obligation(fsym: FnSym, phi: Formula) -> Formula:
    xs = [f"x{i+1}" for i in range(fsym.arity)]
    concl = _phi_at(phi, App(fsym, tuple(Var(x) for x in xs)))
    if not xs:
        return concl
    return fimp(sx.conj([_phi_at(phi, Var(x)) for x in xs]), concl)


def respects_term_obligation(b: Term, phi: Formula) -> Formula:
    xs = sorted(sx.occurring_var_names(b))
    concl = _phi_at(phi, b)
    if not xs:
        return concl
    return fimp(sx.conj([_phi_at(phi, Var(x)) for x in xs]), concl)


# ---------------------------------------------------------------------------
# bounded formulas


@dataclass
class BoundedProfile:
    bounded: bool
    offender: Optional[Formula] = None
    categories: tuple = ()


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
# reduction of formulas and proofs through the chain


def reduce_image(reg: DefinitionRegistry, f: Formula) -> Formula:
    cur = f
    for stage in reversed(reg.stages):
        if stage.kind == "t":
            continue
        if stage.kind in ("p", "f"):
            cur = _translate_stage(stage, cur)
        elif stage.kind == "r":
            cur = relativize(cur, stage.phi).relativized
    return cur


def quasitaut_gap(
    pb: ProofBuilder, goal: Formula, premise_idx: Sequence[int], budget: int = 50_000
) -> int:
    """Justify goal from the cited lines plus identity/equality-formula
    delta lines discovered by the ground refuter."""
    premises = [pb.lines[i].formula for i in premise_idx]
    res = propcalc.ground_refute(premises + [Not(goal)], budget)
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
        if stage.kind == "t":
            cur = _reduce_t(before, stage, cur)
        elif stage.kind == "p":
            cur = _reduce_p(before, stage, cur)
        elif stage.kind == "f":
            cur = _reduce_f(before, stage, cur)
        elif stage.kind == "r":
            cur, used = _reduce_r(before, stage, cur)
            used_defaults = used_defaults or used
    if used_defaults:
        cur = eliminate_defaults(reg.base, cur)
    return cur


def _reduce_t(theory: Theory, stage: Stage, proof: ProofObject) -> ProofObject:
    pb = ProofBuilder()
    base_idx = None

    def on_delta(line):
        nonlocal base_idx
        f = line.formula
        if line.just[0] == "default":
            return pb.default(f)
        if core.in_delta(theory, f):
            return pb.delta(f)
        # a closed instance of the t-axiom: embed its proof, instantiate
        if base_idx is None:
            base_idx = _embed(pb, stage.proof, closure(stage.axiom))
        binding = core.match_instance(
            stage.axiom, f, frozenset(free_vars(stage.axiom))
        )
        if binding is None:
            raise CheckError("delta line is not an instance of the t-axiom")
        terms = [binding.get(x, theory.zero_term) for x in free_vars(stage.axiom)]
        return instantiate_closure(pb, base_idx, terms)

    core.map_proof(pb, proof, lambda f: f, on_delta)
    return pb.build()


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
        if core.in_delta(theory, g):
            return pb.delta(g)
        pair = sx.as_iff(f)
        if pair is not None:
            # instance of the defining axiom maps to a tautology C <-> C
            lhs, rhs = pair
            if hom(lhs) == hom(rhs):
                return pb.taut(g, ())
        # an equality formula for the defined predicate becomes an instance
        # of the equality theorem
        horn = propcalc._as_horn(f)
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
                _, sub_proof = proofgen.equality_theorem_proof(
                    list(args), a_terms, b_terms, stage.definiens
                )
                return pb.taut(g, (_embed(pb, sub_proof),))
        raise CheckError(f"cannot justify reduced line {sx.render(g)}")

    core.map_proof(pb, proof, hom, on_delta)
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


def _f_ec_closure(stage: Stage) -> Formula:
    return closure(Exists(stage.out_var, stage.definiens))


def _f_uc_closure(stage: Stage) -> Formula:
    y = stage.out_var
    d = stage.definiens
    yp = sx.fresh_name(y + "'", sx.occurring_var_names(d))
    return closure(fimp(fand(d, subst(d, {y: Var(yp)})), sx.eq(Var(y), Var(yp))))


def _reduce_f(theory: Theory, stage: Stage, proof: ProofObject) -> ProofObject:
    hom = _f_hom(stage)
    pb = ProofBuilder()
    params = free_vars(Exists(stage.out_var, stage.definiens))
    y = stage.out_var

    explicit = stage.explicit_body is not None

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
            base = _embed(pb, stage.ec_proof, _f_ec_closure(stage))
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
        uc = _f_uc_closure(stage)
        base = _embed(pb, stage.uc_proof, uc)
        # closure order: params then y then y'
        prefix, _ = nform.prenex_prefix(uc)
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
        if core.in_delta(theory, g):
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
                eq_f, eq_proof = proofgen.equality_theorem_proof(
                    [y], [r], [b_term],
                    subst(stage.definiens, dict(zip(params, arg_terms))),
                )
                eq_idx = _embed(pb, eq_proof)
                # backward: D(as, b) & D(as, r) -> b = r by UC
                uc_idx = derive_uc_at(pb, arg_terms, b_term, r)
                return quasitaut_gap(pb, g, (d_r, eq_idx, uc_idx))
        horn = propcalc._as_horn(f_line)
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
                    _, eq_proof = proofgen.equality_theorem_proof(
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

    core.map_proof(pb, proof, hom, on_delta)
    return pb.build()


def _r_hom(stage: Stage):
    """Relativization entering subscripts, for the lines of a proof."""
    guard = _guard_exists(stage.phi)
    return lambda node: sx.rewrite(node, exists=guard)


def _reduce_r(theory: Theory, stage: Stage, proof: ProofObject):
    # bring the proof into the language of T[A] first: respects proofs only
    # cover the function symbols of L(T)
    proof = core.purge_extraneous(theory.extend(stage.axiom), stage.axiom, proof)
    hom = _r_hom(stage)
    phi = stage.phi
    pb = ProofBuilder()
    used_defaults = [False]

    def derive_phi(pb, t: Term) -> int:
        """Line with phi(t) for a variable-free t of the reduced language,
        using respects proofs, special axioms, and default formulas."""
        goal = _phi_at(phi, t)
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

    core.map_proof(pb, proof, hom, on_delta)
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
        out = special_constant(new_e, (c.alias or "c") + "~")
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

    core.map_proof(pb, proof, hom, on_delta)
    return pb.build()
