"""Extensions by definitions and relativizations: p-/f-/r-extensions, the
translation back into the base language, relativization, and the image of a
formula under the reduction through an extension chain.  The reduction of
proofs, default-formula elimination and the bounded-formula analysis are in
meta.extensions."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import CheckError
from . import syntax as sx
from .kernel import core
from .kernel.core import ProofObject, Theory
from .syntax import (
    App,
    Atom,
    Exists,
    FnSym,
    Formula,
    PredSym,
    Term,
    Var,
    fand,
    fimp,
    free_vars,
    subst,
)


# ---------------------------------------------------------------------------
# the extension log


class Stage(NamedTuple):
    kind: str  # "p" | "f" | "r"
    label: str
    axiom: Formula
    symbol: Optional[object] = None  # PredSym / FnSym for p/f
    definiens: Optional[Formula] = None  # D for p; D (with output var) for f
    out_var: Optional[str] = None  # f: the y of (41)
    explicit_body: Optional[Term] = None  # explicit f-definitions
    proof: Optional[ProofObject] = None  # r: proof of A^phi
    ec_proof: Optional[ProofObject] = None
    uc_proof: Optional[ProofObject] = None
    phi: Optional[Formula] = None  # r: the relativizer (unary, free var x)
    respects: Optional[dict] = None  # r: FnSym -> ProofObject
    unfolding: Optional["Unfolding"] = None  # p/f: what an occurrence reads


class Unfolding(NamedTuple):
    params: tuple  # the definiens' variables the symbol's arguments replace
    binders: frozenset  # the definiens' bound variables
    adjusted: bool  # distinct binders, none of them free


def _unfolded(stage: Stage) -> Stage:
    """A p- or f-stage with what every occurrence of its symbol reads."""
    binders = []
    sx.rewrite(stage.definiens, exists=lambda e: binders.append(e.var) or e)
    bound = frozenset(binders)
    frees = free_vars(stage.definiens)
    params = free_vars(Exists(stage.out_var, stage.definiens)) if stage.kind == "f" else frees
    adjusted = len(bound) == len(binders) and bound.isdisjoint(frees)
    return stage._replace(unfolding=Unfolding(params, bound, adjusted))


class DefinitionRegistry:
    """Base theory plus the append-only log of extensions, keyed by
    canonical definiens: re-registering a structurally identical definiens
    returns the existing symbol.  Only this class builds and logs a stage,
    and `defined` is the one index from a defined symbol to its stage."""

    def __init__(self, base: Theory, declared=()):
        self.base = base
        self.declared = tuple(declared)  # language symbols beyond occurrences
        self.stages: list[Stage] = []
        self.defined: dict = {}  # FnSym or PredSym -> its p- or f-stage
        self._by_definiens: dict = {}

    def continued(self, *declared) -> "DefinitionRegistry":
        """A chain over the same base theory that starts with this chain's
        stages and logs its own after them, with `declared` added to the
        language."""
        out = DefinitionRegistry(self.base, self.declared + declared)
        out.stages = list(self.stages)
        out.defined = dict(self.defined)
        out._by_definiens = dict(self._by_definiens)
        return out

    def theory(self) -> Theory:
        return self.theory_before(None)

    def theory_before(self, stage: Optional[Stage]) -> Theory:
        """The base theory with the stages' axioms before `stage` (all for None)."""
        t = self.base
        for s in self.stages:
            if s is stage:
                return t
            t = t.extend(s.axiom)
        return t

    # -- registration ------------------------------------------------------

    def define_predicate(self, label: str, name: str, definiens: Formula) -> Stage:
        def build():
            args = free_vars(definiens)
            p = PredSym(name, len(args))
            axiom = sx.fiff(Atom(p, tuple(Var(x) for x in args)), definiens)
            return Stage("p", label, axiom, symbol=p, definiens=definiens)

        return self._define(("p", definiens), definiens, build)

    def define_function_explicit(self, label: str, name: str, body: Term) -> Stage:
        y = sx.fresh_name("y", sx.occurring_var_names(body))
        definiens = sx.eq(Var(y), body)

        def build():
            args = free_vars(body)
            f = FnSym(name, len(args))
            axiom = sx.eq(App(f, tuple(Var(x) for x in args)), body)
            return Stage(
                "f", label, axiom, symbol=f, definiens=definiens, out_var=y,
                explicit_body=body,
            )

        return self._define(("f", Exists(y, definiens)), definiens, build)

    def define_function(self, label: str, name: str, existential: Exists, ec, uc) -> Stage:
        """The function f(xs) = the y with D, for `existential` exists y D.
        `ec` and `uc` establish its existence and uniqueness conditions in
        the chain's theory: each is a proof of its condition, or a registry
        entry (kernel.scripts.Entry) that states it."""
        if not isinstance(existential, Exists):
            raise CheckError("function definition wants an existential formula")
        y, definiens = existential.var, existential.body

        def build():
            t = self.theory()
            ec_proof = _establish(t, ec, existential, "existence")
            uc_proof = _establish(t, uc, uniqueness_condition(existential), "uniqueness")
            args = free_vars(existential)
            f = FnSym(name, len(args))
            head = App(f, tuple(Var(x) for x in args))
            axiom = sx.fiff(sx.eq(head, Var(y)), definiens)
            return Stage(
                "f", label, axiom, symbol=f, definiens=definiens, out_var=y,
                ec_proof=ec_proof, uc_proof=uc_proof,
            )

        return self._define(("f", existential), definiens, build)

    def add_r_extension(
        self,
        label: str,
        added: Formula,
        phi: Formula,
        proof: ProofObject,
        respects: Optional[dict] = None,
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

    def _define(self, key: tuple, definiens: Formula, build) -> Stage:
        """The stage logged under `key`, else the one `build()` makes once
        the definiens is found plain and in the chain's language, logged
        with its unfolding."""
        got = self._by_definiens.get(key)
        if got is not None:
            return got
        if not sx.is_plain(definiens):
            raise CheckError("definiens must be plain")
        known = set(self.base.language_symbols()) | set(self.declared)
        for symb in sx.appearing_symbols(definiens):
            if symb not in known and symb not in self.defined:
                raise CheckError(f"definiens uses unregistered symbol {symb.name}")
        st = _unfolded(build())
        self.stages.append(st)
        self.defined[st.symbol] = st
        self._by_definiens[key] = st
        return st


def uniqueness_condition(existential: Exists) -> Formula:
    """D & D(y') -> y = y'  for the definiens D of  exists y D."""
    y, d = existential.var, existential.body
    yp = sx.fresh_name(y + "'", sx.occurring_var_names(d))
    return fimp(fand(d, subst(d, {y: Var(yp)})), sx.eq(Var(y), Var(yp)))


def _establish(theory: Theory, evidence, condition: Formula, what: str) -> Optional[ProofObject]:
    """Refuse evidence that does not establish the condition: a proof that
    does not prove it in the theory, or a registry entry that states
    something else.  The proof is returned, an entry gives None."""
    if isinstance(evidence, ProofObject):
        if not core.proves(theory, evidence, condition):
            raise CheckError(f"{what} condition unproved")
        return evidence
    if evidence.statement != condition:
        raise CheckError(
            f"{what} citation {evidence.label!r} states {sx.render(evidence.statement)}, "
            f"need {sx.render(condition)}"
        )
    return None


# ---------------------------------------------------------------------------
# translation out of p/f extensions


def _variant(stage: Stage, avoid) -> Formula:
    """An adjusted variant of the stage's definiens with no binder in avoid:
    the definiens itself when it is adjusted and already avoids it (the
    variant make_adjusted_variant would build is then equal to it)."""
    u = stage.unfolding
    if u.adjusted and u.binders.isdisjoint(avoid):
        return stage.definiens
    return sx.make_adjusted_variant(stage.definiens, avoid)


def _translate_p_atom(stage: Stage, atom: Atom, avoid) -> Formula:
    """The definiens at the atom's arguments.  avoid holds the atom's
    variables and the variant binds none of them, so no argument is
    captured and the substitution needs no capture check."""
    binding = dict(zip(stage.unfolding.params, atom.args))
    return subst(_variant(stage, avoid), binding, check=False)


def _translate_f_in_atom(stage: Stage, atom: Atom, avoid: set) -> Formula:
    """Eliminate every occurrence of the stage's function symbol from one
    atomic formula, rightmost first, introducing an existential per
    occurrence.  Each variant of the definiens binds neither a variable of
    the atom, where the occurrence's arguments come from, nor the fresh z,
    so the substitution needs no capture check."""
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
    d = _variant(stage, avoid | sx.occurring_var_names(atom))
    binding = dict(zip(stage.unfolding.params, occurrence.args))
    binding[stage.out_var] = Var(z)
    cond = subst(d, binding, check=False)
    return Exists(z, fand(cond, inner))


class TranslationResult(NamedTuple):
    formula: Formula
    obligations: tuple  # (stage label, biconditional) pairs


def translate_out(reg: DefinitionRegistry, f: Formula) -> TranslationResult:
    """Eliminate all defined symbols, stage by stage from the most recent;
    the stagewise equivalences are returned as kernel obligations.

    A stage is walked only when its symbol can still occur: the symbols
    that can occur are f's own (subscripts included, as the walk enters
    them) and those of each definiens unfolded so far, since an unfolding
    puts only its definiens' symbols in.  Stages run newest first and a
    definiens names only symbols older than its own, so a stage's symbol,
    once unfolded, never comes back.  A skipped stage's walk would have
    returned the formula unchanged, and rewrite returns an unchanged node
    as it is, so `is not` tells which walks changed something."""
    obligations = []
    cur = f
    live = set(sx.appearing_symbols(f))
    for stage in reversed(reg.stages):
        if stage.kind not in ("p", "f") or stage.symbol not in live:
            continue
        nxt = _translate_stage(stage, cur)
        if nxt is not cur:
            obligations.append((stage.label, sx.fiff(cur, nxt)))
            live |= sx.appearing_symbols(stage.definiens)
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
    return not sx.appearing_symbols(f).isdisjoint(reg.defined)


# ---------------------------------------------------------------------------
# relativization


class Relativization(NamedTuple):
    bounded: Formula  # A_phi
    relativized: Formula  # A^phi = phi(free A) -> A_phi (A_phi when closed)


def phi_at(phi: Formula, t: Term) -> Formula:
    """The relativizer phi (free variable x) at the term t."""
    return subst(phi, {"x": t})


def guard_exists(phi: Formula):
    """The relativizing map on a rebuilt existential: exists x [phi(x) & B]."""
    return lambda g: Exists(g.var, fand(phi_at(phi, Var(g.var)), g.body))


def relativize(f: Formula, phi: Formula) -> Relativization:
    if tuple(free_vars(phi)) != ("x",):
        raise CheckError("relativizer must be unary with free variable x")
    bounded = sx.rewrite(f, exists=guard_exists(phi), const=lambda c: c)
    frees = free_vars(f)
    if not frees:
        return Relativization(bounded, bounded)
    guard = sx.conj([phi_at(phi, Var(x)) for x in frees])
    return Relativization(bounded, fimp(guard, bounded))


def respects_obligation(fsym: FnSym, phi: Formula) -> Formula:
    xs = [f"x{i+1}" for i in range(fsym.arity)]
    concl = phi_at(phi, App(fsym, tuple(Var(x) for x in xs)))
    if not xs:
        return concl
    return fimp(sx.conj([phi_at(phi, Var(x)) for x in xs]), concl)


# ---------------------------------------------------------------------------
# reduction of formulas and proofs through the chain


def reduce_image(reg: DefinitionRegistry, f: Formula) -> Formula:
    """f's image through the chain, newest stage first.  A p- or f-stage
    whose symbol can no longer occur is skipped, by translate_out's rule: a
    stage that changes the formula adds the symbols it put in, those of a
    definiens or of a relativizer."""
    cur = f
    live = set(sx.appearing_symbols(f))
    for stage in reversed(reg.stages):
        if stage.kind == "r":
            nxt, put_in = relativize(cur, stage.phi).relativized, stage.phi
        elif stage.symbol in live:
            nxt, put_in = _translate_stage(stage, cur), stage.definiens
        else:
            continue
        if nxt is not cur:
            live |= sx.appearing_symbols(put_in)
        cur = nxt
    return cur
