"""The trusted core: theories, the five closed-formula classes proofs draw
from, proof checking, and the classical proof transformations (deduction,
purge of extraneous symbols, special-sequence extraction)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..errors import BudgetExhausted, CheckError, SizeGuardExceeded
from .. import propcalc
from .. import syntax as sx
from ..syntax import (
    App,
    Atom,
    Exists,
    FnSym,
    Formula,
    Not,
    Or,
    SpecialConst,
    Term,
    Var,
    EQ,
    closure,
    free_vars,
    special_constant,
    subst,
)


@dataclass(frozen=True)
class Theory:
    """A finite sequence of nonlogical axioms plus the distinguished
    constant playing the role of 0 (eps for string arithmetic)."""

    label: str
    axioms: tuple[Formula, ...]
    zero: FnSym

    def extend(self, extra: Formula) -> "Theory":
        return Theory(f"{self.label}+", self.axioms + (extra,), self.zero)

    @property
    def zero_term(self) -> Term:
        return App(self.zero)

    def language_symbols(self) -> frozenset:
        syms = frozenset({self.zero})
        for a in self.axioms:
            syms |= sx.appearing_symbols(a)
        return syms

    def is_open(self) -> bool:
        return all(sx.is_open(a) and sx.is_plain(a) for a in self.axioms)

    def rank_profile(self) -> int:
        return max((sx.nested_rank(a) for a in self.axioms), default=0)

    def zero_eq_zero(self) -> Formula:
        return sx.eq(self.zero_term, self.zero_term)

    def zero_ne_zero(self) -> Formula:
        return Not(self.zero_eq_zero())


# ---------------------------------------------------------------------------
# the five delta classes


@dataclass(frozen=True)
class DeltaClass:
    kind: str  # special-axiom | substitution | identity | equality | axiom-instance
    owner: Optional[SpecialConst] = None  # for special-axiom / substitution
    detail: tuple = ()


def match_instance(pattern: Formula, candidate: Formula, variables) -> Optional[dict]:
    """Match candidate as pattern with variable-free terms substituted for
    the given free variables of pattern (anti-substitution)."""
    binding: dict = {}

    def terms(p: Term, c: Term, shadowed) -> bool:
        if isinstance(p, Var):
            if p.name in variables and p.name not in shadowed:
                if p.name in binding:
                    return binding[p.name] == c
                if not sx.is_variable_free(c):
                    return False
                binding[p.name] = c
                return True
            return p == c
        if isinstance(p, App) and isinstance(c, App) and p.fn == c.fn:
            return all(terms(a, b, shadowed) for a, b in zip(p.args, c.args))
        return p == c

    def walk(p: Formula, c: Formula, shadowed) -> bool:
        if isinstance(p, Atom) and isinstance(c, Atom) and p.pred == c.pred:
            return all(terms(a, b, shadowed) for a, b in zip(p.args, c.args))
        if isinstance(p, Not) and isinstance(c, Not):
            return walk(p.body, c.body, shadowed)
        if isinstance(p, Or) and isinstance(c, Or):
            return walk(p.left, c.left, shadowed) and walk(p.right, c.right, shadowed)
        if isinstance(p, Exists) and isinstance(c, Exists) and p.var == c.var:
            return walk(p.body, c.body, shadowed | {p.var})
        return False

    if walk(pattern, candidate, frozenset()):
        return binding
    return None


def classify_delta(
    theory: Theory, f: Formula, rho_cap: Optional[int] = None
) -> DeltaClass:
    """Classify a closed formula into one of the five delta classes, or
    raise CheckError with a nearest-miss diagnosis."""
    return check_rank_cap(classify_matched(theory, f, match_special(f)), rho_cap)


def classify_matched(
    theory: Theory, f: Formula, special: Optional[DeltaClass]
) -> DeltaClass:
    """`classify_delta` without the rank cap, for a formula whose
    `match_special` result is already known."""
    if free_vars(f):
        raise CheckError("delta formulas are closed")
    if special is not None:
        return special
    misses = ["not a special axiom", "not a substitution formula"]

    if propcalc.is_identity_instance(f):
        return DeltaClass("identity")
    misses.append("not an identity formula")

    if propcalc.is_equality_axiom_instance(f):
        return DeltaClass("equality")
    misses.append("not an equality formula")

    for k, ax in enumerate(theory.axioms):
        binding = match_instance(ax, f, frozenset(free_vars(ax)))
        if binding is not None:
            return DeltaClass("axiom-instance", detail=(k, tuple(sorted(binding.items()))))
    misses.append(f"not a closed instance of any of the {len(theory.axioms)} axioms")
    raise CheckError("; ".join(misses))


def match_special(f: Formula) -> Optional[DeltaClass]:
    """The special-axiom or substitution class of f, whose owner is the
    special constant f belongs to, or None when f is neither.  Only a
    closed formula matches."""
    pair = sx.as_imp(f)
    if pair is None:
        return None
    hyp, concl = pair
    if isinstance(hyp, Exists) and not free_vars(hyp):
        r = special_constant(hyp)
        if concl == subst(hyp.body, {hyp.var: r}):
            return DeltaClass("special-axiom", owner=r)
    if isinstance(concl, Exists) and not free_vars(concl):
        got = match_instance(concl.body, hyp, frozenset({concl.var}))
        if got is not None:
            detail = (concl.var, got.get(concl.var))
            return DeltaClass("substitution", owner=special_constant(concl), detail=detail)
    return None


def belongs_to(f: Formula) -> Optional[SpecialConst]:
    """The special constant a formula belongs to (it is its special axiom or
    a substitution formula for its subscript), if any."""
    got = match_special(f)
    return None if got is None else got.owner


def check_rank_cap(cls: DeltaClass, rho_cap: Optional[int]) -> DeltaClass:
    """The class, unless it belongs to a special constant of rank above
    rho_cap (no cap when None)."""
    if rho_cap is not None and cls.owner is not None:
        if sx.const_rank(cls.owner) > rho_cap:
            raise CheckError(
                f"belongs to a special constant of rank {sx.const_rank(cls.owner)} > {rho_cap}"
            )
    return cls


def in_delta(theory: Theory, f: Formula) -> bool:
    try:
        classify_delta(theory, f)
        return True
    except CheckError:
        return False


# ---------------------------------------------------------------------------
# proof objects


@dataclass(frozen=True)
class ProofLine:
    formula: Formula
    # justification: ("delta",) | ("taut", indices-or-None) | ("default",)
    just: tuple = ("delta",)


@dataclass(frozen=True)
class ProofObject:
    lines: tuple[ProofLine, ...]

    def contains(self, f: Formula) -> bool:
        return any(ln.formula == f for ln in self.lines)


@dataclass
class ProofVerdict:
    ok: bool
    failed_index: Optional[int] = None
    message: str = ""
    classes: tuple = ()


class ProofBuilder:
    def __init__(self):
        self.lines: list[ProofLine] = []
        self._index: dict = {}

    def delta(self, f: Formula) -> int:
        return self._add(ProofLine(f, ("delta",)))

    def taut(self, f: Formula, premises: Sequence[int] = ()) -> int:
        return self._add(ProofLine(f, ("taut", tuple(premises))))

    def default(self, f: Formula) -> int:
        return self._add(ProofLine(f, ("default",)))

    def extend(self, proof: ProofObject) -> dict:
        """Append all lines of a finished proof, returning old->new index."""
        remap = {}
        for i, ln in enumerate(proof.lines):
            if ln.just[0] == "taut" and ln.just[1] is not None:
                just = ("taut", tuple(remap[j] for j in ln.just[1]))
            else:
                just = ln.just
            remap[i] = self._add(ProofLine(ln.formula, just))
        return remap

    def _add(self, line: ProofLine) -> int:
        if line.just[0] == "delta" and line.formula in self._index:
            return self._index[line.formula]
        self.lines.append(line)
        if line.formula not in self._index:
            self._index[line.formula] = len(self.lines) - 1
        return len(self.lines) - 1

    def build(self) -> ProofObject:
        return ProofObject(tuple(self.lines))


def map_proof(pb: ProofBuilder, proof: ProofObject, line_map, on_delta) -> None:
    """Rebuild a proof line by line into pb.  Delta and default lines go to
    on_delta, which returns the index of the line's image in pb; every other
    line becomes line_map of its formula, cited from the images of its
    premises."""
    images: dict[int, int] = {}
    for i, line in enumerate(proof.lines):
        if line.just[0] in ("delta", "default"):
            images[i] = on_delta(line)
        else:
            idxs = line.just[1]
            if idxs is None:
                idxs = range(i)
            images[i] = pb.taut(line_map(line.formula), tuple(images[j] for j in idxs))


def is_default_formula(theory: Theory, f: Formula) -> bool:
    """not exists x B -> r = 0, with r the special constant for exists x B."""
    pair = sx.as_imp(f)
    if pair is None:
        return False
    hyp, concl = pair
    if not (isinstance(hyp, Not) and isinstance(hyp.body, Exists)):
        return False
    e = hyp.body
    if free_vars(e):
        return False
    r = special_constant(e)
    return concl == sx.eq(r, theory.zero_term)


def check_proof(
    theory: Theory,
    proof: ProofObject,
    level_cap: Optional[int] = None,
    allow_defaults: bool = False,
    budget: int = propcalc.DEFAULT_BUDGET,
) -> ProofVerdict:
    """Verify that every formula is closed and in delta (or a default
    formula, when allowed) or a tautological consequence of strictly
    preceding formulas."""
    classes = []
    for i, line in enumerate(proof.lines):
        f = line.formula
        if free_vars(f):
            return ProofVerdict(False, i, "formula is not closed")
        if level_cap is not None:
            consts = sx.appearing_constants(f)
            too_high = [c for c in consts if sx.const_level(c) > level_cap]
            if too_high:
                return ProofVerdict(False, i, f"special constant above level {level_cap}")
        kind = line.just[0]
        if kind == "delta":
            try:
                classes.append(classify_delta(theory, f))
            except CheckError as e:
                return ProofVerdict(False, i, str(e))
        elif kind == "default":
            if not allow_defaults:
                return ProofVerdict(False, i, "default formulas not allowed here")
            if not is_default_formula(theory, f):
                return ProofVerdict(False, i, "not a default formula")
            classes.append(DeltaClass("default"))
        elif kind == "taut":
            idxs = line.just[1]
            if idxs is None:
                premises = [proof.lines[j].formula for j in range(i)]
            else:
                if any(j >= i for j in idxs):
                    return ProofVerdict(False, i, "taut premise does not strictly precede")
                premises = [proof.lines[j].formula for j in idxs]
            try:
                found = propcalc.prop_refute([*premises, Not(f)], budget)
            except SizeGuardExceeded as e:
                return ProofVerdict(
                    False, i, f"clausification blowup ({e.projected} clauses, guard "
                    f"{propcalc.CLAUSE_GUARD}) before deciding tautological consequence of cited lines"
                )
            if isinstance(found, propcalc.OutOfBudget):
                return ProofVerdict(
                    False, i, f"budget exhausted ({found.spent} spent, budget {budget}) "
                    "before deciding tautological consequence of cited lines"
                )
            if not isinstance(found, propcalc.Refutation):
                return ProofVerdict(False, i, "not a tautological consequence of cited lines")
            classes.append(DeltaClass("taut"))
        else:
            return ProofVerdict(False, i, f"unknown justification {kind!r}")
    return ProofVerdict(True, classes=tuple(classes))


def proves(theory: Theory, proof: ProofObject, f: Formula, **kw) -> bool:
    """pi |-_T A: pi checks and the closure of A is a formula of pi."""
    return check_proof(theory, proof, **kw).ok and proof.contains(closure(f))


# ---------------------------------------------------------------------------
# deduction theorem


def deduction_transform(theory: Theory, c: Formula, proof: ProofObject) -> ProofObject:
    """From a proof in T[C] (C closed) produce a proof of C -> B in T for
    every line B; delta formulas of T[C] that are instances of C become
    tautologies, the rest stay available as delta lines of T."""
    if free_vars(c):
        raise CheckError("the deduction hypothesis must be closed")
    extended = theory.extend(c)
    verdict = check_proof(extended, proof)
    if not verdict.ok:
        raise CheckError(f"input proof fails in T[C] at line {verdict.failed_index}: {verdict.message}")
    out = ProofBuilder()

    def on_delta(line):
        f = line.formula
        goal = sx.fimp(c, f)
        if in_delta(theory, f):
            return out.taut(goal, (out.delta(f),))
        # a closed instance of the new axiom C; C is closed, so the instance
        # is C itself and C -> C is a tautology
        if f != c:
            raise CheckError("unexpected delta formula in T[C]")
        return out.taut(goal, ())

    map_proof(out, proof, lambda f: sx.fimp(c, f), on_delta)
    return out.build()


# ---------------------------------------------------------------------------
# purging extraneous symbols


def purge_extraneous(theory: Theory, goal: Formula, proof: ProofObject) -> ProofObject:
    """Rewrite the proof into the language of T[goal]: atoms with outside
    predicate symbols become 0=0, terms headed by outside function symbols
    become 0, everywhere including subscripts."""
    keep = theory.language_symbols() | sx.appearing_symbols(goal) | {theory.zero}
    zero = theory.zero_term
    zero_eq = sx.eq(zero, zero)

    def purge(f: Formula) -> Formula:
        return sx.rewrite(
            f,
            app=lambda t: t if t.fn in keep else zero,
            atom=lambda a: a if a.pred == EQ or a.pred in keep else zero_eq,
        )

    out = ProofBuilder()
    ident = out.delta(zero_eq)

    def on_delta(line):
        g = purge(line.formula)
        if line.just[0] == "default":
            return out.default(g)
        if in_delta(theory, g):
            return out.delta(g)
        # an equality formula for a purged symbol collapses to a
        # tautological consequence of the identity formula 0=0
        return out.taut(g, (ident,))

    map_proof(out, proof, purge, on_delta)
    return out.build()


# ---------------------------------------------------------------------------
# special sequences


@dataclass(frozen=True)
class SpecialSequence:
    formulas: tuple[Formula, ...]


def sequence_valid(seq: SpecialSequence, budget: int = propcalc.DEFAULT_BUDGET) -> bool:
    """not A1 v ... v not An is a tautology, that is, the propositional
    search refutes A1, ..., An.  The empty disjunction is false, so the
    empty sequence is not valid.  When the search's budget runs out first,
    BudgetExhausted is raised; a member whose clause form is too large
    raises SizeGuardExceeded.  Neither is an answer."""
    fs = seq.formulas
    if not fs:
        return False
    found = propcalc.prop_refute(list(fs), budget)
    if isinstance(found, propcalc.OutOfBudget):
        raise BudgetExhausted(f"budget exhausted ({found.spent} spent, budget {budget})")
    return isinstance(found, propcalc.Refutation)


def extract_special_sequence(theory: Theory, proof: ProofObject) -> SpecialSequence:
    """From a checked proof of 0 != 0, the delta formulas whose negation
    disjunction is a tautology (0=0 appended when needed)."""
    verdict = check_proof(theory, proof)
    if not verdict.ok:
        raise CheckError(f"proof fails at line {verdict.failed_index}: {verdict.message}")
    target = theory.zero_ne_zero()
    if not proof.contains(target):
        raise CheckError("proof does not derive 0 != 0")
    deltas = [ln.formula for ln in proof.lines if ln.just[0] == "delta"]
    seq = SpecialSequence(tuple(dict.fromkeys(deltas)))
    if sequence_valid(seq):
        return seq
    seq = SpecialSequence(tuple(dict.fromkeys(deltas + [theory.zero_eq_zero()])))
    if not sequence_valid(seq):
        raise CheckError("extracted sequence fails the tautology invariant")
    return seq
