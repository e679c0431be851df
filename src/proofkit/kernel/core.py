"""The trusted core: theories, the five closed-formula classes proofs draw
from, proof objects and their checking, and the validity of special
sequences.  checker.replay checks certificates in the format its module
documents; the proof transformations and generators are in meta.proofs."""

from __future__ import annotations

from typing import NamedTuple, Optional

from ..errors import BudgetExhausted, CheckError, SizeGuardExceeded
from .. import checker, propcalc
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
    closure,
    free_vars,
    special_constant,
    subst,
)


class Theory(NamedTuple):
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


class DeltaClass(NamedTuple):
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

    if checker.is_identity_instance(f):
        return DeltaClass("identity")
    misses.append("not an identity formula")

    if checker.is_equality_axiom_instance(f):
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


# ---------------------------------------------------------------------------
# proof objects


class ProofLine(NamedTuple):
    formula: Formula
    # justification: ("delta",) | ("taut", indices-or-None) | ("default",)
    just: tuple = ("delta",)


class ProofObject(NamedTuple):
    lines: tuple[ProofLine, ...]

    def contains(self, f: Formula) -> bool:
        return any(ln.formula == f for ln in self.lines)


class ProofVerdict(NamedTuple):
    ok: bool
    failed_index: Optional[int] = None
    message: str = ""
    classes: tuple = ()


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
# special sequences


class SpecialSequence(NamedTuple):
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
