"""The Hilbert-Ackermann quantifier eliminator: special-sequence profiling,
the one-step eliminator with its rank/level bookkeeping, the driver that
runs it down to the base rank, and the tower-bound arithmetic.

The one-step eliminator follows the batch construction (eliminate every
rank-rho owner of maximal level at once).  Its output is re-verified, never
assumed; when several same-level constants interact through shared axiom
instances the batch output can fail validity, in which case the step falls
back to eliminating a single constant, which is provably sound and still
strictly decreases the owner count."""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import CheckError
from . import propcalc
from . import syntax as sx
from .kernel import core
from .kernel.core import SpecialSequence, Theory
from .syntax import Formula, Not, SpecialConst, Term, fimp

TOWER_CUTOFF = 2 ** 64
# the driver's limits: eliminator steps per run, formulas per sequence
MAX_STEPS = 200
MAX_FORMULAS = 100_000


# ---------------------------------------------------------------------------
# tower arithmetic


class TowerExpr(NamedTuple):
    """Symbolic natural number: a numeral, or a right-associated tower of
    exponents."""

    op: str  # "num" | "^"
    num: int = 0
    args: tuple = ()

    def __str__(self) -> str:
        if self.op == "num":
            return str(self.num)
        return "(" + " ^ ".join(str(a) for a in self.args) + ")"

    def eval(self) -> Optional[int]:
        """Arbitrary-precision value, or None above TOWER_CUTOFF."""
        if self.op == "num":
            return self.num if self.num <= TOWER_CUTOFF else None
        vals = [a.eval() for a in self.args]
        if any(v is None for v in vals):
            return None
        # right-associated exponentiation with an overflow guard
        out = vals[-1]
        limit = TOWER_CUTOFF.bit_length() + 8
        for base in reversed(vals[:-1]):
            if base >= 2 and (base.bit_length() - 1) * out > limit:
                return None
            out = base ** out
        return out if out <= TOWER_CUTOFF else None


def tnum(n: int) -> TowerExpr:
    return TowerExpr("num", n)


def tpow(*args: TowerExpr) -> TowerExpr:
    return TowerExpr("^", args=tuple(args))


def lam_mu(lam: int, mu: int) -> TowerExpr:
    """2 ^ 2 ^ ... ^ 2 ^ lam with mu twos."""
    return tpow(*([tnum(2)] * mu + [tnum(lam)]))


def bound_eval(nu: int, lam: int, rho: int, rho0: int) -> TowerExpr:
    """The final-sequence size bound  (nu ^ 2 ^ lam) ^ lam_(rho - rho0 + 2)."""
    return tpow(tpow(tnum(nu), tpow(tnum(2), tnum(lam))), lam_mu(lam, rho - rho0 + 2))


# ---------------------------------------------------------------------------
# profiling


class Profile(NamedTuple):
    rho: int
    lam: int
    kappa: int
    valid: bool
    owners: tuple  # per formula, the special constant it belongs to, or None


def profile(seq: SpecialSequence, budget: int = propcalc.DEFAULT_BUDGET) -> Profile:
    return _Analysis(None, budget).profile(seq)


def _owned_rank(owners) -> int:
    """The highest rank among the owners (None for a formula that belongs
    to no special constant), or 0."""
    return max((sx.const_rank(o) for o in owners if o is not None), default=0)


class _Analysis:
    """What one run has learned, so that each piece is worked out once: the
    special match and delta class of each formula and the profile of each
    sequence, all under the run's theory and budget."""

    def __init__(self, theory: Optional[Theory], budget: int):
        self.theory = theory
        self.budget = budget
        self.matches: dict = {}
        self.classes: dict = {}
        self.profiles: dict = {}

    def match(self, f: Formula) -> Optional[core.DeltaClass]:
        if f not in self.matches:
            self.matches[f] = core.match_special(f)
        return self.matches[f]

    def owner(self, f: Formula) -> Optional[SpecialConst]:
        got = self.match(f)
        return None if got is None else got.owner

    def delta(self, f: Formula, rho_cap: Optional[int] = None) -> core.DeltaClass:
        """`core.classify_delta(theory, f, rho_cap)`, classifying f once."""
        cls = self.classes.get(f)
        if cls is None:
            cls = self.classes[f] = core.classify_matched(self.theory, f, self.match(f))
        return core.check_rank_cap(cls, rho_cap)

    def profile(self, seq: SpecialSequence) -> Profile:
        got = self.profiles.get(seq)
        if got is not None:
            return got
        owners = tuple(map(self.owner, seq.formulas))
        consts = {o for o in owners if o is not None}
        for f in seq.formulas:
            consts |= sx.appearing_constants(f)
        rho = max((sx.const_rank(c) for c in consts), default=0)
        lam = max((sx.const_level(c) for c in consts), default=0)
        kappa = max(
            (sx.const_level(c) for c in owners if c is not None and sx.const_rank(c) == rho),
            default=0,
        )
        got = Profile(rho, lam, kappa, core.sequence_valid(seq, self.budget), owners)
        self.profiles[seq] = got
        return got


# ---------------------------------------------------------------------------
# the one-step eliminator


class StepTrace(NamedTuple):
    profile_in: Profile
    profile_out: Profile
    targets: tuple  # the set M
    pairs: tuple  # the special pairs (r, a)
    size_in: int
    size_out_multiset: int
    size_out: int
    mode: str  # "batch" | "singleton"
    collapsed: int = 0


def ha_step(
    theory: Theory,
    seq: SpecialSequence,
    rho0: Optional[int] = None,
    budget: int = propcalc.DEFAULT_BUDGET,
    analysis: Optional[_Analysis] = None,
) -> tuple[SpecialSequence, StepTrace]:
    """One round of the consistency-theorem elimination.  Requires a valid
    sequence whose formulas lie in delta_rho(T) with owned rank rho > rho0
    and kappa > 0; produces a valid sequence of at most nu^2 formulas with
    levels at most doubled and strictly less high-rank ownership.  `ha_run`
    passes its analysis, so nothing it has worked out is worked out again."""
    if rho0 is None:
        rho0 = theory.rank_profile()
    if analysis is None:
        analysis = _Analysis(theory, budget)
    if any(not (sx.is_open(a) and sx.is_plain(a)) for a in theory.axioms):
        raise CheckError("the eliminator requires plain nonlogical axioms")
    prof = analysis.profile(seq)
    if not prof.valid:
        raise CheckError("input is not a special sequence")
    # a sequence with no owners of rank above rho is re-read at the lower
    # rank (a (rho,lam,0)-special sequence is (rho-1,lam,lam)-special)
    target_rho = _owned_rank(prof.owners)
    if target_rho <= rho0:
        raise CheckError(f"nothing to eliminate: owned rank {target_rho} <= {rho0}")
    top = [o for o in prof.owners if o is not None and sx.const_rank(o) == target_rho]
    target_kappa = max(map(sx.const_level, top))
    # every owner is among the profiled constants, so target_rho <= prof.rho
    for f in seq.formulas:
        analysis.delta(f, rho_cap=prof.rho)

    targets = sorted(
        {o for o in top if sx.const_level(o) == target_kappa},
        key=lambda c: sx.render(c.subscript),
    )
    try:
        return _eliminate(analysis, seq, tuple(targets), prof, "batch")
    except CheckError:
        if len(targets) <= 1:
            raise
    return _eliminate(analysis, seq, (targets[0],), prof, "singleton")


def _eliminate(analysis, seq, targets, prof, mode):
    target_set = set(targets)
    subscripts = {r.subscript for r in targets}
    gamma: list[Formula] = []
    pairs: list[tuple[SpecialConst, Term]] = []
    for f, owner in zip(seq.formulas, prof.owners):
        if owner in target_set:
            cls = analysis.delta(f)
            if cls.kind == "special-axiom":
                continue  # becomes B(r) -> B(r) after the rewrite: deleted
            assert cls.kind == "substitution"
            x, a = cls.detail
            if a is None:
                a = analysis.theory.zero_term
            pairs.append((owner, a))
        else:
            # rewriting a target's subscript e to e's instance at r would
            # change f exactly when e occurs in it
            if sx.has_subformula(f, subscripts):
                raise CheckError(
                    "targeted instantiation occurs outside its own formulas"
                )
            gamma.append(f)
    out_multi: list[Formula] = list(gamma)
    for r, a in pairs:
        for f in gamma:
            out_multi.append(sx.replace_const(f, r, a))
    out_formulas = list(dict.fromkeys(out_multi))
    out_seq = SpecialSequence(tuple(out_formulas))

    nu = len(seq.formulas)
    if len(out_multi) > nu * nu:
        raise CheckError("output exceeds the nu^2 bound")
    out_prof = analysis.profile(out_seq)
    if not out_prof.valid:
        raise CheckError("output failed the tautology re-verification")
    if out_prof.lam > 2 * prof.lam:
        raise CheckError("output levels exceed twice the input levels")
    for f, owner in zip(out_formulas, out_prof.owners):
        analysis.delta(f, rho_cap=prof.rho)
        if owner in target_set:
            raise CheckError("an output formula still belongs to a target")
    trace = StepTrace(
        profile_in=prof,
        profile_out=out_prof,
        targets=tuple(targets),
        pairs=tuple(pairs),
        size_in=nu,
        size_out_multiset=len(out_multi),
        size_out=len(out_formulas),
        mode=mode,
        collapsed=len(out_multi) - len(out_formulas),
    )
    return out_seq, trace


# ---------------------------------------------------------------------------
# the driver


class RunResult(NamedTuple):
    final: SpecialSequence
    trace: list
    bound: TowerExpr
    bound_value: Optional[int]
    observed_max: int
    within_bound: Optional[bool]
    profile_in: Profile  # the input sequence's


def ha_run(
    theory: Theory, seq: SpecialSequence, budget: int = propcalc.DEFAULT_BUDGET
) -> RunResult:
    """Iterate the eliminator until no formula belongs to a special constant
    of rank above the theory's rank profile rho0, within MAX_STEPS steps and
    MAX_FORMULAS formulas; compare observed sizes against the evaluated
    bound when it is below TOWER_CUTOFF.  Each sequence is profiled once and
    each formula classified once per run."""
    rho0 = theory.rank_profile()
    analysis = _Analysis(theory, budget)
    prof0 = analysis.profile(seq)
    if not prof0.valid:
        raise CheckError("input is not a special sequence")
    bound = bound_eval(len(seq.formulas), max(prof0.lam, 1), max(prof0.rho, 1), rho0)
    bound_value = bound.eval()
    trace: list[StepTrace] = []
    observed = len(seq.formulas)
    cur, prof = seq, prof0
    steps = 0
    while _owned_rank(prof.owners) > rho0:
        steps += 1
        if steps > MAX_STEPS:
            raise CheckError(f"step limit exhausted after {MAX_STEPS}")
        cur, t = ha_step(theory, cur, rho0, budget, analysis)
        prof = t.profile_out
        trace.append(t)
        observed = max(observed, t.size_out_multiset)
        if len(cur.formulas) > MAX_FORMULAS:
            raise CheckError("formula limit exhausted")
    within = None if bound_value is None else observed <= bound_value
    return RunResult(cur, trace, bound, bound_value, observed, within, prof0)


# ---------------------------------------------------------------------------
# demo and test-case generators


def demo_rank1():
    """The documented toy: q plain unary, target sequence of four formulas
    that one elimination step takes to rank-0 activity."""
    q = sx.PredSym("q", 1)
    eps = sx.App(sx.EPS)
    qeps = sx.Atom(q, (sx.Var("x"),))
    theory = Theory("demo", (qeps, Not(sx.Atom(q, (sx.Var("y"),)))), sx.EPS)
    e = sx.Exists("x", sx.Atom(q, (sx.Var("x"),)))
    r = sx.special_constant(e)
    q_at = lambda t: sx.Atom(q, (t,))
    seq = SpecialSequence(
        (
            fimp(e, q_at(r)),
            fimp(q_at(eps), e),
            q_at(eps),
            Not(q_at(r)),
        )
    )
    return theory, seq


def generate_inconsistent_case(rng, rank: int):
    """A random openly inconsistent theory with a special sequence of the
    requested active rank, built from substitution chains over a fresh
    predicate and ground witness terms."""
    assert rank in (1, 2)
    eps = sx.App(sx.EPS)
    ground = [eps, sx.App(sx.S0, (eps,)), sx.App(sx.S1, (eps,)), sx.App(sx.S0, (sx.App(sx.S0, (eps,)),))]
    a = rng.choice(ground)
    b = rng.choice(ground)
    if rank == 1:
        q = sx.PredSym("q", 1)
        theory = Theory(
            "gen1", (sx.Atom(q, (sx.Var("x"),)), Not(sx.Atom(q, (sx.Var("y"),)))), sx.EPS
        )
        e = sx.Exists("x", sx.Atom(q, (sx.Var("x"),)))
        r = sx.special_constant(e)
        seq = [
            fimp(sx.Atom(q, (a,)), e),
            fimp(e, sx.Atom(q, (r,))),
            sx.Atom(q, (a,)),
            Not(sx.Atom(q, (r,))),
        ]
        if rng.random() < 0.5:
            seq.append(fimp(sx.Atom(q, (b,)), e))
            seq.append(sx.Atom(q, (b,)))
        rng.shuffle(seq)
        return theory, SpecialSequence(tuple(seq))
    p = sx.PredSym("p", 2)
    theory = Theory(
        "gen2",
        (sx.Atom(p, (sx.Var("x"), sx.Var("y"))), Not(sx.Atom(p, (sx.Var("u"), sx.Var("v"))))),
        sx.EPS,
    )
    inner = sx.Exists("y", sx.Atom(p, (sx.Var("x"), sx.Var("y"))))
    e2 = sx.Exists("x", inner)
    r2 = sx.special_constant(e2)
    e1 = sx.Exists("y", sx.Atom(p, (r2, sx.Var("y"))))
    r1 = sx.special_constant(e1)
    seq = [
        sx.Atom(p, (a, b)),
        fimp(sx.Atom(p, (a, b)), sx.Exists("y", sx.Atom(p, (a, sx.Var("y"))))),
        fimp(sx.Exists("y", sx.Atom(p, (a, sx.Var("y")))), e2),
        fimp(e2, e1),
        fimp(e1, sx.Atom(p, (r2, r1))),
        Not(sx.Atom(p, (r2, r1))),
    ]
    rng.shuffle(seq)
    return theory, SpecialSequence(tuple(seq))
