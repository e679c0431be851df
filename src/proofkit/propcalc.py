"""Truth valuations, tautology checking, and ground equality refutation.

taut_check decides tautological consequence over the propositional skeleton
(elementary subformulas as atoms) by bit-vector truth tables.  ground_refute
decides quasitautological inconsistency of a closed formula set by DPLL-style
case splitting plus congruence closure over the occurring variable-free
terms; congruence closure stands in for saturating with identity/equality
axiom instances over those terms.  The search is a loop, not a recursion:
a trail that backtracks by popping, with two watched positions per clause
for unit propagation (Chaff, 2001; MiniSat, 2003).  Each conflict records
what refutes it; once the search has refuted its root, and only then, a
certificate is built from those records, and replay checks it by code of
its own that shares nothing with the search but the syntax.

A certificate is a list of steps, read as resolution proofs are checked
(Zhang & Malik, 2003): every step but a split derives one clause, a tuple
of literals, which takes the next position in its branch.  A branch's
positions continue those of the branch around it, and a split's branch
begins by deriving its assumption.  Premises are cited by position, as in
LRAT hints, and the checker computes every resolvent itself.  Resolution
pivots are closed elementary literals; instantiations are opaque atoms.

    ("input", F)          F is one of the refuted inputs; derives the
                          tuple of F's disjuncts
    ("conjunct", C, F)    the tuple C is a clause of the conjunctive form
                          of the input F; derives C
    ("eq_axiom", F)       F, in clause form, is a closed instance of an
                          identity or equality axiom; derives its disjuncts
    ("resolve", i, j)     position i holds a unit clause (L,) and position
                          j a clause with L's opposite; derives j's clause
                          without that opposite (its first occurrence)
    ("split", A, b1, b2)  case split on the closed elementary A, as its
                          branch's last step; b1 begins by deriving (A,),
                          b2 by deriving (not A,), and both must refute

A branch refutes when it ends in a split whose branches refute, or when its
last step derives the empty clause.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence, Union

from .errors import CheckError, SizeGuardExceeded
from . import syntax as sx
from .syntax import (
    Atom,
    Formula,
    Not,
    Or,
    Term,
    EQ,
    disjuncts,
    is_elementary,
)

ATOM_GUARD = 24  # most elementary atoms taut_check enumerates
CLAUSE_GUARD = 10_000  # most clauses clausify and to_conjunctive make
DEFAULT_BUDGET = 100_000


# ---------------------------------------------------------------------------
# truth valuations and tautologies


def elementary_subformulas(fs) -> list[Formula]:
    """Distinct elementary subformulas in order of first appearance (bodies
    of instantiations are not entered; they are opaque atoms)."""
    out: list[Formula] = []
    seen = set()

    def walk(f):
        if is_elementary(f):
            if f not in seen:
                seen.add(f)
                out.append(f)
            return
        if isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, Or):
            walk(f.left)
            walk(f.right)
        else:
            raise TypeError(f)

    for f in fs:
        walk(f)
    return out


@dataclass
class TruthValuation:
    """Assignment of truth values to elementary formulas, extended to all
    formulas by the two evaluation rules for negation and disjunction."""

    assignment: dict

    def value(self, f: Formula) -> bool:
        if is_elementary(f):
            return self.assignment[f]
        if isinstance(f, Not):
            return not self.value(f.body)
        if isinstance(f, Or):
            return self.value(f.left) or self.value(f.right)
        raise TypeError(f)


@dataclass
class TautVerdict:
    consequence: bool
    counter: Optional[TruthValuation] = None


def atom_patterns(els, n: int) -> dict:
    """Truth vectors over all 2^n valuations, atom i toggling with period
    2^(i+1), built by doubling."""
    width = 1 << n
    out = {}
    for i, e in enumerate(els):
        block = 1 << i
        pattern = ((1 << block) - 1) << block
        span = 2 * block
        while span < width:
            pattern |= pattern << span
            span *= 2
        out[e] = pattern & ((1 << width) - 1)
    return out


def bitvec_value(f: Formula, atoms: dict, full: int) -> int:
    """f's truth under every valuation at once, one bit per valuation;
    also used by independent enumeration-style oracles."""
    if is_elementary(f):
        return atoms[f]
    if isinstance(f, Not):
        return full ^ bitvec_value(f.body, atoms, full)
    if isinstance(f, Or):
        return bitvec_value(f.left, atoms, full) | bitvec_value(f.right, atoms, full)
    raise TypeError(f)


def taut_check(goal: Formula, premises: Sequence[Formula] = ()) -> TautVerdict:
    """Decide whether goal is a tautological consequence of the premises by
    enumerating all relevant truth valuations (as bit vectors).

    Raises SizeGuardExceeded when the skeleton has more than ATOM_GUARD
    distinct elementary atoms; callers then fall back to ground_refute."""
    els = elementary_subformulas(list(premises) + [goal])
    n = len(els)
    if n > ATOM_GUARD:
        raise SizeGuardExceeded("propositional skeleton too large", n)
    full = (1 << (1 << n)) - 1
    atoms = atom_patterns(els, n)
    ok = full
    for p in premises:
        ok &= bitvec_value(p, atoms, full)
    bad = ok & (full ^ bitvec_value(goal, atoms, full))
    if bad == 0:
        return TautVerdict(True)
    idx = (bad & -bad).bit_length() - 1
    assignment = {e: bool((idx >> i) & 1) for i, e in enumerate(els)}
    return TautVerdict(False, TruthValuation(assignment))


# ---------------------------------------------------------------------------
# certificates and their replayer


@dataclass
class Refutation:
    steps: list
    spent: int = 0


@dataclass
class Saturated:
    model: TruthValuation
    spent: int = 0


@dataclass
class OutOfBudget:
    spent: int


def is_identity_instance(f: Formula) -> bool:
    return (
        isinstance(f, Atom)
        and f.pred == EQ
        and f.args[0] == f.args[1]
        and sx.is_variable_free(f)
    )


def as_horn(f: Formula):
    """Read f as hypotheses -> conclusion, accepting both the conjunction
    form  h1 & ... & hk -> c  and the clause form  -h1 v ... v -hk v c."""
    pair = sx.as_imp(f)
    if pair is not None:
        hyp, concl = pair
        parts = sx.conjuncts(hyp)
        if all(isinstance(p, Atom) for p in parts) and isinstance(concl, Atom):
            return parts, concl
    parts = sx.disjuncts(f)
    if len(parts) >= 2 and isinstance(parts[-1], Atom):
        hyps = []
        for p in parts[:-1]:
            if not (isinstance(p, Not) and isinstance(p.body, Atom)):
                return None
            hyps.append(p.body)
        return hyps, parts[-1]
    return None


def is_equality_axiom_instance(f: Formula) -> bool:
    """Closed instance of an equality axiom: for a function symbol, for a
    predicate symbol, or for equality itself."""
    if not sx.is_variable_free(f):
        return False
    horn = as_horn(f)
    if horn is None:
        return False
    parts, concl = horn
    eqs = [
        (p.args[0], p.args[1]) if p.pred == EQ else None
        for p in parts
    ]
    if concl.pred == EQ:
        if any(e is None for e in eqs):
            return False
        lhs, rhs = concl.args
        if (
            isinstance(lhs, sx.App)
            and isinstance(rhs, sx.App)
            and lhs.fn == rhs.fn
            and len(eqs) == len(lhs.args) == len(rhs.args) > 0
            and all(e == (a, b) for e, a, b in zip(eqs, lhs.args, rhs.args))
        ):
            return True
        if len(eqs) == 3:
            (x1, y1), (x2, y2), (x3, x4) = eqs
            if (x3, x4) == (x1, x2) and (lhs, rhs) == (y1, y2):
                return True
        return False
    if len(parts) != len(concl.args) + 1 or not concl.args:
        return False
    prem = parts[-1]
    if not (prem.pred == concl.pred) or any(e is None for e in eqs[:-1]):
        return False
    return all(e == (a, b) for e, a, b in zip(eqs[:-1], prem.args, concl.args))


# The length of a well-formed step of each kind.
_STEP_LENGTHS = {"input": 2, "conjunct": 3, "eq_axiom": 2, "resolve": 3, "split": 4}


def replay(cert: Refutation, inputs: Sequence[Formula]) -> bool:
    """Check a certificate against the inputs, every side condition
    included; returns True or raises CheckError.  Branches are checked
    from an explicit stack, over one list of the clauses derived in scope
    that each branch cuts back to its start."""
    inputs = set(inputs)
    conjunctive: dict = {}  # input -> the clauses of its conjunctive form
    have: list = []  # position -> the clause derived there
    todo = [(cert.steps, 0, None)]  # (steps, positions before, assumption)
    while todo:
        steps, length, assumed = todo.pop()
        del have[length:]
        if assumed is not None:
            have.append((assumed,))
        for at, step in enumerate(steps):
            kind = step[0]
            if _STEP_LENGTHS.get(kind) != len(step):
                raise CheckError(f"unknown or malformed step of kind {kind!r}")
            if kind == "input":
                if step[1] not in inputs:
                    raise CheckError("certificate cites a non-input formula")
                have.append(tuple(sx.disjuncts(step[1])))
            elif kind == "conjunct":
                _, clause, f = step
                if f not in inputs:
                    raise CheckError("conjunct of a non-input formula")
                if f not in conjunctive:
                    conjunctive[f] = set(_conjunctive_clauses(f))
                if clause not in conjunctive[f]:
                    raise CheckError("claimed conjunct is not one")
                have.append(clause)
            elif kind == "eq_axiom":
                f = step[1]
                if not (is_identity_instance(f) or is_equality_axiom_instance(f)):
                    raise CheckError(
                        f"not an identity/equality axiom instance: {sx.render(f)}"
                    )
                have.append(tuple(sx.disjuncts(f)))
            elif kind == "resolve":
                have.append(resolvent(have, step[1], step[2]))
            else:
                _, atom, first, second = step
                if not is_elementary(atom) or sx.free_vars(atom):
                    raise CheckError("split must be on a closed elementary formula")
                if at != len(steps) - 1:
                    raise CheckError("a split must be its branch's last step")
                todo.append((second, len(have), Not(atom)))
                todo.append((first, len(have), atom))
                break
        else:
            if not steps or have[-1]:
                raise CheckError("certificate branch reaches no contradiction")
    return True


def resolvent(have: list, i, j) -> tuple:
    """The clause at position j without the opposite of the literal of the
    unit clause at position i.  Literals are told apart by their stored
    hashes first, so two distinct deep literals are never walked."""
    if not (type(i) is type(j) is int and 0 <= i < len(have) and 0 <= j < len(have)):
        raise CheckError("resolution premises must precede")
    unit, clause = have[i], have[j]
    lit = unit[0] if len(unit) == 1 else None
    base = lit.body if isinstance(lit, Not) else lit
    if not is_elementary(base) or sx.free_vars(base):
        raise CheckError("resolution pivot must be a closed elementary literal")
    opp = base if base is not lit else Not(lit)
    h = hash(opp)
    for k, x in enumerate(clause):
        if x is opp or (hash(x) == h and x == opp):
            return clause[:k] + clause[k + 1 :]
    raise CheckError("opposite of the pivot is not in the clause")


def _conjunctive_clauses(f: Formula) -> list[tuple]:
    """The clauses of f's conjunctive form, as tuples of literals: the
    checker's own reading, which agrees with clausify's."""
    pair = sx.as_and(f)
    if pair is not None:
        return _conjunctive_clauses(pair[0]) + _conjunctive_clauses(pair[1])
    if isinstance(f, Or):
        ls, rs = _conjunctive_clauses(f.left), _conjunctive_clauses(f.right)
        if len(ls) * len(rs) > 10_000:
            raise CheckError("conjunctive form too large to check")
        return [a + b for a in ls for b in rs]
    if isinstance(f, Not) and isinstance(f.body, Not):
        return _conjunctive_clauses(f.body.body)
    if isinstance(f, Not) and isinstance(f.body, Or):
        return _conjunctive_clauses(Not(f.body.left)) + _conjunctive_clauses(
            Not(f.body.right)
        )
    return [(f,)]


# ---------------------------------------------------------------------------
# congruence closure with explanation recording


class _UnionFind:
    """Union-find with a proof forest (Nieuwenhuis & Oliveras, 2007): each
    union adds one edge, labelled with its reason, between the two terms it
    joins.  The smaller class's proof tree is re-rooted at its end of the
    edge, so a term lies on O(log n) re-rooted paths in all.  The classes
    themselves are not linked by size: a's root goes under b's, because the
    roots steer which signature `CongruenceCore._propagate` meets first in
    a round, and so its merges and the certificates."""

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}  # root -> size of its class, when above 1
        self.proof_parent: dict = {}
        self.proof_reason: dict = {}

    def add(self, t):
        if t not in self.parent:
            self.parent[t] = t

    def find(self, t):
        # roots are the stored keys, so identity decides; == would walk
        # two distinct deep terms
        while self.parent[t] is not t:
            self.parent[t] = self.parent[self.parent[t]]
            t = self.parent[t]
        return t

    def union(self, a, b, reason):
        ra, rb = self.find(a), self.find(b)
        if ra is rb:
            return False
        size_a, size_b = self.size.pop(ra, 1), self.size.get(rb, 1)
        if size_a > size_b:
            a, b = b, a
        path = []
        node = a
        while node in self.proof_parent:
            path.append(node)
            node = self.proof_parent[node]
        for child in reversed(path):
            par = self.proof_parent[child]
            self.proof_parent[par] = child
            self.proof_reason[par] = self.proof_reason[child]
        self.proof_parent[a] = b
        self.proof_reason[a] = reason
        self.parent[ra] = rb
        self.size[rb] = size_a + size_b
        return True

    def explain_path(self, a, b):
        """Edges (p, q, reason) joining a to b in the proof forest, oriented
        from a to b."""
        anc = {}
        node = a
        while True:
            anc[node] = True
            if node not in self.proof_parent:
                break
            node = self.proof_parent[node]
        back = []
        node = b
        while node not in anc:
            back.append((self.proof_parent[node], node, self.proof_reason[node]))
            node = self.proof_parent[node]
        meet = node
        edges = []
        node = a
        while not _same(node, meet):
            edges.append((node, self.proof_parent[node], self.proof_reason[node]))
            node = self.proof_parent[node]
        edges.extend(reversed(back))
        return edges


class CongruenceCore:
    """Congruence closure over variable-free terms by signature table: an
    application's signature is its symbol and the classes of its arguments,
    and two applications with one signature are merged.  Merge reasons are
    ("eq", equation-atom) or ("cong", lhs-app, rhs-app); merges counts the
    unions made."""

    def __init__(self):
        self.uf = _UnionFind()
        self.apps: list = []  # applications with arguments, in order added
        self.closed = True
        self.merges = 0

    def add_term(self, t: Term):
        if t in self.uf.parent:
            return
        self.uf.add(t)
        if isinstance(t, sx.App) and t.args:
            self.apps.append(t)
            self.closed = False
            for a in t.args:
                self.add_term(a)

    def assert_eq(self, a: Term, b: Term, reason):
        self.add_term(a)
        self.add_term(b)
        if self.uf.union(a, b, reason):
            self.merges += 1
            self.closed = False

    def _propagate(self):
        """Close under congruence: rounds of signature lookups until a
        round merges nothing.  A no-op when nothing was added since."""
        find, union = self.uf.find, self.uf.union
        while not self.closed:
            self.closed = True
            sig: dict = {}
            for t in self.apps:
                s = sig.setdefault((t.fn, tuple(map(find, t.args))), t)
                if s is not t and union(s, t, ("cong", s, t)):
                    self.merges += 1
                    self.closed = False

    def congruent(self, a: Term, b: Term) -> bool:
        self.add_term(a)
        self.add_term(b)
        self._propagate()
        return self.uf.find(a) is self.uf.find(b)


# ---------------------------------------------------------------------------
# the refuter


@dataclass
class _Clause:
    lits: tuple  # (atom, polarity) pairs
    source: Formula

    @cached_property
    def whole(self) -> bool:
        """Whether the source is this clause itself, literal for literal,
        rather than a formula whose conjunctive form has it."""
        parts = disjuncts(self.source)
        return len(parts) == len(self.lits) and all(
            d is a if p else isinstance(d, Not) and d.body is a
            for d, (a, p) in zip(parts, self.lits)
        )


def clausify(f: Formula) -> list[tuple]:
    """Clauses of the conjunctive form of f, as (atom, polarity) tuples over
    elementary atoms.  Matches normform.to_conjunctive clause for clause.
    Raises SizeGuardExceeded when one distribution would make more than
    CLAUSE_GUARD clauses."""

    def walk(g) -> list[tuple]:
        pair = sx.as_and(g)
        if pair is not None:
            return walk(pair[0]) + walk(pair[1])
        if isinstance(g, Or):
            ls = walk(g.left)
            rs = walk(g.right)
            if len(ls) * len(rs) > CLAUSE_GUARD:
                raise SizeGuardExceeded("clausification blowup", len(ls) * len(rs))
            return [a + b for a in ls for b in rs]
        if isinstance(g, Not):
            if is_elementary(g.body):
                return [((g.body, False),)]
            if isinstance(g.body, Not):
                return walk(g.body.body)
            if isinstance(g.body, Or):
                return walk(sx.fand(Not(g.body.left), Not(g.body.right)))
            raise TypeError(g)
        if is_elementary(g):
            return [((g, True),)]
        raise TypeError(g)

    return walk(f)


def _clauses(inputs) -> tuple[list[_Clause], list]:
    """The inputs' clauses, and their distinct atoms in order of first
    occurrence."""
    clauses = [_Clause(lits, f) for f in inputs for lits in clausify(f)]
    atoms = list(dict.fromkeys(a for c in clauses for a, _ in c.lits))
    return clauses, atoms


def prop_refute(
    fs: Sequence[Formula], budget: int = DEFAULT_BUDGET
) -> Union[Refutation, Saturated, OutOfBudget]:
    """The propositional (tautological) search on fs, without the atom guard
    or a certificate: OutOfBudget when the budget runs out first."""
    clauses, atoms = _clauses(fs)
    return _refute(clauses, atoms, budget, use_congruence=False, want_cert=False)


def ground_refute(
    inputs: Sequence[Formula], budget: int = DEFAULT_BUDGET, want_cert: bool = True
) -> Union[Refutation, Saturated, OutOfBudget]:
    """Decide quasitautological inconsistency of a set of closed formulas.

    Sound always; complete for the quasitautology relation when the budget
    suffices.  Saturated means provably no refutation exists."""
    clauses, atoms = _clauses(inputs)
    # an input is closed exactly when its atoms are; only an open one is
    # looked for among the inputs, to name it
    if any(sx.free_vars(a) for a in atoms):
        f = next(f for f in inputs if sx.free_vars(f))
        raise CheckError(f"ground_refute requires closed inputs: {sx.render(f)}")
    return _refute(clauses, atoms, budget, use_congruence=True, want_cert=want_cert)


class _Stop(Exception):
    """The budget is spent."""


def _refute(clauses, atoms, budget, use_congruence, want_cert):
    """Case splits on the atoms in order, True first; unit propagation by
    two watched positions per clause; with use_congruence, a congruence
    check at each node that assigned an atom with arguments.

    Atom i's literals have codes 2i (negative) and 2i + 1 (positive), and
    `val[code]` is a literal's truth value, None while unassigned.  A frame
    per decision level holds the decided atom, the trail length before it
    and, once its True branch is refuted, that branch's steps.  Each unit
    propagation, decision and congruence merge costs one budget unit.

    A refuted node's steps are an empty list until the root is refuted.
    With want_cert, each conflict records what its steps are built from:
    the conflict, a snapshot of the reasons and its split depth.  Only a
    Refutation builds them, filling those lists in place."""
    index = {a: i for i, a in enumerate(atoms)}
    n = len(atoms)
    val: list = [None] * (2 * n)
    trail: list = []
    reasons: dict = {}  # atom -> reason of its latest assignment
    frames: list = []  # [atom index, trail length before it, True-branch steps]
    leaves: list = []  # (steps to fill, conflict, reasons, split depth)
    theory = [isinstance(a, Atom) and bool(a.args) for a in atoms]
    codes = [tuple(2 * index[a] + p for a, p in c.lits) for c in clauses]
    # watches[code]: clauses with a watched position holding that literal;
    # watched[k]: clause k's two watched positions (clauses of two or more)
    watches: list = [[] for _ in range(2 * n)]
    watched = [[0, 1] for _ in codes]
    for k, cs in enumerate(codes):
        if len(cs) > 1:
            watches[cs[0]].append(k)
            watches[cs[1]].append(k)
    spent = 0
    head = 0  # trail entries before head have been propagated

    def charge(amount=1):
        nonlocal spent
        spent += amount
        if spent > budget:
            raise _Stop

    def assign(code, reason):
        i = code >> 1
        val[code] = True
        val[code ^ 1] = False
        trail.append(i)
        reasons[atoms[i]] = reason

    def backtrack(length):
        nonlocal head
        while len(trail) > length:
            i = trail.pop()
            val[2 * i] = val[2 * i + 1] = None
        head = length

    def propagate():
        """Unit propagation from the trail's head to a fixpoint; returns a
        clause with every position false, or None."""
        nonlocal head
        while head < len(trail):
            i = trail[head]
            head += 1
            false = 2 * i + (val[2 * i] is True)
            ws = watches[false]
            keep = []
            for at, k in enumerate(ws):
                cs, w = codes[k], watched[k]
                slot = 0 if cs[w[0]] == false else 1
                other = cs[w[1 - slot]]
                if val[other] is True:
                    keep.append(k)
                    continue
                for j, c in enumerate(cs):
                    if j != w[0] and j != w[1] and val[c] is not False:
                        w[slot] = j
                        watches[c].append(k)
                        break
                else:
                    keep.append(k)
                    if val[other] is False:
                        keep.extend(ws[at + 1 :])
                        watches[false] = keep
                        return clauses[k]
                    charge()
                    assign(other, ("unit", clauses[k]))
            watches[false] = keep
        return None

    def level_zero():
        """Assign the one-position clauses; returns a conflicting one or None."""
        for k, cs in enumerate(codes):
            if len(cs) == 1:
                if val[cs[0]] is False:
                    return clauses[k]
                if val[cs[0]] is None:
                    charge()
                    assign(cs[0], ("unit", clauses[k]))
        return propagate()

    try:
        conflict = level_zero()
        cursor = 0  # atoms before it are assigned
        while True:
            if conflict is None and use_congruence and any(
                theory[i] for i in trail[frames[-1][1] if frames else 0 :]
            ):
                conflict = _theory_conflict(
                    [(atoms[i], val[2 * i + 1]) for i in trail if theory[i]], charge
                )
            if conflict is None:
                while cursor < n and val[2 * cursor] is not None:
                    cursor += 1
                if cursor == n:
                    model = {a: val[2 * i + 1] for i, a in enumerate(atoms)}
                    return Saturated(TruthValuation(model), spent)
                charge()
                frames.append([cursor, len(trail), None])
                assign(2 * cursor + 1, ("decide", len(frames) - 1))
                conflict = propagate()
                continue
            steps: list = []
            if want_cert:
                leaves.append((steps, conflict, dict(reasons), len(frames)))
            # the node is refuted: close every split whose branches both are
            while frames and frames[-1][2] is not None:
                i, length, first = frames.pop()
                backtrack(length)
                steps = [("split", atoms[i], first, steps)]
            if not frames:
                for leaf_steps, found, why, depth in leaves:
                    leaf_steps.extend(_Emitter(why, depth).refute(found))
                return Refutation(steps, spent)
            frame = frames[-1]
            backtrack(frame[1])
            frame[2] = steps
            cursor = frame[0]
            assign(2 * cursor, ("decide", len(frames) - 1))
            conflict = propagate()
    except _Stop:
        return OutOfBudget(spent)


def _theory_conflict(atoms, charge):
    """What refutes the assigned (atom, polarity) pairs by equality
    reasoning, or None: (closure, None, e) for a false equation e that the
    closure of the true ones makes true, or (closure, t, f) for a true atom
    t and a false atom f of one predicate whose arguments it joins.  Only
    atoms with arguments matter: a 0-ary atom takes part in no congruence.
    The closure's merges are charged to the budget."""
    core = CongruenceCore()
    for a, pol in atoms:
        for t in a.args:
            core.add_term(t)
        if pol and a.pred == EQ:
            core.assert_eq(a.args[0], a.args[1], ("eq", a))
    core._propagate()
    charge(core.merges)

    for a, pol in atoms:
        if a.pred == EQ and not pol and core.congruent(*a.args):
            return core, None, a

    def signature(a):
        return a.pred, tuple(map(core.uf.find, a.args))

    trues: dict = {}
    for a, pol in atoms:
        if a.pred != EQ and pol:
            trues.setdefault(signature(a), a)
    for fa, pol in atoms:
        ta = trues.get(signature(fa)) if fa.pred != EQ and not pol else None
        if ta is not None:
            return core, ta, fa
    return None


def _same(x, y) -> bool:
    """x == y, with the stored hashes compared first, so that two distinct
    deep terms are not walked side by side."""
    return x is y or (hash(x) == hash(y) and x == y)


class _Emitter:
    """Builds one refuted leaf's steps, deriving each literal it needs from
    the inputs, unit chains, congruence-closure explanations and the
    enclosing split assumptions.  The leaf's positions start after those
    assumptions, one per split around it; the assumption of the split at
    depth d holds position d.  `at` maps each derived literal, as an
    (atom, polarity) pair, and each derived input clause, as its tuple of
    pairs, to its position."""

    def __init__(self, reasons, depth):
        self.reasons = reasons
        self.depth = depth
        self.steps: list = []
        self.at: dict = {}

    def emit(self, step) -> int:
        self.steps.append(step)
        return self.depth + len(self.steps) - 1

    def refute(self, conflict) -> list:
        """The leaf's steps, down to the empty clause: for a clause whose
        literals are all false, each is resolved away; for
        _theory_conflict's (closure, true atom or None, false atom), the
        false atom is derived from the closure and resolved against its
        own negation."""
        if isinstance(conflict, _Clause):
            cur = self.derive_clause(conflict)
            pivots = [(a, not p) for a, p in conflict.lits]
            for a, p in pivots:
                self.derive_assigned(a, p)
            self.resolve_away(cur, pivots)
            return self.steps
        core, true, false = conflict
        if true is not None:
            self.derive_assigned(true, True)
        neg = self.derive_assigned(false, False)
        if true is None:
            self.derive_eq(core, *false.args)
        else:
            hyps = []
            for p, q in zip(true.args, false.args):
                hyps.append(self.derive_eq(core, p, q))
            self._horn(hyps + [true], false)
        self.emit(("resolve", neg, self.at[(false, True)]))
        return self.steps

    def derive_clause(self, c: _Clause) -> int:
        pos = self.at.get(c.lits)
        if pos is None:
            if c.whole:
                pos = self.emit(("input", c.source))
            else:
                lits = tuple(a if p else Not(a) for a, p in c.lits)
                pos = self.emit(("conjunct", lits, c.source))
            self.at[c.lits] = pos
        return pos

    def derive_assigned(self, atom: Formula, pol: bool) -> int:
        """Derive the literal recording that atom is assigned pol.  A unit
        reason's clause is derived, then the opposites of its other
        literals, left to right, then the resolvent: a post-order walk kept
        on an explicit stack, so a unit chain of any length fits."""
        todo: list = [(atom, pol)]
        while todo:
            item = todo.pop()
            if len(item) == 3:  # a unit whose pivots are all derived
                lit, cur, pivots = item
                self.at[lit] = self.resolve_away(cur, pivots)
                continue
            if item in self.at:
                continue
            why = self.reasons[item[0]]
            if why[0] == "decide":
                self.at[item] = why[1]  # the enclosing split's assumption
                continue
            clause = why[1]
            others = [(x, not p) for x, p in clause.lits if not _same(x, item[0])]
            todo.append((item, self.derive_clause(clause), others))
            todo.extend(reversed(others))
        return self.at[(atom, pol)]

    def resolve_away(self, cur: int, pivots) -> int:
        """Resolve each derived pivot literal away from the clause at cur in
        turn; returns the last resolvent's position."""
        for piv in pivots:
            cur = self.emit(("resolve", self.at[piv], cur))
        return cur

    # --- equality reasoning ---

    def derive_eq(self, core: CongruenceCore, s: Term, t: Term) -> Formula:
        """Derive s = t along the closure's proof-forest path from s to t,
        joining the edges' equations by transitivity; returns s = t."""
        goal = sx.eq(s, t)
        if (goal, True) in self.at:
            return goal
        if _same(s, t):
            return self._identity(s)
        edges = core.uf.explain_path(s, t)
        cur = self._edge(core, *edges[0])
        for p, q, reason in edges[1:]:
            cur = self._transitivity(cur, self._edge(core, p, q, reason))
        return cur

    def _edge(self, core, p, q, reason) -> Formula:
        """Derive p = q for a proof-forest edge: from its equation, or from
        a congruence axiom over its applications' arguments."""
        want = sx.eq(p, q)
        if (want, True) in self.at:
            return want
        if reason[0] == "eq":
            base = reason[1]
            self.derive_assigned(base, True)
        else:
            _, lhs, rhs = reason
            base = sx.eq(lhs, rhs)
            if (base, True) not in self.at:
                hyps = []
                for x, y in zip(lhs.args, rhs.args):
                    hyps.append(self.derive_eq(core, x, y))
                self._horn(hyps, base)
        if _same(base, want):
            return want
        return self._symmetry(base, want)

    def _horn(self, hyps, concl):
        """Emit the clause form of an equality-axiom instance and resolve
        its (already derived) hypotheses away, deriving the conclusion."""
        ax = self.emit(("eq_axiom", sx.disj([Not(h) for h in hyps] + [concl])))
        self.at[(concl, True)] = self.resolve_away(ax, [(h, True) for h in hyps])

    def _identity(self, a: Term) -> Formula:
        ident = sx.eq(a, a)
        if (ident, True) not in self.at:
            self.at[(ident, True)] = self.emit(("eq_axiom", ident))
        return ident

    def _symmetry(self, have_eq: Formula, want_eq: Formula) -> Formula:
        """Derive b = a (want_eq) from the derived a = b (have_eq)."""
        if (want_eq, True) not in self.at:
            ident = self._identity(have_eq.args[0])
            self._horn([have_eq, ident, ident], want_eq)
        return want_eq

    def _transitivity(self, eq1: Formula, eq2: Formula) -> Formula:
        # eq1: s=u, eq2: u=v  |-  s=v  via  u=s & u=v & u=u -> s=v
        s, u = eq1.args
        goal = sx.eq(s, eq2.args[1])
        if (goal, True) not in self.at:
            rev = self._symmetry(eq1, sx.eq(u, s))
            self._horn([rev, eq2, self._identity(u)], goal)
        return goal
