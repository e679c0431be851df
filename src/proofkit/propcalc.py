"""Truth valuations and the refuter, the kernel's one propositional decider.

One DPLL-style search (Davis, Logemann & Loveland, 1962) case splits on
the elementary subformulas as atoms.  prop_refute runs it alone and
decides tautological inconsistency of a formula set.  ground_refute
decides quasitautological inconsistency of a closed formula set by the
same search plus congruence closure over the occurring variable-free
terms; congruence closure stands in for saturating with identity/equality
axiom instances over those terms.  Each problem's atoms and terms are
numbered once, and the search, the closure and the certificate emitter
work on the numbers.  The search is a loop, not a recursion: a trail that
backtracks by popping, with two watched positions per clause for unit
propagation (Chaff, 2001; MiniSat, 2003).  Each conflict records
what refutes it; once the search has refuted its root, and only then, a
certificate is built from those records, and replay checks it by code of
its own, on literal numbers of its own, sharing nothing with the search
but the syntax.

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

from typing import NamedTuple, Sequence, Union

from .errors import CheckError, SizeGuardExceeded
from . import syntax as sx
from .syntax import (
    Atom,
    Formula,
    Not,
    Or,
    EQ,
    disjuncts,
    is_elementary,
)

CLAUSE_GUARD = 10_000  # most clauses clausify and to_conjunctive make
DEFAULT_BUDGET = 100_000


# ---------------------------------------------------------------------------
# truth valuations


class TruthValuation(NamedTuple):
    """Assignment of truth values to elementary formulas, extended to all
    formulas by the two evaluation rules for negation and disjunction."""

    assignment: dict

    def value(self, f: Formula) -> bool:
        """Negations and a disjunction's right spine are followed in a loop,
        left operand first, so a long clause costs no recursion."""
        negated = False
        while not is_elementary(f):
            if isinstance(f, Not):
                negated = not negated
                f = f.body
            elif isinstance(f, Or):
                if self.value(f.left):
                    return not negated
                f = f.right
            else:
                raise TypeError(f)
        return self.assignment[f] != negated


# ---------------------------------------------------------------------------
# certificates and their replayer


class Refutation(NamedTuple):
    steps: list
    spent: int = 0


class Saturated(NamedTuple):
    model: TruthValuation
    spent: int = 0


class OutOfBudget(NamedTuple):
    spent: int


def is_identity_instance(f: Formula, closed=sx.is_variable_free) -> bool:
    """Closed instance of the identity axiom; `closed` decides an atom's
    closedness (replay reads it off its literal table)."""
    return (
        isinstance(f, Atom)
        and f.pred == EQ
        and f.args[0] == f.args[1]
        and closed(f)
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


def is_equality_axiom_instance(f: Formula, closed=sx.is_variable_free) -> bool:
    """Closed instance of an equality axiom: for a function symbol, for a
    predicate symbol, or for equality itself.  f is closed when the atoms
    as_horn reads it into are, as `closed` decides: they are the refuter's
    shared nodes, where f is built afresh."""
    horn = as_horn(f)
    if horn is None:
        return False
    parts, concl = horn
    if not (closed(concl) and all(map(closed, parts))):
        return False
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


def literal_codes(table: dict, lits) -> tuple:
    """The literals' codes in a checker's table of literal bases (a
    negation's base is its body, so not not a is keyed by not a), adding
    each base when new: the n-th base is 2n + 1 and its negation 2n, or
    ~(2n + 1) and ~2n for a base that is no closed elementary formula and
    so can be no pivot."""
    codes = []
    for lit in lits:
        base = lit.body if type(lit) is Not else lit
        c = table.get(base)
        if c is None:
            c = 2 * len(table) + 1
            if not is_elementary(base) or sx.free_vars(base):
                c = ~c
            table[base] = c
        codes.append(c if base is lit else c ^ 1)
    return tuple(codes)


def replay(cert: Refutation, inputs: Sequence[Formula]) -> bool:
    """Check a certificate against the inputs, every side condition
    included; returns True or raises CheckError, whatever the certificate
    holds.  Branches are checked from an explicit stack, over one list of
    the clauses derived in scope that each branch cuts back to its start.

    The call numbers the literals it meets in a table of its own (see
    literal_codes), deciding once per atom whether it is closed and
    elementary: clauses are tuples of codes, and each input is coded and
    each eq_axiom formula recognized once."""
    table: dict = {}  # literal base -> its code
    coded = dict.fromkeys(inputs)  # input -> its clause's codes, once cited
    conjunctive: dict = {}  # input -> the clauses of its conjunctive form
    accepted: dict = {}  # eq_axiom formula -> its clause's codes

    def closed(atom) -> bool:
        return literal_codes(table, (atom,))[0] >= 0

    have: list = []  # position -> the clause derived there
    todo = [(cert.steps, 0, None)]  # (steps, positions before, assumption)
    while todo:
        steps, length, assumed = todo.pop()
        try:
            last = len(steps) - 1
        except TypeError:
            raise CheckError("a certificate branch must be a list of steps") from None
        del have[length:]
        if assumed is not None:
            have.append((assumed,))
        for at, step in enumerate(steps):
            try:
                kind = step[0]
                known = _STEP_LENGTHS.get(kind) == len(step)
            except (TypeError, LookupError):  # no kind, or an unhashable one
                kind, known = None, False
            if not known:
                raise CheckError(f"unknown or malformed step of kind {kind!r}")
            if kind == "resolve":
                have.append(resolvent(have, step[1], step[2]))
            elif kind == "input":
                f = step[1]
                try:
                    got = coded[f]
                except (KeyError, TypeError):  # an unhashable one is no input
                    raise CheckError("certificate cites a non-input formula") from None
                if got is None:
                    got = coded[f] = literal_codes(table, sx.disjuncts(f))
                have.append(got)
            elif kind == "conjunct":
                _, claim, f = step
                if not isinstance(f, Formula) or f not in coded:
                    raise CheckError("conjunct of a non-input formula")
                if f not in conjunctive:
                    conjunctive[f] = set(_conjunctive_clauses(f))
                try:
                    found = claim in conjunctive[f]
                except TypeError:  # an unhashable claim is no clause
                    found = False
                if not found:
                    raise CheckError("claimed conjunct is not one")
                have.append(literal_codes(table, claim))
            elif kind == "eq_axiom":
                f = step[1]
                got = accepted.get(f) if isinstance(f, Formula) else None
                if got is None:
                    if not (
                        is_identity_instance(f, closed) or is_equality_axiom_instance(f, closed)
                    ):
                        shown = sx.render(f) if isinstance(f, (Formula, sx.Term)) else repr(f)
                        raise CheckError(f"not an identity/equality axiom instance: {shown}")
                    got = accepted[f] = literal_codes(table, sx.disjuncts(f))
                have.append(got)
            else:
                _, atom, first, second = step
                c = literal_codes(table, (atom,))[0] if is_elementary(atom) else -1
                if c < 0:
                    raise CheckError("split must be on a closed elementary formula")
                if at != last:
                    raise CheckError("a split must be its branch's last step")
                todo.append((second, len(have), c ^ 1))
                todo.append((first, len(have), c))
                break
        else:
            if not steps or have[-1]:
                raise CheckError("certificate branch reaches no contradiction")
    return True


def resolvent(have: list, i, j) -> tuple:
    """The clause at position j without the first occurrence of the
    opposite of the literal of the unit clause at position i.  Clauses are
    tuples of literal codes (see literal_codes): the pivot must have a code
    that is not negative, and its opposite is that code with the last bit
    flipped."""
    if not (type(i) is type(j) is int and 0 <= i < len(have) and 0 <= j < len(have)):
        raise CheckError("resolution premises must precede")
    unit, clause = have[i], have[j]
    if len(unit) != 1 or unit[0] < 0:
        raise CheckError("resolution pivot must be a closed elementary literal")
    try:
        k = clause.index(unit[0] ^ 1)
    except ValueError:
        raise CheckError("opposite of the pivot is not in the clause") from None
    return clause[:k] + clause[k + 1 :]


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
    a round, and so its merges and the certificates.  Terms are compared
    with ==, never `is`: they are a `_Terms` table's integer ids."""

    def __init__(self):
        self.parent: dict = {}
        self.size: dict = {}  # root -> size of its class, when above 1
        self.proof_parent: dict = {}
        self.proof_reason: dict = {}

    def find(self, t):
        while self.parent[t] != t:
            self.parent[t] = self.parent[self.parent[t]]
            t = self.parent[t]
        return t

    def union(self, a, b, reason):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
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
        while node != meet:
            edges.append((node, self.proof_parent[node], self.proof_reason[node]))
            node = self.proof_parent[node]
        edges.extend(reversed(back))
        return edges


class CongruenceCore:
    """Congruence closure over variable-free terms by signature table: an
    application's signature is its symbol and the classes of its arguments,
    and two applications with one signature are merged.  Terms are the ids
    of a `_Terms` table, whose `shapes` it is given.  Merge reasons are
    ("eq", equation) or ("cong", lhs-app, rhs-app); merges counts the
    unions made."""

    def __init__(self, shapes):
        self.uf = _UnionFind()
        self.shapes = shapes
        self.apps: list = []  # (application, symbol, arguments), in order added
        self.closed = True
        self.merges = 0

    def add_term(self, t):
        if t in self.uf.parent:
            return
        self.uf.parent[t] = t
        fn, args = self.shapes[t]
        if args:
            self.apps.append((t, fn, args))
            self.closed = False
            for a in args:
                self.add_term(a)

    def assert_eq(self, a, b, reason):
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
            for t, fn, args in self.apps:
                s = sig.setdefault((fn, tuple(map(find, args))), t)
                if s != t and union(s, t, ("cong", s, t)):
                    self.merges += 1
                    self.closed = False

    def congruent(self, a, b) -> bool:
        self.add_term(a)
        self.add_term(b)
        self._propagate()
        return self.uf.find(a) == self.uf.find(b)


# ---------------------------------------------------------------------------
# the refuter


def clausify(f: Formula) -> list[tuple]:
    """Clauses of the conjunctive form of f, as (atom, polarity) tuples over
    elementary atoms.  Matches normform.to_conjunctive clause for clause.
    A disjunction of literals is read as its one clause, in order, without
    the walk.  Raises SizeGuardExceeded when one distribution would make
    more than CLAUSE_GUARD clauses."""
    clauses, _, atoms = _clauses([f])
    return [tuple((atoms[c >> 1], c & 1 == 1) for c in cs) for cs in clauses]


def _clauses(inputs) -> tuple[list, list, list]:
    """The inputs' clauses as tuples of literal codes, atom i's literals
    being 2i (negative) and 2i + 1 (positive); each clause's source, as
    (input, whether the clause is that input itself, literal for literal);
    and the atoms, numbered in order of first occurrence.  A disjunction of
    literals is read as its one clause; other inputs are walked."""
    ids: dict = {}  # atom -> its number
    clauses: list = []
    sources: list = []
    for f in inputs:
        codes = []
        for d in disjuncts(f):
            pol = not isinstance(d, Not)
            atom = d if pol else d.body
            if not is_elementary(atom):
                break
            codes.append(2 * ids.setdefault(atom, len(ids)) + pol)
        else:
            clauses.append(tuple(codes))
            sources.append((f, True))
            continue
        # the literals read before the break begin the walk's first clause,
        # in order, so the atoms keep their order of first occurrence
        for c in _conjunctive(f):
            clauses.append(tuple(2 * ids.setdefault(a, len(ids)) + p for a, p in c))
            sources.append((f, False))
    return clauses, sources, list(ids)


def _conjunctive(g: Formula) -> list[tuple]:
    """The clauses of g's conjunctive form, as (atom, polarity) tuples."""
    pair = sx.as_and(g)
    if pair is not None:
        return _conjunctive(pair[0]) + _conjunctive(pair[1])
    if isinstance(g, Or):
        ls = _conjunctive(g.left)
        rs = _conjunctive(g.right)
        if len(ls) * len(rs) > CLAUSE_GUARD:
            raise SizeGuardExceeded("clausification blowup", len(ls) * len(rs))
        return [a + b for a in ls for b in rs]
    if isinstance(g, Not):
        if is_elementary(g.body):
            return [((g.body, False),)]
        if isinstance(g.body, Not):
            return _conjunctive(g.body.body)
        if isinstance(g.body, Or):
            return _conjunctive(sx.fand(Not(g.body.left), Not(g.body.right)))
        raise TypeError(g)
    if is_elementary(g):
        return [((g, True),)]
    raise TypeError(g)


class _Terms:
    """A problem's terms and atoms, numbered once, symbols included, so that
    the closure and the emitter hash no node.  Each distinct term under an
    atom with arguments has an id, and each atom its arguments' ids; the
    equations the emitter needs beyond the problem's atoms come after them."""

    def __init__(self, atoms):
        self.atoms: list = list(atoms)  # atom id -> node
        self.args: list = []  # atom id -> argument ids
        self.preds: list = []  # atom id -> predicate code, 0 for equality
        self.eqs: dict = {}  # (s, t) -> atom id of the equation s = t
        self.terms: list = []  # term id -> node
        self.shapes: list = []  # term id -> (function code, argument ids)
        ids: dict = {}  # term -> its id
        codes: dict = {EQ: 0}  # symbol -> its code

        def term(t) -> int:
            i = ids.get(t)
            if i is None:
                args = tuple(map(term, t.args)) if isinstance(t, sx.App) else ()
                fn = codes.setdefault(t.fn, len(codes)) if args else None
                i = ids[t] = len(self.terms)
                self.terms.append(t)
                self.shapes.append((fn, args))
            return i

        for i, a in enumerate(atoms):
            args = tuple(map(term, a.args)) if isinstance(a, Atom) else ()
            pred = codes.setdefault(a.pred, len(codes)) if args else None
            if pred == 0:
                self.eqs[args] = i
            self.args.append(args)
            self.preds.append(pred)

    def eq(self, s: int, t: int) -> int:
        """The atom id of the equation s = t."""
        i = self.eqs.get((s, t))
        if i is None:
            i = self.eqs[(s, t)] = len(self.atoms)
            self.atoms.append(sx.eq(self.terms[s], self.terms[t]))
            self.args.append((s, t))
            self.preds.append(0)
        return i


def prop_refute(
    fs: Sequence[Formula], budget: int = DEFAULT_BUDGET
) -> Union[Refutation, Saturated, OutOfBudget]:
    """The propositional (tautological) search on fs, without a
    certificate: OutOfBudget when the budget runs out first.  Raises
    SizeGuardExceeded when one distribution in a member's clause form would
    make more than CLAUSE_GUARD clauses."""
    return _refute(*_clauses(fs), budget, use_congruence=False, want_cert=False)


def ground_refute(
    inputs: Sequence[Formula], budget: int = DEFAULT_BUDGET, want_cert: bool = True
) -> Union[Refutation, Saturated, OutOfBudget]:
    """Decide quasitautological inconsistency of a set of closed formulas.

    Sound always; complete for the quasitautology relation when the budget
    suffices.  Saturated means provably no refutation exists."""
    clauses, sources, atoms = _clauses(inputs)
    # an input is closed exactly when its atoms are; only an open one is
    # looked for among the inputs, to name it
    if any(sx.free_vars(a) for a in atoms):
        f = next(f for f in inputs if sx.free_vars(f))
        raise CheckError(f"ground_refute requires closed inputs: {sx.render(f)}")
    return _refute(clauses, sources, atoms, budget, use_congruence=True, want_cert=want_cert)


class _Stop(Exception):
    """The budget is spent."""


def _refute(clauses, sources, atoms, budget, use_congruence, want_cert):
    """Case splits on the atoms in order, True first; unit propagation by
    two watched positions per clause; with use_congruence (which want_cert
    needs), a congruence check at each node that assigned an atom with
    arguments, on the problem's terms numbered once in a `_Terms` table.

    Clauses are tuples of literal codes (see `_clauses`), and `val[code]` is
    a literal's truth value, None while unassigned.  A frame per decision
    level holds the decided atom, the trail length before it and, once its
    True branch is refuted, that branch's steps.  Each unit propagation,
    decision and congruence merge costs one budget unit.

    A refuted node's steps are an empty list until the root is refuted.
    With want_cert, each conflict records what its steps are built from:
    the conflict, a snapshot of the reasons and its split depth.  Only a
    Refutation builds them, filling those lists in place."""
    n = len(atoms)
    val: list = [None] * (2 * n)
    trail: list = []
    reasons: list = [None] * n  # atom id -> reason of its latest assignment
    frames: list = []  # [atom id, trail length before it, True-branch steps]
    leaves: list = []  # (steps to fill, conflict, reasons, split depth)
    table = _Terms(atoms) if use_congruence else None
    # watches[code]: clauses with a watched position holding that literal;
    # watched[k]: clause k's two watched positions (clauses of two or more)
    watches: list = [[] for _ in range(2 * n)]
    watched = [[0, 1] for _ in clauses]
    for k, cs in enumerate(clauses):
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
        reasons[i] = reason

    def backtrack(length):
        nonlocal head
        while len(trail) > length:
            i = trail.pop()
            val[2 * i] = val[2 * i + 1] = None
        head = length

    def propagate():
        """Unit propagation from the trail's head to a fixpoint; returns the
        index of a clause with every position false, or None."""
        nonlocal head
        while head < len(trail):
            i = trail[head]
            head += 1
            false = 2 * i + (val[2 * i] is True)
            ws = watches[false]
            keep = []
            for at, k in enumerate(ws):
                cs, w = clauses[k], watched[k]
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
                        return k
                    charge()
                    assign(other, ("unit", k))
            watches[false] = keep
        return None

    def level_zero():
        """Assign the one-position clauses; returns a conflicting one or None."""
        for k, cs in enumerate(clauses):
            if len(cs) == 1:
                if val[cs[0]] is False:
                    return k
                if val[cs[0]] is None:
                    charge()
                    assign(cs[0], ("unit", k))
        return propagate()

    try:
        conflict = level_zero()
        cursor = 0  # atoms before it are assigned
        while True:
            if conflict is None and use_congruence and any(
                table.args[i] for i in trail[frames[-1][1] if frames else 0 :]
            ):
                conflict = _theory_conflict(
                    [(i, val[2 * i + 1]) for i in trail if table.args[i]], table, charge
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
                leaves.append((steps, conflict, list(reasons), len(frames)))
            # the node is refuted: close every split whose branches both are
            while frames and frames[-1][2] is not None:
                i, length, first = frames.pop()
                backtrack(length)
                steps = [("split", atoms[i], first, steps)]
            if not frames:
                instances: dict = {}  # the leaves' equality-axiom instances
                for leaf_steps, found, why, depth in leaves:
                    emitter = _Emitter(clauses, sources, table, why, depth, instances)
                    leaf_steps.extend(emitter.refute(found))
                return Refutation(steps, spent)
            frame = frames[-1]
            backtrack(frame[1])
            frame[2] = steps
            cursor = frame[0]
            assign(2 * cursor, ("decide", len(frames) - 1))
            conflict = propagate()
    except _Stop:
        return OutOfBudget(spent)


def _theory_conflict(assigned, table, charge):
    """What refutes the assigned (atom id, polarity) pairs by equality
    reasoning, or None: (closure, None, e) for a false equation e that the
    closure of the true ones makes true, or (closure, t, f) for a true atom
    t and a false atom f of one predicate whose arguments it joins.  Only
    atoms with arguments matter: a 0-ary atom takes part in no congruence.
    The closure's merges are charged to the budget."""
    args, preds = table.args, table.preds
    core = CongruenceCore(table.shapes)
    for i, pol in assigned:
        for t in args[i]:
            core.add_term(t)
        if pol and preds[i] == 0:
            core.assert_eq(args[i][0], args[i][1], ("eq", i))
    core._propagate()
    charge(core.merges)

    for i, pol in assigned:
        if preds[i] == 0 and not pol and core.congruent(*args[i]):
            return core, None, i

    def signature(i):
        return preds[i], tuple(map(core.uf.find, args[i]))

    trues: dict = {}
    for i, pol in assigned:
        if preds[i] != 0 and pol:
            trues.setdefault(signature(i), i)
    for i, pol in assigned:
        t = trues.get(signature(i)) if preds[i] != 0 and not pol else None
        if t is not None:
            return core, t, i
    return None


class _Emitter:
    """Builds one refuted leaf's steps, deriving each literal it needs from
    the inputs, unit chains, congruence-closure explanations and the
    enclosing split assumptions.  The leaf's positions start after those
    assumptions, one per split around it; the assumption of the split at
    depth d holds position d.  `at` maps each derived literal, by its code,
    and each derived input clause, by its tuple of codes, to its position;
    equations are atom ids of the term table, and nodes only in the steps.
    `instances`, shared by the leaves of one refutation, holds each
    equality-axiom instance built, by its (*hypotheses, conclusion)."""

    def __init__(self, clauses, sources, table, reasons, depth, instances):
        self.clauses = clauses
        self.sources = sources
        self.table = table
        self.reasons = reasons
        self.depth = depth
        self.instances = instances
        self.steps: list = []
        self.at: dict = {}

    def emit(self, step) -> int:
        self.steps.append(step)
        return self.depth + len(self.steps) - 1

    def refute(self, conflict) -> list:
        """The leaf's steps, down to the empty clause: for a clause (by its
        index) whose literals are all false, each is resolved away; for
        _theory_conflict's (closure, true atom or None, false atom), the
        false atom is derived from the closure and resolved against its
        own negation."""
        if not isinstance(conflict, tuple):
            cur = self.derive_clause(conflict)
            pivots = [c ^ 1 for c in self.clauses[conflict]]
            for c in pivots:
                self.derive_assigned(c)
            self.resolve_away(cur, pivots)
            return self.steps
        core, true, false = conflict
        args = self.table.args
        if true is not None:
            self.derive_assigned(2 * true + 1)
        neg = self.derive_assigned(2 * false)
        if true is None:
            self.derive_eq(core, *args[false])
        else:
            hyps = [self.derive_eq(core, p, q) for p, q in zip(args[true], args[false])]
            self._horn(hyps + [true], false)
        self.emit(("resolve", neg, self.at[2 * false + 1]))
        return self.steps

    def derive_clause(self, k: int) -> int:
        codes = self.clauses[k]
        pos = self.at.get(codes)
        if pos is None:
            f, whole = self.sources[k]
            if whole:
                pos = self.emit(("input", f))
            else:
                atoms = self.table.atoms
                lits = tuple(atoms[c >> 1] if c & 1 else Not(atoms[c >> 1]) for c in codes)
                pos = self.emit(("conjunct", lits, f))
            self.at[codes] = pos
        return pos

    def derive_assigned(self, code: int) -> int:
        """Derive the literal of that code, as it was assigned.  A unit
        reason's clause is derived, then the opposites of its other
        literals, left to right, then the resolvent: a post-order walk kept
        on an explicit stack, so a unit chain of any length fits."""
        todo: list = [code]
        while todo:
            item = todo.pop()
            if isinstance(item, tuple):  # a unit whose pivots are all derived
                lit, cur, pivots = item
                self.at[lit] = self.resolve_away(cur, pivots)
                continue
            if item in self.at:
                continue
            i = item >> 1
            why = self.reasons[i]
            if why[0] == "decide":
                self.at[item] = why[1]  # the enclosing split's assumption
                continue
            k = why[1]
            others = [c ^ 1 for c in self.clauses[k] if c >> 1 != i]
            todo.append((item, self.derive_clause(k), others))
            todo.extend(reversed(others))
        return self.at[code]

    def resolve_away(self, cur: int, pivots) -> int:
        """Resolve each derived pivot literal away from the clause at cur in
        turn; returns the last resolvent's position."""
        for piv in pivots:
            cur = self.emit(("resolve", self.at[piv], cur))
        return cur

    # --- equality reasoning: equations are atom ids, s = t derived at 2i+1 ---

    def derive_eq(self, core: CongruenceCore, s: int, t: int) -> int:
        """Derive s = t along the closure's proof-forest path from s to t,
        joining the edges' equations by transitivity; returns s = t."""
        goal = self.table.eq(s, t)
        if 2 * goal + 1 in self.at:
            return goal
        if s == t:
            return self._identity(s)
        edges = core.uf.explain_path(s, t)
        cur = self._edge(core, *edges[0])
        for p, q, reason in edges[1:]:
            cur = self._transitivity(cur, self._edge(core, p, q, reason))
        return cur

    def _edge(self, core, p, q, reason) -> int:
        """Derive p = q for a proof-forest edge: from its equation, or from
        a congruence axiom over its applications' arguments."""
        want = self.table.eq(p, q)
        if 2 * want + 1 in self.at:
            return want
        if reason[0] == "eq":
            base = reason[1]
            self.derive_assigned(2 * base + 1)
        else:
            _, lhs, rhs = reason
            base = self.table.eq(lhs, rhs)
            if 2 * base + 1 not in self.at:
                pairs = zip(self.table.shapes[lhs][1], self.table.shapes[rhs][1])
                self._horn([self.derive_eq(core, x, y) for x, y in pairs], base)
        if base == want:
            return want
        return self._symmetry(base, want)

    def _horn(self, hyps, concl):
        """Emit the clause form of an equality-axiom instance and resolve
        its (already derived) hypotheses away, deriving the conclusion."""
        key = (*hyps, concl)
        f = self.instances.get(key)
        if f is None:
            atoms = self.table.atoms
            f = self.instances[key] = sx.disj([Not(atoms[h]) for h in hyps] + [atoms[concl]])
        ax = self.emit(("eq_axiom", f))
        self.at[2 * concl + 1] = self.resolve_away(ax, [2 * h + 1 for h in hyps])

    def _identity(self, a: int) -> int:
        ident = self.table.eq(a, a)
        if 2 * ident + 1 not in self.at:
            self.at[2 * ident + 1] = self.emit(("eq_axiom", self.table.atoms[ident]))
        return ident

    def _symmetry(self, have_eq: int, want_eq: int) -> int:
        """Derive b = a (want_eq) from the derived a = b (have_eq)."""
        if 2 * want_eq + 1 not in self.at:
            ident = self._identity(self.table.args[have_eq][0])
            self._horn([have_eq, ident, ident], want_eq)
        return want_eq

    def _transitivity(self, eq1: int, eq2: int) -> int:
        # eq1: s=u, eq2: u=v  |-  s=v  via  u=s & u=v & u=u -> s=v
        s, u = self.table.args[eq1]
        goal = self.table.eq(s, self.table.args[eq2][1])
        if 2 * goal + 1 not in self.at:
            rev = self._symmetry(eq1, self.table.eq(u, s))
            self._horn([rev, eq2, self._identity(u)], goal)
        return goal
