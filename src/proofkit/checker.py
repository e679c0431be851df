"""The certificate checker, the trusted base of a certified verdict.

It imports only nodes and errors, so replay checks a certificate by code
of its own, sharing nothing with the search, the closure or the emitter
in propcalc that built it.  The axiom recognizers it rests on are here.

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
last step derives the empty clause.  No branch occurs twice: it is a tree.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import CheckError
from . import nodes
from .nodes import App, Atom, EQ, Formula, Not, Or, Term, is_elementary


class Refutation(NamedTuple):
    steps: list
    spent: int = 0


def is_identity_instance(f: Formula, closed=nodes.is_variable_free) -> bool:
    """Closed instance of the identity axiom; `closed` decides an atom's
    closedness (replay reads it off its literal table)."""
    return (
        isinstance(f, Atom)
        and f.pred == EQ
        and f.args[0] == f.args[1]
        and closed(f)
    )


def as_horn(f: Formula):
    """Read f as hypotheses -> conclusion in the clause form
    -h1 v ... v -hk v c (k >= 1) over atoms, which the emitter writes."""
    parts = nodes.disjuncts(f)
    concl = parts[-1]
    hyps = [p.body for p in parts[:-1] if isinstance(p, Not) and isinstance(p.body, Atom)]
    if len(parts) >= 2 and isinstance(concl, Atom) and len(hyps) == len(parts) - 1:
        return hyps, concl
    return None


def is_equality_axiom_instance(f: Formula, closed=nodes.is_variable_free) -> bool:
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
            isinstance(lhs, App)
            and isinstance(rhs, App)
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
            if not is_elementary(base) or nodes.free_vars(base):
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
    met: dict = {}  # id of each branch met -> the branch, kept alive

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
        if id(steps) in met:
            raise CheckError("a certificate branch occurs in it twice")
        met[id(steps)] = steps
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
                    got = coded[f] = literal_codes(table, nodes.disjuncts(f))
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
                        shown = nodes.render(f) if isinstance(f, (Formula, Term)) else repr(f)
                        raise CheckError(f"not an identity/equality axiom instance: {shown}")
                    got = accepted[f] = literal_codes(table, nodes.disjuncts(f))
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
    pair = nodes.as_and(f)
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
