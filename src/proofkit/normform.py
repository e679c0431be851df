"""Formula transformations: negation, prenex, conjunctive, and normal forms,
frozen variables, and special cases.

Special cases are taken on negation-form formulas, read through the form's
own connectives as to_negation_form builds them: a conjunction
(`as_and`, that is Not(Or(Not a, Not b))) and a disjunction are
connectives whose sides are read left first, Not(Exists x B) is a
universal, Exists x B an existential, and anything else a leaf.  The
leftmost quantifier occurrence so read is never enclosed by another
quantifier, so a universal can take a variable-free term and an
existential its special constant in place.  special_case does this for a
whole directive in one top-down walk, and substitutes without subst's
capture check: every term it binds is variable free, so no quantifier can
capture it.  On fully prenexed input it
coincides with prefix consumption; on partially consumed statements it
leaves the remaining quantified subformulas intact (they stay opaque to
the propositional layer).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from .errors import CheckError, SizeGuardExceeded
from . import propcalc
from .propcalc import CLAUSE_GUARD
from . import syntax as sx
from .syntax import (
    Atom,
    Exists,
    Formula,
    Not,
    Or,
    SpecialConst,
    as_all,
    as_and,
    fand,
    fall,
    closure,
    free_vars,
    special_constant,
    subst,
)

# ---------------------------------------------------------------------------
# negation form


def to_negation_form(f: Formula) -> Formula:
    """Push every proper negation inward until it sits before an atom."""
    pair = as_all(f)
    if pair is not None:
        x, b = pair
        return fall(x, to_negation_form(b))
    pair = as_and(f)
    if pair is not None:
        return fand(to_negation_form(pair[0]), to_negation_form(pair[1]))
    if isinstance(f, Atom):
        return f
    if isinstance(f, Exists):
        return Exists(f.var, to_negation_form(f.body))
    if isinstance(f, Or):
        return Or(to_negation_form(f.left), to_negation_form(f.right))
    if isinstance(f, Not):
        return _neg(f.body)
    raise TypeError(f)


def _neg(g: Formula) -> Formula:
    pair = as_all(g)
    if pair is not None:
        x, b = pair
        return Exists(x, _neg(b))
    pair = as_and(g)
    if pair is not None:
        return Or(_neg(pair[0]), _neg(pair[1]))
    if isinstance(g, Atom):
        return Not(g)
    if isinstance(g, Not):
        return to_negation_form(g.body)
    if isinstance(g, Or):
        return fand(_neg(g.left), _neg(g.right))
    if isinstance(g, Exists):
        return fall(g.var, _neg(g.body))
    raise TypeError(g)


# ---------------------------------------------------------------------------
# prenex form


def _split_prenex(f: Formula):
    """Prefix/matrix split of a negation-form adjusted formula, pulling the
    left disjunct's or conjunct's quantifiers first."""
    pair = as_all(f)
    if pair is not None:
        x, b = pair
        prefix, matrix = _split_prenex(b)
        return [("A", x)] + prefix, matrix
    if isinstance(f, Exists):
        prefix, matrix = _split_prenex(f.body)
        return [("E", f.var)] + prefix, matrix
    pair = as_and(f)
    if pair is not None:
        pa, ma = _split_prenex(pair[0])
        pb, mb = _split_prenex(pair[1])
        return pa + pb, fand(ma, mb)
    if isinstance(f, Or):
        pa, ma = _split_prenex(f.left)
        pb, mb = _split_prenex(f.right)
        return pa + pb, Or(ma, mb)
    if isinstance(f, (Atom, Not)):
        return [], f
    raise TypeError(f)


def _assemble(prefix, matrix: Formula) -> Formula:
    out = matrix
    for kind, x in reversed(prefix):
        out = Exists(x, out) if kind == "E" else fall(x, out)
    return out


def to_prenex(f: Formula) -> Formula:
    """A prenex form of f: quantifier prefix followed by an open matrix."""
    nf = to_negation_form(sx.make_adjusted_variant(f))
    prefix, matrix = _split_prenex(nf)
    return _assemble(prefix, matrix)


# ---------------------------------------------------------------------------
# conjunctive and normal form


def to_conjunctive(f: Formula) -> Formula:
    """Distribute disjunction over conjunction to a right-associated
    conjunction of clauses.  Quantified subformulas are atomic here; the
    normal-form pipeline only ever distributes an open matrix."""
    clauses = propcalc.clausify(f)
    if len(clauses) > CLAUSE_GUARD:
        raise SizeGuardExceeded("conjunctive form too large", len(clauses))
    parts = [sx.disj([a if pol else Not(a) for a, pol in cl]) for cl in clauses]
    return sx.conj(parts)


def to_normal_form(f: Formula) -> Formula:
    """Closed + prenex + negation + conjunctive form."""
    if free_vars(f):
        raise CheckError("normal form requires a closed formula")
    nf = to_negation_form(sx.make_adjusted_variant(f))
    prefix, matrix = _split_prenex(nf)
    return _assemble(prefix, to_conjunctive(matrix))


# ---------------------------------------------------------------------------
# frozen variables


class FrozenResult(NamedTuple):
    frozen: Formula
    witnesses: tuple[tuple[str, SpecialConst], ...]


def freeze(f: Formula, names: Optional[Sequence[str]] = None) -> FrozenResult:
    """Replace the closure prefix by witness constants: each x_k becomes the
    special constant for  exists x_k not A_k  (so the result is closed and
    provably equivalent to the closure).

    Each substitution skips the capture check: the bound term is a special
    constant, which has a closed subscript and no variable occurrence of
    its own, so no quantifier of the body can capture anything in it."""
    order = free_vars(f)
    if names is None:
        names = order
    if len(names) != len(order):
        raise CheckError(
            f"freeze expects {len(order)} witness names for {', '.join(order) or 'no variables'}"
        )
    cur = closure(f)
    witnesses = []
    for x, alias in zip(order, names):
        pair = as_all(cur)
        assert pair is not None and pair[0] == x
        body = pair[1]
        r = special_constant(Exists(x, Not(body)), alias)
        witnesses.append((x, r))
        cur = subst(body, {x: r}, check=False)
    return FrozenResult(cur, tuple(witnesses))


# ---------------------------------------------------------------------------
# special cases


class SpecialCaseDirective(NamedTuple):
    """Ordered instructions, each ("term", variable-free term) for the next
    universal occurrence or ("witness", alias) for the next existential."""

    steps: tuple


def leftmost_quantifier(f: Formula):
    """(kind, path) of the leftmost quantifier occurrence of a negation-form
    formula, or None, read as special_case reads it.  kind is "A" for a
    universal Not(Exists ...), "E" for an existential; path addresses the
    Exists node (for "A", its enclosing negation)."""

    def walk(g, path):
        pair = as_and(g)
        if pair is not None:
            return walk(pair[0], path + (0, 0, 0)) or walk(pair[1], path + (0, 1, 0))
        if isinstance(g, Or):
            return walk(g.left, path + (0,)) or walk(g.right, path + (1,))
        if isinstance(g, Not) and isinstance(g.body, Exists):
            return ("A", path)
        if isinstance(g, Exists):
            return ("E", path)
        return None

    return walk(f, ())


def special_case(
    f: Formula, directive: SpecialCaseDirective, record=None
) -> Formula:
    """Apply the directive to the leftmost quantifier occurrences of a closed
    negation-form formula: universal occurrences take the given
    variable-free terms, existential ones their special constants (aliased
    by the witness name, each appended to record as (alias, constant)).
    With an empty directive this is the identity.

    One top-down walk with an accumulating binding does it.  A conjunction
    and a disjunction are walked left side first.  Not(Exists x B) takes the
    next term for x and goes on into its instance body, C for B = Not(C)
    and Not(B) otherwise.  Exists x B takes the special constant of
    Exists x B under the binding so far and goes on into B.  Any other node
    is a leaf.  Once the directive is used up, each remaining subtree gets
    the binding by one substitution without the capture check: every bound
    term is variable free (terms are checked, special constants closed), so
    no quantifier can capture a variable of it."""
    if free_vars(f):
        raise CheckError("special cases apply to closed formulas")
    steps = directive.steps
    used = 0  # steps taken so far

    def leaf(g, binding):
        return subst(g, binding, check=False) if binding else g

    def walk(g, binding):
        nonlocal used
        if used == len(steps):
            return leaf(g, binding)
        pair = as_and(g)
        if pair is not None:
            a = walk(pair[0], binding)
            return fand(a, walk(pair[1], binding))
        if isinstance(g, Or):
            left = walk(g.left, binding)
            return Or(left, walk(g.right, binding))
        universal = isinstance(g, Not) and isinstance(g.body, Exists)
        if not universal and not isinstance(g, Exists):
            return leaf(g, binding)
        kind, payload = steps[used]
        used += 1
        if kind == "term":
            if not universal:
                raise CheckError(f"term argument at existential position (step {used})")
            if not sx.is_variable_free(payload):
                raise CheckError("special-case terms must be variable free")
            e = g.body
            binding = {**binding, e.var: payload}
            if isinstance(e.body, Not):
                return walk(e.body.body, binding)
            return walk(Not(e.body), binding)
        if kind == "witness":
            if universal:
                raise CheckError(f"witness name at universal position (step {used})")
            e = leaf(g, binding)  # Exists(x, body under the binding so far)
            r = special_constant(e, payload)
            if record is not None:
                record.append((payload, r))
            return walk(e.body, {e.var: r})
        raise CheckError(f"unknown directive step kind {kind!r}")

    out = walk(f, {})
    if used < len(steps):
        raise CheckError(f"directive longer than quantifier prefix (step {used + 1})")
    return out
