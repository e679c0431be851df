"""The paper's proof constructions, kept apart from the verdict path: a
builder for proof objects; the transformations that rebuild a proof line by
line (the deduction theorem, the purge of extraneous symbols) and the
extraction of a special sequence from a proof of 0 != 0; Theorem 22's size
bound and the Theorem-24 reassembly of a proof from a final special
sequence; and the generators of kernel-checkable proofs (the equality
theorem, special cases, frozen variables, variant implications, and the
negation- and prenex-form equivalences).  Every proof made here is one
kernel.core.check_proof accepts.

All generators work with closed instances throughout: recursion under a
quantifier instantiates the bound variable with the special constant the
bridge needs, so no open-formula theoremhood is ever manipulated."""

from __future__ import annotations

from typing import Sequence

from ..errors import CheckError
from ..hilbertack import TowerExpr, tnum, tpow
from .. import normform as nform
from .. import syntax as sx
from ..kernel.core import (
    ProofLine,
    ProofObject,
    SpecialSequence,
    Theory,
    check_proof,
    classify_delta,
    sequence_valid,
)
from ..syntax import (
    Atom,
    Exists,
    Formula,
    Not,
    Or,
    SpecialConst,
    Term,
    Var,
    EQ,
    as_all,
    as_and,
    fand,
    fall,
    fimp,
    free_vars,
    special_constant,
    subst,
)


# ---------------------------------------------------------------------------
# building proofs


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


def in_delta(theory: Theory, f: Formula) -> bool:
    try:
        classify_delta(theory, f)
        return True
    except CheckError:
        return False


def special_axiom(c: SpecialConst) -> Formula:
    e = c.subscript
    return fimp(e, subst(e.body, {e.var: c}))


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
# special sequences, Theorem 22's bound and the Theorem-24 reassembly


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


def theorem22_bound(nu: int, lam: int) -> TowerExpr:
    """The tower nu ^ 2 ^ lam, the base of hilbertack.bound_eval."""
    return tpow(tnum(nu), tpow(tnum(2), tnum(lam)))


def reassemble_proof(
    theory: Theory, goal: Formula, final_seq: SpecialSequence
) -> ProofObject:
    """Given the final special sequence produced from T[not closure(goal)],
    a proof of the goal in T: the non-hypothesis members are delta lines and
    the closure follows tautologically."""
    neg = Not(sx.closure(goal))
    pb = ProofBuilder()
    used = []
    for f in final_seq.formulas:
        if f == neg:
            continue
        classify_delta(theory, f)
        used.append(pb.delta(f))
    pb.taut(sx.closure(goal), tuple(used))
    proof = pb.build()
    verdict = check_proof(theory, proof)
    if not verdict.ok:
        raise CheckError(
            f"reassembled proof fails at {verdict.failed_index}: {verdict.message}"
        )
    return proof


# ---------------------------------------------------------------------------
# the equality theorem (closed instances of
#   a1=b1 & ... & ak=bk & A(as) -> A(bs) )


def equality_theorem_proof(
    variables: Sequence[str],
    a_terms: Sequence[Term],
    b_terms: Sequence[Term],
    body: Formula,
) -> tuple[Formula, ProofObject]:
    """Prove the closed equality-theorem instance for the given simultaneous
    substitutions (all terms variable-free)."""
    if not variables:
        raise CheckError("the equality theorem needs at least one substitution")
    for t in list(a_terms) + list(b_terms):
        if not sx.is_variable_free(t):
            raise CheckError("equality-theorem terms must be variable free")
    pb = ProofBuilder()
    eqs = [sx.eq(a, b) for a, b in zip(a_terms, b_terms)]
    suba = dict(zip(variables, a_terms))
    subb = dict(zip(variables, b_terms))
    idx = _prove_eqth(pb, eqs, body, suba, subb)
    proof = pb.build()
    return proof.lines[idx].formula, proof


def equality_substitution(a: Term, b: Term, body: Formula, x: str):
    """The closed instance  a=b & A_x(a) -> A_x(b)  together with its proof."""
    for t, name in ((a, "a"), (b, "b")):
        if not sx.is_variable_free(t):
            raise CheckError(f"term {name} must be variable free")
        bad = sx.substitutable(t, x, body)
        if bad is not None:
            raise CheckError(f"term {name} not substitutable: captured by {bad!r}")
    return equality_theorem_proof([x], [a], [b], body)


def _hyp(eqs, extra):
    return sx.conj(list(eqs) + [extra])


def _prove_eqth(pb: ProofBuilder, eqs, body: Formula, suba, subb) -> int:
    """Line index of  eqs & body@suba -> body@subb."""
    fa = subst(body, suba)
    fb = subst(body, subb)
    goal = fimp(_hyp(eqs, fa), fb)
    if fa == fb:
        return pb.taut(goal, ())
    if isinstance(body, Atom):
        prem_lines = []
        for t in body.args:
            prem_lines.append(_prove_term_eq(pb, eqs, t, suba, subb))
        arg_eqs = [sx.eq(subst(t, suba), subst(t, subb)) for t in body.args]
        instance = fimp(sx.conj(arg_eqs + [fa]), fb)
        inst_idx = pb.delta(instance)
        return pb.taut(goal, tuple(prem_lines) + (inst_idx,))
    if isinstance(body, Not):
        rev_eqs = [sx.eq(b, a) for (a, b) in (e.args for e in eqs)]
        rec = _prove_eqth(pb, rev_eqs, body.body, subb, suba)
        sym_lines = [_prove_symmetry(pb, eqs, e) for e in eqs]
        return pb.taut(goal, tuple(sym_lines) + (rec,))
    if isinstance(body, Or):
        r1 = _prove_eqth(pb, eqs, body.left, suba, subb)
        r2 = _prove_eqth(pb, eqs, body.right, suba, subb)
        return pb.taut(goal, (r1, r2))
    if isinstance(body, Exists):
        y = body.var
        r = special_constant(fa)
        suba2 = dict(suba)
        suba2[y] = r
        subb2 = dict(subb)
        subb2[y] = r
        rec = _prove_eqth(pb, eqs, body.body, suba2, subb2)
        spa = pb.delta(special_axiom(r))
        sub_line = pb.delta(fimp(subst(body.body, subb2), fb))
        return pb.taut(goal, (spa, rec, sub_line))
    raise TypeError(body)


def _prove_term_eq(pb: ProofBuilder, eqs, t: Term, suba, subb) -> int:
    """Line index of  eqs -> t@suba = t@subb."""
    ta = subst(t, suba)
    tb = subst(t, subb)
    goal = fimp(sx.conj(list(eqs)), sx.eq(ta, tb))
    if ta == tb:
        ident = pb.delta(sx.eq(ta, ta))
        return pb.taut(goal, (ident,))
    if isinstance(t, Var):
        # the equation is literally one of the hypotheses
        return pb.taut(goal, ())
    assert isinstance(t, sx.App)
    child_lines = [_prove_term_eq(pb, eqs, a, suba, subb) for a in t.args]
    arg_eqs = [sx.eq(subst(a, suba), subst(a, subb)) for a in t.args]
    instance = fimp(sx.conj(arg_eqs), sx.eq(ta, tb))
    inst = pb.delta(instance)
    return pb.taut(goal, tuple(child_lines) + (inst,))


def _prove_symmetry(pb: ProofBuilder, eqs, e: Formula) -> int:
    """Line index of  eqs -> b=a  for the hypothesis equation e = (a=b)."""
    a, b = e.args
    goal = fimp(sx.conj(list(eqs)), sx.eq(b, a))
    ident = pb.delta(sx.eq(a, a))
    instance = fimp(sx.conj([sx.eq(a, b), sx.eq(a, a), sx.eq(a, a)]), sx.eq(b, a))
    inst = pb.delta(instance)
    return pb.taut(goal, (ident, inst))


# ---------------------------------------------------------------------------
# special cases


def special_case_proof(f: Formula, directive: nform.SpecialCaseDirective):
    """Proof of  f -> special_case(f, directive)."""
    pb = ProofBuilder()
    cur = f
    bridges = []
    for kind, payload in directive.steps:
        loc = nform.leftmost_quantifier(cur)
        if loc is None:
            raise CheckError("directive longer than quantifier prefix")
        qkind, path = loc
        if kind == "term":
            if qkind != "A":
                raise CheckError("term argument at existential position")
            node = sx.node_at(cur, path)
            e = node.body
            inner = e.body
            if isinstance(inner, Not):
                repl = subst(inner.body, {e.var: payload})
                bridge = pb.delta(fimp(Not(repl), e))
            else:
                repl = Not(subst(inner, {e.var: payload}))
                bridge = pb.delta(fimp(subst(inner, {e.var: payload}), e))
            nxt = sx.replace_at(cur, path, repl)
        else:
            if qkind != "E":
                raise CheckError("witness name at universal position")
            e = sx.node_at(cur, path)
            r = special_constant(e)
            repl = subst(e.body, {e.var: r})
            bridge = pb.delta(special_axiom(r))
            nxt = sx.replace_at(cur, path, repl)
        step = pb.taut(fimp(cur, nxt), (bridge,))
        bridges.append(step)
        cur = nxt
    goal = fimp(f, cur)
    idx = pb.taut(goal, tuple(bridges))
    return cur, pb.build(), idx


# ---------------------------------------------------------------------------
# frozen variables (closure <-> frozen form)


def freeze_proof(f: Formula, frozen: nform.FrozenResult):
    """Proof whose last line is  closure(f) <-> frozen(f)."""
    pb = ProofBuilder()
    cur = sx.closure(f)
    lines = []
    for x, r in frozen.witnesses:
        pair = as_all(cur)
        assert pair is not None and pair[0] == x
        body = pair[1]
        e = r.subscript  # exists x not body
        lines.append(pb.delta(special_axiom(r)))
        inst = subst(body, {x: r})
        lines.append(pb.delta(fimp(Not(inst), e)))
        cur = inst
    goal = sx.fiff(sx.closure(f), frozen.frozen)
    idx = pb.taut(goal, tuple(lines))
    return pb.build(), idx


# ---------------------------------------------------------------------------
# variant implications (Theorem 10 shape)


def variant_implication(pb: ProofBuilder, a: Formula, b: Formula, suba, subb) -> int:
    """Line index of  a@suba -> b@subb  where b is a variant of a."""
    fa = subst(a, suba)
    fb = subst(b, subb)
    goal = fimp(fa, fb)
    if isinstance(a, Atom):
        return pb.taut(goal, ())
    if isinstance(a, Not):
        rec = variant_implication(pb, b.body, a.body, subb, suba)
        return pb.taut(goal, (rec,))
    if isinstance(a, Or):
        r1 = variant_implication(pb, a.left, b.left, suba, subb)
        r2 = variant_implication(pb, a.right, b.right, suba, subb)
        return pb.taut(goal, (r1, r2))
    if isinstance(a, Exists):
        assert isinstance(b, Exists)
        r = special_constant(fa)
        suba2 = dict(suba)
        suba2[a.var] = r
        subb2 = dict(subb)
        subb2[b.var] = r
        spa = pb.delta(special_axiom(r))
        rec = variant_implication(pb, a.body, b.body, suba2, subb2)
        sub_line = pb.delta(fimp(subst(b.body, subb2), fb))
        return pb.taut(goal, (spa, rec, sub_line))
    raise TypeError(a)


def variant_iff_proof(a: Formula, b: Formula):
    """Proof ending with  a <-> b  for closed variants a, b."""
    if sx.free_vars(a) or sx.free_vars(b):
        raise CheckError("variant equivalence wants closed formulas")
    pb = ProofBuilder()
    f1 = variant_implication(pb, a, b, {}, {})
    f2 = variant_implication(pb, b, a, {}, {})
    idx = pb.taut(sx.fiff(a, b), (f1, f2))
    return pb.build(), idx


# ---------------------------------------------------------------------------
# negation-form equivalence


def _exists_bridge(pb, e1: Exists, e2: Exists, rec) -> int:
    """Line index of  e1 <-> e2  given rec(pb, r) -> index of a line from
    which  body1(r) -> body2(r)  and  body2(r) -> body1(r)  follow
    tautologically (rec returns the index of an iff-shaped line)."""
    r1 = special_constant(e1)
    spa1 = pb.delta(special_axiom(r1))
    rec1 = rec(pb, r1)
    subf1 = pb.delta(fimp(subst(e2.body, {e2.var: r1}), e2))
    fwd = pb.taut(fimp(e1, e2), (spa1, rec1, subf1))
    r2 = special_constant(e2)
    spa2 = pb.delta(special_axiom(r2))
    rec2 = rec(pb, r2)
    subf2 = pb.delta(fimp(subst(e1.body, {e1.var: r2}), e1))
    bwd = pb.taut(fimp(e2, e1), (spa2, rec2, subf2))
    return pb.taut(sx.fiff(e1, e2), (fwd, bwd))


def nf_iff(pb: ProofBuilder, f: Formula, sub) -> int:
    """Line index of  f@sub <-> nf(f)@sub  (both closed)."""
    fa = subst(f, sub)
    fb = subst(nform.to_negation_form(f), sub)
    goal = sx.fiff(fa, fb)
    if fa == fb:
        return pb.taut(goal, ())
    if isinstance(f, Atom):
        return pb.taut(goal, ())
    if isinstance(f, Or):
        r1 = nf_iff(pb, f.left, sub)
        r2 = nf_iff(pb, f.right, sub)
        return pb.taut(goal, (r1, r2))
    if isinstance(f, Exists):
        def rec(pb2, r):
            s2 = dict(sub)
            s2[f.var] = r
            return nf_iff(pb2, f.body, s2)

        e1 = fa
        e2 = subst(Exists(f.var, nform.to_negation_form(f.body)), sub)
        mid = _exists_bridge(pb, e1, e2, rec)
        if fb == e2:
            return mid
        return pb.taut(goal, (mid,))
    if isinstance(f, Not):
        return _neg_iff(pb, f.body, sub)
    raise TypeError(f)


def _neg_iff(pb: ProofBuilder, g: Formula, sub) -> int:
    """Line index of  (not g)@sub <-> neg-form(not g)@sub."""
    fa = Not(subst(g, sub))
    fb = subst(nform.to_negation_form(Not(g)), sub)
    goal = sx.fiff(fa, fb)
    if fa == fb:
        return pb.taut(goal, ())
    if isinstance(g, Atom):
        return pb.taut(goal, ())
    if isinstance(g, Not):
        rec = nf_iff(pb, g.body, sub)
        return pb.taut(goal, (rec,))
    if isinstance(g, Or):
        r1 = _neg_iff(pb, g.left, sub)
        r2 = _neg_iff(pb, g.right, sub)
        return pb.taut(goal, (r1, r2))
    if isinstance(g, Exists):
        # not exists y M  <->  forall y neg(not M)
        m = g.body
        neg_m = nform.to_negation_form(Not(m))

        def rec(pb2, r):
            s2 = dict(sub)
            s2[g.var] = r
            return _neg_iff(pb2, m, s2)

        e1 = subst(g, sub)
        e2 = subst(Exists(g.var, Not(neg_m)), sub)
        mid = _exists_bridge(pb, e1, e2, rec)
        return pb.taut(goal, (mid,))
    raise TypeError(g)


def negation_form_proof(f: Formula):
    """Proof ending with  f <-> negation-form(f)  for closed f."""
    if sx.free_vars(f):
        raise CheckError("negation-form equivalence wants a closed formula")
    pb = ProofBuilder()
    idx = nf_iff(pb, f, {})
    return pb.build(), idx


# ---------------------------------------------------------------------------
# prenex pulls (Theorem 9 recipes) and the composed prenex equivalence


def _pull_redex(f: Formula):
    """Innermost-leftmost redex of the prenex rewrite system: (path, lhs,
    rhs) or None.  A node's operands are made prenex before its own
    quantifiers are pulled, the left operand's first, so the rewrites build
    the prefix normform.to_prenex builds."""

    def walk(g, path):
        pair = as_all(g)
        if pair is not None:
            return walk(pair[1], path + (("all", g),))
        if isinstance(g, Exists):
            return walk(g.body, path + (("ex", g),))
        pair = as_and(g)
        if pair is not None:
            rebuild, operands, tags = fand, pair, ("and-l", "and-r")
        elif isinstance(g, Or):
            rebuild, operands, tags = Or, (g.left, g.right), ("or-l", "or-r")
        elif isinstance(g, (Atom, Not)):
            return None  # literal in negation form
        else:
            raise TypeError(g)
        for operand, tag in zip(operands, tags):
            inner = walk(operand, path + ((tag, g),))
            if inner is not None:
                return inner
        # pull the first quantified operand's quantifier above g
        for i, operand in enumerate(operands):
            q = _quant(operand)
            if q is not None:
                kind, x, b = q
                inner = rebuild(*operands[:i], b, *operands[i + 1 :])
                return (path, g, Exists(x, inner) if kind == "E" else fall(x, inner))
        return None

    return walk(f, ())


def _pull_rule_proof(pb: ProofBuilder, lhs: Formula, rhs: Formula, sub) -> int:
    """Line index of  lhs@sub <-> rhs@sub  for one (30)-(37) instance."""
    la = subst(lhs, sub)
    ra = subst(rhs, sub)
    goal = sx.fiff(la, ra)
    pair = as_and(la)
    if pair is not None:
        a, c = pair
        make = fand
        left_op = True
        if _quant(a) is None:
            a, c = c, a
            left_op = False
    else:
        a, c = la.left, la.right
        make = Or
        left_op = True
        if _quant(a) is None:
            a, c = c, a
            left_op = False
    q = _quant(a)
    assert q is not None
    kind, x, b = q

    def compose(inner_b):
        inner = (
            (make(inner_b, c) if left_op else make(c, inner_b))
        )
        return inner

    if kind == "E":
        e1 = Exists(x, b)
        r = special_constant(e1)
        spa = pb.delta(special_axiom(r))
        inst = compose(subst(b, {x: r}))
        e_big = ra
        subf = pb.delta(fimp(inst, e_big))
        fwd = pb.taut(fimp(la, ra), (spa, subf))
        r2 = special_constant(e_big)
        spa2 = pb.delta(special_axiom(r2))
        subf2 = pb.delta(fimp(subst(b, {x: r2}), e1))
        bwd = pb.taut(fimp(ra, la), (spa2, subf2))
        return pb.taut(goal, (fwd, bwd))
    # universal: a = forall x b
    e_neg_small = Exists(x, Not(b))
    big_body = compose(b)
    e_neg_big = Exists(x, Not(big_body))
    r2 = special_constant(e_neg_big)
    spa2 = pb.delta(special_axiom(r2))
    subf2 = pb.delta(fimp(Not(subst(b, {x: r2})), e_neg_small))
    fwd = pb.taut(fimp(la, ra), (spa2, subf2))
    r = special_constant(e_neg_small)
    spa = pb.delta(special_axiom(r))
    subf = pb.delta(fimp(Not(subst(big_body, {x: r})), e_neg_big))
    bwd = pb.taut(fimp(ra, la), (spa, subf))
    return pb.taut(goal, (fwd, bwd))


def _quant(g):
    if isinstance(g, Exists):
        return ("E", g.var, g.body)
    pair = as_all(g)
    if pair is not None:
        return ("A", pair[0], pair[1])
    return None


def _lift_iff(pb: ProofBuilder, path, rhs, sub, leaf) -> int:
    """Line index of  whole@sub <-> whole[path := rhs]@sub, whole being the
    formula the path starts at."""
    if not path:
        return leaf(pb, sub)
    (tag, node), rest = path[0], path[1:]
    if tag in ("or-l", "or-r", "and-l", "and-r"):
        rec = _lift_iff(pb, rest, rhs, sub, leaf)
        na = subst(node, sub)
        nb = subst(_rebuild(node, path, rhs), sub)
        return pb.taut(sx.fiff(na, nb), (rec,))
    if tag == "all":
        x, body = as_all(node)
        new_node = _rebuild(node, path, rhs)
        _, new_body = as_all(new_node)
        e1 = subst(Exists(x, Not(body)), sub)
        e2 = subst(Exists(x, Not(new_body)), sub)

        def rec(pb2, r):
            s2 = dict(sub)
            s2[x] = r
            inner = _lift_iff(pb2, rest, rhs, s2, leaf)
            na = Not(subst(body, s2))
            nb = Not(subst(new_body, s2))
            return pb2.taut(sx.fiff(na, nb), (inner,))

        mid = _exists_bridge(pb, e1, e2, rec)
        na = subst(node, sub)
        nb = subst(new_node, sub)
        return pb.taut(sx.fiff(na, nb), (mid,))
    if tag == "ex":
        x = node.var
        new_node = _rebuild(node, path, rhs)

        def rec(pb2, r):
            s2 = dict(sub)
            s2[x] = r
            return _lift_iff(pb2, rest, rhs, s2, leaf)

        e1 = subst(node, sub)
        e2 = subst(new_node, sub)
        return _exists_bridge(pb, e1, e2, rec)
    raise AssertionError(tag)


# the child indices each tag of a redex path steps through, as
# normform.leftmost_quantifier addresses a negation-form formula
_TAG_INDICES = {
    "or-l": (0,), "or-r": (1,), "and-l": (0, 0, 0), "and-r": (0, 1, 0), "all": (0, 0, 0), "ex": (0,),
}


def _rebuild(node: Formula, path, rhs: Formula) -> Formula:
    return sx.replace_at(node, [i for tag, _ in path for i in _TAG_INDICES[tag]], rhs)


def prenex_prefix(f: Formula):
    """(prefix, matrix) of a formula already in prenex shape."""
    prefix = []
    cur = f
    while True:
        pair = as_all(cur)
        if pair is not None:
            prefix.append(("A", pair[0]))
            cur = pair[1]
            continue
        if isinstance(cur, Exists):
            prefix.append(("E", cur.var))
            cur = cur.body
            continue
        return prefix, cur


def prenex_equivalence_proof(f: Formula):
    """Proof ending with  f <-> to_prenex(f)  for closed f, following the
    adjust / negation-form / pull pipeline."""
    if sx.free_vars(f):
        raise CheckError("prenex equivalence wants a closed formula")
    pb = ProofBuilder()
    chain = []
    cur = f
    adj = sx.make_adjusted_variant(f)
    if adj != cur:
        fwd = variant_implication(pb, cur, adj, {}, {})
        bwd = variant_implication(pb, adj, cur, {}, {})
        chain.append(pb.taut(sx.fiff(cur, adj), (fwd, bwd)))
        cur = adj
    nf = nform.to_negation_form(cur)
    if nf != cur:
        chain.append(nf_iff(pb, cur, {}))
        cur = nf
    while True:
        redex = _pull_redex(cur)
        if redex is None:
            break
        path, lhs, rhs = redex

        def leaf(pb2, sub2, lhs=lhs, rhs=rhs):
            return _pull_rule_proof(pb2, lhs, rhs, sub2)

        # rebuild the path against the current whole formula
        chain.append(_lift_iff(pb, path, rhs, {}, leaf))
        cur = _rebuild(cur, path, rhs)
    target = nform.to_prenex(f)
    if cur != target:
        raise CheckError("prenex rewrite sequence diverged from to_prenex")
    idx = pb.taut(sx.fiff(f, cur), tuple(chain))
    return pb.build(), idx
