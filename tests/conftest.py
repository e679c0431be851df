"""Shared fixtures: the loaded theory bundle, a one-time corpus run, the
brute-force truth-table oracles (which share no code with propcalc),
random generators, script mutation, a 28-atom valid special sequence, and
small oracles and builders over syntax and machine encodings that the
package itself does not need."""

from __future__ import annotations

import random

import pytest

from proofkit import hilbertack, machines, stringarith
from proofkit import syntax as sx
from proofkit.kernel import SpecialSequence, scripts as kscripts
from proofkit.syntax import App, Atom, Exists, FnSym, Not, Or, PredSym, SpecialConst, Var, EPS, S0


@pytest.fixture(scope="session")
def bundle():
    return stringarith.load_theory()


@pytest.fixture(scope="session")
def corpus_scripts():
    return stringarith.load_corpus()


@pytest.fixture(scope="session")
def corpus_report(bundle, corpus_scripts):
    """One corpus run shared by the whole session (registers the theorems)."""
    return stringarith.check_corpus(bundle, corpus_scripts, oracle_samples=25, seed=5)


# ---------------------------------------------------------------------------
# the brute-force truth-table oracles


def demo_valid_28_atoms():
    """hilbertack's rank-1 demo with q(1), ..., q(25) appended: still valid,
    with 28 elementary subformulas, which the propositional search decides
    in 28 steps."""
    theory, seq = hilbertack.demo_rank1()
    q = sx.PredSym("q", 1)
    more = tuple(Atom(q, (numeral(i),)) for i in range(1, 26))
    return theory, SpecialSequence(seq.formulas + more)


def ground_subterms(fs):
    terms = set()

    def term(t):
        terms.add(t)
        if isinstance(t, App):
            for a in t.args:
                term(a)

    def walk(f):
        if isinstance(f, Atom):
            for a in f.args:
                term(a)
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, Or):
            walk(f.left)
            walk(f.right)
        elif isinstance(f, Exists):
            walk(f.body)

    for f in fs:
        walk(f)
    return sorted(terms, key=sx.render)


def axiom_instances(fs):
    """All identity/equality-axiom instances over the occurring ground
    terms: identities, the equality axiom for equality over all 4-tuples,
    congruences for occurring applications, and predicate transfer for
    occurring atoms."""
    terms = ground_subterms(fs)
    out = [sx.eq(t, t) for t in terms]
    for a in terms:
        for b in terms:
            for c in terms:
                for d in terms:
                    out.append(
                        sx.fimp(
                            sx.conj([sx.eq(a, b), sx.eq(c, d), sx.eq(a, c)]),
                            sx.eq(b, d),
                        )
                    )
    apps = [t for t in terms if isinstance(t, App) and t.args]
    for s in apps:
        for t in apps:
            if s.fn == t.fn and s != t:
                out.append(
                    sx.fimp(
                        sx.conj([sx.eq(p, q) for p, q in zip(s.args, t.args)]),
                        sx.eq(s, t),
                    )
                )
    atoms = set()

    def collect(f):
        if isinstance(f, Atom):
            if f.pred != sx.EQ and f.args:
                atoms.add(f)
        elif isinstance(f, Not):
            collect(f.body)
        elif isinstance(f, Or):
            collect(f.left)
            collect(f.right)

    for f in fs:
        collect(f)
    atoms = sorted(atoms, key=sx.render)
    for s in atoms:
        for t in atoms:
            if s.pred == t.pred and s != t:
                out.append(
                    sx.fimp(
                        sx.conj([sx.eq(p, q) for p, q in zip(s.args, t.args)] + [s]),
                        t,
                    )
                )
    return out


def elementary_subformulas(fs) -> list:
    """Distinct elementary subformulas in order of first appearance (bodies
    of instantiations are not entered; they are opaque atoms)."""
    out: list = []
    seen = set()

    def walk(f):
        if sx.is_elementary(f):
            if f not in seen:
                seen.add(f)
                out.append(f)
        elif isinstance(f, Not):
            walk(f.body)
        elif isinstance(f, Or):
            walk(f.left)
            walk(f.right)
        else:
            raise TypeError(f)

    for f in fs:
        walk(f)
    return out


def atom_patterns(els) -> dict:
    """Truth vectors over all 2^n valuations, atom i toggling with period
    2^(i+1), built by doubling."""
    width = 1 << len(els)
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


def bitvec_value(f, atoms: dict, full: int) -> int:
    """f's truth under every valuation at once, one bit per valuation."""
    if sx.is_elementary(f):
        return atoms[f]
    if isinstance(f, Not):
        return full ^ bitvec_value(f.body, atoms, full)
    if isinstance(f, Or):
        return bitvec_value(f.left, atoms, full) | bitvec_value(f.right, atoms, full)
    raise TypeError(f)


def truth_table_unsat(fs):
    """No valuation of the elementary subformulas makes every formula of fs
    true: enumerate every valuation (as bit vectors) and intersect."""
    fs = list(fs)
    els = elementary_subformulas(fs)
    n = len(els)
    assert n <= 26, f"oracle skeleton too large: {n}"  # a vector of 2^26 bits is 8 MB
    full = (1 << (1 << n)) - 1
    atoms = atom_patterns(els)
    acc = full
    for f in fs:
        acc &= bitvec_value(f, atoms, full)
        if acc == 0:
            return True
    return acc == 0


def truth_table_consequence(goal, premises=()):
    """goal is a tautological consequence of the premises."""
    return truth_table_unsat([*premises, Not(goal)])


def brute_force_quasitaut_unsat(fs):
    """Truth-table unsatisfiability of the inputs together with all
    identity/equality-axiom instances over the occurring ground terms."""
    return truth_table_unsat(list(fs) + axiom_instances(fs))


# ---------------------------------------------------------------------------
# random generators


def random_ground_problem(rng: random.Random, max_terms=4, max_atoms=6, nesting=0):
    """A random set of closed quantifier-free formulas over a small ground
    vocabulary.  With nesting n > 0 the terms are drawn from the chain
    k1, f1(k1), ..., f1^n(k1) instead; it is closed under subterms, so
    n <= 3 keeps brute_force_quasitaut_unsat within its atom cap."""
    c1, c2 = App(FnSym("k1", 0)), App(FnSym("k2", 0))
    f1 = FnSym("f1", 1)
    base = [c1, c2, App(f1, (c1,)), App(f1, (c2,))]
    if nesting:
        base = [c1]
        for _ in range(nesting):
            base.append(App(f1, (base[-1],)))
    terms = rng.sample(base, rng.randint(2, max_terms))
    p = PredSym("pr", 1)
    atoms = []
    for _ in range(rng.randint(2, max_atoms)):
        if rng.random() < 0.6:
            atoms.append(sx.eq(rng.choice(terms), rng.choice(terms)))
        else:
            atoms.append(Atom(p, (rng.choice(terms),)))
    formulas = []
    for _ in range(rng.randint(2, 5)):
        lits = [
            a if rng.random() < 0.5 else Not(a)
            for a in rng.sample(atoms, rng.randint(1, min(3, len(atoms))))
        ]
        formulas.append(sx.disj(lits))
    return formulas


def random_qf_formula(rng: random.Random, max_atoms=10, depth=4):
    letters = [Atom(PredSym(f"b{i}", 0)) for i in range(max_atoms)]

    def build(d):
        if d == 0 or rng.random() < 0.3:
            return rng.choice(letters)
        k = rng.random()
        if k < 0.4:
            return Or(build(d - 1), build(d - 1))
        if k < 0.7:
            return sx.fand(build(d - 1), build(d - 1))
        return Not(build(d - 1))

    return build(depth)


# ---------------------------------------------------------------------------
# script mutation


def _random_subterm_paths(t, path=()):
    yield path
    if isinstance(t, App):
        for i, a in enumerate(t.args):
            yield from _random_subterm_paths(a, path + (i,))


def _term_get(t, path):
    for i in path:
        t = t.args[i]
    return t


def _term_put(t, path, new):
    if not path:
        return new
    args = list(t.args)
    args[path[0]] = _term_put(args[path[0]], path[1:], new)
    return App(t.fn, tuple(args))


def _perturb_term(rng, t):
    kind = rng.randrange(3)
    if kind == 0:
        return App(sx.S0, (t,))
    if kind == 1 and isinstance(t, App) and t.args:
        return t.args[rng.randrange(len(t.args))]
    return App(sx.EPS) if t != App(sx.EPS) else App(sx.S0, (App(sx.EPS),))


def mutate_script(rng: random.Random, script, symbols):
    """One random perturbation: either a citation argument term or a term
    inside the goal statement."""
    import copy

    out = copy.deepcopy(script)
    use_lines = [
        j
        for j, l in enumerate(out.lines)
        if isinstance(l, kscripts.UseLine) and any(k == ";" for k, _ in l.items)
    ]
    if rng.random() < 0.5 or not use_lines:
        stmt = sx.parse(out.statement_text, "formula", symbols)
        atoms = []

        def collect(f, path=()):
            if isinstance(f, Atom):
                atoms.append((f, path))
            elif isinstance(f, Not):
                collect(f.body, path)
            elif isinstance(f, Or):
                collect(f.left, path)
                collect(f.right, path)
            elif isinstance(f, Exists):
                collect(f.body, path)

        collect(stmt)
        atom, _ = rng.choice(atoms)
        if not atom.args:
            return None
        k = rng.randrange(len(atom.args))
        paths = list(_random_subterm_paths(atom.args[k]))
        path = rng.choice(paths)
        old = _term_get(atom.args[k], path)
        new_args = list(atom.args)
        new_args[k] = _term_put(atom.args[k], path, _perturb_term(rng, old))
        new_atom = Atom(atom.pred, tuple(new_args))
        new_stmt = _replace_first_atom(stmt, atom, new_atom)
        if new_stmt == stmt:
            return None
        out.statement_text = sx.render(new_stmt)
        out.mutated = ("goal", sx.render(stmt), sx.render(new_stmt))
        return out
    j = rng.choice(use_lines)
    line = out.lines[j]
    idxs = [i for i, (k, _) in enumerate(line.items) if k == ";"]
    i = rng.choice(idxs)
    text = line.items[i][1]
    term = sx.parse(text, "term", symbols, {v: Var(v) for v in _names_in(text)})
    new_term = _perturb_term(rng, term)
    items = list(line.items)
    items[i] = (";", sx.render(new_term))
    out.lines[j] = line._replace(items=tuple(items))
    out.mutated = ("citation", text, sx.render(new_term))
    return out


def _names_in(text):
    import re

    return set(re.findall(r"[a-z][a-z0-9_']*", text))


def _replace_first_atom(f, old, new):
    done = [False]

    def walk(g):
        if done[0]:
            return g
        if g == old and isinstance(g, Atom):
            done[0] = True
            return new
        if isinstance(g, Not):
            return Not(walk(g.body))
        if isinstance(g, Or):
            return Or(walk(g.left), walk(g.right))
        if isinstance(g, Exists):
            return Exists(g.var, walk(g.body))
        return g

    return walk(f)


# ---------------------------------------------------------------------------
# syntax oracles and builders, and the machine encodings


def numeral(n: int):
    """The term s0^n eps."""
    out = App(EPS)
    for _ in range(n):
        out = App(S0, (out,))
    return out


def replace_subformula(f, old, new):
    """f with every occurrence of old as a subformula replaced by new
    (special constants are atomic for occurrence)."""
    if f == old:
        return new
    if isinstance(f, Not):
        return Not(replace_subformula(f.body, old, new))
    if isinstance(f, Or):
        return Or(replace_subformula(f.left, old, new), replace_subformula(f.right, old, new))
    if isinstance(f, Exists):
        return Exists(f.var, replace_subformula(f.body, old, new))
    return f


def is_adjusted(f) -> bool:
    """No variable is bound twice, and none is both bound and free."""
    seen = set()
    free = set(sx.free_vars(f))

    def walk(g):
        if isinstance(g, Exists):
            if g.var in seen or g.var in free:
                return False
            seen.add(g.var)
        return all(map(walk, sx.children(g)))

    return walk(f)


def is_variant(a, b) -> bool:
    """The variant relation, decided by a simultaneous structural walk with
    binder correspondence."""

    def walk(x, y, m, n):
        if type(x) is not type(y):
            return False
        if isinstance(x, Atom):
            return (
                x.pred == y.pred
                and len(x.args) == len(y.args)
                and all(walk_t(s, t, m, n) for s, t in zip(x.args, y.args))
            )
        if isinstance(x, Not):
            return walk(x.body, y.body, m, n)
        if isinstance(x, Or):
            return walk(x.left, y.left, m, n) and walk(x.right, y.right, m, n)
        if isinstance(x, Exists):
            return walk(x.body, y.body, m + ((x.var, y.var),), n + ((y.var, x.var),))
        return False

    def walk_t(s, t, m, n):
        if type(s) is not type(t):
            return False
        if isinstance(s, Var):
            for a, b2 in reversed(m):
                if s.name == a:
                    return t.name == b2
                if t.name == b2:
                    return False
            for a, b2 in reversed(n):
                if t.name == a:
                    return False
            return s.name == t.name
        if isinstance(s, App):
            return s.fn == t.fn and all(walk_t(p, q, m, n) for p, q in zip(s.args, t.args))
        if isinstance(s, SpecialConst):
            return s == t
        return False

    return walk(a, b, (), ())


def unfreeze(res):
    """normform.freeze's frozen form with each witness replaced by its
    variable again: a variant of the closure's matrix."""
    out = res.frozen
    for x, r in reversed(res.witnesses):
        out = sx.replace_const(out, r, Var(x))
    return out


def encodings(len_cap: int):
    """The machine encodings of at most len_cap bits, by length then
    lexicographically: the bits of the machines k_search runs."""
    for bits, _ in machines._machines(len_cap):
        yield bits
