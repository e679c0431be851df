"""Hint-script checking for the proof corpus.

A script freezes its goal's free variables into witness constants, elaborates
every citation line into a closed instance (normalize the cited statement to
negation form, then instantiate leftmost quantifiers: argument terms at
universal positions, named witness constants at existential positions), and
accepts when the instances together with the negated frozen goal are
quasitautologically inconsistent.

Explicit scripts are instead very simple proofs, each step a conjunct of a
special case of a nonlogical axiom, a closed equality substitution
not a=b | not A(a) | A(b), or a resolution of prior steps.  The script is
turned into a certificate, in proofkit.checker's format, whose inputs are
the negated goal's conjuncts and those steps, closed by a derived literal
and its opposite or a formula a != a; it passes only when checker.replay
accepts it.
"""

from __future__ import annotations

import re
import time
from typing import NamedTuple, Optional

from ..errors import CheckError, ParseError, ProofkitError
from .. import normform as nform
from .. import checker, propcalc
from .. import syntax as sx
from ..syntax import Formula, Not, closure, fimp, subst


# ---------------------------------------------------------------------------
# registry


class Entry(NamedTuple):
    """A citable statement: an axiom, a definition, or a theorem whose
    script passed."""

    label: str
    kind: str  # axiom | definition | theorem | schema-template
    statement: Formula
    section: str = "base"


class Registry:
    """Append-only store of citable statements, plus the unary-formula
    registry the induction schema draws from.  `bases` holds the prepared
    forms that citations instantiate, each made the first time it is asked
    for (`prepared`): under (label, direction) a cited statement's negation
    form and under ("BSI", phi label) the induction instance's."""

    def __init__(self, symbols: sx.SymbolTable):
        self.symbols = symbols
        self.entries: dict[str, Entry] = {}
        self.order: list[str] = []
        self.phi_formulas: dict[str, Formula] = {}
        self.bsi_template: Optional[Formula] = None
        self.bases: dict[tuple, Formula] = {}

    def add(self, entry: Entry):
        if entry.label in self.entries:
            raise CheckError(f"duplicate label {entry.label!r}")
        self.entries[entry.label] = entry
        self.order.append(entry.label)

    def add_axiom(self, label: str, statement: Formula):
        self.add(Entry(label, "axiom", statement))

    def add_definition(self, label: str, statement: Formula, section: str = "base"):
        self.add(Entry(label, "definition", statement, section))

    def register_phi(self, label: str, unary: Formula):
        if tuple(sx.free_vars(unary)) != ("x",):
            raise CheckError("phi formulas are unary with free variable x")
        if label in self.phi_formulas:
            raise CheckError(f"duplicate phi label {label!r}")
        self.phi_formulas[label] = unary

    def enable_bsi(self, template: Formula):
        self.bsi_template = template

    def lookup(self, label: str) -> Entry:
        got = self.entries.get(label)
        if got is None:
            raise CheckError(f"unresolved label {label!r}")
        return got

    def bsi_statement(self, phi_label: str) -> Formula:
        if self.bsi_template is None:
            raise CheckError("no induction schema declared")
        phi = self.phi_formulas.get(phi_label)
        if phi is None:
            raise CheckError(f"unregistered phi label {phi_label!r}")
        return instantiate_phi(self.bsi_template, phi)

    def prepared(self, key: tuple, make) -> Formula:
        """bases[key], made by make() the first time; a make() that raises
        stores nothing."""
        got = self.bases.get(key)
        if got is None:
            got = self.bases[key] = make()
        return got


def instantiate_phi(template: Formula, phi: Formula) -> Formula:
    """Replace the placeholder atoms phi(t) of a schema template by the
    registered unary formula at t."""

    def on_atom(atom):
        if atom.pred.name == "phi" and atom.pred.arity == 1:
            return subst(phi, {"x": atom.args[0]})
        return atom

    return sx.map_atoms(template, on_atom)


def bsi_template() -> Formula:
    """phi(eps) & forall x' [phi(x') -> phi(s0 x') & phi(s1 x')] -> phi(x)
    over the placeholder predicate phi."""
    phi = sx.PredSym("phi", 1)

    def at(t):
        return sx.Atom(phi, (t,))

    xp = sx.Var("x'")
    step = sx.fall(
        "x'",
        fimp(at(xp), sx.fand(at(sx.App(sx.S0, (xp,))), at(sx.App(sx.S1, (xp,))))),
    )
    return fimp(sx.fand(at(sx.App(sx.EPS)), step), at(sx.Var("x")))


# ---------------------------------------------------------------------------
# script syntax


class UseLine(NamedTuple):
    label: str
    direction: Optional[str]  # fw | bw | None
    items: tuple  # (";", text) | (":", name)
    phi_label: Optional[str] = None  # for BSI citations
    lineno: int = 0


class ClaimBlock(NamedTuple):
    statement_text: str
    lines: list
    lineno: int = 0


class ExplicitStep(NamedTuple):
    kind: str  # special | eqsub | resolve
    payload: tuple
    lineno: int = 0


class Script(NamedTuple):
    label: str
    statement_text: str
    h_names: tuple[str, ...]
    lines: list  # UseLine / ClaimBlock interleaved
    explicit: Optional[list]  # ExplicitStep list for very simple proofs; None for hints
    lineno: int


_USE = re.compile(r"use\s+(\S+)(.*)$")


def parse_script_file(text: str) -> list[Script]:
    scripts: list[Script] = []
    cur: Optional[Script] = None
    mode = None
    claim: Optional[ClaimBlock] = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("theorem "):
            if cur is not None:
                raise ParseError("previous theorem not closed by qed", lineno, 1)
            m = re.match(r"theorem\s+([a-z0-9_']+)\s*:\s*(.+)$", line)
            if not m:
                raise ParseError("malformed theorem header", lineno, 1)
            cur = Script(m.group(1), m.group(2), (), [], None, lineno)
            mode = None
            continue
        if cur is None:
            raise ParseError(f"statement outside a theorem block: {line!r}", lineno, 1)
        if line in ("proof", "explicit"):
            if mode is not None:
                raise ParseError(f"second proof block in theorem {cur.label}", lineno, 1)
            mode = line
            if line == "explicit":
                cur = cur._replace(explicit=[])
            continue
        if line == "qed":
            if claim is not None:
                raise ParseError("claim block not closed by shown", lineno, 1)
            scripts.append(cur)
            cur = None
            mode = None
            continue
        if mode == "proof":
            if line.startswith("H"):
                rest = line[1:].strip()
                names = []
                for part in rest.split(":"):
                    part = part.strip()
                    if part:
                        names.append(part)
                cur = cur._replace(h_names=tuple(names))
                continue
            if line.startswith("claim"):
                m = re.match(r"claim\s*:?\s*(.+)$", line)
                if not m:
                    raise ParseError("malformed claim", lineno, 1)
                claim = ClaimBlock(m.group(1), [], lineno)
                continue
            if line == "shown":
                if claim is None:
                    raise ParseError("shown without claim", lineno, 1)
                cur.lines.append(claim)
                claim = None
                continue
            use = _parse_use(line, lineno)
            if claim is not None:
                claim.lines.append(use)
            else:
                cur.lines.append(use)
            continue
        if mode == "explicit":
            cur.explicit.append(_parse_explicit(line, lineno))
            continue
        raise ParseError(f"unexpected line {line!r}", lineno, 1)
    if cur is not None:
        raise ParseError("unterminated theorem block", cur.lineno, 1)
    return scripts


def _split_items(rest: str, lineno: int):
    """Split '; t1 ; t2 : w' into ((';', 't1'), (';', 't2'), (':', 'w'))."""
    items = []
    buf = []
    sep = None
    depth = 0
    for ch in rest:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in ";:" and depth == 0:
            if sep is not None:
                items.append((sep, "".join(buf).strip()))
            buf = []
            sep = ch
        else:
            buf.append(ch)
    if sep is not None:
        items.append((sep, "".join(buf).strip()))
    elif rest.strip():
        raise ParseError(f"stray citation arguments {rest!r}", lineno, 1)
    for kind, text in items:
        if not text:
            raise ParseError("empty citation argument", lineno, 1)
    return tuple(items)


def _parse_use(line: str, lineno: int) -> UseLine:
    m = _USE.match(line)
    if not m:
        raise ParseError(f"malformed citation line {line!r}", lineno, 1)
    head, rest = m.group(1), m.group(2)
    phi_label = None
    if head == "BSI":
        m2 = re.match(r"\s*\(phi\s+([a-z0-9_']+)\)(.*)$", rest)
        if not m2:
            raise ParseError("BSI citation needs (phi <label>)", lineno, 1)
        phi_label = m2.group(1)
        rest = m2.group(2)
        label, direction = "BSI", None
    else:
        if head.endswith(".fw"):
            label, direction = head[:-3], "fw"
        elif head.endswith(".bw"):
            label, direction = head[:-3], "bw"
        else:
            label, direction = head, None
    return UseLine(label, direction, _split_items(rest, lineno), phi_label, lineno)


def _parse_explicit(line: str, lineno: int) -> ExplicitStep:
    if line.startswith("special "):
        # matches: the line is stripped, so a non-space follows "special "
        m = re.match(r"special\s+(\S+)(.*?)(?:\s+conjunct\s+(\d+))?$", line)
        label = m.group(1)
        items = _split_items(m.group(2), lineno)
        k = int(m.group(3)) if m.group(3) else None
        return ExplicitStep("special", (label, items, k), lineno)
    if line.startswith("eqsub"):
        items = _split_items(line[len("eqsub") :], lineno)
        if len(items) != 4 or any(kind != ";" for kind, _ in items):
            raise ParseError("eqsub expects ; a ; b ; x ; A", lineno, 1)
        return ExplicitStep("eqsub", tuple(t for _, t in items), lineno)
    if line.startswith("resolve"):
        m = re.match(r"resolve\s+(\d+)\s+(\d+)$", line)
        if not m:
            raise ParseError("malformed resolve step", lineno, 1)
        return ExplicitStep("resolve", (int(m.group(1)), int(m.group(2))), lineno)
    raise ParseError(f"unknown explicit step {line!r}", lineno, 1)


# ---------------------------------------------------------------------------
# elaboration


class ScriptVerdict(NamedTuple):
    """The one record of a checked script: check_script's verdict, to which
    the corpus driver adds the oracle's (with _replace), reported as it
    stands."""

    label: str
    ok: bool
    message: str = ""
    instances: tuple = ()  # the closed citation instances (explicit: the derived steps)
    elapsed: float = 0.0
    spent: int = 0  # refutation budget used, summed over segments
    statement: Optional[Formula] = None  # the parsed goal, set when the script passes
    oracle: Optional[str] = None  # "agrees" | "disagrees" | "skipped", set by check_corpus


def select_direction(statement: Formula, direction: Optional[str]) -> Formula:
    if direction is None:
        return statement
    pair = sx.as_iff(statement)
    if pair is None:
        raise CheckError("direction marker on a non-biconditional statement")
    lhs, rhs = pair
    return fimp(lhs, rhs) if direction == "fw" else fimp(rhs, lhs)


def elaborate_citation(registry: Registry, use: UseLine, env: dict) -> Formula:
    """One citation line to one closed instance: the special case of the
    cited statement's negation form, prepared once per registry."""
    if use.label == "BSI":
        key = ("BSI", use.phi_label)
        cited = lambda: registry.bsi_statement(use.phi_label)
    else:
        entry = registry.lookup(use.label)
        key = (use.label, use.direction)
        cited = lambda: select_direction(entry.statement, use.direction)
    base = registry.prepared(key, lambda: nform.to_negation_form(closure(cited())))
    return _special_case(registry, base, use.items, env)


def _special_case(registry: Registry, base: Formula, items, env: dict) -> Formula:
    """base's special case by a citation's `; term` and `: witness` items,
    read under env: a term must be variable free and a witness name
    unbound.  Each witness name is bound into env to its constant."""
    steps = []
    for kind, text in items:
        if kind == ";":
            term = sx.parse(text, "term", registry.symbols, env)
            if not sx.is_variable_free(term):
                raise CheckError(f"citation term {text!r} is not variable free")
            steps.append(("term", term))
        else:
            if text in env:
                raise CheckError(f"witness name {text!r} is already bound")
            steps.append(("witness", text))
    record: list = []
    out = nform.special_case(base, nform.SpecialCaseDirective(tuple(steps)), record)
    env.update(record)
    return out


def check_script(
    registry: Registry,
    script: Script,
    budget: int = propcalc.DEFAULT_BUDGET,
) -> ScriptVerdict:
    start = time.perf_counter()
    spent = 0  # refutation budget used, summed over the segments
    try:
        statement = sx.parse(script.statement_text, "formula", registry.symbols)
        if script.explicit is not None:
            instances = _replay_explicit(registry, script, statement)
            return ScriptVerdict(
                script.label, True, instances=tuple(instances),
                elapsed=time.perf_counter() - start, statement=statement,
            )
        order = sx.free_vars(statement)
        if len(script.h_names) != len(order):
            raise CheckError(
                f"H declares {len(script.h_names)} names for {len(order)} free variables"
            )
        frozen = nform.freeze(statement)
        env = {name: const for (_, const), name in zip(frozen.witnesses, script.h_names)}
        goal_negation = nform.to_negation_form(Not(frozen.frozen))

        segments: list[tuple[list, Optional[Formula]]] = []
        pending: list = []
        for item in script.lines:
            if isinstance(item, UseLine):
                pending.append(item)
            else:
                claim_formula = sx.parse(item.statement_text, "formula", registry.symbols, env)
                if sx.free_vars(claim_formula):
                    raise CheckError("claims must be variable free")
                segments.append((item.lines, claim_formula))
                if pending:
                    # citations before a claim belong to the final segment
                    raise CheckError("citation lines must follow the last claim")
        segments.append((pending, None))

        all_instances: list = []
        proved_claims: list = []
        for lines, claim_formula in segments:
            instances = [elaborate_citation(registry, u, env) for u in lines]
            all_instances.extend(instances)
            if claim_formula is not None:
                target = nform.to_negation_form(Not(claim_formula))
            else:
                target = goal_negation
            inputs = instances + proved_claims + [target]
            res = propcalc.ground_refute(inputs, budget, want_cert=False)
            spent += res.spent
            if isinstance(res, propcalc.OutOfBudget):
                raise CheckError(f"refutation budget exhausted ({res.spent})")
            if not isinstance(res, propcalc.Refutation):
                what = (
                    f"claim {sx.render(claim_formula)}"
                    if claim_formula is not None
                    else "goal"
                )
                # each constant under the name the script first gave it
                names = {const: name for name, const in reversed(env.items())}
                dump = "; ".join(sx.render(i, "infix-pretty", names) for i in inputs)
                true_atoms = sorted(
                    sx.render(a, "infix-pretty", names)
                    for a, v in res.model.assignment.items()
                    if v
                )
                raise CheckError(
                    f"refutation failed for {what}: [{dump}]; "
                    f"true in the surviving valuation: [{'; '.join(true_atoms)}]"
                )
            if claim_formula is not None:
                proved_claims.append(claim_formula)
        return ScriptVerdict(
            script.label,
            True,
            instances=tuple(all_instances),
            elapsed=time.perf_counter() - start,
            spent=spent,
            statement=statement,
        )
    except ProofkitError as e:
        return ScriptVerdict(
            script.label, False, str(e), elapsed=time.perf_counter() - start, spent=spent
        )


def _replay_explicit(registry, script, statement: Formula) -> list:
    """A very simple proof as a certificate, in proofkit.checker's format,
    that checker.replay checks.  The negated goal's conjuncts, the `special`
    conjuncts and the `eqsub` clauses are its inputs, `resolve i j` resolves
    positions i and j, and the certificate ends at the first empty clause a
    step derives, else in a derived unit resolved against its opposite or,
    for a != a, against the identity a = a.  The goal's variables name their
    frozen constants, and a witness a `special` step names is bound for the
    steps after it.  Returns the derived formulas."""
    cur = nform.to_normal_form(Not(closure(statement)))
    # witness the leading existentials (the goal's frozen variables) by name
    record: list = []
    while True:
        loc = nform.leftmost_quantifier(cur)
        if loc is None or loc[0] != "E" or loc[1] != ():
            break
        cur = nform.special_case(
            cur, nform.SpecialCaseDirective((("witness", cur.var),)), record
        )
    table: dict = {}  # the checker's literal table (checker.literal_codes)
    literals: dict = {}  # literal code -> the literal

    def clause(f) -> tuple:
        lits = sx.disjuncts(f)
        codes = checker.literal_codes(table, lits)
        literals.update(zip(codes, lits))
        return codes

    inputs: list = list(sx.conjuncts(cur))
    steps: list = [("input", f) for f in inputs]
    have: list = [clause(f) for f in inputs]  # position -> clause, as codes
    env: dict = dict(record)
    for step in script.explicit:
        if step.kind == "resolve":
            i, j = step.payload
            steps.append(("resolve", i - 1, j - 1))
            have.append(checker.resolvent(have, i - 1, j - 1))
            continue
        if step.kind == "special":
            label, items, k = step.payload
            entry = registry.lookup(label)
            if entry.kind != "axiom":
                raise CheckError("special steps cite nonlogical axioms only")
            base = nform.to_normal_form(closure(entry.statement))
            parts = sx.conjuncts(_special_case(registry, base, items, env))
            if k is not None:
                if not 1 <= k <= len(parts):
                    raise CheckError(f"no conjunct {k}")
                f = parts[k - 1]
            elif len(parts) == 1:
                f = parts[0]
            else:
                raise CheckError("ambiguous conjunct; say `conjunct <k>`")
        else:  # eqsub
            at, bt, xv, ft = step.payload
            a = sx.parse(at, "term", registry.symbols, env)
            b = sx.parse(bt, "term", registry.symbols, env)
            # xv is the substitution's variable, even where a goal variable
            # of that name is bound
            bound = {k: v for k, v in env.items() if k != xv}
            body = sx.parse(ft, "formula", registry.symbols, bound)
            f = sx.disj([Not(sx.eq(a, b)), Not(subst(body, {xv: a})), subst(body, {xv: b})])
            if sx.free_vars(f):
                raise CheckError(f"equality substitution is not closed: {sx.render(f)}")
        inputs.append(f)
        steps.append(("input", f))
        have.append(clause(f))
    clauses = [tuple(literals[c] for c in codes) for codes in have]
    derived = [sx.disj(c) for c in clauses if c]
    if () in clauses:
        del steps[clauses.index(()) + 1 :]
    else:
        steps += _closing(clauses)
    checker.replay(checker.Refutation(steps), inputs)
    return derived


def _closing(have: list) -> list:
    """The steps that refute a derived unit: resolved against its derived
    opposite, or, for a != a, against the identity a = a.  None when no
    unit is refuted so."""
    units = {c[0]: k for k, c in enumerate(have) if len(c) == 1}
    for lit, k in units.items():
        opp = lit.body if isinstance(lit, Not) else Not(lit)
        if opp in units:
            return [("resolve", k, units[opp])]
        if isinstance(lit, Not) and checker.is_identity_instance(lit.body):
            return [("eq_axiom", lit.body), ("resolve", len(have), k)]
    return []
