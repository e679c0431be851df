"""The benchmark workloads, their seeded input generators and their
correctness gates.

Each workload builds its inputs from the seed with the benchmark's own
random generator (`inputs`, untimed) and then runs one pass over them
(`run`), timing each verdict through `Pass.item`.  The gate that judges a
verdict runs outside the timed region and uses an answer the benchmark
knows independently of the code under test: the corpus's expected
verdicts, a replayed certificate or a model checked by the benchmark's
own congruence closure, the instance count the sampling parameters imply,
the interpreter's agreement, the owned rank of an eliminator's result,
and the expected complexity bounds.
"""

from __future__ import annotations

import contextlib
import dataclasses
import random
import sys
import time
import traceback
from collections import Counter

import speed

# Failures whose traceback is printed to stderr, per pass.
MAX_REPORTED = 3


class Pass:
    """One pass: per-verdict times, failures and layer counts.

    `due(i)` says whether the pass times the verdict at position i; a verdict
    that is not due is left out, its time recorded as None, and only the
    bookkeeping later verdicts rely on is done for it.  Between verdicts the
    pass reads the machine's speed (speed.py) every PROBE_GAP_S seconds,
    and once more after the last verdict."""

    def __init__(self, untraced=contextlib.nullcontext, due=lambda i: True):
        self.times: list = []  # seconds per verdict, None where not timed
        self.failed = 0
        self.counts: Counter = Counter()
        self.untraced = untraced  # context the gates run in
        self.due = due
        self.readings: list[float] = []  # probe seconds, in order
        self._reading_before: list = []  # per verdict, index into readings
        self._last_reading = -float("inf")

    def read_speed(self):
        self.readings.append(speed.reading())
        self._last_reading = time.perf_counter()

    @property
    def probe_s(self) -> list:
        """Per verdict, the probe time around it (the mean of the readings
        just before and just after it), None where not timed."""
        r = self.readings
        return [None if k is None else (r[k] + r[k + 1]) / 2 for k in self._reading_before]

    def item(self, work, check, skip=None):
        """Time `work()` as one verdict; `check(result)` then decides,
        untimed, whether the verdict is right.  A raise counts as wrong.
        When the verdict is not due, `skip()` runs instead, untimed."""
        if not self.due(len(self.times)):
            if skip:
                with self.untraced():
                    skip()
            self.times.append(None)
            self._reading_before.append(None)
            return
        if time.perf_counter() - self._last_reading >= speed.PROBE_GAP_S:
            self.read_speed()
        self._reading_before.append(len(self.readings) - 1)
        start = time.perf_counter()
        try:
            result = work()
        except Exception:
            self.times.append(time.perf_counter() - start)
            self._fail()
            return
        self.times.append(time.perf_counter() - start)
        try:
            with self.untraced():
                ok = check(result)
        except Exception:
            self._fail()
            return
        if not ok:
            self._fail(raised=False)

    def _fail(self, raised: bool = True):
        self.failed += 1
        if self.failed <= MAX_REPORTED:
            if raised:
                traceback.print_exc(file=sys.stderr)
            else:
                print(f"wrong verdict at item {len(self.times)}", file=sys.stderr)


# ---------------------------------------------------------------------------
# corpus: the 76 bundled scripts, in dependency order


class Corpus:
    """`proofkit check-corpus`: every script checked by
    stringarith.check_corpus, certificates off, against a fresh bundle."""

    def __init__(self, seed: int, tiny: bool = False):
        # The corpus is fixed data; the seed selects nothing.
        self.count = 8 if tiny else None
        self.expected: dict = {}  # label -> expected verdict; default pass

    def inputs(self, prog):
        return prog.scripts[: self.count]

    def run(self, prog, scripts, out: Pass):
        sa = prog.stringarith
        for script in scripts:
            want = self.expected.get(script.label, True)
            out.item(
                lambda: sa.check_corpus(prog.bundle, [script]).entries[0],
                lambda entry: entry.label == script.label and entry.ok == want,
                lambda: register(prog, script),
            )


def register(prog, script):
    """What check_corpus does after a script passes: record its statement
    as a theorem, for the scripts and statements after it."""
    symbols = prog.bundle.registry.symbols
    stmt = prog.syntax.parse(script.statement_text, "formula", symbols)
    prog.bundle.register_theorem(script.label, stmt)


# ---------------------------------------------------------------------------
# oracle: the interpreter, with no proof checking


class Oracle:
    """stringarith.fuzz_axioms on each axiom, then, per corpus statement,
    extend.translate_out and an eval_formula agreement loop between the
    statement and its translation (acceptance criterion 7's shape)."""

    # Statements the interpreter evaluates, both as written and translated
    # (the rest are skipped by design: unbounded quantifiers).
    EVALUABLE = frozenset(
        "t22 t23 t24 t26 t28 t29 t30 t31 t32 t33 t34 t35 t36 t37 t38 t39 t40 "
        "t41 t42 t43 t44 t45 t46 t47 t48 t49 t50 t51 t52 t53 t54 t55 t56 t57 "
        "t58 t60 t62 t63 t64 t65 t66 t67 t68".split()
    )
    MAX_VARS = 4  # free variables per statement the generated rows cover

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.samples, self.maxlen, self.exhaustive = (20, 8, 1) if tiny else (500, 64, 4)
        self.statements = 10 if tiny else None
        self.assignments = 10 if tiny else 200

    def inputs(self, prog):
        rng = random.Random(self.seed)
        reg = prog.bundle.registry
        axioms = []
        for label in reg.order:
            entry = reg.entries[label]
            if entry.kind != "axiom":
                continue
            alone = prog.kernel.Registry(prog.bundle.symbols)
            alone.add_axiom(label, entry.statement)
            one = dataclasses.replace(prog.bundle, registry=alone)
            axioms.append((one, entry.statement, rng.randrange(1 << 30)))
        # Strings of length 0 to 4, the lengths of each row's variables
        # running through every combination in turn: the interpreter's cost
        # grows fast with the lengths, so only the bits are left to chance.
        rows = [
            [
                tuple(
                    "".join(rng.choice("01") for _ in range(r // 5**v % 5))
                    for v in range(self.MAX_VARS)
                )
                for r in range(self.assignments)
            ]
            for _ in prog.scripts[: self.statements]
        ]
        return axioms, list(zip(prog.scripts[: self.statements], rows))

    def expected_instances(self, sx, axiom) -> int:
        """Random samples plus every assignment of strings of length at most
        `exhaustive` to the free variables."""
        strings = (1 << (self.exhaustive + 1)) - 1 if self.exhaustive else 0
        return self.samples + (strings ** len(sx.free_vars(axiom)) if strings else 0)

    def run(self, prog, inputs, out: Pass):
        sa, sx, ex = prog.stringarith, prog.syntax, prog.extend
        bundle = prog.bundle
        axioms, statements = inputs

        def fuzz(one, seed):
            return sa.fuzz_axioms(
                one, samples=self.samples, maxlen=self.maxlen, seed=seed,
                exhaustive_len=self.exhaustive,
            )

        def fuzz_ok(axiom, report):
            out.counts["instances_checked"] += report.checked
            return not report.counterexamples and report.checked == self.expected_instances(
                sx, axiom
            )

        for one, axiom, seed in axioms:
            out.item(lambda: fuzz(one, seed), lambda r: fuzz_ok(axiom, r))

        def agree(script, rows):
            stmt = sx.parse(script.statement_text, "formula", bundle.registry.symbols)
            bundle.register_theorem(script.label, stmt)
            chain = (
                bundle.schema
                if bundle.registry.entries[script.label].section == "schema"
                else bundle.definitions
            )
            translated = ex.translate_out(chain, stmt).formula
            if not (
                sa.evaluable(stmt, bundle)
                and sa.evaluable(translated, bundle, strict=False)
            ):
                return chain, translated, False, 0, 0
            names = sx.free_vars(stmt)
            disagree = 0
            for row in rows:
                env = dict(zip(names, row))
                if sa.eval_formula(stmt, env, bundle) != sa.eval_formula(
                    translated, env, bundle, strict=False
                ):
                    disagree += 1
            return chain, translated, True, len(rows), disagree

        def agree_ok(script, got):
            chain, translated, evaluable, checked, disagree = got
            out.counts["instances_checked"] += checked
            return (
                evaluable == (script.label in self.EVALUABLE)
                and disagree == 0
                and not ex.contains_defined_symbols(chain, translated)
            )

        for script, rows in statements:
            out.item(
                lambda: agree(script, rows),
                lambda got: agree_ok(script, got),
                lambda: register(prog, script),
            )


# ---------------------------------------------------------------------------
# ground: random ground problems for the refuter


class Ground:
    """propcalc.ground_refute, certificates on, on random closed
    quantifier-free problems near the boundary between refutable and
    satisfiable; every refutation is replayed as part of its verdict."""

    # Problem shape (the generator of the test suite's ground problems,
    # scaled up): constants, unary functions, distinct atoms, clauses of
    # CLAUSE_LITERALS literals.  About 45% of the problems are refuted.
    # Many small problems rather than fewer large ones (20 atoms and 80
    # clauses take 85 ms each): the seed then moves the percentiles less.
    CONSTANTS, FUNCTIONS, ATOMS, CLAUSES = 6, 2, 14, 62
    CLAUSE_LITERALS = 3

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.problems = 6 if tiny else 240
        self.expected: dict = {}  # problem index -> verdict class name

    def inputs(self, prog):
        sx = prog.syntax
        rng = random.Random(self.seed)
        consts = [sx.App(sx.FnSym(f"k{i}", 0)) for i in range(self.CONSTANTS)]
        fns = [sx.FnSym(f"f{i}", 1) for i in range(self.FUNCTIONS)]
        terms = consts + [sx.App(f, (c,)) for f in fns for c in consts]
        pred = sx.PredSym("pr", 1)
        problems = []
        for _ in range(self.problems):
            atoms = set()
            while len(atoms) < self.ATOMS:
                if rng.random() < 0.6:
                    a, b = rng.sample(terms, 2)
                    atoms.add(sx.eq(a, b))
                else:
                    atoms.add(sx.Atom(pred, (rng.choice(terms),)))
            atoms = sorted(atoms, key=sx.render)
            problems.append([
                sx.disj([
                    a if rng.random() < 0.5 else sx.Not(a)
                    for a in rng.sample(atoms, self.CLAUSE_LITERALS)
                ])
                for _ in range(self.CLAUSES)
            ])
        return problems

    def run(self, prog, problems, out: Pass):
        pc = prog.propcalc

        def decide(problem):
            res = pc.ground_refute(problem, want_cert=True)
            return res, isinstance(res, pc.Refutation) and pc.replay(res, problem)

        def decided(i, problem, got):
            res, replayed = got
            want = self.expected.get(i)
            if want is not None and type(res).__name__ != want:
                return False
            out.counts["decided"] += not isinstance(res, pc.OutOfBudget)
            if isinstance(res, pc.Refutation):
                out.counts["refuted"] += 1
                out.counts["cert_steps"] += certificate_steps(res.steps)
                return replayed
            if isinstance(res, pc.Saturated):
                return all(res.model.value(f) for f in problem) and congruent_model(
                    prog.syntax, res.model.assignment
                )
            return False

        for i, problem in enumerate(problems):
            out.item(lambda: decide(problem), lambda got: decided(i, problem, got))


def congruent_model(sx, assignment) -> bool:
    """Whether a truth assignment to ground atoms respects equality: the
    classes that its true equations generate, closed under congruence, put
    no false equation inside one class and give `p(s)` and `p(t)` one
    truth value when s and t share a class.  A union-find of its own, so
    that it does not share the refuter's congruence closure."""
    parent: dict = {}

    def find(t):
        parent.setdefault(t, t)
        while parent[t] != t:
            parent[t] = parent[parent[t]]
            t = parent[t]
        return t

    def subterms(t):
        yield t
        for a in getattr(t, "args", ()):
            yield from subterms(a)

    terms = {u for atom in assignment for t in atom.args for u in subterms(t)}
    for atom, value in assignment.items():
        if value and atom.pred == sx.EQ:
            parent[find(atom.args[0])] = find(atom.args[1])
    apps = [t for t in terms if isinstance(t, sx.App) and t.args]
    merged = True
    while merged:
        merged = False
        seen: dict = {}
        for t in apps:
            key = (t.fn, tuple(find(a) for a in t.args))
            if key in seen and find(seen[key]) != find(t):
                parent[find(t)] = find(seen[key])
                merged = True
            seen.setdefault(key, t)
    truth: dict = {}
    for atom, value in assignment.items():
        if atom.pred == sx.EQ:
            if not value and find(atom.args[0]) == find(atom.args[1]):
                return False
        else:
            key = (atom.pred, tuple(find(a) for a in atom.args))
            if truth.setdefault(key, value) != value:
                return False
    return True


def certificate_steps(steps) -> int:
    """Steps in a certificate, counting both branches of every split."""
    n = 0
    for step in steps:
        n += 1
        if step[0] == "split":
            n += certificate_steps(step[2]) + certificate_steps(step[3])
    return n


# ---------------------------------------------------------------------------
# workbench: the quantifier eliminator and the complexity estimator


class Workbench:
    """hilbertack.ha_run on generated rank-1 and rank-2 cases, each followed
    by a certified ground refutation of the final sequence; then
    machines.k_upper_bound on fixed targets, some found under the length
    cap and some exhausting it."""

    # (target, length cap, expected bound in bits or None when the cap is
    # exhausted), with k_upper_bound's default run budget.
    TARGETS = (
        ("", 8, 2),
        ("0", 12, 7),
        ("1", 12, 7),
        ("00", 14, 12),
        ("01", 14, 12),
        ("10", 14, 12),
        ("11", 14, 12),
        ("0110", 16, None),
        ("000", 16, None),
        ("101", 16, None),
    )
    BUDGET = 200

    def __init__(self, seed: int, tiny: bool = False):
        self.seed = seed
        self.cases = 4 if tiny else 400
        self.targets = self.TARGETS[:2] if tiny else self.TARGETS

    def inputs(self, prog):
        rng = random.Random(self.seed)
        # One rank-1 case in three: rank-2 cases take about five times as
        # long, and an even mix would put the median verdict between them.
        cases = [
            prog.hilbertack.generate_inconsistent_case(rng, 1 if i % 3 == 0 else 2)
            for i in range(self.cases)
        ]
        return cases, list(self.targets)

    def run(self, prog, inputs, out: Pass):
        ha, pc, rm, sx = prog.hilbertack, prog.propcalc, prog.machines, prog.syntax
        belongs_to = prog.kernel.belongs_to
        cases, targets = inputs

        def eliminate(theory, seq):
            final = list(ha.ha_run(theory, seq).final.formulas)
            res = pc.ground_refute(final, want_cert=True)
            return final, res, isinstance(res, pc.Refutation) and pc.replay(res, final)

        def eliminated(got):
            final, res, replayed = got
            out.counts["decided"] += not isinstance(res, pc.OutOfBudget)
            if isinstance(res, pc.Refutation):
                out.counts["refuted"] += 1
                out.counts["cert_steps"] += certificate_steps(res.steps)
            owners = [belongs_to(f) for f in final]
            return replayed and all(o is None or sx.const_rank(o) == 0 for o in owners)

        for theory, seq in cases:
            out.item(lambda: eliminate(theory, seq), eliminated)

        def bound_ok(target, want, got):
            if want is None or got is None:
                return want is None and got is None
            rerun = rm.run(rm.decode_machine(got.encoding), [], self.BUDGET, mode="compiled")
            return (
                got.length == want == len(got.encoding)
                and rerun.halted
                and rerun.output == target
            )

        for target, cap, want in targets:
            out.item(
                lambda: rm.k_upper_bound(target, cap, self.BUDGET),
                lambda got: bound_ok(target, want, got),
            )


WORKLOADS = {"corpus": Corpus, "ground": Ground, "oracle": Oracle, "workbench": Workbench}
