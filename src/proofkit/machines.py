"""Register machines over bit strings: four command kinds (prepend-zero,
prepend-one, predecessor, case), direct stepping, compilation to the nested
case-function form, budgeted runs, and a bounded Kolmogorov-complexity
upper-bound estimator.

Machine encoding (version 1, for the estimator; all complexity values are
relative to it): gamma(kappa) gamma(mu), then one command per non-halt state
in order: a 2-bit opcode (00 prepend0, 01 prepend1, 10 pred, 11 case), then
register fields of ceil(log2 mu) bits and state fields of ceil(log2 kappa)
bits, each storing value-1.  Opcodes 00/01/10 carry fields nu nu' lambda';
opcode 11 carries nu lambda1 lambda2 lambda3.  gamma is the Elias gamma
code.  The estimator builds each well-formed encoding and its machine
together from these fields, and decodes nothing; it meets them in the
order, and with the machines, of decoding every bit string by length then
lexicographically.  It skips two kinds of machine that never halt: one
whose halt state no command path reaches from state 1, and one whose run
repeats a (state, registers) configuration.  Since step is deterministic,
neither can halt later, so the first halting encoding with the target
output, and the bound, are unchanged."""

from __future__ import annotations

import itertools
import re
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import CheckError, ParseError

ENCODING_VERSION = 1

_OPCODE = {"prepend0": "00", "prepend1": "01", "pred": "10", "case": "11"}
_OPNAME = {v: k for k, v in _OPCODE.items()}


class Command(NamedTuple):
    op: str  # prepend0 | prepend1 | pred | case
    reg: int  # the register read (nu)
    dst: Optional[int] = None  # nu' for the three store commands
    goto: Optional[int] = None  # lambda' for the three store commands
    branches: Optional[tuple] = None  # (l1, l2, l3) for case commands


class Machine(NamedTuple):
    index: int  # iota: number of inputs
    registers: int  # mu > iota; register mu is the output
    states: int  # kappa; state kappa is the halt state
    commands: tuple  # commands[i] drives state i+1; length kappa-1


def checked(m: Machine) -> Machine:
    """m, once its fields are found in range: for a machine read from outside."""
    if m.registers <= m.index:
        raise CheckError("need more registers than inputs")
    if m.states < 1:
        raise CheckError("at least the halt state is required")
    if len(m.commands) != m.states - 1:
        raise CheckError("every non-halt state needs exactly one command")
    for c in m.commands:
        if not 1 <= c.reg <= m.registers:
            raise CheckError(f"register {c.reg} out of range")
        if c.op == "case":
            if c.branches is None or len(c.branches) != 3:
                raise CheckError("case commands carry three targets")
            if any(not 1 <= l <= m.states for l in c.branches):
                raise CheckError("case target out of range")
        else:
            if c.dst is None or not 1 <= c.dst <= m.registers:
                raise CheckError("store destination out of range")
            if c.goto is None or not 1 <= c.goto <= m.states:
                raise CheckError("goto target out of range")
    return m


class Configuration(NamedTuple):
    registers: tuple  # mu bit strings
    state: int  # 1..kappa (the string 0_state)

    @property
    def state_string(self) -> str:
        return "0" * self.state


def _is_bit_string(s: str) -> bool:
    return not set(s) - {"0", "1"}


def initial_configuration(m: Machine, inputs: Sequence[str]) -> Configuration:
    if len(inputs) != m.index:
        raise CheckError(f"machine wants {m.index} inputs")
    for s in inputs:
        if not _is_bit_string(s):
            raise CheckError(f"machine inputs must be bit strings, got {s!r}")
    regs = list(inputs) + [""] * (m.registers - m.index)
    return Configuration(tuple(regs), 1)


def case_function(x: str, y: str, z: str, w: str) -> str:
    if x == "":
        return y
    return z if x[0] == "0" else w


def step(m: Machine, c: Configuration) -> Configuration:
    if len(c.registers) != m.registers or not 1 <= c.state <= m.states:
        raise CheckError("malformed configuration")
    if c.state == m.states:
        return c  # halt state: the next configuration is unchanged
    cmd = m.commands[c.state - 1]
    regs = list(c.registers)
    if cmd.op == "case":
        val = regs[cmd.reg - 1]
        nxt = cmd.branches[0 if val == "" else (1 if val[0] == "0" else 2)]
        return Configuration(tuple(regs), nxt)
    src = regs[cmd.reg - 1]
    if cmd.op == "prepend0":
        out = "0" + src
    elif cmd.op == "prepend1":
        out = "1" + src
    else:
        out = src[1:]
    regs[cmd.dst - 1] = out
    return Configuration(tuple(regs), cmd.goto)


# ---------------------------------------------------------------------------
# compiled form: the nested case-function expression


class CaseExpr(NamedTuple):
    """Expression tree over the four basic string functions, register
    projections, and state-string literals."""

    kind: str  # var | lit | prepend0 | prepend1 | pred | case
    payload: tuple = ()

    def eval(self, regs: tuple, state_string: str) -> str:
        if self.kind == "var":
            i = self.payload[0]
            return state_string if i == len(regs) + 1 else regs[i - 1]
        if self.kind == "lit":
            return self.payload[0]
        args = [a.eval(regs, state_string) for a in self.payload]
        if self.kind == "prepend0":
            return "0" + args[0]
        if self.kind == "prepend1":
            return "1" + args[0]
        if self.kind == "pred":
            return args[0][1:]
        return case_function(*args)


def _var(i: int) -> CaseExpr:
    return CaseExpr("var", (i,))


def _lit(s: str) -> CaseExpr:
    return CaseExpr("lit", (s,))


def _pred_iter(e: CaseExpr, n: int) -> CaseExpr:
    for _ in range(n):
        e = CaseExpr("pred", (e,))
    return e


def _cprime(w: CaseExpr, y: CaseExpr, z: CaseExpr) -> CaseExpr:
    return CaseExpr("case", (w, y, z, _lit("")))


def _h(m: Machine, lam: int, gamma: int) -> CaseExpr:
    """The per-state update of coordinate gamma when the state is lam."""
    if lam == m.states:
        return _var(gamma)
    cmd = m.commands[lam - 1]
    if cmd.op == "case":
        if gamma == m.registers + 1:
            return CaseExpr(
                "case",
                (
                    _var(cmd.reg),
                    _lit("0" * cmd.branches[0]),
                    _lit("0" * cmd.branches[1]),
                    _lit("0" * cmd.branches[2]),
                ),
            )
        return _var(gamma)
    if gamma == cmd.dst:
        inner = _var(cmd.reg)
        return CaseExpr(cmd.op, (inner,))
    if gamma == m.registers + 1:
        return _lit("0" * cmd.goto)
    return _var(gamma)


class CompiledMachine(NamedTuple):
    machine: Machine
    coordinates: tuple  # per-coordinate nested case expression


def compile_g(m: Machine) -> CompiledMachine:
    """g_gamma(y) = C'(P y_state, h^1_gamma, C'(P^2 y_state, h^2_gamma, ...))
    with the halt state contributing the identity."""
    coords = []
    for gamma in range(1, m.registers + 2):
        expr = _lit("")
        for lam in range(m.states, 0, -1):
            expr = _cprime(_pred_iter(_var(m.registers + 1), lam), _h(m, lam, gamma), expr)
        coords.append(expr)
    return CompiledMachine(m, tuple(coords))


def compiled_step(m: Machine, c: Configuration, compiled: Optional[CompiledMachine] = None) -> Configuration:
    compiled = compiled or compile_g(m)
    outs = [e.eval(c.registers, c.state_string) for e in compiled.coordinates]
    state = outs[-1]
    if set(state) - {"0"} or not state:
        raise CheckError("compiled step produced a malformed state")
    return Configuration(tuple(outs[:-1]), len(state))


# ---------------------------------------------------------------------------
# runs


class RunOutcome(NamedTuple):
    halted: bool
    output: Optional[str]
    steps: int
    final: Configuration


def run(m: Machine, inputs: Sequence[str], budget: int = 10_000, mode: str = "direct") -> RunOutcome:
    c = initial_configuration(m, inputs)
    compiled = compile_g(m) if mode == "compiled" else None
    steps = 0
    while steps < budget:
        if c.state == m.states:
            return RunOutcome(True, c.registers[m.registers - 1], steps, c)
        c = compiled_step(m, c, compiled) if compiled else step(m, c)
        steps += 1
    if c.state == m.states:
        return RunOutcome(True, c.registers[m.registers - 1], steps, c)
    return RunOutcome(False, None, steps, c)


# ---------------------------------------------------------------------------
# the bit-string encoding and the complexity estimator


def _gamma_code(n: int) -> str:
    assert n >= 1
    b = bin(n)[2:]
    return "0" * (len(b) - 1) + b


class _BitReader:
    def __init__(self, bits: str):
        self.bits = bits
        self.pos = 0

    def take(self, n: int) -> str:
        if self.pos + n > len(self.bits):
            raise CheckError("ran out of bits")
        out = self.bits[self.pos : self.pos + n]
        self.pos += n
        return out

    def gamma(self) -> int:
        zeros = 0
        while self.take(1) == "0":
            zeros += 1
        rest = self.take(zeros)
        return int("1" + rest, 2)

    def done(self) -> bool:
        return self.pos == len(self.bits)


def _field_width(n: int) -> int:
    return max((n - 1).bit_length(), 0)


def _field(value: int, width: int) -> str:
    """A register or state number as a fixed-width field storing value-1."""
    return format(value - 1, f"0{width}b") if width else ""


def encode_machine(m: Machine) -> str:
    out = [_gamma_code(m.states), _gamma_code(m.registers)]
    rw = _field_width(m.registers)
    sw = _field_width(m.states)
    for cmd in m.commands:
        out.append(_OPCODE[cmd.op])
        out.append(_field(cmd.reg, rw))
        if cmd.op == "case":
            out.extend(_field(l, sw) for l in cmd.branches)
        else:
            out.append(_field(cmd.dst, rw))
            out.append(_field(cmd.goto, sw))
    return "".join(out)


def _commands(mu: int, kappa: int) -> list[tuple[str, Command]]:
    """Every command of a machine with mu registers and kappa states, with
    its code."""
    rw, sw = _field_width(mu), _field_width(kappa)
    regs = [(_field(v, rw), v) for v in range(1, mu + 1)]
    states = [(_field(v, sw), v) for v in range(1, kappa + 1)]
    out = []
    for op in ("prepend0", "prepend1", "pred"):
        for (rc, reg), (dc, dst), (gc, goto) in itertools.product(regs, regs, states):
            out.append((_OPCODE[op] + rc + dc + gc, Command(op, reg, dst, goto)))
    for (rc, reg), *targets in itertools.product(regs, states, states, states):
        code = _OPCODE["case"] + rc + "".join(c for c, _ in targets)
        out.append((code, Command("case", reg, branches=tuple(v for _, v in targets))))
    return out


def _machines(len_cap: int) -> Iterator[tuple[str, Machine]]:
    """(encoding, machine) for every string of at most len_cap bits that
    decode_machine accepts, ordered by length then lexicographically.  Each
    machine is built from the fields its encoding is assembled from, when
    it is yielded; the machine is the one decode_machine would return, and
    its fields are in range as built, so it is not checked."""
    by_length: list[list] = [[] for _ in range(len_cap + 1)]
    for kappa in itertools.count(1):
        sw = _field_width(kappa)
        for mu in itertools.count(1):
            header = _gamma_code(kappa) + _gamma_code(mu)
            rw = _field_width(mu)
            # a case command is the shorter kind when 2*sw < rw
            shortest = 2 + rw + min(rw + sw, 3 * sw)
            if len(header) + (kappa - 1) * shortest > len_cap:
                break  # more registers lengthen the header and every command
            partial = [(header, ())]
            if kappa > 1:
                commands = _commands(mu, kappa)
                for left in range(kappa - 2, -1, -1):
                    partial = [
                        (bits + code, cmds + (cmd,))
                        for bits, cmds in partial
                        for code, cmd in commands
                        if len(bits) + len(code) + left * shortest <= len_cap
                    ]
            for bits, cmds in partial:
                by_length[len(bits)].append((bits, mu, kappa, cmds))
        if mu == 1:
            break  # not even one register fits, nor will it with more states
    for bucket in by_length:
        bucket.sort(key=lambda entry: entry[0])
        for bits, mu, kappa, cmds in bucket:
            yield bits, Machine(0, mu, kappa, cmds)


def decode_machine(bits: str) -> Machine:
    r = _BitReader(bits)
    kappa = r.gamma()
    mu = r.gamma()
    rw = _field_width(mu)
    sw = _field_width(kappa)
    cmds = []
    for _ in range(kappa - 1):
        op = _OPNAME[r.take(2)]
        reg = (int(r.take(rw), 2) + 1) if rw else 1
        if op == "case":
            branches = tuple((int(r.take(sw), 2) + 1) if sw else 1 for _ in range(3))
            cmds.append(Command(op, reg, branches=branches))
        else:
            dst = (int(r.take(rw), 2) + 1) if rw else 1
            goto = (int(r.take(sw), 2) + 1) if sw else 1
            cmds.append(Command(op, reg, dst, goto))
    if not r.done():
        raise CheckError("trailing bits")
    return checked(Machine(0, mu, kappa, tuple(cmds)))


class KBound(NamedTuple):
    length: int
    machine: Machine
    encoding: str


KBOUND_BUDGET = 200  # steps per machine run in k_search


def _halt_reachable(m: Machine) -> bool:
    """Whether the command graph has a path from state 1 to the halt state:
    a store command's edge is its goto, a case command's its three branches."""
    seen, todo = {1}, [1]
    while todo:
        state = todo.pop()
        if state == m.states:
            return True
        cmd = m.commands[state - 1]
        for nxt in cmd.branches if cmd.op == "case" else (cmd.goto,):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return False


def _halting_output(m: Machine, budget: int) -> tuple[Optional[str], bool]:
    """The output of run(m, [], budget) if that run halts, else None, and
    whether the budget ended the run before it halted or repeated a
    configuration.  The run stops early at its first repeated
    configuration: step is deterministic, so from there the machine loops
    and never halts."""
    c = initial_configuration(m, [])
    seen = set()
    for _ in range(budget):
        if c.state == m.states or c in seen:
            break
        seen.add(c)
        c = step(m, c)
    if c.state == m.states:
        return c.registers[-1], False
    return None, c not in seen


class KSearch(NamedTuple):
    """What k_search found: the bound, None when there is none, and how many
    runs the step budget cut off.  With no bound, a cut-off count of 0
    means no machine within the cap outputs the target; any other count
    means none did within the budget, and a longer run might."""

    bound: Optional[KBound]
    budget_cut: int


def k_search(target: str, len_cap: int = 16, budget: int = KBOUND_BUDGET) -> KSearch:
    """Run the machine encodings of at most len_cap bits by length then
    lexicographically; the bound is the first (hence shortest under this
    encoding) that halts within budget steps with the target in its output
    register.  Each machine is built from the fields its encoding is
    assembled from, and no encoding is decoded; the result is the one a scan
    decoding every bit string in that order would find.  An upper bound
    only.

    Two prunes skip machines that never halt, and so leave the result
    unchanged: a machine whose halt state is unreachable from state 1 in
    its command graph is not run, and a run stops at its first repeated
    (state, registers) configuration.  Both are sound because step is
    deterministic, and neither counts as a budget cut-off."""
    if not _is_bit_string(target):
        raise CheckError(f"target must be a bit string, got {target!r}")
    cut = 0
    for bits, m in _machines(len_cap):
        if not _halt_reachable(m):
            continue
        output, was_cut = _halting_output(m, budget)
        if output == target:
            return KSearch(KBound(len(bits), m, bits), cut)
        cut += was_cut
    return KSearch(None, cut)


def k_upper_bound(target: str, len_cap: int = 16, budget: int = KBOUND_BUDGET) -> Optional[KBound]:
    """k_search's bound: the shortest machine found that outputs the target,
    None when there is none."""
    return k_search(target, len_cap, budget).bound


# ---------------------------------------------------------------------------
# machine description files


_HEADER = re.compile(r"machine\s+i=(\d+)\s+m=(\d+)\s+k=(\d+)\s*$")
_STORE = re.compile(
    r"state\s+(\d+)\s*:\s*(prepend0|prepend1|pred)\s+(\d+)\s*->\s*(\d+)\s+goto\s+(\d+)\s*$"
)
_CASE = re.compile(r"state\s+(\d+)\s*:\s*case\s+(\d+)\s*\?\s*(\d+)\s+(\d+)\s+(\d+)\s*$")


def parse_machine(text: str) -> Machine:
    header = None
    commands: dict[int, Command] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _HEADER.match(line)
        if m:
            if header is not None:
                raise ParseError("duplicate machine header", lineno, 1)
            header = tuple(int(g) for g in m.groups())
            continue
        m = _STORE.match(line)
        if m:
            lam = int(m.group(1))
            commands[lam] = Command(
                m.group(2), int(m.group(3)), int(m.group(4)), int(m.group(5))
            )
            continue
        m = _CASE.match(line)
        if m:
            lam = int(m.group(1))
            commands[lam] = Command(
                "case",
                int(m.group(2)),
                branches=(int(m.group(3)), int(m.group(4)), int(m.group(5))),
            )
            continue
        raise ParseError(f"unrecognized machine line {line!r}", lineno, 1)
    if header is None:
        raise ParseError("missing machine header")
    iota, mu, kappa = header
    cmds = []
    for lam in range(1, kappa):
        if lam not in commands:
            raise ParseError(f"state {lam} has no command")
        cmds.append(commands[lam])
    extra = set(commands) - set(range(1, kappa))
    if extra:
        raise ParseError(f"commands for unknown states {sorted(extra)}")
    return checked(Machine(iota, mu, kappa, tuple(cmds)))


def const0_machine() -> Machine:
    """One command: prepend a zero onto empty register 2 and halt; outputs
    the one-bit string 0 for any input."""
    return Machine(1, 2, 2, (Command("prepend0", 2, 2, 2),))


def all_configurations(m: Machine, maxlen: int):
    strings = [""]
    frontier = [""]
    for _ in range(maxlen):
        frontier = [s + b for s in frontier for b in "01"]
        strings.extend(frontier)
    for regs in itertools.product(strings, repeat=m.registers):
        for state in range(1, m.states + 1):
            yield Configuration(tuple(regs), state)
