import functools
import random

import pytest

from conftest import encodings
from proofkit import machines as rm
from proofkit.errors import CheckError, ParseError


def test_machine_validation():
    with pytest.raises(CheckError):
        rm.checked(rm.Machine(1, 1, 2, (rm.Command("prepend0", 1, 1, 2),)))  # mu <= iota
    with pytest.raises(CheckError):
        rm.checked(rm.Machine(0, 1, 2, (rm.Command("prepend0", 5, 1, 2),)))  # register range
    with pytest.raises(CheckError):
        rm.checked(rm.Machine(0, 1, 2, (rm.Command("case", 1, branches=(1, 2, 9)),)))
    with pytest.raises(CheckError):
        rm.checked(rm.Machine(0, 1, 3, (rm.Command("prepend0", 1, 1, 2),)))  # missing command


def test_step_semantics_store_commands():
    m = rm.Machine(1, 2, 2, (rm.Command("prepend0", 1, 2, 2),))
    c = rm.initial_configuration(m, ["1"])
    nxt = rm.step(m, c)
    assert nxt.registers == ("1", "01") and nxt.state == 2


def test_a_configuration_hashes_as_its_field_tuple():
    # the field tuple's hash: the order of a set of configurations under a
    # fixed PYTHONHASHSEED rests on it
    registers = ("1", "01")
    assert hash(rm.Configuration(registers, 2)) == hash((registers, 2))


def test_halt_state_is_fixed():
    m = rm.const0_machine()
    c = rm.Configuration(("1", "0"), 2)
    assert rm.step(m, c) == c
    assert rm.compiled_step(m, c) == c


def test_case_command_dispatch():
    m = rm.Machine(
        1,
        2,
        4,
        (
            rm.Command("case", 1, branches=(4, 2, 3)),
            rm.Command("prepend0", 2, 2, 4),
            rm.Command("prepend1", 2, 2, 4),
        ),
    )
    assert rm.run(m, [""]).output == ""  # empty input goes straight to halt
    assert rm.run(m, ["01"]).output == "0"
    assert rm.run(m, ["10"]).output == "1"


def test_run_const0_and_degenerate():
    m = rm.const0_machine()
    out = rm.run(m, ["11"])
    assert out.halted and out.output == "0" and out.steps == 1
    trivial = rm.Machine(0, 1, 1, ())
    out2 = rm.run(trivial, [])
    assert out2.halted and out2.output == "" and out2.steps == 0


def test_budget_exhaustion_is_an_outcome():
    loop = rm.Machine(0, 1, 2, (rm.Command("prepend0", 1, 1, 1),))
    out = rm.run(loop, [], budget=100)
    assert not out.halted and out.steps == 100


def test_case_function_table():
    assert rm.case_function("", "y", "z", "w") == "y"
    assert rm.case_function("01", "y", "z", "w") == "z"
    assert rm.case_function("10", "y", "z", "w") == "w"


def test_compiled_identity_at_halt_coordinate():
    m = rm.const0_machine()
    comp = rm.compile_g(m)
    c = rm.Configuration(("1", "11"), 2)
    assert rm.compiled_step(m, c, comp) == c


SAMPLES = [
    rm.const0_machine(),
    rm.Machine(
        1,
        2,
        4,
        (
            rm.Command("case", 1, branches=(4, 2, 3)),
            rm.Command("prepend0", 2, 2, 4),
            rm.Command("prepend1", 2, 2, 4),
        ),
    ),
    rm.Machine(
        0,
        2,
        3,
        (
            rm.Command("prepend1", 1, 2, 3),
            rm.Command("pred", 2, 1, 1),
        ),
    ),
]


@pytest.mark.parametrize("machine", SAMPLES)
def test_direct_and_compiled_agree_exhaustively(machine):
    compiled = rm.compile_g(machine)
    for c in rm.all_configurations(machine, 2):
        assert rm.step(machine, c) == rm.compiled_step(machine, c, compiled)


def test_halting_replay_through_compiled_mode():
    m = SAMPLES[1]
    direct = rm.run(m, ["10"], mode="direct")
    compiled = rm.run(m, ["10"], mode="compiled")
    assert direct.halted and compiled.halted
    assert direct.steps == compiled.steps and direct.output == compiled.output


# --- encoding and the complexity estimator ------------------------------------


def test_encoding_round_trip():
    for m in SAMPLES:
        m0 = rm.Machine(0, m.registers, m.states, m.commands)
        bits = rm.encode_machine(m0)
        assert rm.decode_machine(bits) == m0


def test_k_upper_bound_empty_string():
    got = rm.k_upper_bound("", len_cap=6, budget=20)
    assert got is not None
    assert got.machine.states == 1
    assert got.length == len(rm.encode_machine(rm.Machine(0, 1, 1, ()))) == 2


def test_k_upper_bound_monotone():
    small = rm.k_upper_bound("0", len_cap=8, budget=30)
    big_budget = rm.k_upper_bound("0", len_cap=8, budget=300)
    big_cap = rm.k_upper_bound("0", len_cap=12, budget=30)
    assert small is not None
    assert big_budget.length <= small.length
    assert big_cap.length <= small.length


def test_k_upper_bound_none_result():
    assert rm.k_upper_bound("0101", len_cap=3, budget=10) is None


def _reference_k_upper_bound(targets, len_cap, budget):
    """The unpruned scan: run every encoding for the whole budget and keep,
    per target, the first that halts with it."""
    found = {}
    for bits in encodings(len_cap):
        outcome = rm.run(rm.decode_machine(bits), [], budget)
        if outcome.halted and outcome.output in targets:
            found.setdefault(outcome.output, bits)
    return found


@pytest.mark.parametrize("budget", [30, 200])
def test_k_upper_bound_equals_the_unpruned_scan(budget):
    targets = [format(v, f"0{n}b") if n else "" for n in range(4) for v in range(1 << n)]
    want = _reference_k_upper_bound(set(targets), 14, budget)
    for target in targets:
        got = rm.k_upper_bound(target, 14, budget)
        if target in want:
            bits = want[target]
            assert (got.encoding, got.length, got.machine) == (bits, len(bits), rm.decode_machine(bits))
        else:
            assert got is None


def test_pruned_machines_never_halt():
    unreachable = 0
    for bits in encodings(14):
        m = rm.decode_machine(bits)
        outcome = rm.run(m, [], 300)
        if not rm._halt_reachable(m):
            unreachable += 1
            assert not outcome.halted, bits
        # a run cut at a repeated configuration returns None, as run does
        # for a machine that has not halted
        assert rm._halting_output(m, 300)[0] == outcome.output, bits
    assert unreachable == 93


# Machines without inputs that revisit a state: the first halts after nine
# steps with output 00, the second repeats its initial configuration.
REVISITING = [
    rm.Machine(
        0,
        2,
        7,
        (
            rm.Command("prepend1", 1, 1, 2),
            rm.Command("prepend1", 1, 1, 3),
            rm.Command("case", 1, branches=(7, 4, 4)),
            rm.Command("pred", 1, 1, 6),
            rm.Command("prepend0", 1, 1, 7),  # unreachable
            rm.Command("prepend0", 2, 2, 3),
        ),
    ),
    rm.Machine(
        0,
        1,
        4,
        (
            rm.Command("case", 1, branches=(2, 3, 4)),
            rm.Command("prepend0", 1, 1, 3),
            rm.Command("pred", 1, 1, 1),
        ),
    ),
]


@pytest.mark.parametrize("machine", REVISITING)
def test_halting_output_is_the_runs_output_at_every_budget(machine):
    assert rm._halt_reachable(machine)
    for budget in range(13):
        assert rm._halting_output(machine, budget)[0] == rm.run(machine, [], budget).output
    assert rm.run(machine, [], 9).output == ("00" if machine is REVISITING[0] else None)


def test_machine_strings_must_be_bits():
    with pytest.raises(CheckError, match="target must be a bit string"):
        rm.k_upper_bound("012", len_cap=4)
    with pytest.raises(CheckError, match="machine inputs must be bit strings"):
        rm.run(rm.const0_machine(), ["1 0"])


@functools.lru_cache(maxsize=None)
def _decodable(length):
    """(bits, decode_machine(bits)) for the bit strings of one length that
    decode_machine accepts, in order."""
    out = []
    for value in range(1 << length):
        bits = format(value, f"0{length}b")
        try:
            out.append((bits, rm.decode_machine(bits)))
        except CheckError:
            continue
    return tuple(out)


@pytest.mark.parametrize("len_cap", range(1, 17))
def test_machines_are_built_as_decode_machine_reads_them(len_cap):
    want = [pair for length in range(1, len_cap + 1) for pair in _decodable(length)]
    assert list(rm._machines(len_cap)) == want


def _decoding_k_upper_bound(target, len_cap, budget):
    """k_upper_bound as a scan that decodes each encoding."""
    for bits in encodings(len_cap):
        m = rm.decode_machine(bits)
        if rm._halt_reachable(m) and rm._halting_output(m, budget)[0] == target:
            return bits
    return None


# The workbench targets: (target, length cap, shortest encoding or None).
WORKBENCH_TARGETS = [
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
]


@pytest.mark.parametrize("target,len_cap,length", WORKBENCH_TARGETS)
def test_k_upper_bound_equals_the_decoding_scan(target, len_cap, length):
    got = rm.k_upper_bound(target, len_cap)
    bits = _decoding_k_upper_bound(target, len_cap, rm.KBOUND_BUDGET)
    if length is None:
        assert got is None and bits is None
    else:
        assert len(bits) == length
        assert (got.length, got.encoding, got.machine) == (length, bits, rm.decode_machine(bits))


def _budget_cut_runs(len_cap, budget):
    """The runs of the decoding scan, for a target it never finds, that the
    budget cuts off: the halt state is reachable, and the first budget
    steps neither halt nor repeat a configuration."""
    cut = 0
    for bits in encodings(len_cap):
        m = rm.decode_machine(bits)
        if not rm._halt_reachable(m):
            continue
        configs = [rm.initial_configuration(m, [])]
        for _ in range(budget):
            if configs[-1].state == m.states:
                break
            configs.append(rm.step(m, configs[-1]))
        cut += configs[-1].state != m.states and len(set(configs)) == len(configs)
    return cut


@pytest.mark.parametrize("len_cap,budget,cut", [(12, 1, 9), (12, 200, 0), (16, 3, 22), (16, 200, 22)])
def test_k_search_counts_the_runs_the_budget_cut_off(len_cap, budget, cut):
    got = rm.k_search("0110", len_cap, budget)
    assert got.bound is None and rm.k_upper_bound("0110", len_cap, budget) is None
    assert got.budget_cut == _budget_cut_runs(len_cap, budget) == cut


@pytest.mark.parametrize("cap,count", [(8, 21), (12, 198), (16, 1226)])
def test_encoding_counts(cap, count):
    assert sum(1 for _ in encodings(cap)) == count


# --- description files -----------------------------------------------------------


def test_parse_machine_file():
    text = """
# doubles nothing, just prepends
machine i=1 m=2 k=2
state 1 : prepend0 2 -> 2 goto 2
"""
    m = rm.parse_machine(text)
    assert rm.run(m, ["11"]).output == "0"


def test_parse_machine_case_syntax():
    text = """
machine i=1 m=2 k=4
state 1 : case 1 ? 4 2 3
state 2 : prepend0 2 -> 2 goto 4
state 3 : prepend1 2 -> 2 goto 4
"""
    m = rm.parse_machine(text)
    assert rm.run(m, ["0"]).output == "0"


@pytest.mark.parametrize(
    "line, message",
    [
        ("state 1 : prepend0 2 -> 2 goto 3", "goto target out of range"),
        ("state 1 : case 1 ? 2 2 9", "case target out of range"),
        ("state 1 : pred 5 -> 2 goto 2", "register 5 out of range"),
        ("state 1 : prepend1 2 -> 3 goto 2", "store destination out of range"),
    ],
)
def test_parse_machine_refuses_fields_out_of_range(line, message):
    # the fields of a machine file are checked where they are read
    with pytest.raises(CheckError, match=f"^{message}$"):
        rm.parse_machine(f"machine i=1 m=2 k=2\n{line}\n")


def test_parse_machine_errors():
    with pytest.raises(ParseError):
        rm.parse_machine("state 1 : pred 1 -> 1 goto 1")
    with pytest.raises(ParseError):
        rm.parse_machine("machine i=0 m=1 k=2\n")
    with pytest.raises(ParseError):
        rm.parse_machine("machine i=0 m=1 k=1\nstate 1 : pred 1 -> 1 goto 1")
