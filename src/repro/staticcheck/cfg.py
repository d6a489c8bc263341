"""Per-ISA CFG recovery by recursive-descent disassembly.

The verifier rebuilds each function's control-flow graph *from the
emitted bytes alone* — decoding instruction by instruction from the
function entry, following branch targets — and then cross-checks the
recovered structure against the IR block structure the compiler claims
it emitted.  Any disagreement means the extended symbol table would
mislead the migration engine at run time.

Intra-block control flow is expected: the code generators materialise
compare results with small internal branch diamonds whose labels live
*inside* one IR block.  Only edges that leave the block's address range
count as CFG successor edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..errors import DecodeError
from ..isa import ISAS
from ..isa.base import Decoded, Imm, Op
from .findings import Finding

#: opcodes that end a native block without falling through
_NO_FALLTHROUGH = frozenset({Op.JMP, Op.RET, Op.IJMP, Op.HLT})


@dataclass
class RecoveredBlock:
    """One IR block's native form, rebuilt from the bytes."""

    label: str
    start: int
    end: int
    instructions: List[Decoded] = field(default_factory=list)
    #: absolute addresses of recovered out-edges (excluding call targets)
    edge_targets: Set[int] = field(default_factory=set)
    falls_through: bool = True
    decoded_ok: bool = True


@dataclass
class RecoveredFunction:
    """Recursive-descent view of one function on one ISA."""

    name: str
    isa_name: str
    entry: int
    end: int
    blocks: Dict[str, RecoveredBlock] = field(default_factory=dict)


def _block_bounds(per_isa) -> List[Tuple[str, int, int]]:
    return per_isa.block_bounds()


def _decode_block(isa, data: bytes, base: int, start: int,
                  end: int) -> Tuple[List[Decoded], bool]:
    """Decode [start, end) linearly; returns (instructions, clean)."""
    instructions: List[Decoded] = []
    address = start
    while address < end:
        try:
            decoded = isa.decode(data, address - base, address)
        except DecodeError:
            return instructions, False
        instructions.append(decoded)
        address = decoded.end
    return instructions, address == end


def _branch_target(decoded: Decoded) -> Optional[int]:
    """Absolute target of a direct JMP/JCC, if statically known."""
    instruction = decoded.instruction
    if instruction.op not in (Op.JMP, Op.JCC):
        return None
    operand = instruction.operands[0]
    if isinstance(operand, Imm):
        return operand.value
    return None


def recover_function(binary, isa_name: str, name: str,
                     findings: List[Finding]) -> Optional[RecoveredFunction]:
    """Rebuild one function's CFG from the bytes, appending findings."""
    isa = ISAS[isa_name]
    info = binary.symtab.function(name)
    per_isa = info.per_isa.get(isa_name)
    if per_isa is None:
        findings.append(Finding(
            "HIP204", f"function has no {isa_name} view in the symbol table",
            function=name, isa=isa_name))
        return None
    section = binary.sections[isa_name]
    recovered = RecoveredFunction(name=name, isa_name=isa_name,
                                  entry=per_isa.entry, end=per_isa.end)

    if per_isa.entry % isa.alignment:
        findings.append(Finding(
            "HIP104",
            f"function entry {per_isa.entry:#x} violates the "
            f"{isa.alignment}-byte alignment of {isa_name}",
            function=name, isa=isa_name, address=per_isa.entry))
    if not (section.base_address <= per_isa.entry
            and per_isa.end <= section.end_address):
        findings.append(Finding(
            "HIP105",
            f"function range [{per_isa.entry:#x}, {per_isa.end:#x}) falls "
            f"outside the text section "
            f"[{section.base_address:#x}, {section.end_address:#x})",
            function=name, isa=isa_name, address=per_isa.entry))
        return recovered

    bounds = _block_bounds(per_isa)
    starts = {start for _, start, _ in bounds}
    for label, start, end in bounds:
        block = RecoveredBlock(label=label, start=start, end=end)
        recovered.blocks[label] = block
        if start % isa.alignment:
            findings.append(Finding(
                "HIP104",
                f"block entry {start:#x} violates the {isa.alignment}-byte "
                f"alignment of {isa_name}",
                function=name, block=label, isa=isa_name, address=start))
            block.decoded_ok = False
            continue
        instructions, clean = _decode_block(
            isa, section.data, section.base_address, start, end)
        block.instructions = instructions
        if not clean:
            resume = (instructions[-1].end if instructions else start)
            findings.append(Finding(
                "HIP101",
                f"decode failed or overran block bounds near {resume:#x} "
                f"(block spans [{start:#x}, {end:#x}))",
                function=name, block=label, isa=isa_name, address=resume))
            block.decoded_ok = False
            continue
        for decoded in instructions:
            target = _branch_target(decoded)
            if target is None:
                continue
            if start <= target < end:
                continue          # internal compare/diamond control flow
            block.edge_targets.add(target)
            if not (per_isa.entry <= target < per_isa.end):
                findings.append(Finding(
                    "HIP103",
                    f"branch at {decoded.address:#x} leaves the function "
                    f"(target {target:#x})",
                    function=name, block=label, isa=isa_name,
                    address=decoded.address))
            elif target not in starts:
                findings.append(Finding(
                    "HIP106",
                    f"branch at {decoded.address:#x} targets {target:#x}, "
                    f"which is not a recorded block entry",
                    function=name, block=label, isa=isa_name,
                    address=decoded.address))
        if instructions:
            block.falls_through = (
                instructions[-1].instruction.op not in _NO_FALLTHROUGH)
        else:
            block.falls_through = True
    return recovered


def check_function_cfg(binary, recovered: RecoveredFunction,
                       findings: List[Finding]) -> None:
    """Cross-check a recovered CFG against the IR block structure."""
    name = recovered.name
    fn = binary.program.functions[name]
    info = binary.symtab.function(name)
    per_isa = info.per_isa[recovered.isa_name]

    ir_labels = [blk.label for blk in fn.blocks]
    for label in ir_labels:
        if label not in per_isa.block_addresses:
            findings.append(Finding(
                "HIP102",
                "IR block has no native address in the symbol table",
                function=name, block=label, isa=recovered.isa_name))
    extra = set(per_isa.block_addresses) - set(ir_labels)
    for label in sorted(extra):
        findings.append(Finding(
            "HIP102",
            "symbol table records a block the IR does not contain",
            function=name, block=label, isa=recovered.isa_name))

    starts = {block.start for block in recovered.blocks.values()}
    order = [label for label, _, _ in per_isa.block_bounds()]
    for index, label in enumerate(order):
        block = recovered.blocks.get(label)
        if block is None or not block.decoded_ok:
            continue
        if label not in {blk.label for blk in fn.blocks}:
            continue
        # Edges are compared by address, not label: an empty block
        # starts where the next one does, so a branch to either is the
        # same edge in the bytes.
        successors = sorted(fn.block(label).successors())
        expected = {per_isa.block_addresses.get(succ) for succ in successors}
        native = {target for target in block.edge_targets
                  if target in starts}
        if block.falls_through and index + 1 < len(order):
            native.add(block.end)
        if native != expected:
            findings.append(Finding(
                "HIP103",
                f"recovered successors at {_hexes(native)} disagree with "
                f"IR successors {successors} at {_hexes(expected)}",
                function=name, block=label, isa=recovered.isa_name,
                address=block.start))


def _hexes(addresses: Set[Optional[int]]) -> List[str]:
    return sorted(f"{address:#x}" for address in addresses
                  if address is not None)


def check_function_ranges(binary, isa_name: str,
                          findings: List[Finding]) -> None:
    """Function extents must tile the section without overlapping."""
    ranges = []
    for info in binary.symtab:
        per_isa = info.per_isa.get(isa_name)
        if per_isa is not None:
            ranges.append((per_isa.entry, per_isa.end, info.name))
    ranges.sort()
    for (start_a, end_a, name_a), (start_b, end_b, name_b) in zip(
            ranges, ranges[1:]):
        if end_a > start_b:
            findings.append(Finding(
                "HIP105",
                f"function ranges overlap: {name_a} "
                f"[{start_a:#x}, {end_a:#x}) vs {name_b} "
                f"[{start_b:#x}, {end_b:#x})",
                function=name_b, isa=isa_name, address=start_b))


def recover_cfgs(binary, isa_name: str, findings: List[Finding]
                 ) -> Dict[str, RecoveredFunction]:
    """Recover and cross-check every function's CFG on one ISA."""
    check_function_ranges(binary, isa_name, findings)
    recovered: Dict[str, RecoveredFunction] = {}
    for info in binary.symtab:
        result = recover_function(binary, isa_name, info.name, findings)
        if result is not None:
            recovered[info.name] = result
            check_function_cfg(binary, result, findings)
    return recovered
