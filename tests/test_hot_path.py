"""Hot-path coverage: compiled-block dispatch, chaining, invalidation.

The interpreter's ``run()`` fast path compiles basic blocks into host
closures and chains them; these tests pin the cache-coherence contract
(SMC writes and chaos decode flushes drop exactly the right blocks) and
prove the compiled path is observationally identical to the per-step
loop.
"""

from repro.isa import Assembler, Cond, Imm, Instruction, Label, Op, Reg, \
    X86LIKE
from repro.machine import CPUState, Interpreter, Memory, OperatingSystem


def _countdown_machine(iterations=200, base=0x1000):
    """The canonical two-block loop: an entry block and a loop body."""
    asm = Assembler(X86LIKE)
    asm.emit(Instruction(Op.MOV, (Reg(0), Imm(0))))
    asm.emit(Instruction(Op.MOV, (Reg(1), Imm(iterations))))
    asm.label("loop")
    asm.emit(Instruction(Op.ADD, (Reg(0), Reg(1))))
    asm.emit(Instruction(Op.SUB, (Reg(1), Imm(1))))
    asm.emit(Instruction(Op.CMP, (Reg(1), Imm(0))))
    asm.emit(Instruction(Op.JCC, (Label("loop"),), cond=Cond.GT))
    asm.emit(Instruction(Op.HLT))
    unit = asm.assemble(base)
    memory = Memory()
    memory.map("code", base, max(len(unit.data), 64), writable=True,
               executable=True, data=unit.data)
    memory.map("stack", 0x8000, 0x1000)
    cpu = CPUState(X86LIKE, pc=base)
    cpu.sp = 0x8800
    loop_address = base \
        + len(X86LIKE.encode(Instruction(Op.MOV, (Reg(0), Imm(0))), base)) \
        + len(X86LIKE.encode(Instruction(Op.MOV, (Reg(1), Imm(iterations))),
                             base))
    return Interpreter(cpu, memory, OperatingSystem()), loop_address


class TestCompiledBlockDispatch:
    def test_fast_path_compiles_and_chains(self):
        interp, loop = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        assert interp.cpu.get(0) == 20100          # sum 1..200
        assert interp.compiled_block_count >= 2    # entry + loop body
        stats = interp.block_stats
        assert stats.compiles >= 2
        assert stats.chain_links >= 1              # loop chained to itself
        entry = interp.compiled_block_at("x86like", 0x1000)
        body = interp.compiled_block_at("x86like", loop)
        assert entry is not None and body is not None
        # the loop block's back edge is memoized straight to itself
        assert body.chain.get(loop) is body

    def test_fast_path_matches_per_step_loop(self):
        fast, _ = _countdown_machine()
        slow, _ = _countdown_machine()
        slow.observers.append(lambda cpu, ins: None)   # forces slow path
        for budget in (1, 7, 256, 10_000):
            a = fast.run(budget)
            b = slow.run(budget)
            assert (a.steps, a.reason) == (b.steps, b.reason)
            assert fast.cpu.snapshot() == slow.cpu.snapshot()
        assert slow.compiled_block_count == 0      # observer: never compiled

    def test_budget_tail_is_exact(self):
        # A budget that lands mid-block must still stop at exactly that
        # count — the slow loop finishes the tail the block won't fit in.
        interp, _ = _countdown_machine()
        result = interp.run(256)
        assert result.reason == "limit"
        assert result.steps == 256

    def test_observer_forces_slow_path(self):
        interp, _ = _countdown_machine()
        seen = []
        interp.observers.append(
            lambda cpu, info: seen.append(info.decoded.instruction.op))
        assert interp.run(10_000).reason == "halt"
        assert interp.compiled_block_count == 0
        assert len(seen) == interp.steps_executed

    def test_breakpoint_forces_slow_path(self):
        interp, loop = _countdown_machine()
        interp.breakpoints.add(loop)
        assert interp.run(10_000).reason == "breakpoint"
        assert interp.compiled_block_count == 0


class TestCompiledBlockInvalidation:
    def test_smc_write_drops_exactly_affected_blocks(self):
        interp, loop = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        entry = interp.compiled_block_at("x86like", 0x1000)
        body = interp.compiled_block_at("x86like", loop)
        assert entry is not None and body is not None
        # Basic blocks split at control flow, not labels: the entry
        # block runs straight through the loop body to the JCC, so it
        # *overlaps* the loop block and both cover the patched byte.
        assert entry.end > loop
        halt_block = interp.compiled_block_at("x86like", entry.end)
        assert halt_block is not None              # the HLT fallthrough
        severed_before = interp.block_stats.chain_severed

        # Patch one byte inside the loop body.
        interp.memory.write_bytes(loop, b"\x00")
        interp.invalidate_decode_cache(loop, loop + 1)

        # Exactly the blocks whose byte span covers the write die; the
        # HLT block (entirely past the write) survives untouched.
        assert not body.valid
        assert not entry.valid
        assert halt_block.valid
        assert interp.compiled_block_at("x86like", loop) is None
        assert interp.compiled_block_at("x86like", 0x1000) is None
        assert interp.compiled_block_at(
            "x86like", halt_block.start) is halt_block
        # every chain edge into a dead block is severed — including the
        # loop's own back edge — so it can never be dispatched again
        assert interp.block_stats.chain_severed > severed_before
        assert body.chain == {}
        assert entry.chain == {}

    def test_chained_successor_dropped_with_predecessor_links(self):
        interp, loop = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        entry = interp.compiled_block_at("x86like", 0x1000)
        body = interp.compiled_block_at("x86like", loop)
        # Invalidate the *entry* block: the loop block survives but must
        # not keep a dangling back-reference to the dead predecessor.
        interp.invalidate_decode_cache(0x1000, 0x1001)
        assert not entry.valid
        assert body.valid
        assert all(pred is not entry for pred, _ in body.in_links)

    def test_full_flush_drops_every_block(self):
        interp, _ = _countdown_machine()
        assert interp.run(10_000).reason == "halt"
        assert interp.compiled_block_count > 0
        flushes_before = interp.block_stats.flushes
        interp.invalidate_decode_cache()           # the chaos-flush call
        assert interp.compiled_block_count == 0
        assert interp.block_stats.flushes == flushes_before + 1

    def test_smc_replay_matches_interpreted_path(self):
        """After patch + invalidate, the compiled path and the per-step
        loop converge on the identical final state."""
        def patched_run(force_slow):
            interp, loop = _countdown_machine()
            if force_slow:
                interp.observers.append(lambda cpu, ins: None)
            assert interp.run(256).reason == "limit"
            patch = X86LIKE.encode(
                Instruction(Op.SUB, (Reg(0), Reg(1))), loop)
            interp.memory.write_bytes(loop, patch)
            interp.invalidate_decode_cache(loop, loop + len(patch))
            assert interp.run(10_000).reason == "halt"
            return interp.cpu.snapshot(), interp.steps_executed

        fast_state, fast_steps = patched_run(force_slow=False)
        slow_state, slow_steps = patched_run(force_slow=True)
        assert fast_state == slow_state
        assert fast_steps == slow_steps
        assert fast_state["regs"][0] != 20100      # the patch took effect

    def test_stale_block_never_reentered_through_chain(self):
        interp, loop = _countdown_machine()
        assert interp.run(256).reason == "limit"   # blocks + chains built
        body = interp.compiled_block_at("x86like", loop)
        assert body is not None
        # Replace ADD with SUB in place and invalidate: the continued run
        # must execute the *new* code even though the old block was the
        # chain target of both the entry block and itself.
        patch = X86LIKE.encode(Instruction(Op.SUB, (Reg(0), Reg(1))), loop)
        interp.memory.write_bytes(loop, patch)
        interp.invalidate_decode_cache(loop, loop + len(patch))
        assert interp.run(10_000).reason == "halt"
        fresh = interp.compiled_block_at("x86like", loop)
        assert fresh is not None and fresh is not body
        assert interp.cpu.get(0) != 20100

