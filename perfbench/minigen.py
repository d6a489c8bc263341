"""Seeded generator of mini-C programs that carry their own answer.

Every program is built as a small AST, rendered to mini-C text and
evaluated here with the compiler's integer semantics (see
:mod:`oracles`), so the expected exit code never comes from the
program under test.  The generator is kept in the benchmark, apart from
the program's own ``ProgramGenerator``, so that a later change to the
program cannot move both sides of the comparison at once.

The shape is fixed and only the constants, operators and expression
trees vary with the seed, which keeps the work per program nearly the
same for every seed.  Each program has the sites the known-answer
mutants need: ``combine`` starts with ``t = a + b`` (an ADD of two
registers on armlike) and ``main`` keeps its locals live across calls,
so its frame has home-slot stores.  The ADD's result reaches
``combine``'s return value through no other use of ``a`` or ``b`` that
could cancel it, so flipping the ADD always changes what it returns.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence

from oracles import cdiv, cmod, s32

#: loop trip count of every generated ``main``
ITERATIONS = 24
#: the function whose first ADD of two registers is ``t = a + b``
ADD_SITE = "combine"
#: functions with home-slot stores, in the order a frame-store mutant
#: tries them
FRAME_SITES = ("main", "mix", "step", "combine")

_ARITH = ("+", "-", "*", "^", "&", "|")
_CONDITIONS = ("<", "<=", ">", ">=", "==", "!=")


@dataclass
class GeneratedProgram:
    """One generated program and the exit code its C semantics give."""

    name: str
    source: str
    expected: int


def _binary(op: str, left: int, right: int) -> int:
    if op == "+":
        return s32(left + right)
    if op == "-":
        return s32(left - right)
    if op == "*":
        return s32(left * right)
    if op == "/":
        return cdiv(left, right)
    if op == "%":
        return cmod(left, right)
    if op == "^":
        return s32(left ^ right)
    if op == "&":
        return s32(left & right)
    if op == "|":
        return s32(left | right)
    if op == "<<":
        return s32(left << (right & 31))
    if op == ">>":
        return s32(left) >> (right & 31)
    if op == "<":
        return int(left < right)
    if op == "<=":
        return int(left <= right)
    if op == ">":
        return int(left > right)
    if op == ">=":
        return int(left >= right)
    if op == "==":
        return int(left == right)
    if op == "!=":
        return int(left != right)
    raise ValueError(op)


def _literal(value: int) -> str:
    return str(value) if value >= 0 else f"(0 - {-value})"


class _Expr:
    """A random expression tree over named int variables."""

    def __init__(self, rng: random.Random, names: Sequence[str],
                 depth: int):
        if depth == 0 or rng.random() < 0.2:
            if rng.random() < 0.6:
                self.kind, self.value = "var", rng.choice(list(names))
            else:
                self.kind, self.value = "num", rng.randint(-60, 60)
            return
        self.kind = "bin"
        roll = rng.random()
        if roll < 0.12:
            # divisor and shift count are constants, so no input can fault
            self.op = rng.choice(("/", "%"))
            self.left = _Expr(rng, names, depth - 1)
            self.right = _Const(rng.choice((-7, -3, 2, 3, 5, 9, 13)))
        elif roll < 0.22:
            self.op = rng.choice(("<<", ">>"))
            self.left = _Expr(rng, names, depth - 1)
            self.right = _Const(rng.randint(0, 6))
        else:
            self.op = rng.choice(_ARITH)
            self.left = _Expr(rng, names, depth - 1)
            self.right = _Expr(rng, names, depth - 1)

    def render(self) -> str:
        if self.kind == "var":
            return self.value
        if self.kind == "num":
            return _literal(self.value)
        return f"({self.left.render()} {self.op} {self.right.render()})"

    def evaluate(self, env: Dict[str, int]) -> int:
        if self.kind == "var":
            return env[self.value]
        if self.kind == "num":
            return self.value
        return _binary(self.op, self.left.evaluate(env),
                       self.right.evaluate(env))


class _Const(_Expr):
    def __init__(self, value: int):
        self.kind, self.value = "num", value


class _Arm(_Expr):
    """``(tree) op k`` with ``k != 0``: never a bare self-assignment."""

    def __init__(self, rng: random.Random, names: Sequence[str]):
        self.kind = "bin"
        self.op = rng.choice(("+", "-", "^", "|"))
        self.left = _Expr(rng, names, 2)
        self.right = _Const(rng.randint(1, 60))


def generate(seed: int, index: int) -> GeneratedProgram:
    """Program ``index`` of the corpus drawn from ``seed``."""
    rng = random.Random(f"minigen:{seed}:{index}")
    combine_k = rng.choice((3, 5, 7, 11, 13))
    combine_t = _Expr(rng, ("a", "b"), 3)
    combine_ret = _Expr(rng, ("a", "b"), 2)
    mix_u = _Expr(rng, ("x", "y"), 3)
    mix_v = _Expr(rng, ("x", "y", "u"), 3)
    mix_cond = rng.choice(_CONDITIONS)
    # each arm ends in an operation with a non-zero constant so neither
    # can compile to an empty block (see CHANGES.md on HIP103)
    mix_then = _Arm(rng, ("u", "v"))
    mix_else = _Arm(rng, ("u", "v", "x"))
    step = _Expr(rng, ("acc", "b", "i"), 2)
    a0, b0 = rng.randint(-500, 500), rng.randint(-500, 500)
    slot = rng.randint(0, 7)
    modulus = rng.choice((997, 10007, 65521, 1000003))

    source = f"""
int g[8];

int combine(int a, int b) {{
    int t;
    t = a + b;
    t = (t * {combine_k}) ^ {combine_t.render()};
    return t + {combine_ret.render()};
}}

int mix(int x, int y) {{
    int u; int v;
    u = {mix_u.render()};
    v = {mix_v.render()};
    if (u {mix_cond} v) {{ u = {mix_then.render()}; }}
    else {{ v = {mix_else.render()}; }}
    g[(u ^ v) & 7] = v;
    return u ^ v;
}}

int step(int acc, int b, int i) {{
    return {step.render()};
}}

int main() {{
    int a; int b; int i; int acc;
    a = {_literal(a0)}; b = {_literal(b0)};
    acc = 0; i = 0;
    while (i < {ITERATIONS}) {{
        acc = acc + combine(a, i);
        b = mix(b, acc);
        acc = step(acc, b, i);
        a = a + 1;
        i = i + 1;
    }}
    acc = acc + g[{slot}];
    return acc % {modulus};
}}
"""

    g = [0] * 8

    def combine(a: int, b: int) -> int:
        env = {"a": a, "b": b, "t": s32(a + b)}
        env["t"] = s32(s32(env["t"] * combine_k) ^ combine_t.evaluate(env))
        return s32(env["t"] + combine_ret.evaluate(env))

    def mix(x: int, y: int) -> int:
        env = {"x": x, "y": y}
        env["u"] = mix_u.evaluate(env)
        env["v"] = mix_v.evaluate(env)
        if _binary(mix_cond, env["u"], env["v"]):
            env["u"] = mix_then.evaluate(env)
        else:
            env["v"] = mix_else.evaluate(env)
        g[s32(env["u"] ^ env["v"]) & 7] = env["v"]
        return s32(env["u"] ^ env["v"])

    a, b, acc = a0, b0, 0
    for i in range(ITERATIONS):
        acc = s32(acc + combine(a, i))
        b = mix(b, acc)
        acc = step.evaluate({"acc": acc, "b": b, "i": i})
        a = s32(a + 1)
    acc = s32(acc + g[slot])
    return GeneratedProgram(f"gen{seed}-{index}", source,
                            cmod(acc, modulus))


def corpus(seed: int, count: int) -> List[GeneratedProgram]:
    return [generate(seed, index) for index in range(count)]


