"""Python renderings of the nine workload kernels, with mini-C semantics.

Each ``<name>(work, stdin)`` re-computes what ``main`` of
``repro/workloads/programs/<name>_mini.py`` returns, written from the C
source and not from the program's own interpreter, so an exit code the
program reports can be checked against an answer made apart from it.

The semantics the renderings follow are the mini-C compiler's:

* ``int`` is 32-bit two's complement; every stored value wraps;
* ``/`` and ``%`` truncate toward zero (``-7 / 2 == -3``,
  ``-7 % 2 == -1``);
* ``>>`` is arithmetic, shift counts are taken modulo 32;
* ``char`` cells store the low byte and load it zero-extended;
* ``&&`` and ``||`` evaluate both sides (no short circuit), which only
  matters here for which array cells get read;
* ``main``'s return value is the exit code as a signed 32-bit number,
  so gobmk's negative totals are genuine returns (``-11``), not signals.
"""

from __future__ import annotations

from typing import Callable, Dict, List

MASK = 0xFFFFFFFF


def s32(value: int) -> int:
    """Wrap to a signed 32-bit value."""
    value &= MASK
    return value - (1 << 32) if value & 0x80000000 else value


def cdiv(a: int, b: int) -> int:
    """C division: truncates toward zero."""
    if b == 0:
        raise ZeroDivisionError("integer division by zero")
    quotient = abs(a) // abs(b)
    return s32(-quotient if (a < 0) != (b < 0) else quotient)


def cmod(a: int, b: int) -> int:
    """C remainder: takes the sign of the dividend."""
    return s32(a - cdiv(a, b) * b)


class _LCG:
    """The ``seed = (seed * 1103515245 + 12345) & 0x7FFFFFFF`` generator
    every kernel that needs randomness carries; ``shift`` and ``mod``
    give each kernel's ``next_rand`` its own output mapping."""

    def __init__(self, seed: int, shift: int, mod: int = 0):
        self.seed = seed
        self.shift = shift
        self.mod = mod

    def __call__(self) -> int:
        self.seed = (self.seed * 1103515245 + 12345) & 0x7FFFFFFF
        value = self.seed >> self.shift
        return cmod(value, self.mod) if self.mod else value


def bzip2(work: int, stdin: bytes = b"") -> int:
    rand = _LCG(12345, 8, 17)
    block = [0] * 256
    encoded = [0] * 512
    mtf = [0] * 256
    for i in range(64):
        mtf[i] = i
    checksum = 0
    for _ in range(work):
        for i in range(200):
            block[i] = rand() & 0xFF
        # rle_encode(200); the run test reads block[i + run] even when
        # i + run == n, as the non-short-circuit && does
        i = out = 0
        while i < 200:
            value = block[i]
            run = 1
            while (i + run < 200) & (block[i + run] == value) & (run < 255):
                run += 1
            encoded[out] = value & 0xFF
            encoded[out + 1] = run & 0xFF
            out += 2
            i += run
        length = out
        # mtf_encode(length)
        total = 0
        for i in range(length):
            value = encoded[i]
            pos = 0
            while (mtf[pos] != value) & (pos < 63):
                pos += 1
            for j in range(pos, 0, -1):
                mtf[j] = mtf[j - 1]
            mtf[0] = value & 0xFF
            total = s32(total + pos)
        checksum = s32(checksum + total)
        # histogram(length)
        freq = [0] * 64
        for i in range(length):
            freq[cmod(encoded[i], 64)] += 1
        checksum = s32(checksum + sum(freq[i] * i for i in range(64)))
    return cmod(checksum, 100000)


def gobmk(work: int, stdin: bytes = b"") -> int:
    rand = _LCG(777, 16)
    board = [0] * 81

    def territory(pos: int) -> int:
        score, i = 0, cmod(pos, 9)
        while i < 81:
            score = s32(score + board[i] * (9 - cmod(i, 9)))
            i += 9
        return score

    def influence(pos: int) -> int:
        return s32(sum(board[cmod(pos + i * 7, 81)] * (i + 1)
                       for i in range(9)))

    def capture(pos: int) -> int:
        p = cmod(pos, 81)
        neighbors = 0
        if p > 8:
            neighbors += board[p - 9]
        if p < 72:
            neighbors += board[p + 9]
        if cmod(p, 9) > 0:
            neighbors += board[p - 1]
        if cmod(p, 9) < 8:
            neighbors += board[p + 1]
        return s32(neighbors * 3)

    evaluators = (territory, influence, capture)

    def search(depth: int, pos: int, color: int) -> int:
        if depth == 0:
            return evaluators[min(cmod(pos, 3), 2)](pos)
        best = -1000000
        for move in range(4):
            child = cmod(pos * 5 + move * 17 + depth, 81)
            board[child] = color
            score = s32(-search(depth - 1, child, -color))
            board[child] = 0
            if score > best:
                best = score
        return best

    for i in range(81):
        board[i] = cmod(rand(), 3) - 1
    total = 0
    for round_ in range(work):
        total = s32(total + search(4, cmod(round_ * 13, 81), 1))
    return cmod(total, 100000)


def hmmer(work: int, stdin: bytes = b"") -> int:
    rand = _LCG(424242, 12, 16)
    states = 24
    match, insert, delete = [0] * 32, [0] * 32, [0] * 32
    prev_match, prev_insert, prev_delete = [0] * 32, [0] * 32, [0] * 32
    emissions = [rand() - 6 for _ in range(64)]

    def viterbi_row(symbol: int) -> int:
        best_here = -1000000
        for j in range(1, states):
            em = emissions[cmod(symbol * 4 + j, 64)]
            match[j] = s32(max(prev_match[j - 1], prev_insert[j - 1],
                               prev_delete[j - 1]) + em)
            insert[j] = max(prev_match[j] - 3, prev_insert[j] - 1)
            delete[j] = max(match[j - 1] - 4, delete[j - 1] - 1)
            if match[j] > best_here:
                best_here = match[j]
        prev_match[:states] = match[:states]
        prev_insert[:states] = insert[:states]
        prev_delete[:states] = delete[:states]
        return best_here

    best = 0
    for _ in range(work):
        for i in range(states):
            prev_match[i], prev_insert[i], prev_delete[i] = 0, -10, -10
        for _row in range(40):
            best = s32(best + viterbi_row(rand()))
    return cmod(best, 100000)


def httpd(work: int, stdin: bytes = b"") -> int:
    pending = bytearray(stdin)
    reqbuf = bytearray(128)
    total = 0
    for _ in range(work):
        chunk = bytes(pending[:127])
        del pending[:127]
        reqbuf[:len(chunk)] = chunk
        reqbuf[len(chunk)] = 0
        length = len(chunk)
        if length <= 0:
            break
        is_get = length >= 3 and reqbuf[:3] == b"GET"
        if b" " not in reqbuf[:length]:
            # the path byte would be read past the request buffer
            raise ValueError("httpd rendering needs a space in each request")
        path = reqbuf.index(b" ", 0, length) + 1
        status = 200 if is_get and reqbuf[path] == ord("/") else 404
        total = s32(total + status)
    return cmod(total, 100000)


def lbm(work: int, stdin: bytes = b"") -> int:
    width = height = 20
    grid = [cmod(i * 7 + 3, 97) for i in range(width * height)]
    nxt = [0] * (width * height)
    checksum = 0
    for _ in range(work):
        for y in range(1, height - 1):
            for x in range(1, width - 1):
                idx = y * width + x
                acc = (grid[idx] * 4 + grid[idx - 1] + grid[idx + 1]
                       + grid[idx - width] + grid[idx + width])
                nxt[idx] = cdiv(s32(acc), 8)
        for y in range(1, height - 1):
            for x in range(1, width - 1):
                grid[y * width + x] = nxt[y * width + x]
        checksum = s32(checksum + grid[(height // 2) * width + width // 2])
    return cmod(checksum, 100000)


def libquantum(work: int, stdin: bytes = b"") -> int:
    n = 200
    states = list(range(n))
    for _ in range(work):
        for bit in range(7):
            mask = 1 << bit
            for i in range(n):
                states[i] ^= mask
            cmask, tmask = 1 << bit, 1 << cmod(bit + 1, 8)
            for i in range(n):
                if states[i] & cmask:
                    states[i] ^= tmask
            m1, m2 = 1 << bit, 1 << cmod(bit + 2, 8)
            tmask = 1 << cmod(bit + 4, 8)
            for i in range(n):
                if states[i] & m1 and states[i] & m2:
                    states[i] ^= tmask
    result = 0
    for i in range(n):
        result = s32(result ^ s32(states[i] * (i + 1)))
    if result < 0:
        result = s32(-result)
    return cmod(result, 100000)


def mcf(work: int, stdin: bytes = b"") -> int:
    rand = _LCG(31337, 7)
    nodes, arcs = 100, 240
    node_next, potential = [0] * 128, [0] * 128
    arc_from, arc_to, arc_cost = [0] * 256, [0] * 256, [0] * 256
    for i in range(nodes):
        node_next[i] = cmod(rand(), nodes)
        potential[i] = cmod(rand(), 1000)
    for i in range(arcs):
        arc_from[i] = cmod(rand(), nodes)
        arc_to[i] = cmod(rand(), nodes)
        arc_cost[i] = cmod(rand(), 200) - 100
    total = 0
    for round_ in range(work):
        node, chased = cmod(round_ * 11, nodes), 0
        for _ in range(300):
            chased = s32(chased + potential[node])
            node = node_next[node]
        negative = 0
        for i in range(arcs):
            reduced = s32(arc_cost[i] + potential[arc_from[i]]
                          - potential[arc_to[i]])
            if reduced < 0:
                negative += 1
                potential[arc_to[i]] = s32(potential[arc_to[i]]
                                           + cdiv(reduced, 2))
        total = s32(total + chased)
        total = s32(total + negative)
    if total < 0:
        total = s32(-total)
    return cmod(total, 100000)


def milc(work: int, stdin: bytes = b"") -> int:
    sites = 72
    lattice = [cmod(i * 13 + 7, 23) - 11 for i in range(sites * 9)]
    link = [cmod(i * 5 + 1, 7) - 3 for i in range(9)]
    total = 0
    for _ in range(work):
        trace_sum = 0
        for site in range(sites):
            base = site * 9
            result = [s32(sum(lattice[base + row * 3 + k] * link[k * 3 + col]
                              for k in range(3)))
                      for row in range(3) for col in range(3)]
            trace_sum = s32(trace_sum + result[0] + result[4] + result[8])
        total = s32(total + trace_sum)
    if total < 0:
        total = s32(-total)
    return cmod(total, 100000)


def sphinx3(work: int, stdin: bytes = b"") -> int:
    rand = _LCG(90210, 10, 32)
    components, dims = 16, 12
    means, variances = [0] * 256, [0] * 256
    for i in range(components * dims):
        means[i] = rand() - 16
        variances[i] = cmod(rand(), 7) + 1
    features = [0] * 16
    total = 0
    for _ in range(work):
        for d in range(dims):
            features[d] = rand() - 16
        scores: List[int] = []
        for c in range(components):
            score = 0
            for d in range(dims):
                diff = features[d] - means[c * dims + d]
                score = s32(score + cdiv(s32(diff * diff),
                                         variances[c * dims + d]))
            scores.append(s32(-score))
        best = max([-1000000] + scores)
        normalized = s32(sum(score - best for score in scores))
        total = s32(total + best - cdiv(normalized, 8))
    if total < 0:
        total = s32(-total)
    return cmod(total, 100000)


#: workload name -> rendering(work, stdin) -> expected exit code
KERNELS: Dict[str, Callable[[int, bytes], int]] = {
    "bzip2": bzip2, "gobmk": gobmk, "hmmer": hmmer, "httpd": httpd,
    "lbm": lbm, "libquantum": libquantum, "mcf": mcf, "milc": milc,
    "sphinx3": sphinx3,
}
