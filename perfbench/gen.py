"""Seeded input generators for the three benchmark workloads.

Every input is surface text built here, with its own small printer, so that
neither an edit to the test suite's generators nor a change to pcert's
printer can silently change a workload. Each input records the exit code
that is known from how it was built.

An input is identified by (workload, seed, command, index) and drawn from a
random stream seeded with exactly that tuple, so the n-th input of a command
is the same however many inputs a run asks for, and no two commands share an
input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

EXIT_OK, EXIT_TYPE_ERROR, EXIT_FUEL, EXIT_PROTECTED = 0, 1, 3, 4

COMMANDS = ("check", "translate", "roundtrip", "export")


@dataclass(frozen=True)
class Input:
    """One generated file and the verdict pcert must give on it."""

    stem: str
    text: str
    decls: int
    expect: int
    kind: str | None = None  # diagnostic kind the failure must report
    extra_args: tuple[str, ...] = ()


def _stream(workload: str, seed: int, command: str, index: int) -> random.Random:
    return random.Random(f"{workload}/{seed}/{command}/{index}")


# --- a minimal printer -------------------------------------------------------
# A term is (text, level): 0 atom, 1 application, 2 binder or arrow.


def atom(name: str) -> tuple[str, int]:
    return name, 0


def paren(t: tuple[str, int], max_level: int) -> str:
    return f"({t[0]})" if t[1] > max_level else t[0]


def app(f: tuple[str, int], *args: tuple[str, int]) -> tuple[str, int]:
    text = paren(f, 1)
    for a in args:
        text += " " + paren(a, 0)
    return text, 1


def sym(name: str, *args: tuple[str, int]) -> tuple[str, int]:
    return f"{name}({', '.join(a[0] for a in args)})", 0


def lam(x: str, dom: tuple[str, int], body: tuple[str, int]) -> tuple[str, int]:
    return f"\\{x}: {dom[0]}. {body[0]}", 2


def forall(x: str, dom: tuple[str, int], body: tuple[str, int]) -> tuple[str, int]:
    return f"!{x}: {dom[0]}. {body[0]}", 2


# --- termgen_dev: the TermGen grammar over the 13-symbol base context ---------

BASE_SURFACE = """#MODE pcert
symbol iota : Type;
symbol P : iota -> Prop;
symbol Q : Prop;
symbol a : iota;
symbol b : iota;
symbol f : iota -> iota;
symbol g : iota -> iota -> iota;
symbol ha : P a;
symbol ha' : P a;
symbol hb : P b;
symbol hq : Q;
symbol hq' : Q;
symbol qimp : Q -> P b;
"""
BASE_DECLS = 13

IOTA = atom("iota")
PSUB_P = sym("psub", IOTA, atom("P"))
QT = atom("Q")
P_A = app(atom("P"), atom("a"))
P_B = app(atom("P"), atom("b"))
PROP = atom("Prop")
ARR_II = ("iota -> iota", 2)

# goal types are compared by their printed text
BASE_CTX = (
    ("a", "iota"),
    ("b", "iota"),
    ("f", ARR_II[0]),
    ("g", "iota -> iota -> iota"),
    ("ha", P_A[0]),
    ("ha'", P_A[0]),
    ("hb", P_B[0]),
    ("hq", "Q"),
    ("hq'", "Q"),
    ("qimp", "Q -> P b"),
)

GOAL_POOL = [IOTA, IOTA, IOTA, PSUB_P, PSUB_P, QT, P_A, PROP, PROP, ARR_II]

# printed length of a definition body; this keeps the middle ~60% of draws
SIZE_BAND = (20, 300)


class TermGen:
    """Goal-directed generator of well-typed terms, bottom-up against the base
    context; a copy of the test suite's grammar with its own printer."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.fresh = 0

    def name(self, hint: str) -> str:
        self.fresh += 1
        return f"{hint}{self.fresh}"

    def some_term(self, depth: int = 6) -> tuple[str, int]:
        return self.term_of(self.rng.choice(GOAL_POOL), depth, BASE_CTX)

    def sized_term(self, depth: int = 6) -> str:
        """A term of printed length within SIZE_BAND, redrawing the others:
        a quarter of all draws are single symbols and a few are very large,
        and either tail makes the cost of a run depend on the seed."""
        while True:
            text = self.some_term(depth)[0]
            if SIZE_BAND[0] <= len(text) <= SIZE_BAND[1]:
                return text

    @staticmethod
    def vars_of(ctx: tuple[tuple[str, str], ...], goal: tuple[str, int]) -> list[tuple[str, int]]:
        return [atom(n) for n, ty in ctx if ty == goal[0]]

    def term_of(self, goal, depth: int, ctx) -> tuple[str, int]:
        rng = self.rng
        if depth <= 0:
            return self._leaf(goal, ctx)
        roll = rng.random()
        if goal == IOTA:
            if roll < 0.25:
                return self._leaf(goal, ctx)
            if roll < 0.45:
                return app(atom("f"), self.term_of(IOTA, depth - 1, ctx))
            if roll < 0.6:
                return app(atom("g"), self.term_of(IOTA, depth - 1, ctx), self.term_of(IOTA, depth - 1, ctx))
            if roll < 0.8:
                return sym("fst", IOTA, atom("P"), self.term_of(PSUB_P, depth - 1, ctx))
            return self._redex(goal, depth, ctx)
        if goal == PSUB_P:
            if roll < 0.45:
                return sym("pair", IOTA, atom("P"), atom("a"), self.term_of(P_A, depth - 1, ctx))
            if roll < 0.7:
                return sym("pair", IOTA, atom("P"), atom("b"), self.term_of(P_B, depth - 1, ctx))
            if roll < 0.85 and self.vars_of(ctx, goal):
                return rng.choice(self.vars_of(ctx, goal))
            return self._redex(goal, depth, ctx)
        if goal == QT:
            if roll < 0.6:
                return self._leaf(goal, ctx)
            return self._redex(goal, depth, ctx)
        if goal == P_A:
            if roll < 0.4:
                return self._leaf(goal, ctx)
            if roll < 0.7:
                inner = sym("pair", IOTA, atom("P"), atom("a"), self.term_of(P_A, depth - 1, ctx))
                return sym("snd", IOTA, atom("P"), inner)
            return self._redex(goal, depth, ctx)
        if goal == P_B:
            if roll < 0.4:
                return atom("hb")
            if roll < 0.7:
                return app(atom("qimp"), self.term_of(QT, depth - 1, ctx))
            return self._redex(goal, depth, ctx)
        if goal == PROP:
            if roll < 0.2:
                return QT
            if roll < 0.45:
                return app(atom("P"), self.term_of(IOTA, depth - 1, ctx))
            if roll < 0.65:
                x = self.name("x")
                return forall(x, IOTA, self.term_of(PROP, depth - 1, ctx + ((x, IOTA[0]),)))
            if roll < 0.8:
                h = self.name("h")
                left = self.term_of(PROP, depth - 1, ctx)
                return forall(h, left, self.term_of(PROP, depth - 1, ctx + ((h, left[0]),)))
            return self._redex(goal, depth, ctx)
        if goal == ARR_II:
            if roll < 0.3:
                return atom("f")
            if roll < 0.5:
                return app(atom("g"), self.term_of(IOTA, depth - 1, ctx))
            x = self.name("x")
            return lam(x, IOTA, self.term_of(IOTA, depth - 1, ctx + ((x, IOTA[0]),)))
        return self._leaf(goal, ctx)

    def _leaf(self, goal, ctx) -> tuple[str, int]:
        options = self.vars_of(ctx, goal)
        if goal == PROP:
            options = [QT, P_A, P_B]
        if goal == PSUB_P:
            options = options or [sym("pair", IOTA, atom("P"), atom("a"), atom("ha"))]
        if goal == ARR_II:
            options = options or [atom("f")]
        return self.rng.choice(options)

    def _redex(self, goal, depth: int, ctx) -> tuple[str, int]:
        """A beta redex of the requested type: (\\x: D. body) arg."""
        domains = (IOTA, PSUB_P, QT) if goal in (QT, P_A, P_B) else (IOTA, PSUB_P)
        dom = self.rng.choice(domains)
        x = self.name("x")
        body = self.term_of(goal, depth - 1, ctx + ((x, dom[0]),))
        arg = self.term_of(dom, depth - 1, ctx)
        return app(lam(x, dom, body), arg)


LF_BASE = """#MODE lf
symbol iota : Type;
symbol P : El iota -> Prop;
symbol a : El iota;
symbol b : El iota;
symbol f : El iota -> El iota;
symbol ha : Prf (P a);
symbol hb : Prf (P b);
"""
LF_BASE_DECLS = 7


def termgen_dev(seed: int, command: str, index: int, scale: float = 1.0) -> Input:
    """Twenty TermGen definitions of depth 6, within SIZE_BAND, after the base
    context. One file in eight ends in an ill-typed definition (exit 1); for
    check and export, which accept lf input, one file in sixteen is an lf
    development that mentions the protected pair' (exit 4)."""
    rng = _stream("termgen_dev", seed, command, index)
    gen = TermGen(rng)
    stem = f"termgen_dev-{command}-{index}"
    if command in ("check", "export") and index % 16 == 11:
        lines = []
        for i in range(rng.randint(3, 6)):
            m, h = rng.choice((("a", "ha"), ("b", "hb")))
            lines.append(f"definition c{i} := pair(iota, P, {m}, {h});")
            lines.append(f"assert c{i} : El (psub(iota, P));")
            lines.append(f"convertible fst(iota, P, c{i}), {m};")
        lines.append(f"definition forged := pair'(iota, P, {rng.choice(('a', 'b', 'f a'))});")
        return Input(stem + ".lf", LF_BASE + "\n".join(lines) + "\n", LF_BASE_DECLS + len(lines), EXIT_PROTECTED, "ProtectedSymbol")
    count = max(1, round(20 * scale))
    lines = [f"definition d{i} := {gen.sized_term()};" for i in range(count)]
    expect, kind = EXIT_OK, None
    if index % 8 == 7:
        proof = gen.term_of(P_A, 3, BASE_CTX)
        if rng.random() < 0.5:
            bad = sym("pair", IOTA, atom("P"), atom("b"), proof)
        else:
            bad = app(atom("f"), proof)
        lines.append(f"definition bad := {bad[0]};")
        expect, kind = EXIT_TYPE_ERROR, "DomainMismatch"
    return Input(stem + ".pcert", BASE_SURFACE + "\n".join(lines) + "\n", BASE_DECLS + len(lines), expect, kind)


# --- wide_context: long flat signatures ---------------------------------------

BASE_TYPES = 20


def wide_context(seed: int, command: str, index: int, scale: float = 1.0) -> Input:
    """1000-1040 symbol declarations over 20 base types: constants, functions,
    predicates and certificates that refer to names at random distances back,
    plus a definition and assertions on far-back names every hundred symbols.
    The second file of every eight ends in an unbound or a duplicate name
    (exit 1), so that even a short run meets one."""
    rng = _stream("wide_context", seed, command, index)
    target = max(BASE_TYPES * 3, round(rng.randint(1000, 1040) * scale))
    lines = [f"symbol T{i} : Type;" for i in range(BASE_TYPES)]
    consts: list[list[str]] = [[] for _ in range(BASE_TYPES)]
    preds: list[list[str]] = [[] for _ in range(BASE_TYPES)]
    funcs: list[list[tuple[str, int]]] = [[] for _ in range(BASE_TYPES)]  # by codomain
    certs: list[tuple[str, str]] = []  # (name, its type)
    for i in range(BASE_TYPES):
        lines.append(f"symbol c{i} : T{i};")
        consts[i].append(f"c{i}")
    symbols = 2 * BASE_TYPES
    n = BASE_TYPES
    defs = 0

    def term_at(t: int, far: bool = False) -> str:
        pool = consts[t]
        c = pool[rng.randrange(max(1, len(pool) // 10))] if far else rng.choice(pool)
        if funcs[t] and rng.random() < 0.4:
            fname, dom = rng.choice(funcs[t])
            return f"{fname} {rng.choice(consts[dom])}"
        return c

    while symbols < target:
        n += 1
        kind = rng.random()
        t = rng.randrange(BASE_TYPES)
        if kind < 0.3:
            lines.append(f"symbol c{n} : T{t};")
            consts[t].append(f"c{n}")
        elif kind < 0.5:
            u = rng.randrange(BASE_TYPES)
            lines.append(f"symbol fn{n} : T{t} -> T{u};")
            funcs[u].append((f"fn{n}", t))
        elif kind < 0.7:
            lines.append(f"symbol p{n} : T{t} -> Prop;")
            preds[t].append(f"p{n}")
        elif preds[t]:
            ty = f"{rng.choice(preds[t])} ({term_at(t)})"
            lines.append(f"symbol h{n} : {ty};")
            certs.append((f"h{n}", ty))
        else:
            lines.append(f"symbol s{n} : T{t} -> T{t} -> T{t};")
            funcs[t].append((f"s{n} c{t}", t))
        symbols += 1
        if symbols % 100 == 0 and certs:
            defs += 1
            u = rng.randrange(BASE_TYPES)
            far_term = term_at(u, far=True)
            lines.append(f"definition d{defs} := {far_term};")
            lines.append(f"assert d{defs} : T{u};")
            lines.append(f"convertible d{defs}, {far_term};")
            name, ty = certs[rng.randrange(max(1, len(certs) // 10))]
            lines.append(f"assert {name} : {ty};")
    expect, kind = EXIT_OK, None
    if index % 8 == 1:
        if rng.random() < 0.5:
            lines.append(f"symbol late : U{rng.randrange(BASE_TYPES)};")
            kind = "UnboundVariable"
        else:
            lines.append(f"symbol c{rng.randrange(BASE_TYPES)} : T{rng.randrange(BASE_TYPES)};")
            kind = "DuplicateName"
        expect = EXIT_TYPE_ERROR
    stem = f"wide_context-{command}-{index}.pcert"
    return Input(stem, "#MODE pcert\n" + "\n".join(lines) + "\n", len(lines), expect, kind)


# --- shared_defs: definition chains that share through beta -------------------

SHARED_BASE = """#MODE pcert
symbol iota : Type;
symbol P : iota -> Prop;
symbol Q : Prop;
symbol a : iota;
symbol b : iota;
symbol g : iota -> iota -> iota;
symbol k : iota -> iota -> iota;
symbol hP : !x: iota. P x;
symbol hP' : !x: iota. P x;
symbol hq : Q;
symbol hq' : Q;
definition Qp := \\x: iota. Q;
"""
SHARED_BASE_DECLS = 12


def shared_defs(seed: int, command: str, index: int, scale: float = 1.0) -> Input:
    """A chain u(i+1) := (\\x. G x x) u(i), whose normal form doubles per link,
    and a twin v(i+1) that reaches the same normal form through projections
    of pairs with differing certificates; each link asserts the two chains
    convertible. The twin's pairs use the constant predicate Qp, whose
    certificates do not mention the element, so beta-normal forms (which the
    round trip compares) double per link as well instead of growing faster.
    One file in eight ends in an assertion whose sides differ only at the
    leaves (exit 1, found after full normalization); one in eight runs under a
    fuel budget that link links-2 exceeds (exit 3)."""
    rng = _stream("shared_defs", seed, command, index)
    links = max(2, round(8 * scale))
    start = rng.choice(("a", "b"))
    lines = [f"definition u0 := {start};", f"definition v0 := fst(iota, Qp, pair(iota, Qp, {start}, hq));"]
    heads = []
    for i in range(links):
        G = rng.choice(("g", "k"))
        H = rng.choice(("hq", "hq'"))
        heads.append(G)
        lines.append(f"definition u{i + 1} := (\\x: iota. {G} x x) u{i};")
        twin = rng.randrange(3)
        if twin == 0:
            body = f"fst(iota, Qp, pair(iota, Qp, {G} y y, {H}))"
        elif twin == 1:
            body = f"{G} (fst(iota, Qp, pair(iota, Qp, y, {H}))) y"
        else:
            body = f"{G} y (fst(iota, Qp, pair(iota, Qp, y, {H})))"
        lines.append(f"definition v{i + 1} := (\\y: iota. {body}) v{i};")
        lines.append(f"convertible u{i + 1}, v{i + 1};")
    last = f"u{links}"
    lines.append(f"convertible pair(iota, P, {last}, hP {last}), pair(iota, P, v{links}, hP' v{links});")
    expect, kind, extra = EXIT_OK, None, ()
    if index % 8 == 3:
        # the u side of link i alone takes 2**i - 1 beta steps
        expect, kind, extra = EXIT_FUEL, "FuelExhausted", ("--fuel", str(2 ** max(0, links - 3)))
    elif index % 8 == 7:
        other = "b" if start == "a" else "a"
        lines.append(f"definition w0 := {other};")
        for i, G in enumerate(heads):
            lines.append(f"definition w{i + 1} := (\\x: iota. {G} x x) w{i};")
        lines.append(f"convertible {last}, w{links};")
        expect, kind = EXIT_TYPE_ERROR, "NotConvertible"
    stem = f"shared_defs-{command}-{index}.pcert"
    return Input(stem, SHARED_BASE + "\n".join(lines) + "\n", SHARED_BASE_DECLS + len(lines), expect, kind, extra)


WORKLOADS = {"termgen_dev": termgen_dev, "wide_context": wide_context, "shared_defs": shared_defs}
