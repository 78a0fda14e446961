"""Reference answers for the bundled corpus, derived without the analyzer.

Two kinds of reference, neither produced by the code under test:

* the hand-written closed forms documented in
  ``src/repro/workloads/c/README.md`` (dgemm_kernel ``2n^3+n^2``, stream
  ``main`` ``46N+120``, the Section III lattice counts, fig5's 3200 at
  ``y=99``, miniFE's ``waxpby``/``dot_prod``), and
* a small text scanner over the C sources that finds function bodies,
  the literals inside them and the call graph, so the benchmark can make
  one-token edits and predict exactly which functions an incremental
  re-analysis must redo.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

# -- masking: comments, strings and preprocessor lines become blanks

_MASK = re.compile(
    r"/\*.*?\*/|//[^\n]*|\"(?:\\.|[^\"\\\n])*\"|'(?:\\.|[^'\\\n])*'"
    r"|^[ \t]*#[^\n]*", re.S | re.M)


def mask(source: str) -> str:
    """``source`` with comments, string/char literals and preprocessor
    lines blanked out; offsets and line breaks are preserved."""
    return _MASK.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), source)


_FUNC_HEAD = re.compile(
    r"(operator\s*\(\s*\)|[A-Za-z_]\w*)\s*\(([^()]*)\)\s*(?:const\s*)?$")
_CLASS_HEAD = re.compile(r"\b(?:class|struct)\s+([A-Za-z_]\w*)\s*$")
_KEYWORDS = {"if", "for", "while", "switch", "return", "sizeof", "do",
             "else"}
_LITERAL = re.compile(
    r"(?<![\w.])(\d+(?:\.\d*)?|\.\d+)([eE][+-]?\d+)?([A-Za-z_]\w*)?")


@dataclass
class Function:
    qname: str
    cls: str | None          # enclosing class, None for free functions
    body: tuple              # (start, end) offsets of "{ ... }"
    callees: set = field(default_factory=set)


@dataclass
class Program:
    """The scanned structure of one C source."""

    functions: dict          # qname -> Function, in source order
    classes: set

    def callers(self) -> dict:
        out: dict = {q: set() for q in self.functions}
        for q, fn in self.functions.items():
            for c in fn.callees:
                out[c].add(q)
        return out

    def expected_fresh(self, qname: str) -> set:
        """Functions an incremental re-analysis must redo after an edit
        inside ``qname``'s body: the function and its transitive callers.
        A member function's body is part of its class definition, which
        every function's identity folds in, so editing it redoes all."""
        if self.functions[qname].cls is not None:
            return set(self.functions)
        callers = self.callers()
        todo, seen = [qname], {qname}
        while todo:
            for c in callers[todo.pop()]:
                if c not in seen:
                    seen.add(c)
                    todo.append(c)
        return seen


def _match_brace(text: str, i: int) -> int:
    """Offset of the ``}`` closing the ``{`` at ``i``."""
    depth = 0
    for j in range(i, len(text)):
        if text[j] == "{":
            depth += 1
        elif text[j] == "}":
            depth -= 1
            if depth == 0:
                return j
    raise ValueError("unbalanced braces")


def _scan_scope(text: str, start: int, end: int, cls, functions, classes):
    head_start = start
    i = start
    while i < end:
        ch = text[i]
        if ch in ";}":
            head_start = i + 1
        elif ch == "{":
            close = _match_brace(text, i)
            head = text[head_start:i]
            m_cls = _CLASS_HEAD.search(head)
            m_fn = _FUNC_HEAD.search(head)
            if m_cls and cls is None:
                classes.add(m_cls.group(1))
                _scan_scope(text, i + 1, close, m_cls.group(1), functions,
                            classes)
            elif m_fn and m_fn.group(1) not in _KEYWORDS:
                name = re.sub(r"\s+", "", m_fn.group(1))
                qname = f"{cls}::{name}" if cls else name
                functions[qname] = Function(qname, cls, (i, close + 1))
            i = close
            head_start = close + 1
        i += 1


def scan(source: str) -> Program:
    text = mask(source)
    functions: dict = {}
    classes: set = set()
    _scan_scope(text, 0, len(text), None, functions, classes)
    prog = Program(functions, classes)
    for fn in functions.values():
        body = text[fn.body[0]:fn.body[1]]
        objects = {m.group(2): m.group(1) for m in re.finditer(
            r"\b([A-Za-z_]\w*)\s+([A-Za-z_]\w*)\s*[;=\[]", body)
            if m.group(1) in classes}
        for m in re.finditer(r"([A-Za-z_]\w*)\s*\.\s*([A-Za-z_]\w*)\s*\(",
                             body):
            target = f"{objects.get(m.group(1))}::{m.group(2)}"
            if target in functions:
                fn.callees.add(target)
        for m in re.finditer(r"(?<![\w.>])([A-Za-z_]\w*)\s*\(", body):
            name = m.group(1)
            if name in _KEYWORDS:
                continue
            if name in objects:
                target = f"{objects[name]}::operator()"
            else:
                target = name
            if target in functions:
                fn.callees.add(target)
        fn.callees.discard(fn.qname)
    return prog


# -- literal edits

@dataclass(frozen=True)
class Literal:
    function: str
    start: int
    end: int
    text: str


def literals(source: str, prog: Program | None = None) -> list[Literal]:
    """Editable numeric literals inside function bodies: plain decimal
    integers (no leading zero) and ``digits.digits`` floats."""
    prog = prog or scan(source)
    text = mask(source)
    out = []
    for q, fn in prog.functions.items():
        lo, hi = fn.body
        for m in _LITERAL.finditer(text, lo, hi):
            digits, exp, suffix = m.groups()
            if exp or suffix or digits.startswith("."):
                continue
            if "." not in digits and len(digits) > 1 and digits[0] == "0":
                continue
            if digits.endswith("."):
                continue
            out.append(Literal(q, m.start(1), m.end(1), digits))
    return out


def bump(lit: Literal, k: int) -> str:
    """The literal's text increased by ``k`` (a float keeps its fraction)."""
    whole, dot, frac = lit.text.partition(".")
    return f"{int(whole) + k}{dot}{frac}"


def apply_edit(source: str, lit: Literal, new_text: str) -> str:
    return source[:lit.start] + new_text + source[lit.end:]


# -- closed forms (src/repro/workloads/c/README.md)

def define(source: str, name: str) -> int:
    m = re.search(rf"^\s*#define\s+{name}\s+(\d+)\s*$", source, re.M)
    if m is None:
        raise ValueError(f"no #define {name}")
    return int(m.group(1))


def dgemm_fp(n: int) -> int:
    return 2 * n ** 3 + n ** 2


def stream_fp(n: int) -> int:
    return 46 * n + 120


#: Section III lattice counts: listingN's counted statement.
LISTING_COUNTS = {"listing1": 10, "listing2": 14, "listing3": 20,
                  "listing4": 8, "listing5": 11}

#: Kernel sizes the closed forms are checked at: both sides of the int64
#: boundary (2n^3 passes 2^63 near n = 1.66e6).
CHECK_SIZES = (1, 8, 100, 1_000_000, 3_000_000)


def check_result(name: str, source: str, result) -> list[str]:
    """Problems with a cold ``AnalysisResult`` of corpus program ``name``
    against its documented closed forms (empty when correct)."""
    bad = []

    def expect(what, got, want):
        if got != want:
            bad.append(f"{name}: {what} = {got}, expected {want}")

    if name == "dgemm":
        for n in CHECK_SIZES:
            expect(f"dgemm_kernel FP at n={n}",
                   result.fp_instructions("dgemm_kernel", {"n": n}),
                   dgemm_fp(n))
            expect(f"checksum FP at n={n}",
                   result.fp_instructions("checksum", {"n": n}), n)
    elif name == "stream":
        n = define(source, "STREAM_ARRAY_SIZE")
        expect("main FP", result.fp_instructions("main"), stream_fp(n))
        for fn, per in (("tuned_copy", 0), ("tuned_scale", 1),
                        ("tuned_add", 1), ("tuned_triad", 2)):
            for k in CHECK_SIZES:
                expect(f"{fn} FP at n={k}",
                       result.fp_instructions(fn, {"n": k}), per * k)
    elif name == "minife":
        for k in CHECK_SIZES:
            expect(f"waxpby FP at n={k}",
                   result.fp_instructions("waxpby", {"n": k}), 3 * k)
            expect(f"dot_prod FP at n={k}",
                   result.fp_instructions("dot_prod", {"n": k}), 2 * k)
    elif name == "listings":
        models = result.function_models()
        for fn, want in LISTING_COUNTS.items():
            counts = [t.count.evaluate({}) for t in models[fn].terms
                      if t.desc == "stmt"]
            if want not in counts:
                bad.append(f"listings: {fn} statement counts {counts} "
                           f"lack {want}")
    elif name == "fig5":
        expect("A::foo FP at y=99",
               result.fp_instructions("A::foo", {"y": 99}), 3200)
    return bad


#: The corpus programs with a documented closed form.
CLOSED_FORM_PROGRAMS = ("dgemm", "stream", "minife", "listings", "fig5")
