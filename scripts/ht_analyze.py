#!/usr/bin/env python3
"""ht-analyze: the repo's source-analysis gate for its determinism,
concurrency and kernel-purity contracts.

Every rule runs on the file's comment- and string-stripped text, so a
banned name inside a comment or a string literal never counts. Line rules
match one stripped line at a time; the structural rules walk a micro-AST
(tokens + matched paren/brace trees + per-file declaration tables) built
by a tokenizer that needs no compiler, so the analysis is the same on
every machine.

Usage:
    scripts/ht_analyze.py                  # analyze src/ tools/ bench/ fuzz/
    scripts/ht_analyze.py PATH...          # analyze explicit paths
    scripts/ht_analyze.py --self-test      # fixture suite
    scripts/ht_analyze.py --list-rules     # print the rule catalog

Escape hatch: `// ht-analyze: allow(<rule-id>)` on the offending line or
the line directly above suppresses exactly that rule on that line.

Rules (ids are stable; full catalog in docs/STATIC_ANALYSIS.md):
    pool-capture      lambdas handed to ThreadPool::Submit /
                      RunTreeBottomUp / RunTreeTopDown must name every
                      capture: no `[&]` / `[=]` capture-defaults, no
                      `this`. What crosses the thread boundary must be
                      visible at the submission site.
    dcheck-purity     HT_DCHECK* operands must be side-effect free
                      (no assignment, ++/--, or mutating member calls) —
                      they compile to nothing under NDEBUG.
    kernel-purity     compute backends under src/kernels (namespace
                      scalar/avx2 + kernels_avx2.cc/kernels_internal.h)
                      may not allocate, lock, touch the pool, do I/O,
                      bump metrics, or keep function-local statics.
    atomic-order      every atomic load/store/exchange/CAS/fetch-op must
                      pass an explicit std::memory_order (no silent
                      seq_cst), and no ++/--/= operator forms on atomics.
    relaxed-publish   memory_order_relaxed on an atomic whose name says
                      it publishes a result (winner/prover/witness/...)
                      needs a written justification via the allow hatch.
    no-exceptions     no throw/try/catch — the library is contract-
                      checked (HT_CHECK aborts), not exception-safe.
    unordered-output  range-for over an unordered container whose body
                      emits (stream/printf/JSON) without sorting first.
    no-libc-rand      rand()/srand()/drand48()/lrand48()/random() —
                      process-global, unseeded; use util/rng.h.
    no-random-device  std::random_device — nondeterministic by design.
    no-wall-clock     time()/clock()/gettimeofday()/localtime()/gmtime()/
                      strftime()/system_clock — wall-clock values leaking
                      into results; steady_clock durations are fine.
    no-pointer-key    std::map/std::set keyed by a pointer type —
                      iteration order depends on the allocator.
    banned-header     <ctime>/<time.h>/<sys/time.h> (wall clock) and
                      <random> (use util/rng.h).
    include-guard     headers must carry a HYPERTREE_*_H_ include guard.
"""

import os
import re
import sys

DEFAULT_DIRS = ("src", "tools", "bench", "fuzz")
SOURCE_EXTS = (".h", ".cc", ".cpp")

# ---------------------------------------------------------------------------
# Plumbing: suppressions, findings, stripping, file collection
# ---------------------------------------------------------------------------

_ALLOW_RE = re.compile(r"//\s*ht-analyze:\s*allow\(([a-z0-9-]+)\)")


def allowed(raw_lines, lineno, rule):
    """True when line `lineno` (1-based) or the line directly above carries
    `// ht-analyze: allow(<rule>)`. One comment names one rule and reaches
    one line: two findings of different rules on a line need two."""
    for candidate in (lineno, lineno - 1):
        if 1 <= candidate <= len(raw_lines):
            if rule in _ALLOW_RE.findall(raw_lines[candidate - 1]):
                return True
    return False


class Finding:
    """One rule violation, printed as `path:line: [rule] message`."""

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def key(self):
        return (self.path, self.line, self.rule)

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Replaces comments and string/char literal *contents* with spaces,
    preserving line structure so findings keep their line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dquote"
            elif c == "'":
                state = "squote"
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        else:  # inside a string or char literal
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated (macro line continuation etc.)
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def collect_files(paths):
    """Expands files/directories into a sorted, de-duplicated source list;
    exits with a diagnostic on a missing path."""
    files = []
    for p in paths:
        if os.path.isfile(p):
            files.append(p)
        elif os.path.isdir(p):
            for root, _, names in os.walk(p):
                for name in names:
                    if name.endswith(SOURCE_EXTS):
                        files.append(os.path.join(root, name))
        else:
            print(f"error: no such path: {p}", file=sys.stderr)
            sys.exit(2)
    return sorted(set(files))


# ---------------------------------------------------------------------------
# Tokenizer + micro-AST
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<id>[A-Za-z_]\w*)
  | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
  | (?P<punct><<=|>>=|\.\.\.|->\*|::|->|\+\+|--|<<|>>|<=|>=|==|!=|&&|\|\|
             |\+=|-=|\*=|/=|%=|&=|\|=|\^=|[-+*/%&|^!~<>=?:;,.(){}\[\]#\\])
""", re.VERBOSE)

_OPEN = {"(": ")", "{": "}", "[": "]"}


class Tok:
    __slots__ = ("kind", "text", "line", "match")

    def __init__(self, kind, text, line):
        self.kind = kind
        self.text = text
        self.line = line
        self.match = -1  # index of partner bracket for ( { [ and ) } ]

    def __repr__(self):
        return f"{self.text}@{self.line}"


def tokenize(stripped_text):
    """Tokens over comment/string-stripped text; string literals collapse
    to an empty-string token so argument structure survives."""
    toks = []
    for lineno, line in enumerate(stripped_text.splitlines(), start=1):
        for m in _TOKEN_RE.finditer(line):
            kind = m.lastgroup
            toks.append(Tok(kind, m.group(), lineno))
    # Match brackets (unbalanced files — macros etc. — leave match = -1).
    stack = []
    for i, t in enumerate(toks):
        if t.text in _OPEN:
            stack.append(i)
        elif t.text in (")", "}", "]"):
            while stack:
                j = stack.pop()
                if _OPEN[toks[j].text] == t.text:
                    toks[j].match = i
                    t.match = j
                    break
    return toks


def prev_sig(toks, i):
    """Index of the previous token, -1 at the start."""
    return i - 1 if i > 0 else -1


def receiver_base(toks, i):
    """Given `i` at a `.` or `->` token, walks the receiver chain left and
    returns the base identifier token (e.g. `pending` for
    `pending[p].fetch_sub`), or None when the receiver is an expression
    with no single base (function call result, cast, ...)."""
    j = i - 1
    # Skip over balanced ] or ) groups and chained member accesses.
    while j >= 0:
        t = toks[j]
        if t.text in ("]", ")") and t.match >= 0:
            j = t.match - 1
            continue
        if t.kind == "id":
            # Continue left through `a.b`, `a->b`, `A::b` chains.
            if j >= 1 and toks[j - 1].text in (".", "->", "::"):
                j -= 2
                continue
            return t
        return None
    return None


# ---------------------------------------------------------------------------
# Declaration tables — name -> "flavor" facts harvested
# from declarations in the file and the project headers it includes.
# ---------------------------------------------------------------------------

# `std::atomic<int> x;`, `std::atomic_bool f;`, `atomic<T>* p`,
# `std::vector<std::atomic<int>> pending;` — any declaration whose type
# text mentions atomic marks every declared name as atomic-flavored.
_DECL_RE = re.compile(
    r"^\s*(?:mutable\s+|static\s+|constexpr\s+|inline\s+|const\s+)*"
    r"(?P<type>(?:[\w:]+\s*<[^;={]*>|[\w:]+))\s*[&*]*\s*"
    r"(?P<name>\w+)\s*(?:[;={(,)\[]|$)")

_INCLUDE_RE = re.compile(r'#\s*include\s*"([^"]+)"')


_TYPE_WORDS = {"int", "long", "short", "char", "bool", "float", "double",
               "size_t", "auto", "unsigned", "signed", "uint64_t", "int64_t",
               "uint32_t", "int32_t", "uint8_t"}


def _scan_decls(stripped_lines):
    """(atomic names, unordered-container names, shadowed names): a name
    declared atomic in one scope and non-atomic in another (the
    declaration scan is file-global, not scope-aware) lands in `shadowed`
    and is excluded from the receiver-type heuristics."""
    atomics, unordered, plain = set(), set(), set()
    for line in stripped_lines:
        m = _DECL_RE.match(line)
        if not m:
            continue
        type_text = m.group("type")
        name = m.group("name")
        if "atomic" in type_text:
            atomics.add(name)
        else:
            head = type_text.split("<")[0].split("::")[-1].strip()
            if head in _TYPE_WORDS or head[:1].isupper() \
                    or head.endswith("_t") or "unordered_" in type_text \
                    or head in ("vector", "string", "deque", "array"):
                plain.add(name)
        if "unordered_" in type_text:
            unordered.add(name)
    return atomics, unordered, atomics & plain


class DeclTable:
    """Atomic / unordered-container names visible to one file: its own
    declarations plus those of project headers it includes (one level,
    which covers the `foo.cc includes foo.h` member pattern)."""

    _header_cache = {}

    def __init__(self, path, stripped_lines, repo_root):
        self.atomics, self.unordered, self.shadowed = _scan_decls(
            stripped_lines)
        text = "\n".join(stripped_lines)
        for inc in _INCLUDE_RE.findall(text):
            hdr = os.path.join(repo_root, "src", inc)
            if not os.path.isfile(hdr):
                hdr = os.path.join(os.path.dirname(path), inc)
            if not os.path.isfile(hdr):
                continue
            hdr = os.path.normpath(hdr)
            if hdr not in DeclTable._header_cache:
                try:
                    with open(hdr, encoding="utf-8", errors="replace") as f:
                        hdr_stripped = strip_comments_and_strings(f.read())
                    DeclTable._header_cache[hdr] = _scan_decls(
                        hdr_stripped.splitlines())
                except OSError:
                    DeclTable._header_cache[hdr] = (set(), set(), set())
            a, u, s = DeclTable._header_cache[hdr]
            self.atomics |= a
            self.unordered |= u
            self.shadowed |= s


# ---------------------------------------------------------------------------
# Rule implementations. Each takes (ctx) and appends to ctx.findings.
# ---------------------------------------------------------------------------

POOL_ENTRYPOINTS = {"Submit", "RunTreeBottomUp", "RunTreeTopDown"}

DCHECK_MACROS = {"HT_DCHECK", "HT_DCHECK_EQ", "HT_DCHECK_NE", "HT_DCHECK_LT",
                 "HT_DCHECK_LE", "HT_DCHECK_GT", "HT_DCHECK_GE"}

ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=",
              ">>="}

MUTATING_METHODS = {"push_back", "pop_back", "emplace", "emplace_back",
                    "insert", "erase", "clear", "reset", "release", "resize",
                    "reserve", "assign", "swap", "store", "exchange",
                    "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
                    "fetch_xor", "Cancel", "Submit", "Increment", "Add"}

ATOMIC_METHODS = {"load", "store", "exchange", "compare_exchange_weak",
                  "compare_exchange_strong", "fetch_add", "fetch_sub",
                  "fetch_and", "fetch_or", "fetch_xor"}

# These member names are atomic-only in practice: require an explicit
# order even when the receiver's declaration is out of scan reach.
ATOMIC_ONLY_METHODS = {"compare_exchange_weak", "compare_exchange_strong",
                       "fetch_add", "fetch_sub", "fetch_and", "fetch_or",
                       "fetch_xor"}

PUBLISH_NAME_RE = re.compile(
    r"best|prover|winner|publish|witness|proved|solved|result",
    re.IGNORECASE)

KERNEL_BANNED = {
    "new": "allocates", "delete": "frees", "malloc": "allocates",
    "calloc": "allocates", "realloc": "allocates", "free": "frees",
    "aligned_alloc": "allocates",
    "push_back": "grows a container", "emplace_back": "grows a container",
    "resize": "grows a container", "reserve": "grows a container",
    "insert": "grows a container",
    "mutex": "takes a lock", "lock_guard": "takes a lock",
    "unique_lock": "takes a lock", "scoped_lock": "takes a lock",
    "condition_variable": "blocks",
    "Submit": "touches the thread pool", "Wait": "touches the thread pool",
    "printf": "does I/O", "fprintf": "does I/O", "cout": "does I/O",
    "cerr": "does I/O", "fopen": "does I/O", "ofstream": "does I/O",
    "ifstream": "does I/O", "fstream": "does I/O",
    "GetCounter": "touches global metrics",
    "Increment": "touches global metrics",
    "throw": "raises", "static": "keeps mutable static state",
    "thread_local": "keeps thread-local state",
}

EMIT_STREAMS = {"os", "out", "cout", "cerr", "oss", "ss", "stream", "o"}
EMIT_CALLS = {"printf", "fprintf", "puts", "fputs", "Set", "Dump", "Append"}
SORT_CALLS = {"sort", "stable_sort"}


class FileContext:
    def __init__(self, path, raw_lines, stripped_lines, toks, decls):
        self.path = path
        self.raw_lines = raw_lines
        self.stripped_lines = stripped_lines
        self.toks = toks
        self.decls = decls
        self.findings = []

    def report(self, lineno, rule, message):
        if not allowed(self.raw_lines, lineno, rule):
            self.findings.append(Finding(self.path, lineno, rule, message))


def _lambda_starts(toks, lo, hi):
    """Indices of `[` tokens opening lambda-introducers in argument
    position within [lo, hi): preceded by `(` or `,` (a `[` after an
    identifier or `]`/`)` is a subscript)."""
    out = []
    for i in range(lo, hi):
        if toks[i].text != "[" or toks[i].match < 0:
            continue
        p = prev_sig(toks, i)
        if p >= 0 and toks[p].text in ("(", ","):
            out.append(i)
    return out


def rule_pool_capture(ctx):
    toks = ctx.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in POOL_ENTRYPOINTS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        # Skip declarations/definitions: in `void Submit(std::function...)`
        # or `void RunTreeBottomUp(const TreeShape& tree, ...)` the name is
        # preceded by a type token; call sites have `.`/`->`/`(`/`,`/`;`/...
        # before it.
        p = prev_sig(toks, i)
        if p >= 0 and toks[p].kind == "id":
            continue
        close = toks[i + 1].match
        if close < 0:
            continue
        for lb in _lambda_starts(toks, i + 2, close):
            rb = toks[lb].match
            # Parse the capture list: top-level comma-separated items.
            j = lb + 1
            depth = 0
            item_start = j
            items = []
            while j <= rb:
                txt = toks[j].text
                if txt in _OPEN:
                    depth += 1
                elif txt in (")", "}", "]") and j != rb:
                    depth -= 1
                if (txt == "," and depth == 0) or j == rb:
                    items.append((item_start, j))
                    item_start = j + 1
                j += 1
            for (s, e) in items:
                item = [tok.text for tok in toks[s:e]]
                if not item:
                    continue
                if item == ["&"]:
                    ctx.report(
                        toks[s].line, "pool-capture",
                        f"lambda passed to {t.text}() uses capture-default "
                        f"[&]: name every capture that crosses the thread "
                        f"boundary explicitly")
                elif item == ["="]:
                    ctx.report(
                        toks[s].line, "pool-capture",
                        f"lambda passed to {t.text}() uses capture-default "
                        f"[=]: name every capture explicitly")
                elif item == ["this"] or item[:1] == ["this"]:
                    ctx.report(
                        toks[s].line, "pool-capture",
                        f"lambda passed to {t.text}() captures `this`: the "
                        f"object must outlive the pool wait; capture the "
                        f"needed members explicitly")


def rule_dcheck_purity(ctx):
    toks = ctx.toks
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in DCHECK_MACROS:
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        p = prev_sig(toks, i)
        if p >= 0 and toks[p].text == "#":  # the macro's own #define lines
            continue
        if p >= 0 and toks[p].kind == "id" and toks[p].text == "define":
            continue
        close = toks[i + 1].match
        if close < 0:
            continue
        j = i + 2
        while j < close:
            tok = toks[j]
            if tok.text in ("++", "--"):
                ctx.report(tok.line, "dcheck-purity",
                           f"{t.text} operand mutates ({tok.text}): "
                           f"DCHECK operands vanish under NDEBUG")
            elif tok.text in ASSIGN_OPS:
                # `=` inside a lambda introducer / default arg is not an
                # operand mutation; lambdas inside DCHECKs are flagged as
                # calls anyway if they mutate. Only top-level-ish `=`.
                ctx.report(tok.line, "dcheck-purity",
                           f"{t.text} operand assigns ({tok.text}): "
                           f"DCHECK operands vanish under NDEBUG")
            elif (tok.kind == "id" and tok.text in MUTATING_METHODS
                  and j + 1 < close and toks[j + 1].text == "("
                  and j > 0 and toks[j - 1].text in (".", "->")):
                ctx.report(tok.line, "dcheck-purity",
                           f"{t.text} operand calls mutating member "
                           f"`{tok.text}()`: DCHECK operands vanish under "
                           f"NDEBUG")
            j += 1


def _kernel_pure_regions(ctx):
    """Line ranges inside src/kernels where purity is enforced: namespace
    blocks literally named scalar or avx2, or the whole file for the
    dedicated compute TUs."""
    base = os.path.basename(ctx.path)
    if base in ("kernels_avx2.cc", "kernels_internal.h"):
        return [(1, len(ctx.raw_lines) + 1)]
    toks = ctx.toks
    regions = []
    for i, t in enumerate(toks):
        if (t.kind == "id" and t.text == "namespace" and i + 2 < len(toks)
                and toks[i + 1].kind == "id"
                and toks[i + 1].text in ("scalar", "avx2")
                and toks[i + 2].text == "{" and toks[i + 2].match >= 0):
            regions.append((t.line, toks[toks[i + 2].match].line + 1))
    return regions


def rule_kernel_purity(ctx):
    # Not path-gated: `namespace scalar` / `namespace avx2` are reserved
    # backend names wherever they appear (which keeps the rule testable
    # from fixtures), and the two dedicated compute TUs are whole-file.
    regions = _kernel_pure_regions(ctx)
    if not regions:
        return

    def in_region(line):
        return any(lo <= line < hi for lo, hi in regions)

    for i, t in enumerate(ctx.toks):
        why = KERNEL_BANNED.get(t.text)
        if why is None or not in_region(t.line):
            continue
        # `static` at namespace scope (internal linkage helpers) is fine;
        # only function-local statics are state. Heuristic: a `static`
        # directly after `{` or `;` inside a function body — approximate
        # by requiring the next tokens NOT to form a function signature
        # `static T Name(`; kernels_internal's `static` dispatch-table
        # members are declarations (followed by a signature).
        if t.text in ("static", "thread_local"):
            # `static const`/`static constexpr` is an immutable init-once
            # value (the dispatch tables), not mutable state.
            if i + 1 < len(ctx.toks) and ctx.toks[i + 1].text in (
                    "const", "constexpr"):
                continue
            k = i + 1
            # Skip type tokens to find `name (` (declaration) vs `name =`.
            sig = False
            steps = 0
            while k < len(ctx.toks) and steps < 8:
                if ctx.toks[k].text == "(":
                    sig = True
                    break
                if ctx.toks[k].text in ("=", "{", ";"):
                    break
                k += 1
                steps += 1
            if sig:
                continue
        if t.kind == "id" and t.text not in ("new", "delete", "throw",
                                             "static", "thread_local"):
            # Require call/type-use position to cut accidental name hits.
            nxt = ctx.toks[i + 1].text if i + 1 < len(ctx.toks) else ""
            prv = ctx.toks[i - 1].text if i > 0 else ""
            if nxt not in ("(", "<", "{") and prv not in ("::",):
                continue
        ctx.report(t.line, "kernel-purity",
                   f"kernel backend {why} (`{t.text}`): compute kernels "
                   f"must stay pure (no allocation/locks/I/O/global state)")


def rule_atomic_order(ctx):
    toks = ctx.toks
    atomics = ctx.decls.atomics
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in ATOMIC_METHODS:
            continue
        if i == 0 or toks[i - 1].text not in (".", "->"):
            continue
        if i + 1 >= len(toks) or toks[i + 1].text != "(":
            continue
        base = receiver_base(toks, i - 1)
        is_atomic = (t.text in ATOMIC_ONLY_METHODS
                     or (base is not None and base.text in atomics
                         and base.text not in ctx.decls.shadowed))
        if not is_atomic:
            continue
        close = toks[i + 1].match
        if close < 0:
            continue
        args = [tok.text for tok in toks[i + 2:close]]
        has_order = any(a.startswith("memory_order") for a in args)
        if not has_order:
            ctx.report(t.line, "atomic-order",
                       f"atomic {t.text}() without an explicit "
                       f"std::memory_order (silent seq_cst): state the "
                       f"ordering the algorithm actually needs")
        elif "memory_order_relaxed" in args and base is not None \
                and PUBLISH_NAME_RE.search(base.text):
            ctx.report(t.line, "relaxed-publish",
                       f"memory_order_relaxed on publishing atomic "
                       f"`{base.text}`: justify with "
                       f"// ht-analyze: allow(relaxed-publish) why relaxed "
                       f"ordering cannot unpublish or tear the result")
    # Operator forms on known atomics: ++/--/assignment are seq_cst and
    # hide the ordering decision entirely.
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text not in atomics \
                or t.text in ctx.decls.shadowed:
            continue
        nxt = toks[i + 1] if i + 1 < len(toks) else None
        prv = toks[i - 1] if i > 0 else None
        if nxt is not None and nxt.text in ("++", "--"):
            ctx.report(t.line, "atomic-order",
                       f"operator {nxt.text} on atomic `{t.text}` is an "
                       f"implicit seq_cst RMW: use fetch_add/fetch_sub "
                       f"with an explicit order")
        if prv is not None and prv.text in ("++", "--"):
            ctx.report(t.line, "atomic-order",
                       f"operator {prv.text} on atomic `{t.text}` is an "
                       f"implicit seq_cst RMW: use fetch_add/fetch_sub "
                       f"with an explicit order")
        if (nxt is not None and nxt.text in ASSIGN_OPS and nxt.text == "="
                and prv is not None
                and prv.text in (";", "{", "}", ")", ":")):
            ctx.report(t.line, "atomic-order",
                       f"operator= on atomic `{t.text}` is an implicit "
                       f"seq_cst store: use store() with an explicit order")


def rule_no_exceptions(ctx):
    for t in ctx.toks:
        if t.kind == "id" and t.text in ("throw", "try", "catch"):
            ctx.report(t.line, "no-exceptions",
                       f"`{t.text}` is banned: the library reports broken "
                       f"contracts via HT_CHECK (abort) and recoverable "
                       f"failures via std::optional/error strings")


def _range_for_target(toks, for_idx):
    """For `for (` at for_idx(+1): returns (colon_idx, base_token) of a
    range-for, else (None, None)."""
    if for_idx + 1 >= len(toks) or toks[for_idx + 1].text != "(":
        return None, None
    close = toks[for_idx + 1].match
    if close < 0:
        return None, None
    depth = 0
    for j in range(for_idx + 2, close):
        txt = toks[j].text
        if txt in _OPEN:
            depth += 1
        elif txt in (")", "}", "]"):
            depth -= 1
        elif txt == ":" and depth == 0:
            # Base identifier of the ranged expression.
            k = close - 1
            while k > j:
                t = toks[k]
                if t.text in ("]", ")") and t.match >= 0:
                    k = t.match - 1
                    continue
                if t.kind == "id":
                    if k >= 1 and toks[k - 1].text in (".", "->", "::"):
                        k -= 2
                        continue
                    return j, t
                return j, None
            return j, None
    return None, None


def _body_range(toks, close_paren):
    """Token range [lo, hi) of the statement following `)` at close_paren:
    a braced compound or a single statement up to `;`."""
    j = close_paren + 1
    if j < len(toks) and toks[j].text == "{" and toks[j].match >= 0:
        return j + 1, toks[j].match
    lo = j
    while j < len(toks) and toks[j].text != ";":
        if toks[j].text in _OPEN and toks[j].match >= 0:
            j = toks[j].match
        j += 1
    return lo, j


def rule_unordered_output(ctx):
    toks = ctx.toks
    unordered = ctx.decls.unordered
    if not unordered:
        return
    for i, t in enumerate(toks):
        if t.kind != "id" or t.text != "for":
            continue
        colon, base = _range_for_target(toks, i)
        if colon is None or base is None or base.text not in unordered:
            continue
        lo, hi = _body_range(toks, toks[i + 1].match)
        sorted_seen = False
        for j in range(lo, hi):
            tok = toks[j]
            if tok.kind == "id" and tok.text in SORT_CALLS \
                    and j + 1 < hi and toks[j + 1].text == "(":
                sorted_seen = True
            emits = False
            if tok.text == "<<":
                k = j - 1
                while k >= lo and toks[k].text in (")", "]") \
                        and toks[k].match >= 0:
                    k = toks[k].match - 1
                if k >= lo and toks[k].kind == "id" \
                        and toks[k].text in EMIT_STREAMS:
                    emits = True
            if tok.kind == "id" and tok.text in EMIT_CALLS \
                    and j + 1 < hi and toks[j + 1].text == "(":
                emits = True
            if emits and not sorted_seen:
                ctx.report(t.line, "unordered-output",
                           f"range-for over unordered container "
                           f"`{base.text}` feeds output: iteration order "
                           f"is unspecified; sort the keys first")
                break


# Line rules: one pattern per rule over each comment- and string-stripped
# line, so mentions in comments and string literals never count.
LINE_RULES = [
    ("no-libc-rand",
     re.compile(r"\b(rand|srand|drand48|lrand48|random)\s*\("),
     "libc randomness is process-global and unseeded; use util/rng.h"),
    ("no-random-device",
     re.compile(r"\brandom_device\b"),
     "std::random_device is nondeterministic by design; use util/rng.h"),
    ("no-wall-clock",
     re.compile(r"\b(time|clock|gettimeofday|localtime|gmtime|strftime)\s*\("
                r"|\bsystem_clock\b"),
     "wall-clock reads leak into output; use steady_clock durations"),
    ("no-pointer-key",
     re.compile(r"\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<[^<>]*\*\s*[,>]"),
     "pointer-keyed ordered containers iterate in allocator order"),
    ("banned-header",
     re.compile(r'#\s*include\s*[<"](ctime|time\.h|sys/time\.h|random)[>"]'),
     "banned header: wall clock / stdlib randomness (use util/rng.h)"),
]


def rule_line_patterns(ctx):
    for rule, pattern, message in LINE_RULES:
        for lineno, line in enumerate(ctx.stripped_lines, start=1):
            if pattern.search(line):
                ctx.report(lineno, rule, message)


_GUARD_RE = re.compile(r"#\s*ifndef\s+HYPERTREE_\w+_H_")


def rule_include_guard(ctx):
    if ctx.path.endswith(".h") and not any(
            _GUARD_RE.search(line) for line in ctx.stripped_lines):
        ctx.report(1, "include-guard",
                   "header lacks a HYPERTREE_*_H_ include guard")


RULES = [rule_pool_capture, rule_dcheck_purity, rule_kernel_purity,
         rule_atomic_order, rule_no_exceptions, rule_unordered_output,
         rule_line_patterns, rule_include_guard]

RULE_CATALOG = [
    ("pool-capture", "no [&]/[=]/this captures in lambdas handed to the "
                     "thread pool"),
    ("dcheck-purity", "HT_DCHECK* operands must be side-effect free"),
    ("kernel-purity", "src/kernels compute backends: no "
                      "allocation/locks/I/O/global state"),
    ("atomic-order", "every atomic op names its std::memory_order"),
    ("relaxed-publish", "relaxed ordering on publishing atomics needs a "
                        "written justification"),
    ("no-exceptions", "no throw/try/catch anywhere in the library"),
    ("unordered-output", "no unordered-container iteration feeding output"),
    ("no-libc-rand", "no rand()/srand()/drand48()/lrand48()/random(); "
                     "use util/rng.h"),
    ("no-random-device", "no std::random_device"),
    ("no-wall-clock", "no time()/clock()/gettimeofday()/system_clock/...; "
                      "steady_clock durations only"),
    ("no-pointer-key", "no std::map/std::set keyed by a pointer"),
    ("banned-header", "no <ctime>, <time.h>, <sys/time.h> or <random>"),
    ("include-guard", "headers carry a HYPERTREE_*_H_ include guard"),
]


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def analyze_file(path, repo_root):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    ctx = FileContext(path, text.splitlines(), stripped_lines,
                      tokenize(stripped),
                      DeclTable(path, stripped_lines, repo_root))
    for rule in RULES:
        rule(ctx)
    return ctx.findings


EXPECT_RE = re.compile(r"//\s*expect-analyze:\s*([a-z0-9-]+)")


def self_test(repo_root):
    """Every file under tests/analyze_fixtures/good must be clean, and each
    file under bad/ must produce exactly the multiset of rules its
    `// expect-analyze: <rule>` markers declare."""
    fixtures = os.path.join(repo_root, "tests", "analyze_fixtures")
    ok = True
    for f in collect_files([os.path.join(fixtures, "good")]):
        for finding in analyze_file(f, repo_root):
            print(f"SELF-TEST FAIL (false positive): {finding}")
            ok = False
    for f in collect_files([os.path.join(fixtures, "bad")]):
        with open(f, encoding="utf-8") as fh:
            expected = sorted(EXPECT_RE.findall(fh.read()))
        if not expected:
            print(f"SELF-TEST FAIL: {f} declares no expect-analyze marker")
            ok = False
            continue
        actual = sorted(x.rule for x in analyze_file(f, repo_root))
        if actual != expected:
            print(f"SELF-TEST FAIL: {f}: expected rules {expected}, "
                  f"got {actual}")
            ok = False
    print("ht-analyze self-test:", "PASS" if ok else "FAIL")
    return ok


def main(argv):
    repo_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    paths = []
    for a in argv:
        if a == "--list-rules":
            for rule_id, desc in RULE_CATALOG:
                print(f"{rule_id:18s} {desc}")
            return 0
        if a == "--self-test":
            return 0 if self_test(repo_root) else 1
        if a.startswith("--"):
            print(f"error: unknown flag {a}", file=sys.stderr)
            return 2
        paths.append(a)
    if not paths:
        paths = [os.path.join(repo_root, d) for d in DEFAULT_DIRS]
    findings = []
    for f in collect_files(paths):
        findings.extend(analyze_file(f, repo_root))
    findings.sort(key=Finding.key)
    for finding in findings:
        print(finding)
    if findings:
        print(f"\n{len(findings)} ht-analyze finding(s). Suppress a justified "
              f"use with '// ht-analyze: allow(<rule>)'.")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
