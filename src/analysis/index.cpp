/**
 * @file
 * Token-stream symbol indexer. One linear pass per TU:
 *
 *   1. a flat scan collects the names of host-ordered containers and
 *      receiver-type hints;
 *   2. a scope-tracking pass finds namespace / class nesting and
 *      function definitions (`name(params) trailer {`), then records
 *      events inside each body: calls, nondeterminism sources,
 *      container iterations, fork hazards, and arch-state stores.
 *
 * The indexer is heuristic by design: it never resolves types or
 * overloads, and unparseable constructs degrade to "no event", never
 * to a crash. The graph layer treats the result conservatively.
 */

#include "analysis/index.h"

#include <algorithm>
#include <cstddef>

namespace minjie::analysis {

namespace {

bool
isAnyOf(std::string_view s, std::initializer_list<std::string_view> set)
{
    for (std::string_view c : set)
        if (s == c)
            return true;
    return false;
}

/** Keywords that look like calls (`if (`) but are not. */
bool
isCallKeyword(std::string_view s)
{
    return isAnyOf(s, {"if", "for", "while", "switch", "return",
                       "sizeof", "alignof", "alignas", "decltype",
                       "noexcept", "static_assert", "catch", "new",
                       "delete", "throw", "co_await", "co_return",
                       "case", "do", "else", "goto", "default",
                       "constexpr", "requires"});
}

bool
isDeclKeyword(std::string_view s)
{
    return isAnyOf(s, {"if", "for", "while", "switch", "return",
                       "sizeof", "case", "do", "else", "goto"});
}

/** Host-RNG and wall-clock calls banned on deterministic paths. */
bool
isNondetCall(std::string_view s)
{
    return isAnyOf(s, {"rand", "srand", "random", "srandom", "rand_r",
                       "drand48", "lrand48", "time", "clock",
                       "gettimeofday", "localtime", "gmtime", "ctime",
                       "mktime", "clock_gettime"});
}

bool
isNondetType(std::string_view s)
{
    return isAnyOf(s, {"random_device", "mt19937", "mt19937_64",
                       "system_clock", "steady_clock",
                       "high_resolution_clock"});
}

bool
isUnorderedContainer(std::string_view s)
{
    return isAnyOf(s, {"unordered_map", "unordered_set",
                       "unordered_multimap", "unordered_multiset"});
}

bool
isLockGuardType(std::string_view s)
{
    return isAnyOf(s,
                   {"lock_guard", "unique_lock", "scoped_lock",
                    "shared_lock"});
}

/** FILE* writers whose bytes sit in a user-space buffer. */
bool
isBufferedStdio(std::string_view s)
{
    return isAnyOf(s, {"printf", "puts", "putchar", "vprintf", "fprintf",
                       "vfprintf", "fputs", "fputc", "fwrite"});
}

/** The CsrFile fields DiffTest compares verbatim; the cycle / instret
 *  counters are excluded (they have dedicated diff-rules and are
 *  legitimately bumped inline on hot paths). */
bool
isProtectedCsr(std::string_view s)
{
    return isAnyOf(s, {"mstatus", "mepc", "mcause", "mtval", "mtvec",
                       "mscratch", "mie", "medeleg", "mideleg", "sepc",
                       "scause", "stval", "stvec", "sscratch", "satp",
                       "fflags", "frm", "pmpcfg0", "pmpaddr0"});
}

bool
isAssignPunct(const Token &t)
{
    return t.kind == Tok::Punct &&
           isAnyOf(t.text, {"=", "+=", "-=", "*=", "/=", "%=", "&=",
                            "|=", "^=", "<<=", ">>=", "++", "--"});
}

/** Matching ')' / ']' / '}' for the bracket at @p open (paren-family
 *  only; '<' is ambiguous and handled by callers that know context). */
size_t
matchParen(const std::vector<Token> &toks, size_t open)
{
    char o = toks[open].text[0];
    char c = o == '(' ? ')' : o == '[' ? ']' : '}';
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != Tok::Punct || toks[i].text.size() != 1)
            continue;
        if (toks[i].text[0] == o)
            ++depth;
        else if (toks[i].text[0] == c && --depth == 0)
            return i;
    }
    return toks.size();
}

/** Matching '>' for a template-argument '<' (nesting-aware, bails at
 *  tokens a template list cannot contain). */
size_t
matchAngle(const std::vector<Token> &toks, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.is("<"))
            ++depth;
        else if (t.is(">") && --depth == 0)
            return i;
        else if (t.is(">>") && (depth -= 2) <= 0)
            return i;
        else if (t.is(";") || t.is("{"))
            break;
    }
    return toks.size();
}

/** True when the first template argument between @p open ('<') and
 *  @p close is a pointer type: an ordered container keyed by it
 *  iterates in allocation-address order. */
bool
firstArgIsPointer(const std::vector<Token> &toks, size_t open, size_t close)
{
    int depth = 0;
    for (size_t j = open + 1; j < close; ++j) {
        if (toks[j].is("<") || toks[j].is("(") || toks[j].is("["))
            ++depth;
        else if (toks[j].is(">") || toks[j].is(")") || toks[j].is("]"))
            --depth;
        else if (depth == 0 && toks[j].is(","))
            return false;
        else if (depth == 0 && toks[j].is("*"))
            return true;
    }
    return false;
}

/** True when the argument list opened at @p open names @p ident. */
bool
argsMention(const std::vector<Token> &toks, size_t open,
            std::string_view ident)
{
    size_t close = matchParen(toks, open);
    for (size_t k = open + 1; k < close; ++k)
        if (toks[k].isIdent(ident))
            return true;
    return false;
}

/** Walk a qualifier chain backwards from the ident at @p i:
 *  `A::B::name` yields "A::B". */
std::string
qualChainBefore(const std::vector<Token> &toks, size_t i)
{
    std::string qual;
    size_t k = i;
    while (k >= 2 && toks[k - 1].is("::") &&
           toks[k - 2].kind == Tok::Ident) {
        std::string part(toks[k - 2].text);
        qual = qual.empty() ? part : part + "::" + qual;
        k -= 2;
    }
    return qual;
}

/**
 * Parse the tokens after a parameter list's ')' at @p afterClose.
 * Returns the index of the body '{' when this is a definition, or
 * npos for declarations / non-functions. Handles cv/ref/noexcept
 * trailers, trailing return types, and constructor initializer lists
 * (including brace-initializers inside them).
 */
size_t
findBodyBrace(const std::vector<Token> &toks, size_t afterClose)
{
    constexpr size_t npos = static_cast<size_t>(-1);
    size_t j = afterClose;
    const size_t n = toks.size();
    while (j < n) {
        const Token &t = toks[j];
        if (t.is("{"))
            return j;
        if (t.is(";") || t.is(",") || t.is("=") || t.is(")"))
            return npos;
        if (t.kind == Tok::Ident &&
            isAnyOf(t.text, {"const", "noexcept", "override", "final",
                             "volatile", "mutable", "try", "requires"})) {
            // noexcept(expr) / requires(expr)
            if (j + 1 < n && toks[j + 1].is("(")) {
                j = matchParen(toks, j + 1);
                if (j == n)
                    return npos;
            }
            ++j;
            continue;
        }
        if (t.is("&") || t.is("&&")) {
            ++j;
            continue;
        }
        if (t.is("->")) {
            // Trailing return type: skip tokens until the body brace
            // or a declaration terminator.
            ++j;
            while (j < n && !toks[j].is("{") && !toks[j].is(";") &&
                   !toks[j].is("=")) {
                if (toks[j].is("<")) {
                    size_t c = matchAngle(toks, j);
                    if (c == n)
                        return npos;
                    j = c;
                }
                ++j;
            }
            continue;
        }
        if (t.is(":")) {
            // Constructor initializer list: member ( ... ) or
            // member { ... }, comma-separated, then the body brace.
            ++j;
            while (j < n) {
                // Skip the member name (possibly qualified/templated).
                while (j < n && (toks[j].kind == Tok::Ident ||
                                 toks[j].is("::") || toks[j].is("...")))
                    ++j;
                if (j < n && toks[j].is("<")) {
                    size_t c = matchAngle(toks, j);
                    if (c == n)
                        return npos;
                    j = c + 1;
                }
                if (j >= n || !(toks[j].is("(") || toks[j].is("{")))
                    return npos;
                size_t c = matchParen(toks, j);
                if (c == n)
                    return npos;
                j = c + 1;
                if (j < n && toks[j].is("..."))
                    ++j;
                if (j < n && toks[j].is(",")) {
                    ++j;
                    continue;
                }
                break;
            }
            continue;
        }
        return npos;
    }
    return npos;
}

template <typename T>
void
sortUnique(std::vector<T> &v)
{
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
}

} // namespace

TuIndex
buildIndex(const SourceFile &file, const LexResult &lexed)
{
    TuIndex tu;
    tu.path = file.path();
    const auto &toks = lexed.tokens;
    const size_t n = toks.size();

    // Pass 1: declared host-ordered containers and receiver-type
    // hints. The pattern `type < ... > name` is scope-agnostic on
    // purpose: a member declared in a header must resolve iteration
    // sites in other TUs.
    for (size_t i = 0; i < n; ++i) {
        if (toks[i].kind != Tok::Ident)
            continue;
        if (i + 1 < n && toks[i + 1].is("<") &&
            (isUnorderedContainer(toks[i].text) ||
             isAnyOf(toks[i].text, {"map", "set", "multimap", "multiset"}))) {
            size_t close = matchAngle(toks, i + 1);
            if (close + 1 < n && toks[close + 1].kind == Tok::Ident &&
                (isUnorderedContainer(toks[i].text) ||
                 firstArgIsPointer(toks, i + 1, close)))
                tu.unstableOrderNames.emplace_back(toks[close + 1].text);
        }
        // Receiver-type hints: `Type name ;|=|{|,|)` (optionally with
        // template args and */& between). Noisy entries are fine —
        // they only ever NARROW member-call resolution.
        if (!isCallKeyword(toks[i].text) &&
            !isAnyOf(toks[i].text,
                     {"const", "static", "auto", "using", "typename",
                      "typedef", "namespace", "template", "public",
                      "private", "protected", "virtual", "inline",
                      "explicit", "friend", "operator", "extern"})) {
            size_t j = i + 1;
            if (j < n && toks[j].is("<")) {
                size_t c = matchAngle(toks, j);
                if (c == n)
                    continue;
                j = c + 1;
            }
            while (j < n && (toks[j].is("*") || toks[j].is("&") ||
                             toks[j].is("&&") ||
                             toks[j].isIdent("const")))
                ++j;
            if (j + 1 < n && toks[j].kind == Tok::Ident &&
                !isCallKeyword(toks[j].text) &&
                (toks[j + 1].is(";") || toks[j + 1].is("=") ||
                 toks[j + 1].is("{") || toks[j + 1].is(",") ||
                 toks[j + 1].is(")")))
                tu.varTypes.emplace_back(std::string(toks[j].text),
                                         std::string(toks[i].text));
        }
    }
    sortUnique(tu.varTypes);
    sortUnique(tu.unstableOrderNames);

    // Pass 2: scopes, function definitions, and body events.
    struct Scope
    {
        std::string name; ///< "" for anonymous
        int bodyDepth;    ///< braceDepth inside the scope
    };
    std::vector<Scope> scopes;
    int depth = 0;
    FunctionIndex *fn = nullptr; ///< active function, else null
    int fnBodyDepth = 0;
    // RNG engines and clocks declared outside any body (globals, class
    // members) belong to a pseudo-function rooted wherever the file is.
    FunctionIndex fileScope;
    fileScope.qualName = fileScope.name = "(file scope)";

    auto openNamedScope = [&](size_t i) -> size_t {
        // namespace A::B { ... } | class/struct/union/enum X ... { ... }
        const Token &kw = toks[i];
        size_t j = i + 1;
        std::string name;
        if (kw.isIdent("namespace")) {
            while (j < n && toks[j].kind == Tok::Ident) {
                name += name.empty() ? std::string(toks[j].text)
                                     : "::" + std::string(toks[j].text);
                if (j + 1 < n && toks[j + 1].is("::"))
                    j += 2;
                else {
                    ++j;
                    break;
                }
            }
            if (j < n && toks[j].is("{")) {
                scopes.push_back({name, depth + 1});
                return j; // caller processes the '{'
            }
            return i; // namespace alias / using — no scope
        }
        if (j < n &&
            (toks[j].isIdent("class") || toks[j].isIdent("struct")))
            ++j; // enum class / enum struct
        // Skip macro-ish idents followed by '(' (alignas, attributes).
        while (j + 1 < n && toks[j].kind == Tok::Ident &&
               toks[j + 1].is("("))
            j = matchParen(toks, j + 1) + 1;
        if (j >= n || toks[j].kind != Tok::Ident)
            return i; // anonymous struct — depth tracking suffices
        name = std::string(toks[j].text);
        // Find the body '{' or a ';' (forward declaration) first.
        for (size_t k = j + 1; k < n; ++k) {
            if (toks[k].is(";") || toks[k].is("(") || toks[k].is("="))
                return i;
            if (toks[k].is("{")) {
                scopes.push_back({name, depth + 1});
                return k;
            }
        }
        return i;
    };

    for (size_t i = 0; i < n; ++i) {
        const Token &t = toks[i];

        if (t.is("{")) {
            ++depth;
            continue;
        }
        if (t.is("}")) {
            --depth;
            if (fn && depth < fnBodyDepth)
                fn = nullptr;
            while (!scopes.empty() && scopes.back().bodyDepth > depth)
                scopes.pop_back();
            continue;
        }

        if (!fn) {
            if (t.kind == Tok::Ident && isNondetType(t.text))
                fileScope.detSources.push_back(
                    {"std::" + std::string(t.text), t.line});
            if (t.isIdent("namespace") || t.isIdent("class") ||
                t.isIdent("struct") || t.isIdent("union") ||
                t.isIdent("enum")) {
                size_t brace = openNamedScope(i);
                if (brace != i)
                    i = brace - 1; // loop's ++i lands on the '{'
                continue;
            }
            // Function definition: ident '(' ... ')' trailer '{'.
            if (t.kind == Tok::Ident && !isCallKeyword(t.text) &&
                i + 1 < n && toks[i + 1].is("(")) {
                size_t close = matchParen(toks, i + 1);
                if (close == n)
                    continue;
                size_t body = findBodyBrace(toks, close + 1);
                if (body == static_cast<size_t>(-1))
                    continue;
                FunctionIndex f;
                f.name = std::string(t.text);
                if (i >= 1 && toks[i - 1].is("~"))
                    f.name = "~" + f.name;
                f.line = t.line;
                std::string qual = qualChainBefore(toks, i);
                std::string outer;
                for (const Scope &s : scopes)
                    if (!s.name.empty())
                        outer += s.name + "::";
                f.qualName = outer +
                             (qual.empty() ? "" : qual + "::") + f.name;
                tu.functions.push_back(std::move(f));
                fn = &tu.functions.back();
                fnBodyDepth = depth + 1;
                // Record initializer-list calls (`ctor() : a_(g()) {`)
                // as entry calls, then resume at the body brace.
                for (size_t k = close + 1; k + 1 < body; ++k)
                    if (toks[k].kind == Tok::Ident &&
                        !isCallKeyword(toks[k].text) &&
                        toks[k + 1].is("(") && k > close + 1 &&
                        !toks[k - 1].is(":") && !toks[k - 1].is(",")) {
                        CallEvent c;
                        c.name = std::string(toks[k].text);
                        c.qualHint = qualChainBefore(toks, k);
                        c.line = toks[k].line;
                        fn->calls.push_back(std::move(c));
                    }
                i = body - 1; // loop's ++i lands on the '{'
                continue;
            }
            continue;
        }

        // ---- inside a function body ----
        if (t.kind != Tok::Ident)
            continue;
        bool prevMember =
            i > 0 && (toks[i - 1].is(".") || toks[i - 1].is("->"));
        bool isCall = i + 1 < n && toks[i + 1].is("(");
        bool plainCall = isCall && !prevMember;
        bool stdQualified =
            i >= 2 && toks[i - 1].is("::") && toks[i - 2].isIdent("std");
        std::string name(t.text);

        // Determinism: host RNG and wall-clock reads.
        if (plainCall && isNondetCall(t.text))
            fn->detSources.push_back({name + "()", t.line});
        else if (!prevMember && isNondetType(t.text))
            fn->detSources.push_back({"std::" + name, t.line});

        // Fork safety: work that is unsafe to duplicate across fork().
        // stderr is unbuffered, so stdio aimed at it is tolerated.
        if ((stdQualified && isAnyOf(t.text, {"thread", "jthread",
                                              "async"})) ||
            (plainCall && t.is("pthread_create")))
            fn->forkHazards.push_back(
                {name + " spawns a thread the fork child will not "
                        "inherit",
                 t.line});
        else if (isLockGuardType(t.text) ||
                 (plainCall && t.is("pthread_mutex_lock")) ||
                 (prevMember && isCall &&
                  isAnyOf(t.text, {"lock", "lock_shared"})))
            fn->forkHazards.push_back(
                {name + " takes a lock: a mutex held by another thread "
                        "at fork() stays locked forever in the child",
                 t.line});
        else if (plainCall && isBufferedStdio(t.text) &&
                 !argsMention(toks, i + 1, "stderr"))
            fn->forkHazards.push_back(
                {name + "() buffers in user space; bytes pending at "
                        "fork() are emitted by parent and child",
                 t.line});
        else if (plainCall && t.is("fflush") &&
                 !argsMention(toks, i + 1, "stderr"))
            fn->forkHazards.push_back(
                {"fflush() emits bytes another process may also hold "
                 "buffered; purge, don't flush, inherited stdio state",
                 t.line});
        else if (plainCall &&
                 isAnyOf(t.text, {"exit", "atexit", "at_quick_exit"}))
            fn->forkHazards.push_back(
                {name + "() runs atexit handlers and flushes inherited "
                        "stdio; a fork child must _exit()",
                 t.line});

        // Range-for iteration: for ( decl : expr ).
        if (t.isIdent("for") && isCall) {
            size_t close = matchParen(toks, i + 1);
            bool classic = false;
            size_t colon = 0;
            int d = 0;
            for (size_t k = i + 2; k < close && k < n; ++k) {
                if (toks[k].is("(") || toks[k].is("[") || toks[k].is("{"))
                    ++d;
                else if (toks[k].is(")") || toks[k].is("]") ||
                         toks[k].is("}"))
                    --d;
                else if (toks[k].is(";") && d == 0) {
                    classic = true;
                    break;
                } else if (toks[k].is(":") && d == 0 && colon == 0)
                    colon = k;
            }
            if (!classic && colon != 0) {
                IterEvent e;
                e.line = t.line;
                for (size_t k = colon + 1; k < close; ++k)
                    if (toks[k].kind == Tok::Ident &&
                        !isDeclKeyword(toks[k].text))
                        e.names.emplace_back(toks[k].text);
                if (!e.names.empty())
                    fn->iterUses.push_back(std::move(e));
            }
            continue;
        }
        // Explicit begin() iteration: X.begin() / X.cbegin().
        if ((t.isIdent("begin") || t.isIdent("cbegin")) && prevMember &&
            i >= 2 && toks[i - 2].kind == Tok::Ident && isCall) {
            IterEvent e;
            e.line = t.line;
            e.names.emplace_back(toks[i - 2].text);
            fn->iterUses.push_back(std::move(e));
        }

        // Arch-state stores: `.x[i] = v`, `->f[i] |= v`, `csr.mepc = v`.
        if ((t.isIdent("x") || t.isIdent("f")) && prevMember &&
            i + 1 < n && toks[i + 1].is("[")) {
            size_t close = matchParen(toks, i + 1);
            if (close + 1 < n && isAssignPunct(toks[close + 1]))
                fn->archWrites.push_back({name + "[] store", t.line});
        }
        if (t.isIdent("csr") && i + 3 < n && toks[i + 1].is(".") &&
            toks[i + 2].kind == Tok::Ident &&
            isProtectedCsr(toks[i + 2].text) &&
            isAssignPunct(toks[i + 3]))
            fn->archWrites.push_back(
                {"csr." + std::string(toks[i + 2].text) + " store",
                 t.line});

        // Call sites (after the special forms above).
        if (isCall && !isCallKeyword(t.text)) {
            CallEvent c;
            c.name = name;
            c.line = t.line;
            c.member = prevMember;
            if (!prevMember)
                c.qualHint = qualChainBefore(toks, i);
            else if (i >= 2 && toks[i - 2].kind == Tok::Ident)
                c.recv = std::string(toks[i - 2].text);
            fn->calls.push_back(std::move(c));
        }
    }

    if (!fileScope.detSources.empty())
        tu.functions.push_back(std::move(fileScope));
    return tu;
}

} // namespace minjie::analysis
