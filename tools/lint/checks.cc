#include "lint/checks.hh"

#include <algorithm>
#include <set>

namespace mcsim::lint
{

namespace
{

constexpr const char *kNoEntropy = "no-entropy";
constexpr const char *kUnordered = "no-unordered-iteration";
constexpr const char *kPtrOrder = "no-pointer-ordering";
constexpr const char *kSwitch = "protocol-switch-exhaustiveness";
constexpr const char *kChoiceSeam = "choice-seam";
constexpr const char *kAudit = "suppression-audit";

/** The suppression spelling the issue tracker standardized on for
 *  unordered walks; resolves to no-unordered-iteration. */
constexpr const char *kOrderInsensitive = "order-insensitive";

const std::vector<CheckInfo> infos = {
    {kNoEntropy,
     "ban wall-clock, PRNG-from-environment, and pointer-value entropy"},
    {kUnordered,
     "iteration over unordered containers needs an order-insensitive "
     "suppression with a reason"},
    {kPtrOrder,
     "ordered containers keyed on pointers / relational pointer compares "
     "depend on allocator layout"},
    {kSwitch,
     "switches over protocol enums must spell out every kind instead of "
     "a default arm"},
    {kChoiceSeam,
     "nondeterministic decisions must route through sim/choice.hh "
     "registered seam sites"},
    {kAudit,
     "every mcsim-lint suppression must name a real check and carry a "
     "non-empty reason"},
};

bool
pathHas(const std::string &path, std::string_view needle)
{
    return path.find(needle) != std::string::npos;
}

/** Timing/scheduling layers where ad-hoc entropy is banned outright. */
bool
inTimingLayer(const std::string &path)
{
    return pathHas(path, "src/cpu/") || pathHas(path, "src/mem/") ||
           pathHas(path, "src/net/") || pathHas(path, "src/sim/event_queue");
}

/**
 * The registered choice-seam sites: the seam definition itself, the
 * three component layers that expose their races through it, and the
 * model-checker schedulers that implement the interface. Adding a new
 * nondeterministic site means extending this list -- in a reviewed
 * diff, which is exactly the point.
 */
bool
inSeamAllowlist(const std::string &path)
{
    return pathHas(path, "src/sim/choice") ||
           pathHas(path, "src/net/omega_network.hh") ||
           pathHas(path, "src/mem/cache.cc") ||
           pathHas(path, "src/mem/memory_module.cc") ||
           pathHas(path, "src/mc/");
}

/** Index one past the `)` matching the `(` at @p open. */
std::size_t
matchParen(const std::vector<Token> &toks, std::size_t open, std::size_t n)
{
    int depth = 0;
    for (std::size_t i = open; i < n; ++i) {
        if (toks[i].is("("))
            ++depth;
        else if (toks[i].is(")") && --depth == 0)
            return i + 1;
    }
    return n;
}

/** Index one past the `>` matching the `<` at @p open (see symbols.cc). */
std::size_t
matchAngle(const std::vector<Token> &toks, std::size_t open, std::size_t n)
{
    int depth = 0;
    for (std::size_t i = open; i < n; ++i) {
        if (toks[i].is("<")) {
            ++depth;
        } else if (toks[i].is(">")) {
            if (--depth == 0)
                return i + 1;
        } else if (toks[i].is(";") || toks[i].is("{")) {
            return n;
        }
    }
    return n;
}

struct Raw
{
    unsigned line;
    const char *check;
    std::string message;
};

void
checkNoEntropy(const LexedFile &f, std::vector<Raw> &out)
{
    static const std::set<std::string_view> bannedTypes = {
        "system_clock",   "steady_clock", "high_resolution_clock",
        "random_device",  "mt19937",      "mt19937_64",
        "default_random_engine", "minstd_rand", "minstd_rand0",
        "ranlux24",       "ranlux48",     "knuth_b",
    };
    static const std::set<std::string_view> bannedCalls = {
        "time",      "clock",        "rand",         "srand",
        "random",    "drand48",      "lrand48",      "getpid",
        "gettimeofday", "clock_gettime", "localtime", "gmtime",
    };
    const auto &t = f.tokens;
    const std::size_t n = t.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (t[i].pp || t[i].kind != Tok::Ident)
            continue;
        if (bannedTypes.count(t[i].text)) {
            out.push_back({t[i].line, kNoEntropy,
                           std::string("'")
                               .append(t[i].text)
                               .append("' injects wall-clock/environment "
                                       "entropy; runs must be pure functions "
                                       "of config and seed (sim/random.hh)")});
            continue;
        }
        if (bannedCalls.count(t[i].text) && i + 1 < n && t[i + 1].is("(") &&
            (i == 0 || (!t[i - 1].is(".") && !t[i - 1].is("->")))) {
            out.push_back({t[i].line, kNoEntropy,
                           "call to '" + std::string(t[i].text) +
                               "()' reads the environment; derive values "
                               "from the run seed instead"});
            continue;
        }
        if (t[i].is("reinterpret_cast") && i + 1 < n && t[i + 1].is("<")) {
            const std::size_t end = matchAngle(t, i + 1, n);
            for (std::size_t k = i + 2; k + 1 < end; ++k) {
                if (t[k].isIdent("uintptr_t") || t[k].isIdent("intptr_t")) {
                    out.push_back(
                        {t[i].line, kNoEntropy,
                         "pointer-to-integer cast makes a value depend on "
                         "allocator layout; use a stable id"});
                    break;
                }
            }
        }
    }
}

void
checkUnorderedIteration(const LexedFile &f, const SymbolIndex &index,
                        std::vector<Raw> &out)
{
    const auto &t = f.tokens;
    const std::size_t n = t.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (t[i].pp || t[i].kind != Tok::Ident)
            continue;

        // Range-for over an unordered container.
        if (t[i].is("for") && i + 1 < n && t[i + 1].is("(")) {
            const std::size_t end = matchParen(t, i + 1, n);
            std::size_t colon = 0;
            bool classic = false;
            int depth = 0;
            for (std::size_t k = i + 1; k < end; ++k) {
                if (t[k].is("("))
                    ++depth;
                else if (t[k].is(")"))
                    --depth;
                else if (depth == 1 && t[k].is(";"))
                    classic = true;
                else if (depth == 1 && t[k].is(":") && colon == 0)
                    colon = k;
            }
            if (classic || colon == 0 || end == n)
                continue;
            // Terminal name of the range expression (`m`, `st.m`,
            // `obj->fn()` -> fn): scan back over one trailing call.
            std::size_t k = end - 2;  // before the closing ')'
            if (t[k].is(")")) {
                int d = 0;
                while (k > colon) {
                    if (t[k].is(")"))
                        ++d;
                    else if (t[k].is("(") && --d == 0)
                        break;
                    --k;
                }
                if (k > colon)
                    --k;
            }
            if (k > colon && t[k].kind == Tok::Ident &&
                index.unorderedNames.count(std::string(t[k].text))) {
                out.push_back(
                    {t[i].line, kUnordered,
                     "iteration over unordered container '" +
                         std::string(t[k].text) +
                         "' -- sort/drain deterministically or annotate "
                         "`// mcsim-lint: order-insensitive(<reason>)`"});
            }
            continue;
        }

        // Iterator walk / algorithm: unordered.begin() or ->cbegin().
        if (index.unorderedNames.count(std::string(t[i].text)) &&
            i + 3 < n && (t[i + 1].is(".") || t[i + 1].is("->")) &&
            (t[i + 2].isIdent("begin") || t[i + 2].isIdent("cbegin")) &&
            t[i + 3].is("(")) {
            out.push_back(
                {t[i].line, kUnordered,
                 "iterator walk over unordered container '" +
                     std::string(t[i].text) +
                     "' -- sort/drain deterministically or annotate "
                     "`// mcsim-lint: order-insensitive(<reason>)`"});
        }
    }
}

/** True when tokens at [i..] spell `& ident` with an expression start
 *  before the `&` (address-of, not bitwise-and). */
bool
isAddressOf(const std::vector<Token> &t, std::size_t i, std::size_t n)
{
    if (i + 1 >= n || !t[i].is("&") || t[i + 1].kind != Tok::Ident)
        return false;
    if (i == 0)
        return true;
    const Token &p = t[i - 1];
    return p.is("(") || p.is(",") || p.is("=") || p.is("&&") || p.is("||") ||
           p.is(";") || p.is("{") || p.is("return") ||
           p.is("<") || p.is(">") || p.is("<=") || p.is(">=");
}

/** True when tokens ending at @p i (inclusive) spell `.get()`/`->get()`. */
bool
endsInGetCall(const std::vector<Token> &t, std::size_t i)
{
    return i >= 3 && t[i].is(")") && t[i - 1].is("(") &&
           t[i - 2].isIdent("get") &&
           (t[i - 3].is(".") || t[i - 3].is("->"));
}

void
checkPointerOrdering(const LexedFile &f, std::vector<Raw> &out)
{
    const auto &t = f.tokens;
    const std::size_t n = t.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (t[i].pp)
            continue;

        // std::map/std::set keyed on a pointer type.
        if (t[i].kind == Tok::Ident &&
            (t[i].is("map") || t[i].is("set") || t[i].is("multimap") ||
             t[i].is("multiset")) &&
            i > 0 && t[i - 1].is("::") && i + 1 < n && t[i + 1].is("<")) {
            const std::size_t end = matchAngle(t, i + 1, n);
            int depth = 0;
            for (std::size_t k = i + 1; k < end; ++k) {
                if (t[k].is("<"))
                    ++depth;
                else if (t[k].is(">"))
                    --depth;
                else if (depth == 1 && t[k].is(","))
                    break;  // past the key type
                else if (depth == 1 && t[k].is("*")) {
                    out.push_back(
                        {t[i].line, kPtrOrder,
                         "ordered container keyed on a pointer orders "
                         "behavior by allocator layout; key on a stable "
                         "id instead"});
                    break;
                }
            }
            continue;
        }

        // Relational comparison of addresses: `&a < &b` or
        // `x.get() < y.get()`.
        if (t[i].kind == Tok::Punct &&
            (t[i].is("<") || t[i].is(">") || t[i].is("<=") ||
             t[i].is(">="))) {
            const bool leftAddr = i >= 2 && t[i - 1].kind == Tok::Ident &&
                                  isAddressOf(t, i - 2, n);
            const bool leftGet = i >= 1 && endsInGetCall(t, i - 1);
            const bool rightAddr = isAddressOf(t, i + 1, n);
            const bool rightGet =
                i + 3 < n && t[i + 1].kind == Tok::Ident &&
                (t[i + 2].is(".") || t[i + 2].is("->")) &&
                t[i + 3].isIdent("get");
            if ((leftAddr || leftGet) && (rightAddr || rightGet)) {
                out.push_back(
                    {t[i].line, kPtrOrder,
                     "relational comparison between unrelated pointers "
                     "depends on allocator layout"});
            }
        }
    }
}

void
checkSwitchExhaustiveness(const LexedFile &f, const SymbolIndex &index,
                          std::vector<Raw> &out)
{
    const auto &t = f.tokens;
    const std::size_t n = t.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (t[i].pp || !t[i].isIdent("switch") || i + 1 >= n ||
            !t[i + 1].is("("))
            continue;
        std::size_t body = matchParen(t, i + 1, n);
        if (body >= n || !t[body].is("{"))
            continue;

        std::string enumName;
        unsigned defaultLine = 0;
        int depth = 0;
        for (std::size_t k = body; k < n; ++k) {
            if (t[k].is("{")) {
                ++depth;
                continue;
            }
            if (t[k].is("}")) {
                if (--depth == 0)
                    break;
                continue;
            }
            if (depth != 1)
                continue;  // nested switches report themselves
            if (t[k].isIdent("default") && k + 1 < n && t[k + 1].is(":")) {
                if (defaultLine == 0)
                    defaultLine = t[k].line;
                continue;
            }
            if (t[k].isIdent("case")) {
                // Qualified labels only: Enum::Value. Scan to the `:`.
                for (std::size_t j = k + 1; j + 2 < n && !t[j].is(":");
                     ++j) {
                    if (t[j].kind == Tok::Ident && t[j + 1].is("::") &&
                        t[j + 2].kind == Tok::Ident &&
                        index.enums.count(std::string(t[j].text))) {
                        enumName = std::string(t[j].text);
                        break;
                    }
                }
            }
        }
        if (!enumName.empty() && defaultLine != 0) {
            out.push_back(
                {defaultLine, kSwitch,
                 "switch over closed enum '" + enumName +
                     "' hides unhandled kinds behind a default arm; "
                     "spell out every enumerator (unreachableMessage() "
                     "for impossible ones) so -Wswitch flags additions"});
        }
    }
}

void
checkChoiceSeam(const LexedFile &f, std::vector<Raw> &out)
{
    const auto &t = f.tokens;
    const std::size_t n = t.size();
    const bool timing = inTimingLayer(f.path);
    const bool allowed = inSeamAllowlist(f.path);
    for (std::size_t i = 0; i < n; ++i) {
        if (t[i].pp || t[i].kind != Tok::Ident)
            continue;
        if (timing && !allowed &&
            (t[i].is("Rng") || t[i].is("splitmix64") || t[i].is("fnv1a"))) {
            out.push_back(
                {t[i].line, kChoiceSeam,
                 std::string("'")
                     .append(t[i].text)
                     .append("' in a timing/scheduling layer; decisions "
                             "here must come from config, the FaultPlan, "
                             "or a sim/choice.hh seam site")});
            continue;
        }
        if (!allowed && t[i].is("choose") && i > 0 &&
            (t[i - 1].is(".") || t[i - 1].is("->")) && i + 1 < n &&
            t[i + 1].is("(")) {
            out.push_back(
                {t[i].line, kChoiceSeam,
                 "ChoiceScheduler::choose() outside the registered seam "
                 "sites; add the site to sim/choice.hh's contract and "
                 "the tools/lint seam registry"});
        }
    }
}

} // namespace

const std::vector<CheckInfo> &
checkInfos()
{
    return infos;
}

bool
isKnownCheck(const std::string &name)
{
    if (name == kOrderInsensitive)
        return true;
    return std::any_of(infos.begin(), infos.end(),
                       [&](const CheckInfo &c) { return name == c.name; });
}

void
runChecks(const LexedFile &file, const SymbolIndex &index,
          const std::string &only, std::vector<Finding> &findings)
{
    std::vector<Raw> raw;
    checkNoEntropy(file, raw);
    checkUnorderedIteration(file, index, raw);
    checkPointerOrdering(file, raw);
    checkSwitchExhaustiveness(file, index, raw);
    checkChoiceSeam(file, raw);

    auto suppressed = [&](const Raw &r) {
        for (unsigned line : {r.line, r.line - 1}) {
            auto it = file.suppressions.find(line);
            if (it == file.suppressions.end())
                continue;
            for (const Suppression &s : it->second) {
                const bool names =
                    s.check == r.check ||
                    (s.check == kOrderInsensitive && r.check == kUnordered);
                if (names && !s.reason.empty())
                    return true;
            }
        }
        return false;
    };

    for (const Raw &r : raw) {
        if (!only.empty() && only != r.check)
            continue;
        if (suppressed(r))
            continue;
        findings.push_back({file.path, r.line, r.check, r.message});
    }

    // Suppression audit: annotations must parse, name a real check, and
    // carry a written reason -- the suppression table doubles as the
    // reviewed registry of every place the rules are waived.
    if (!only.empty() && only != kAudit)
        return;
    for (const auto &[line, entries] : file.suppressions) {
        for (const Suppression &s : entries) {
            if (s.malformed) {
                findings.push_back(
                    {file.path, line, kAudit,
                     "unparsable mcsim-lint annotation; expected "
                     "`mcsim-lint: <check>(<reason>)`"});
            } else if (!isKnownCheck(s.check)) {
                findings.push_back(
                    {file.path, line, kAudit,
                     "suppression names unknown check '" + s.check + "'"});
            } else if (s.reason.empty()) {
                findings.push_back(
                    {file.path, line, kAudit,
                     "suppression of '" + s.check +
                         "' carries no reason; write down why the site "
                         "is exempt"});
            }
        }
    }
}

} // namespace mcsim::lint
