#include "procoup/gen/generator.hh"

#include <algorithm>
#include <cstddef>

#include "procoup/support/rng.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace gen {

namespace {

/* Data-segment shape shared by every generated program. Sizes are
 * fixed so index range-reduction can fold to constants; the output
 * arrays grow to however many private slots the program allocated. */
constexpr int kInSize = 12;   // `in`   — read-only int input
constexpr int kFinSize = 8;   // `fin`  — read-only float input
constexpr int kWorkSize = 8;  // `work` — main-only scratch, always full
constexpr int kAccSize = 6;   // `acc`  — commutative shared counters

/** One register variable in scope. */
struct Var
{
    std::string name;
    bool isFloat = false;
    bool assignable = true;  // while-loop counters are off limits
};

/** Where code is being generated; controls which effects are legal. */
struct Ctx
{
    bool main = true;  ///< main thread: globals and `work` are allowed
    bool pure = false; ///< helper body: only params and `in`
    std::vector<Var> vars;

    const Var*
    pickVar(Rng& rng, bool wantFloat) const
    {
        std::vector<const Var*> c;
        for (const auto& v : vars)
            if (v.isFloat == wantFloat)
                c.push_back(&v);
        if (c.empty())
            return nullptr;
        return c[static_cast<std::size_t>(
            rng.uniformInt(0, static_cast<std::int64_t>(c.size()) - 1))];
    }
};

class Gen
{
  public:
    Gen(std::uint64_t seed, const GenOptions& opts)
        : rng(seed ^ 0x9e3779b97f4a7c15ULL), o(opts), seed(seed)
    {
    }

    GeneratedProgram
    run()
    {
        // Feature roll-up for this seed. Threads and sync are rolled
        // per program so the corpus also covers the scalar subset.
        floats = o.floats && rng.chance(0.7);
        sync = o.sync && rng.chance(0.8);
        threads = o.threads && rng.chance(0.85);

        if (rng.chance(0.5))
            defineHelper();
        if (threads)
            defineWorker();

        std::vector<std::string> top;
        const int n = static_cast<int>(
            rng.uniformInt(o.minTopStatements, o.maxTopStatements));
        Ctx main;
        // The first statement pins down at least one observable slot.
        top.push_back(statementPrivateWrite(main));
        for (int s = 1; s < n; ++s)
            top.push_back(statement(main, 0, /*top=*/true));
        if (threads && !usesThreads)
            top.push_back(statementForall(main, 0));

        GeneratedProgram p;
        p.seed = seed;
        p.usesThreads = usesThreads;
        p.source = assemble(top, p.checkedSymbols);
        return p;
    }

  private:
    // ---- random helpers ------------------------------------------------

    int
    irange(int lo, int hi)
    {
        return static_cast<int>(rng.uniformInt(lo, hi));
    }

    /** Dyadic-rational float constant: exact in binary, and its
     *  3-decimal rendering round-trips through the lexer exactly. */
    std::string
    floatConst()
    {
        return fixed(irange(-40, 40) / 8.0, 3);
    }

    // ---- expressions ---------------------------------------------------

    /** Constant index into an array of @p size. */
    std::string
    constIdx(int size)
    {
        return strCat(irange(0, size - 1));
    }

    /** Index expression guaranteed to land in [0, size). */
    std::string
    idx(int size, Ctx& c, int depth)
    {
        if (depth <= 0 || rng.chance(0.6))
            return constIdx(size);
        return strCat("(mod (+ ", size, " (mod ", intExpr(c, 1), " ",
                      size, ")) ", size, ")");
    }

    std::string
    intLeaf(Ctx& c)
    {
        for (;;) {
            switch (irange(0, 5)) {
              case 0:
              case 1:
                return strCat(irange(-99, 99));
              case 2: {
                if (const Var* v = c.pickVar(rng, false))
                    return v->name;
                break;
              }
              case 3:
                return strCat("(aref in ", constIdx(kInSize), ")");
              case 4:
                if (c.main && !c.pure) {
                    return rng.chance(0.5) ? "g0" : "g1";
                }
                break;
              case 5:
                if (c.main && !c.pure) {
                    usedWork = true;
                    const char* op =
                        sync && rng.chance(0.4) ? "wait-load" : "aref";
                    return strCat("(", op, " work ", constIdx(kWorkSize),
                                  ")");
                }
                break;
            }
        }
    }

    /** Integer expression; every operator keeps the value bounded
     *  (products go through `mod 97`, so nothing overflows even when
     *  accumulated across loops). */
    std::string
    intExpr(Ctx& c, int depth)
    {
        if (depth <= 0)
            return intLeaf(c);
        switch (irange(0, 6)) {
          case 0:
            return strCat("(+ ", intExpr(c, depth - 1), " ",
                          intExpr(c, depth - 1), ")");
          case 1:
            return strCat("(- ", intExpr(c, depth - 1), " ",
                          intExpr(c, depth - 1), ")");
          case 2:
            return strCat("(* (mod ", intExpr(c, depth - 1), " 97) (mod ",
                          intExpr(c, depth - 1), " 97))");
          case 3:
            return strCat("(mod ", intExpr(c, depth - 1), " ",
                          irange(2, 13), ")");
          case 4:
            if (helperDefined && !c.pure)
                return strCat("(h ", intExpr(c, depth - 1), ")");
            return intLeaf(c);
          case 5:
            // Only bounded float forms face FTOI, so it truncates them
            // to small integers rather than saturating to INT64_MIN.
            if (floats)
                return strCat("(int ", smallFloat(), ")");
            return intLeaf(c);
          default:
            return intLeaf(c);
        }
    }

    /** Float atom with magnitude <= ~5: constant or `fin` element.
     *  No locals — this is the building block of forms that must stay
     *  small enough for FTOI to truncate (isa::truncToInt gives
     *  INT64_MIN for an out-of-int64-range operand). */
    std::string
    floatAtom()
    {
        if (rng.chance(0.5)) {
            usedFin = true;
            return strCat("(aref fin ", constIdx(kFinSize), ")");
        }
        return floatConst();
    }

    /** Float expression bounded by construction (|value| <= ~10):
     *  the only form the generator ever puts under `(int ...)`. */
    std::string
    smallFloat()
    {
        if (rng.chance(0.5))
            return strCat("(* 0.125 (* ", floatAtom(), " ", floatAtom(),
                          "))");
        return floatAtom();
    }

    std::string
    floatLeaf(Ctx& c)
    {
        for (;;) {
            switch (irange(0, 3)) {
              case 0:
                return floatConst();
              case 1: {
                if (const Var* v = c.pickVar(rng, true))
                    return v->name;
                break;
              }
              case 2:
                usedFin = true;
                return strCat("(aref fin ", constIdx(kFinSize), ")");
              case 3:
                if (c.main && !c.pure)
                    return "gf";
                break;
            }
        }
    }

    /** Float expression. Growth is kept structurally bounded: sums
     *  combine subexpressions, but products only ever multiply small
     *  atoms (and are damped by 0.125), and float locals are assigned
     *  exclusively through a contraction (see statementSet) — so no
     *  chain of generated statements can reach infinity or NaN, and
     *  float equality across modes stays bitwise-exact. */
    std::string
    floatExpr(Ctx& c, int depth)
    {
        if (depth <= 0)
            return floatLeaf(c);
        switch (irange(0, 3)) {
          case 0:
            return strCat("(+ ", floatExpr(c, depth - 1), " ",
                          floatExpr(c, depth - 1), ")");
          case 1:
            return strCat("(- ", floatExpr(c, depth - 1), " ",
                          floatExpr(c, depth - 1), ")");
          case 2:
            return smallFloat();
          default:
            return strCat("(float (mod ", intExpr(c, depth - 1),
                          " 97))");
        }
    }

    std::string
    cond(Ctx& c)
    {
        static const char* kCmp[] = {"<", ">", "<=", ">=", "=", "!="};
        const std::string base =
            strCat("(", kCmp[irange(0, 5)], " ", intExpr(c, 1), " ",
                   intExpr(c, 1), ")");
        switch (irange(0, 5)) {
          case 0:
            return strCat("(and ", base, " (",
                          kCmp[irange(0, 5)], " ", intExpr(c, 1), " ",
                          intExpr(c, 1), "))");
          case 1:
            return strCat("(not ", base, ")");
          default:
            return base;
        }
    }

    // ---- private-slot management --------------------------------------

    /** Reserve @p count consecutive int output slots; the caller must
     *  be the only writer of the region. */
    int
    allocInt(int count)
    {
        const int base = intSlots;
        intSlots += count;
        return base;
    }

    int
    allocFloat(int count)
    {
        usedFout = true;
        const int base = floatSlots;
        floatSlots += count;
        return base;
    }

    // ---- statements ----------------------------------------------------

    /** Write one fresh private slot (always legal; always observable). */
    std::string
    statementPrivateWrite(Ctx& c)
    {
        if (floats && rng.chance(0.3))
            return strCat("(aset fout ", allocFloat(1), " ",
                          floatExpr(c, o.maxExprDepth), ")");
        return strCat("(aset iout ", allocInt(1), " ",
                      intExpr(c, o.maxExprDepth), ")");
    }

    /** Commutative shared-counter bump: take serializes concurrent
     *  writers, the constant addend keeps the sum order-independent. */
    std::string
    statementAccBump(Ctx&)
    {
        usedAcc = true;
        const int i = irange(0, kAccSize - 1);
        return strCat("(aset acc ", i, " (+ ", irange(1, 9), " (take acc ",
                      i, ")))");
    }

    std::string
    statementSet(Ctx& c)
    {
        // Prefer a local; fall back to a global (main) or a fresh slot.
        const bool wantFloat = floats && rng.chance(0.35);
        if (const Var* v = c.pickVar(rng, wantFloat)) {
            if (v->assignable) {
                if (v->isFloat)
                    // Contraction keeps loop-carried floats bounded.
                    return strCat("(set ", v->name, " (+ (* 0.5 ",
                                  v->name, ") ", floatExpr(c, 2), "))");
                return strCat("(set ", v->name, " (mod ",
                              intExpr(c, o.maxExprDepth), " 9973))");
            }
        }
        if (c.main) {
            if (wantFloat)
                return strCat("(set gf (+ (* 0.5 gf) ", floatExpr(c, 2),
                              "))");
            return strCat("(set ", rng.chance(0.5) ? "g0" : "g1",
                          " (mod ", intExpr(c, o.maxExprDepth),
                          " 9973))");
        }
        // Thread context with nothing assignable: fall back to an
        // effect that is always interleaving-safe.
        if (sync)
            return statementAccBump(c);
        return strCat("(mark ", irange(0, 15), ")");
    }

    std::string
    statementWork(Ctx& c)
    {
        usedWork = true;
        if (sync && rng.chance(0.3)) {
            // take/add/store refill: the cell is empty only for the
            // duration of one dependent chain, then full again.
            const std::string i = constIdx(kWorkSize);
            return strCat("(aset work ", i, " (+ ", irange(1, 9),
                          " (take work ", i, ")))");
        }
        // `work` values feed back into later expressions, so keep
        // them range-reduced: bounded leaves keep every intermediate
        // well inside int64, so no value depends on the ALU's
        // wrap-around.
        return strCat("(aset work ", idx(kWorkSize, c, 1), " (mod ",
                      intExpr(c, o.maxExprDepth), " 9973))");
    }

    std::string
    block(Ctx& c, int nest, int count)
    {
        std::string out;
        for (int s = 0; s < count; ++s)
            out += strCat(" ", statement(c, nest, /*top=*/false));
        return out;
    }

    /** Main-context for: indexes a private region so every iteration
     *  writes its own slot (re-executions under an enclosing loop
     *  rewrite the same slots sequentially, which is still
     *  deterministic — main alone owns them). */
    std::string
    statementFor(Ctx& c, int nest)
    {
        const std::string v = freshVar();
        const int trip = irange(2, 4);
        const bool unroll = rng.chance(0.2);
        const int base = allocInt(trip);
        Ctx inner = c;
        inner.vars.push_back({v, false, false});
        std::string body =
            strCat(" (aset iout (+ ", base, " ", v, ") ",
                   intExpr(inner, 2), ")");
        body += block(inner, nest + 1, irange(0, 2));
        return strCat("(for (", v, " 0 ", trip, unroll ? " :unroll" : "",
                      ")", body, ")");
    }

    /** Thread-context for: no slot region (sibling threads would race
     *  on it); the body sticks to locals and commutative effects. */
    std::string
    statementForThread(Ctx& c, int nest)
    {
        const std::string v = freshVar();
        Ctx inner = c;
        inner.vars.push_back({v, false, false});
        return strCat("(for (", v, " 0 ", irange(2, 4), ")",
                      block(inner, nest + 1, irange(1, 2)), ")");
    }

    std::string
    statementWhile(Ctx& c, int nest)
    {
        const std::string v = freshVar();
        const int trip = irange(2, 4);
        Ctx inner = c;
        inner.vars.push_back({v, false, false});  // not assignable
        return strCat("(let ((", v, " ", trip, ")) (while (> ", v, " 0)",
                      block(inner, nest + 1, irange(1, 2)), " (set ", v,
                      " (- ", v, " 1))))");
    }

    std::string
    statementIf(Ctx& c, int nest)
    {
        std::string out = strCat("(if ", cond(c), " (begin",
                                 block(c, nest + 1, irange(1, 2)), ")");
        if (rng.chance(0.5))
            out += strCat(" (begin", block(c, nest + 1, irange(1, 2)),
                          ")");
        return out + ")";
    }

    std::string
    statementLet(Ctx& c, int nest)
    {
        const std::string v = freshVar();
        const bool isFloat = floats && rng.chance(0.3);
        Ctx inner = c;
        inner.vars.push_back({v, isFloat, true});
        const std::string init = isFloat ? floatExpr(c, 2)
                                         : intExpr(c, 2);
        return strCat("(let ((", v, " ", init, "))",
                      block(inner, nest + 1, irange(1, 3)), ")");
    }

    /** A forall over a private region: each child owns exactly one
     *  slot, so the final contents are interleaving-independent. The
     *  body captures nothing (the region base folds to a literal),
     *  satisfying the 2-variable capture limit. */
    std::string
    statementForall(Ctx&, int nest)
    {
        usesThreads = true;
        const std::string v = freshVar();
        const int trip = irange(2, 4);
        Ctx body;
        body.main = false;
        body.vars.push_back({v, false, false});
        std::string out;
        if (floats && rng.chance(0.25)) {
            const int base = allocFloat(trip);
            out = strCat("(forall (", v, " 0 ", trip, ") (aset fout (+ ",
                         base, " ", v, ") ", floatExpr(body, 2), ")");
        } else {
            const int base = allocInt(trip);
            out = strCat("(forall (", v, " 0 ", trip, ") (aset iout (+ ",
                         base, " ", v, ") ", intExpr(body, 2), ")");
        }
        if (sync && rng.chance(0.4))
            out += strCat(" ", statementAccBump(body));
        if (nest < o.maxNest && rng.chance(0.3))
            out += strCat(" ", statementLet(body, nest + 1));
        return out + ")";
    }

    /** Fire-and-forget worker thread writing its own slot region. */
    std::string
    statementFork(Ctx& c)
    {
        usesThreads = true;
        const int base = allocInt(workerStride);
        return strCat("(fork (w0 ", base, " ", intExpr(c, 2), "))");
    }

    /** Single-producer single-consumer ring: a forked producer `put`s
     *  N items through a small channel; main `take`s all N in order.
     *  Matched counts make it deadlock-free; one producer and one
     *  consumer per cell make the final channel contents (the last
     *  value put to each cell) deterministic. */
    std::string
    statementPipeline(Ctx& c)
    {
        usesThreads = true;
        usesPipeline = true;
        const int cap = irange(2, 3);
        const int n = irange(6, 11);
        chCapacity = cap;
        const int a = irange(2, 9);
        const int b = irange(0, 9);
        defuns += strCat("(defun prod ()\n  (for (i 0 ", n,
                         ") (put ch0 (mod i ", cap, ") (mod (* ", a,
                         " (+ i ", b, ")) 97))))\n\n");
        const int base = allocInt(n);
        const std::string v = freshVar();
        Ctx inner = c;
        inner.vars.push_back({v, false, false});
        return strCat("(begin (fork (prod)) (for (", v, " 0 ", n,
                      ") (aset iout (+ ", base, " ", v, ") (mod (* ",
                      irange(2, 9), " (take ch0 (mod ", v, " ", cap,
                      "))) 997))))");
    }

    /** One statement legal in context @p c at nesting level @p nest.
     *  The two contexts have different menus: only main may touch
     *  globals, `work`, private-slot allocation, or spawn threads;
     *  thread bodies are restricted to locals, shared-counter bumps,
     *  and control flow around those. `fork` (fire-and-forget, no
     *  join) is further restricted to main's top level — forking from
     *  inside a loop would spawn concurrent workers sharing one slot
     *  region. */
    std::string
    statement(Ctx& c, int nest, bool top)
    {
        const bool deep = nest >= o.maxNest;
        for (;;) {
            const int k = irange(0, 9);
            if (c.main) {
                switch (k) {
                  case 0:
                    return statementPrivateWrite(c);
                  case 1:
                    return statementSet(c);
                  case 2:
                    return statementWork(c);
                  case 3:
                    if (!deep)
                        return statementFor(c, nest);
                    break;
                  case 4:
                    if (!deep && o.whileLoops)
                        return statementWhile(c, nest);
                    break;
                  case 5:
                    if (!deep)
                        return statementIf(c, nest);
                    break;
                  case 6:
                    if (!deep)
                        return statementLet(c, nest);
                    break;
                  case 7:
                    if (threads) {
                        if (top && sync && !usesPipeline &&
                            rng.chance(0.3))
                            return statementPipeline(c);
                        if (top && rng.chance(0.4))
                            return statementFork(c);
                        return statementForall(c, nest);
                    }
                    break;
                  default:
                    return strCat("(mark ", irange(0, 15), ")");
                }
            } else {
                switch (k) {
                  case 0:
                  case 1:
                    return statementSet(c);
                  case 2:
                    if (sync)
                        return statementAccBump(c);
                    break;
                  case 3:
                    if (!deep)
                        return statementForThread(c, nest);
                    break;
                  case 4:
                    if (!deep && o.whileLoops)
                        return statementWhile(c, nest);
                    break;
                  case 5:
                    if (!deep)
                        return statementIf(c, nest);
                    break;
                  case 6:
                    if (!deep)
                        return statementLet(c, nest);
                    break;
                  default:
                    return strCat("(mark ", irange(0, 15), ")");
                }
            }
        }
    }

    // ---- procedures ----------------------------------------------------

    /** Pure helper: only its parameter and `in`, so it is safe to call
     *  from any thread ("procedures must not reference caller locals"
     *  also means no globals sneak in via the inline expansion). */
    void
    defineHelper()
    {
        Ctx c;
        c.main = false;
        c.pure = true;
        c.vars.push_back({"p", false, false});
        defuns += strCat("(defun h (p)\n  (mod ", intExpr(c, 2),
                         " 9973))\n\n");
        helperDefined = true;
    }

    /** Worker spawned by `fork`: writes a caller-assigned region of
     *  `iout` (base arrives as the first argument) and optionally
     *  bumps a shared counter. */
    void
    defineWorker()
    {
        workerStride = irange(1, 2);
        Ctx c;
        c.main = false;
        c.vars.push_back({"p0", false, false});
        c.vars.push_back({"p1", false, false});
        std::string body;
        for (int k = 0; k < workerStride; ++k)
            body += strCat("\n  (aset iout (+ p0 ", k, ") ",
                           intExpr(c, 2), ")");
        if (sync && rng.chance(0.5))
            body += strCat("\n  ", statementAccBump(c));
        defuns += strCat("(defun w0 (p0 p1)", body, ")\n\n");
    }

    // ---- assembly ------------------------------------------------------

    std::string
    freshVar()
    {
        return strCat("v", varCounter++);
    }

    std::string
    assemble(const std::vector<std::string>& top,
             std::vector<std::string>& checked)
    {
        std::string s = strCat(";; generated: procoup gen seed=", seed,
                               "\n");
        auto declare = [&](const std::string& text,
                           const std::string& symbol) {
            s += text;
            checked.push_back(symbol);
        };

        declare(strCat("(defvar g0 ", irange(-20, 20), ")\n"), "g0");
        declare(strCat("(defvar g1 ", irange(-20, 20), ")\n"), "g1");
        if (floats)
            declare(strCat("(defvar gf ", floatConst(), ")\n"), "gf");

        std::string init = "(defarray in (12) :int :init (";
        for (int i = 0; i < kInSize; ++i)
            init += strCat(i ? " " : "", irange(-50, 99));
        declare(init + "))\n", "in");

        if (usedFin) {
            init = "(defarray fin (8) :float :init (";
            for (int i = 0; i < kFinSize; ++i)
                init += strCat(i ? " " : "", floatConst());
            declare(init + "))\n", "fin");
        }
        if (usedWork) {
            init = "(defarray work (8) :int :init (";
            for (int i = 0; i < kWorkSize; ++i)
                init += strCat(i ? " " : "", irange(0, 40));
            declare(init + "))\n", "work");
        }
        if (usedAcc)
            declare(strCat("(defarray acc (", kAccSize,
                           ") :int :init (0 0 0 0 0 0))\n"),
                    "acc");
        if (usesPipeline)
            declare(strCat("(defarray ch0 (", chCapacity,
                           ") :int :empty)\n"),
                    "ch0");
        declare(strCat("(defarray iout (", std::max(intSlots, 1),
                       ") :int)\n"),
                "iout");
        if (usedFout)
            declare(strCat("(defarray fout (", std::max(floatSlots, 1),
                           ") :float)\n"),
                    "fout");

        s += "\n" + defuns;
        s += "(defun main ()";
        for (const auto& stmt : top)
            s += "\n  " + stmt;
        s += ")\n";
        return s;
    }

    Rng rng;
    const GenOptions& o;
    const std::uint64_t seed;

    bool floats = false;
    bool sync = false;
    bool threads = false;

    bool usedWork = false;
    bool usedAcc = false;
    bool usedFin = false;
    bool usedFout = false;
    bool usesThreads = false;
    bool usesPipeline = false;
    bool helperDefined = false;
    int workerStride = 1;
    int chCapacity = 2;
    int intSlots = 0;
    int floatSlots = 0;
    int varCounter = 0;

    std::string defuns;
};

} // namespace

GeneratedProgram
generate(std::uint64_t seed, const GenOptions& opts)
{
    return Gen(seed, opts).run();
}

std::string
mutateToNearMiss(const std::string& source, std::uint64_t seed)
{
    Rng rng(seed * 0x2545f4914f6cdd1dULL + source.size());
    std::string s = source;
    if (s.empty())
        return "(";
    const auto pos = [&](std::size_t span) {
        return static_cast<std::size_t>(rng.uniformInt(
            0, static_cast<std::int64_t>(span) - 1));
    };
    switch (rng.uniformInt(0, 9)) {
      case 0:  // truncate mid-program
        return s.substr(0, 1 + pos(s.size()));
      case 1: {  // drop one ')'
        const std::size_t p = s.find(')', pos(s.size()));
        if (p != std::string::npos)
            s.erase(p, 1);
        return s;
      }
      case 2: {  // drop one '('
        const std::size_t p = s.find('(', pos(s.size()));
        if (p != std::string::npos)
            s.erase(p, 1);
        return s;
      }
      case 3:  // nesting bomb: must die at the parser depth cap
        return s + "\n(defun extra () " +
               std::string(static_cast<std::size_t>(
                               rng.uniformInt(250, 5000)),
                           '(');
      case 4:  // out-of-range integer literal
        s.insert(pos(s.size()), " 99999999999999999999999999 ");
        return s;
      case 5:  // constant array index far out of bounds
        return s + "\n(defun extra2 () (aref in 99))";
      case 6: {  // misspell a keyword
        const std::size_t p = s.find("defun");
        if (p != std::string::npos)
            s.replace(p, 5, "defnu");
        return s;
      }
      case 7: {  // stray byte the lexer has never seen
        s.insert(pos(s.size()), 1,
                 rng.chance(0.5) ? '@' : '\x01');
        return s;
      }
      case 8: {  // splice a random slice over another position
        const std::size_t a = pos(s.size());
        const std::size_t len =
            std::min<std::size_t>(1 + pos(40), s.size() - a);
        s.insert(pos(s.size()), s.substr(a, len));
        return s;
      }
      default: {  // swap two characters
        const std::size_t a = pos(s.size());
        const std::size_t b = pos(s.size());
        std::swap(s[a], s[b]);
        return s;
      }
    }
}

} // namespace gen
} // namespace procoup
