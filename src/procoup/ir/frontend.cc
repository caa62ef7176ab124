#include "procoup/ir/frontend.hh"

#include <cmath>
#include <exception>
#include <map>
#include <set>
#include <span>
#include <string_view>

#include "procoup/isa/alu.hh"
#include "procoup/lang/parser.hh"
#include "procoup/support/error.hh"
#include "procoup/support/inline_vector.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace ir {

using isa::Opcode;
using lang::Sexpr;

namespace {

[[noreturn]] void
err(const Sexpr& at, const std::string& what)
{
    throw CompileError(strCat(what, " (at ", at.loc().toString(), ")"));
}

/** Fold @p op over constant operands with the simulator's semantics. */
IrValue
fold(Opcode op, std::initializer_list<isa::Value> srcs)
{
    return IrValue::makeConst(isa::evalAlu(op, srcs));
}

/** How a binary operator lowers: arithmetic keeps the promoted operand
 *  type, comparisons and logic give int 0/1. */
enum class OpKind { Arith, Compare, Logic };

/** A binary PCL operator and its opcodes over integer and over float
 *  operands; NOP marks an operand type the operator rejects. */
struct BinOp
{
    std::string_view name;
    OpKind kind;
    Opcode intOp;
    Opcode floatOp;
};

/** Every binary operator, for lowering and constants alike. */
constexpr BinOp kBinOps[] = {
    {"+", OpKind::Arith, Opcode::IADD, Opcode::FADD},
    {"-", OpKind::Arith, Opcode::ISUB, Opcode::FSUB},
    {"*", OpKind::Arith, Opcode::IMUL, Opcode::FMUL},
    {"/", OpKind::Arith, Opcode::IDIV, Opcode::FDIV},
    {"mod", OpKind::Arith, Opcode::IMOD, Opcode::NOP},
    {"<", OpKind::Compare, Opcode::ILT, Opcode::FLT},
    {"<=", OpKind::Compare, Opcode::ILE, Opcode::FLE},
    {"=", OpKind::Compare, Opcode::IEQ, Opcode::FEQ},
    {"!=", OpKind::Compare, Opcode::INE, Opcode::FNE},
    {">", OpKind::Compare, Opcode::IGT, Opcode::FGT},
    {">=", OpKind::Compare, Opcode::IGE, Opcode::FGE},
    {"and", OpKind::Logic, Opcode::IAND, Opcode::NOP},
    {"or", OpKind::Logic, Opcode::IOR, Opcode::NOP},
};

const BinOp*
findBinOp(std::string_view name)
{
    for (const BinOp& op : kBinOps)
        if (op.name == name)
            return &op;
    return nullptr;
}

/** @p e must have @p n operands, or at least @p n when @p or_more. */
void
needOperands(const Sexpr& e, std::size_t n, bool or_more = false)
{
    if (e.size() - 1 == n || (or_more && e.size() - 1 > n))
        return;
    err(e, strCat(e.at(0).symbol(), or_more ? " needs " : " takes ", n,
                  or_more ? "+" : "", n == 1 ? " operand" : " operands"));
}

/** @p e's opcode over operands promoted to float (@p is_float) or
 *  not; NOP is a located error. */
Opcode
opcodeFor(const Sexpr& e, Opcode int_op, Opcode float_op, bool is_float)
{
    const Opcode op = is_float ? float_op : int_op;
    if (op == Opcode::NOP)
        err(e, strCat(e.at(0).symbol(), " requires integer operands"));
    return op;
}

/** An integer zero divisor: not folded, so it traps at run time. */
bool
zeroDivisor(Opcode op, const isa::Value& rhs)
{
    return (op == Opcode::IDIV || op == Opcode::IMOD) && rhs.asInt() == 0;
}

/** @p v as an operand of an op over floats (@p to_float) or over
 *  integers; ITOF is the only implicit conversion. */
isa::Value
promote(const isa::Value& v, bool to_float)
{
    return to_float && !v.isFloat() ? isa::evalAlu(Opcode::ITOF, {v}) : v;
}

/**
 * A compile-time constant expression, resolved once and evaluated at
 * many environments (an :init-each runs once per element). Resolution
 * lays the forms out in postfix order as steps over a value stack:
 * each operator names its operator-table entry or unary kind, each
 * symbol the slot of its value, and each if becomes two jumps around
 * its arms. Evaluation raises every error where, and only if, a walk
 * of the forms would: a form rejected whatever the values (an unknown
 * symbol or function, a wrong operand count) becomes a step that
 * raises the error when reached, so an arm of if that is never taken
 * stays silent, and a value-dependent error (a zero divisor, a float
 * operand of mod) is raised by the evaluation that meets it.
 */
class ConstExpr
{
  public:
    using Names = std::span<const std::string_view>;

    /** Resolve @p e, whose symbols are @p names (the first match
     *  wins). */
    ConstExpr(const Sexpr& e, Names names) { resolve(e, names); }

    /** @p e's value with each name bound to the value at its index in
     *  @p values. */
    isa::Value eval(std::span<const isa::Value> values) const;

  private:
    enum class Kind : std::uint8_t
    {
        Literal, Slot, Fold, Pick, If, Neg,
        Not, Float, Int, Abs, Sin, Cos, Sqrt, Exp,
        JumpUnless, Jump, Invalid
    };

    struct Step
    {
        Kind kind = Kind::Literal;
        std::uint32_t n = 0;  ///< slot, operand count or jump target
        const BinOp* op = nullptr;  ///< Fold and Pick (min, max)
        isa::Value literal;
        const Sexpr* form = nullptr;
        std::exception_ptr error;  ///< Invalid: the CompileError
    };

    static std::size_t classify(Step& s, const Sexpr& e, Names names);
    void resolve(const Sexpr& e, Names names);

    std::vector<Step> steps;
};

/** Set @p s's kind for @p e and return its operand count, or raise the
 *  error evaluating @p e raises before its operands. */
std::size_t
ConstExpr::classify(Step& s, const Sexpr& e, Names names)
{
    if (e.isInt() || e.isFloat()) {
        s.literal = e.isInt() ? isa::Value::makeInt(e.intValue())
                              : isa::Value::makeFloat(e.floatValue());
        return 0;
    }
    if (e.isSymbol()) {
        for (std::size_t k = 0; k < names.size(); ++k) {
            if (names[k] == e.symbol()) {
                s.kind = Kind::Slot;
                s.n = static_cast<std::uint32_t>(k);
                return 0;
            }
        }
        err(e, strCat("not a compile-time constant: ", e.symbol()));
    }
    if (!e.isList() || e.size() == 0 || !e.at(0).isSymbol())
        err(e, strCat("not a compile-time constant: ", e.toString()));

    // Binary operators fold left over operands promoted as lowering
    // promotes them; min and max fold < and > keeping the winner.
    const std::string& head = e.at(0).symbol();
    const bool pick = head == "min" || head == "max";
    s.op = findBinOp(pick ? (head == "min" ? "<" : ">")
                          : std::string_view(head));
    if (s.op != nullptr && !(s.op->name == "-" && e.size() == 2)) {
        needOperands(e, 2, pick || s.op->kind != OpKind::Compare);
        s.kind = pick ? Kind::Pick : Kind::Fold;
        s.n = static_cast<std::uint32_t>(e.size() - 1);
        return e.size() - 1;
    }
    if (head == "if") {
        if (e.size() != 3 && e.size() != 4)
            err(e, "if takes a condition and 1 or 2 arms");
        s.kind = Kind::If;
        return e.size() - 1;
    }
    if (s.op != nullptr) {  // (- x)
        s.kind = Kind::Neg;
        return 1;
    }
    static constexpr std::pair<std::string_view, Kind> kUnary[] = {
        {"not", Kind::Not}, {"float", Kind::Float}, {"int", Kind::Int},
        {"abs", Kind::Abs}, {"sin", Kind::Sin},     {"cos", Kind::Cos},
        {"sqrt", Kind::Sqrt}, {"exp", Kind::Exp},
    };
    for (const auto& [name, kind] : kUnary) {
        if (head == name) {
            needOperands(e, 1);
            s.kind = kind;
            return 1;
        }
    }
    err(e, strCat("not a compile-time constant function: ", head));
}

void
ConstExpr::resolve(const Sexpr& e, Names names)
{
    Step s;
    s.form = &e;
    std::size_t count = 0;
    try {
        count = classify(s, e, names);
    } catch (const CompileError&) {
        s.kind = Kind::Invalid;
        s.error = std::current_exception();
    }
    if (s.kind != Kind::If) {
        for (std::size_t i = 1; i <= count; ++i)
            resolve(e.at(i), names);
        steps.push_back(std::move(s));
        return;
    }
    // The condition, then jumps past the arm it does not choose. A
    // missing else arm is a default Step: the literal integer 0.
    resolve(e.at(1), names);
    const std::size_t unless = steps.size();
    steps.emplace_back().kind = Kind::JumpUnless;
    resolve(e.at(2), names);
    const std::size_t skip = steps.size();
    steps.emplace_back().kind = Kind::Jump;
    steps[unless].n = static_cast<std::uint32_t>(steps.size());
    if (count == 3)
        resolve(e.at(3), names);
    else
        steps.emplace_back();
    steps[skip].n = static_cast<std::uint32_t>(steps.size());
}

isa::Value
ConstExpr::eval(std::span<const isa::Value> values) const
{
    support::InlineVec<isa::Value, 8> stack;
    std::size_t pc = 0;
    while (pc < steps.size()) {
        const Step& s = steps[pc++];
        switch (s.kind) {
          case Kind::Literal:
            stack.push_back(s.literal);
            continue;
          case Kind::Slot:
            stack.push_back(values[s.n]);
            continue;
          case Kind::Invalid:
            std::rethrow_exception(s.error);
          case Kind::JumpUnless: {
            const bool taken = stack.back().truthy();
            stack.pop_back();
            if (!taken)
                pc = s.n;
            continue;
          }
          case Kind::Jump:
            pc = s.n;
            continue;
          case Kind::Fold:
          case Kind::Pick: {
            // Folded in place: args[i] becomes the fold of args[0..i].
            isa::Value* args = stack.end() - s.n;
            bool is_float = false;
            for (std::uint32_t i = 0; i < s.n; ++i)
                is_float |= args[i].isFloat();
            const Opcode opc =
                opcodeFor(*s.form, s.op->intOp, s.op->floatOp, is_float);
            for (std::uint32_t i = 0; i < s.n; ++i)
                args[i] = promote(args[i], is_float);
            for (std::uint32_t i = 1; i < s.n; ++i) {
                if (zeroDivisor(opc, args[i]))
                    err(*s.form, "constant division by zero");
                const isa::Value r = isa::evalAlu(
                    opc, std::span<const isa::Value>(args + i - 1, 2));
                if (s.kind == Kind::Fold)
                    args[i] = r;
                else if (r.truthy())  // min and max keep the winner
                    args[i] = args[i - 1];
            }
            args[0] = args[s.n - 1];
            for (std::uint32_t i = 1; i < s.n; ++i)
                stack.pop_back();
            continue;
          }
          default:
            break;
        }
        // Unary forms, typed as lowering types them, in place. (An if
        // is resolved into jumps, never a step.)
        isa::Value& a = stack.back();
        switch (s.kind) {
          case Kind::Neg:
            a = isa::evalAlu(a.isFloat() ? Opcode::FNEG : Opcode::INEG, {a});
            break;
          case Kind::Not:
            a = isa::evalAlu(
                opcodeFor(*s.form, Opcode::INOT, Opcode::NOP, a.isFloat()),
                {a});
            break;
          case Kind::Float:
            a = promote(a, true);
            break;
          case Kind::Int:
            if (a.isFloat())
                a = isa::evalAlu(Opcode::FTOI, {a});
            break;
          // fabs keeps a signed zero's bits; INEG wraps INT64_MIN.
          case Kind::Abs:
            if (a.isFloat())
                a = isa::Value::makeFloat(std::fabs(a.asFloat()));
            else if (a.asInt() < 0)
                a = isa::evalAlu(Opcode::INEG, {a});
            break;
          case Kind::Sin:
            a = isa::Value::makeFloat(std::sin(a.asFloat()));
            break;
          case Kind::Cos:
            a = isa::Value::makeFloat(std::cos(a.asFloat()));
            break;
          case Kind::Sqrt:
            a = isa::Value::makeFloat(std::sqrt(a.asFloat()));
            break;
          case Kind::Exp:
            a = isa::Value::makeFloat(std::exp(a.asFloat()));
            break;
          default:
            PROCOUP_PANIC("bad ConstExpr step");
        }
    }
    return stack.back();
}

/** A typed expression result; isVoid marks statement-only forms. */
struct TV
{
    IrValue val;
    Type type = Type::Int;
    bool isVoid = false;

    static TV
    voidValue()
    {
        TV t;
        t.isVoid = true;
        return t;
    }

    static TV
    make(IrValue v, Type t)
    {
        TV out;
        out.val = v;
        out.type = t;
        return out;
    }
};

/** A name binding: a mutable virtual register or a compile-time
 *  constant (unrolled loop variables). */
struct Binding
{
    enum class Kind { Reg, Const };

    Kind kind = Kind::Reg;
    std::uint32_t reg = kNoReg;
    Type type = Type::Int;
    isa::Value constVal;
};

class Frontend;

/** Builds the IR of one thread function. */
class FuncBuilder
{
  public:
    FuncBuilder(Frontend& fe, std::uint32_t fidx);

    /** Bind parameters and lower the body forms; appends ETHR. */
    void build(const std::vector<std::string>& param_names,
               const std::vector<Type>& param_types,
               const std::vector<Sexpr>& body, std::size_t body_from);

    /** Lower a forall child: body plus the countdown epilogue. */
    void buildForallChild(const std::vector<std::string>& param_names,
                          const std::vector<Type>& param_types,
                          const std::vector<Sexpr>& body,
                          std::uint32_t counter_addr,
                          std::uint32_t done_addr);

  private:
    friend class Frontend;

    ThreadFunc& fn();
    Module& mod();

    // --- block management ------------------------------------------
    int newBlock();
    void emit(IrInstr i);
    bool blockOpen() const;

    struct BranchRef
    {
        int block = -1;
        std::size_t idx = 0;
    };
    BranchRef emitBranch(Opcode op, IrValue cond);
    void patchBranch(const BranchRef& r, int target);

    // --- scoping -----------------------------------------------------
    void pushScope();
    void popScope();
    void bind(const std::string& name, Binding b);
    const Binding* lookup(const std::string& name) const;
    std::vector<std::pair<std::string, isa::Value>> constEnv() const;

    // --- expression lowering ----------------------------------------
    TV genExpr(const Sexpr& e);
    TV genBody(const std::vector<Sexpr>& forms, std::size_t from);
    TV genBinOp(const Sexpr& e, const BinOp& op);
    TV genLet(const Sexpr& e);
    TV genSet(const Sexpr& e);
    TV genIf(const Sexpr& e);
    TV genWhile(const Sexpr& e);
    TV genFor(const Sexpr& e);
    TV genMemRead(const Sexpr& e, isa::MemFlavor flavor);
    TV genMemWrite(const Sexpr& e, isa::MemFlavor flavor);
    TV genFork(const Sexpr& e);
    TV genForall(const Sexpr& e);
    TV genCall(const Sexpr& e);

    // --- helpers ------------------------------------------------------
    IrValue requireValue(const TV& tv, const Sexpr& at) const;
    IrValue coerce(const TV& tv, Type want, const Sexpr& at);
    std::uint32_t materialize(const TV& tv);
    IrValue emitUnary(Opcode op, IrValue a, Type result);
    IrValue emitBin(Opcode op, IrValue a, IrValue b, Type result);

    struct MemRef
    {
        IrValue base;
        IrValue offset;
        std::string sym;
        Type elemType = Type::Int;
    };
    MemRef genMemRef(const Sexpr& form, std::size_t num_trailing);

    void emitForkTo(const std::vector<std::uint32_t>& clones,
                    IrValue which, const std::vector<IrValue>& args);

    Frontend& fe;
    std::uint32_t fidx;
    int cur = -1;
    std::vector<std::map<std::string, Binding>> scopes;
};

/** Module-level driver: globals, defuns, thread-function compilation,
 *  clone management. */
class Frontend
{
  public:
    Frontend(const std::vector<Sexpr>& forms, const FrontendOptions& opts)
        : forms(forms), opts(opts)
    {}

    Module
    run()
    {
        collectTopLevel();
        const Sexpr* main_form = findDefun("main");
        if (main_form == nullptr)
            throw CompileError("program has no (defun main () ...)");
        if (main_form->at(2).size() != 0)
            err(*main_form, "main must take no parameters");
        mod.entry = compileFunc("main", *main_form, {}, 0, "main");
        return std::move(mod);
    }

  private:
    friend class FuncBuilder;

    void
    collectTopLevel()
    {
        for (const auto& f : forms) {
            if (f.isCall("defun")) {
                const std::string& name = f.at(1).symbol();
                if (defuns.count(name))
                    err(f, strCat("duplicate defun ", name));
                defuns.emplace(name, &f);
            } else if (f.isCall("defvar")) {
                addScalar(f);
            } else if (f.isCall("defarray")) {
                addArray(f);
            } else {
                err(f, "unknown top-level form");
            }
        }
    }

    void
    addScalar(const Sexpr& f)
    {
        Global g;
        g.name = f.at(1).symbol();
        if (mod.findGlobal(g.name) != nullptr)
            err(f, strCat("duplicate global ", g.name));
        const isa::Value v = evalConstExpr(f.at(2), {});
        g.elemType = v.isFloat() ? Type::Float : Type::Int;
        g.inits.emplace_back(0, v);
        mod.addGlobal(std::move(g));
    }

    /** Data-segment ceiling per array (words). Sound programs are
     *  orders of magnitude below it; its real job is to reject
     *  hostile dimensions before the uint32 size product in
     *  ir::Module::addGlobal could wrap or the simulator could try a
     *  multi-gigabyte allocation. */
    static constexpr std::uint64_t kMaxArrayWords = 1u << 24;

    void
    addArray(const Sexpr& f)
    {
        Global g;
        g.name = f.at(1).symbol();
        if (mod.findGlobal(g.name) != nullptr)
            err(f, strCat("duplicate global ", g.name));
        std::uint64_t words = 1;
        for (const auto& d : f.at(2).items()) {
            const isa::Value dv = evalConstExpr(d, {});
            if (dv.isFloat() || dv.asInt() <= 0)
                err(f, "array dimensions must be positive integers");
            if (static_cast<std::uint64_t>(dv.asInt()) > kMaxArrayWords ||
                (words *= static_cast<std::uint64_t>(dv.asInt())) >
                    kMaxArrayWords)
                err(f, strCat("array ", g.name, " exceeds ",
                              kMaxArrayWords, " words"));
            g.dims.push_back(static_cast<std::uint32_t>(dv.asInt()));
        }
        g.elemType = Type::Float;  // numeric benchmarks default

        const Sexpr* init_each = nullptr;
        const Sexpr* init_list = nullptr;
        for (std::size_t i = 3; i < f.size(); ++i) {
            const Sexpr& kw = f.at(i);
            if (kw.isSymbol(":int")) {
                g.elemType = Type::Int;
            } else if (kw.isSymbol(":float")) {
                g.elemType = Type::Float;
            } else if (kw.isSymbol(":empty")) {
                g.startsEmpty = true;
            } else if (kw.isSymbol(":init-each")) {
                init_each = &f.at(++i);
            } else if (kw.isSymbol(":init")) {
                init_list = &f.at(++i);
            } else {
                err(kw, strCat("unknown defarray option ",
                               kw.toString()));
            }
        }

        std::uint32_t size = 1;
        for (auto d : g.dims)
            size *= d;

        if (init_each != nullptr) {
            // i is the element's index; a 2-D array also binds its row
            // r and column c.
            static constexpr std::string_view kIndexNames[] = {"i", "r",
                                                               "c"};
            const bool two_d = g.dims.size() == 2;
            const std::uint32_t cols = two_d ? g.dims[1] : 1;
            const ConstExpr expr(*init_each,
                                 ConstExpr::Names(kIndexNames, two_d ? 3 : 1));
            for (std::uint32_t i = 0; i < size; ++i) {
                const isa::Value index[] = {isa::Value::makeInt(i),
                                            isa::Value::makeInt(i / cols),
                                            isa::Value::makeInt(i % cols)};
                isa::Value v = expr.eval(index);
                if (g.elemType == Type::Float && !v.isFloat())
                    v = isa::Value::makeFloat(v.asFloat());
                g.inits.emplace_back(i, v);
            }
        } else if (init_list != nullptr) {
            const auto& vals = init_list->items();
            if (vals.size() != size)
                err(f, strCat("array ", g.name, " has ", size,
                              " elements but :init lists ",
                              vals.size()));
            for (std::uint32_t i = 0; i < size; ++i) {
                isa::Value v = evalConstExpr(vals[i], {});
                if (g.elemType == Type::Float && !v.isFloat())
                    v = isa::Value::makeFloat(v.asFloat());
                g.inits.emplace_back(i, v);
            }
        }
        mod.addGlobal(std::move(g));
    }

    const Sexpr*
    findDefun(const std::string& name) const
    {
        auto it = defuns.find(name);
        return it == defuns.end() ? nullptr : it->second;
    }

    /**
     * Compile a defun body as a thread function (one clone).
     * Reserves the function slot first so nested fork/forall can
     * append further functions.
     */
    std::uint32_t
    compileFunc(const std::string& name, const Sexpr& defun_form,
                const std::vector<Type>& param_types, int clone_index,
                const std::string& base_name)
    {
        const auto& params_form = defun_form.at(2);
        std::vector<std::string> param_names;
        for (const auto& p : params_form.items())
            param_names.push_back(p.symbol());
        if (param_names.size() != param_types.size())
            err(defun_form, strCat("thread function ", name, " takes ",
                                   param_names.size(),
                                   " parameters, fork passes ",
                                   param_types.size()));

        const std::uint32_t fidx =
            static_cast<std::uint32_t>(mod.funcs.size());
        mod.funcs.emplace_back();
        mod.funcs[fidx].name = name;
        mod.funcs[fidx].baseName = base_name;
        mod.funcs[fidx].cloneIndex = clone_index;

        FuncBuilder fb(*this, fidx);
        fb.build(param_names, param_types, defun_form.items(), 3);
        return fidx;
    }

    /** Get (compiling on demand) the clone set for a forked defun. */
    const std::vector<std::uint32_t>&
    forkClonesFor(const Sexpr& at, const std::string& name,
                  const std::vector<Type>& param_types)
    {
        auto it = threadClones.find(name);
        if (it != threadClones.end()) {
            const auto& types = threadParamTypes.at(name);
            if (types != param_types)
                err(at, strCat("fork of ", name,
                               " with inconsistent argument types"));
            return it->second;
        }
        const Sexpr* d = findDefun(name);
        if (d == nullptr)
            err(at, strCat("fork of unknown function ", name));
        std::vector<std::uint32_t> clones;
        for (int k = 0; k < opts.forkClones; ++k)
            clones.push_back(compileFunc(
                opts.forkClones == 1 ? name : strCat(name, "@", k),
                *d, param_types, k, name));
        threadParamTypes[name] = param_types;
        return threadClones.emplace(name, std::move(clones))
            .first->second;
    }

    /** Compile the clones of one forall body. */
    std::vector<std::uint32_t>
    forallClonesFor(const std::vector<std::string>& param_names,
                    const std::vector<Type>& param_types,
                    const std::vector<Sexpr>& body,
                    std::uint32_t counter_addr, std::uint32_t done_addr)
    {
        const int sid = forallCount++;
        std::vector<std::uint32_t> clones;
        for (int k = 0; k < opts.forkClones; ++k) {
            const std::uint32_t fidx =
                static_cast<std::uint32_t>(mod.funcs.size());
            mod.funcs.emplace_back();
            mod.funcs[fidx].name =
                opts.forkClones == 1 ? strCat("forall", sid)
                                     : strCat("forall", sid, "@", k);
            mod.funcs[fidx].baseName = strCat("forall", sid);
            mod.funcs[fidx].cloneIndex = k;
            FuncBuilder fb(*this, fidx);
            fb.buildForallChild(param_names, param_types, body,
                                counter_addr, done_addr);
            clones.push_back(fidx);
        }
        return clones;
    }

    const std::vector<Sexpr>& forms;
    FrontendOptions opts;
    Module mod;
    std::map<std::string, const Sexpr*> defuns;
    std::map<std::string, std::vector<std::uint32_t>> threadClones;
    std::map<std::string, std::vector<Type>> threadParamTypes;
    std::vector<std::string> inlineStack;
    int forallCount = 0;
    int forkSiteCount = 0;
};

// ===================================================================
// FuncBuilder
// ===================================================================

FuncBuilder::FuncBuilder(Frontend& fe, std::uint32_t fidx)
    : fe(fe), fidx(fidx)
{
    newBlock();
    pushScope();
}

ThreadFunc&
FuncBuilder::fn()
{
    return fe.mod.funcs[fidx];
}

Module&
FuncBuilder::mod()
{
    return fe.mod;
}

int
FuncBuilder::newBlock()
{
    fn().blocks.emplace_back();
    cur = static_cast<int>(fn().blocks.size()) - 1;
    return cur;
}

bool
FuncBuilder::blockOpen() const
{
    const auto& blocks = fe.mod.funcs[fidx].blocks;
    const auto& b = blocks[cur];
    return b.instrs.empty() || !b.instrs.back().isTerminator();
}

void
FuncBuilder::emit(IrInstr i)
{
    PROCOUP_ASSERT(blockOpen(), "emitting into a closed block");
    fn().blocks[cur].instrs.push_back(std::move(i));
}

FuncBuilder::BranchRef
FuncBuilder::emitBranch(Opcode op, IrValue cond)
{
    IrInstr i;
    i.op = op;
    if (op != Opcode::BR)
        i.srcs = {cond};
    i.target = -1;
    emit(std::move(i));
    BranchRef r;
    r.block = cur;
    r.idx = fn().blocks[cur].instrs.size() - 1;
    return r;
}

void
FuncBuilder::patchBranch(const BranchRef& r, int target)
{
    fn().blocks[r.block].instrs[r.idx].target = target;
}

void
FuncBuilder::pushScope()
{
    scopes.emplace_back();
}

void
FuncBuilder::popScope()
{
    scopes.pop_back();
}

void
FuncBuilder::bind(const std::string& name, Binding b)
{
    scopes.back()[name] = std::move(b);
}

const Binding*
FuncBuilder::lookup(const std::string& name) const
{
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
        auto f = it->find(name);
        if (f != it->end())
            return &f->second;
    }
    return nullptr;
}

std::vector<std::pair<std::string, isa::Value>>
FuncBuilder::constEnv() const
{
    std::vector<std::pair<std::string, isa::Value>> env;
    for (const auto& scope : scopes)
        for (const auto& [name, b] : scope)
            if (b.kind == Binding::Kind::Const)
                env.emplace_back(name, b.constVal);
    return env;
}

IrValue
FuncBuilder::requireValue(const TV& tv, const Sexpr& at) const
{
    if (tv.isVoid)
        err(at, "expression has no value");
    return tv.val;
}

IrValue
FuncBuilder::coerce(const TV& tv, Type want, const Sexpr& at)
{
    if (tv.isVoid)
        err(at, "expression has no value");
    if (tv.type == want)
        return tv.val;
    if (want == Type::Float)
        return emitUnary(Opcode::ITOF, tv.val, Type::Float);
    err(at, "implicit float->int conversion; use (int ...)");
}

std::uint32_t
FuncBuilder::materialize(const TV& tv)
{
    IrInstr i;
    i.op = Opcode::MOV;
    i.dst = fn().newReg(tv.type);
    i.srcs = {tv.val};
    const std::uint32_t d = i.dst;
    emit(std::move(i));
    return d;
}

/** Emit a unary op, folding a constant operand. */
IrValue
FuncBuilder::emitUnary(Opcode op, IrValue a, Type result)
{
    if (a.isConst())
        return fold(op, {a.constant()});
    IrInstr i;
    i.op = op;
    i.dst = fn().newReg(result);
    i.srcs = {a};
    const std::uint32_t d = i.dst;
    emit(std::move(i));
    return IrValue::makeReg(d);
}

/** Emit a binary op with local constant folding. */
IrValue
FuncBuilder::emitBin(Opcode op, IrValue a, IrValue b, Type result)
{
    if (a.isConst() && b.isConst()) {
        switch (op) {
          case Opcode::IADD:
          case Opcode::ISUB:
          case Opcode::IMUL:
          case Opcode::FADD:
          case Opcode::FSUB:
          case Opcode::FMUL:
            return fold(op, {a.constant(), b.constant()});
          default:
            break;  // fall through to emission
        }
    }
    // Cheap identities that keep unrolled index code clean.
    if (op == Opcode::IADD && a.isConst() && a.constant().asInt() == 0)
        return b;
    if (op == Opcode::IADD && b.isConst() && b.constant().asInt() == 0)
        return a;
    if (op == Opcode::IMUL && b.isConst() && b.constant().asInt() == 1)
        return a;
    if (op == Opcode::IMUL && a.isConst() && a.constant().asInt() == 1)
        return b;

    IrInstr i;
    i.op = op;
    i.dst = fn().newReg(result);
    i.srcs = {a, b};
    const std::uint32_t d = i.dst;
    emit(std::move(i));
    return IrValue::makeReg(d);
}

TV
FuncBuilder::genBody(const std::vector<Sexpr>& forms, std::size_t from)
{
    TV last = TV::voidValue();
    for (std::size_t i = from; i < forms.size(); ++i)
        last = genExpr(forms[i]);
    return last;
}

TV
FuncBuilder::genBinOp(const Sexpr& e, const BinOp& op)
{
    if (op.name == "-" && e.size() == 2) {
        TV a = genExpr(e.at(1));
        const IrValue v = requireValue(a, e);
        return TV::make(emitUnary(a.type == Type::Float ? Opcode::FNEG
                                                        : Opcode::INEG,
                                  v, a.type),
                        a.type);
    }
    needOperands(e, 2, op.kind != OpKind::Compare);

    std::vector<TV> args;
    bool is_float = false;
    for (std::size_t i = 1; i < e.size(); ++i) {
        args.push_back(genExpr(e.at(i)));
        is_float |= args.back().type == Type::Float;
    }
    const Opcode opc = opcodeFor(e, op.intOp, op.floatOp, is_float);
    const Type t = is_float ? Type::Float : Type::Int;
    const Type result = op.kind == OpKind::Arith ? t : Type::Int;

    IrValue acc = coerce(args[0], t, e);
    for (std::size_t i = 1; i < args.size(); ++i) {
        const IrValue rhs = coerce(args[i], t, e);
        acc = acc.isConst() && rhs.isConst() &&
                  !zeroDivisor(opc, rhs.constant())
            ? fold(opc, {acc.constant(), rhs.constant()})
            : emitBin(opc, acc, rhs, result);
    }
    return TV::make(acc, result);
}

TV
FuncBuilder::genLet(const Sexpr& e)
{
    pushScope();
    for (const auto& bform : e.at(1).items()) {
        const std::string& name = bform.at(0).symbol();
        TV init = genExpr(bform.at(1));
        if (init.isVoid)
            err(bform, strCat("initializer of ", name, " has no value"));
        Binding b;
        b.kind = Binding::Kind::Reg;
        b.type = init.type;
        b.reg = materialize(init);
        bind(name, b);
    }
    TV result = genBody(e.items(), 2);
    popScope();
    return result;
}

TV
FuncBuilder::genSet(const Sexpr& e)
{
    if (e.size() != 3)
        err(e, "set takes a variable and a value");
    const std::string& name = e.at(1).symbol();
    TV v = genExpr(e.at(2));

    if (const Binding* b = lookup(name)) {
        if (b->kind == Binding::Kind::Const)
            err(e, strCat("cannot assign to unrolled loop variable ",
                          name));
        IrValue coerced = coerce(v, b->type, e);
        IrInstr i;
        i.op = Opcode::MOV;
        i.dst = b->reg;
        i.srcs = {coerced};
        emit(std::move(i));
        return TV::make(coerced, b->type);
    }

    if (const Global* g = mod().findGlobal(name)) {
        if (!g->dims.empty())
            err(e, strCat(name, " is an array; use aset"));
        IrValue coerced = coerce(v, g->elemType, e);
        IrInstr i;
        i.op = Opcode::ST;
        i.srcs = {IrValue::makeInt(g->base), IrValue::makeInt(0),
                  coerced};
        i.flavor = isa::MemFlavor::plainStore();
        i.memSym = name;
        emit(std::move(i));
        return TV::make(coerced, g->elemType);
    }
    err(e, strCat("set of unknown variable ", name));
}

TV
FuncBuilder::genIf(const Sexpr& e)
{
    if (e.size() != 3 && e.size() != 4)
        err(e, "if takes a condition and 1 or 2 arms");
    TV cond = genExpr(e.at(1));
    if (cond.type != Type::Int)
        err(e, "if condition must be an integer expression");

    // Constant condition: lower only the chosen arm.
    if (cond.val.isConst()) {
        if (cond.val.constant().asInt() != 0)
            return genExpr(e.at(2));
        if (e.size() == 4)
            return genExpr(e.at(3));
        return TV::voidValue();
    }

    const bool has_else = e.size() == 4;
    BranchRef to_else = emitBranch(Opcode::BF, cond.val);
    newBlock();  // then arm (fallthrough)

    TV then_tv = genExpr(e.at(2));

    if (!has_else) {
        BranchRef to_join = emitBranch(Opcode::BR, IrValue());
        const int join = newBlock();
        patchBranch(to_else, join);
        patchBranch(to_join, join);
        return TV::voidValue();
    }

    // Unify arm types (int promotes to float if the arms mix).
    std::uint32_t res = kNoReg;
    Type res_type = then_tv.type;
    const bool value_if = !then_tv.isVoid;
    if (value_if) {
        res = fn().newReg(res_type);
        IrInstr mv;
        mv.op = Opcode::MOV;
        mv.dst = res;
        mv.srcs = {then_tv.val};
        emit(std::move(mv));
    }
    BranchRef to_join = emitBranch(Opcode::BR, IrValue());

    const int else_block = newBlock();
    patchBranch(to_else, else_block);
    TV else_tv = genExpr(e.at(3));
    bool produce_value = value_if;
    if (value_if && else_tv.isVoid)
        produce_value = false;  // statement if; the then-MOV is dead
    if (produce_value && else_tv.type != res_type) {
        if (res_type == Type::Float) {
            else_tv.val = coerce(else_tv, Type::Float, e);
            else_tv.type = Type::Float;
        } else {
            // int-then / float-else: no common type without losing
            // the then arm; treat as a statement if (add an explicit
            // (float ...) around the then arm to get a value).
            produce_value = false;
        }
    }
    if (produce_value) {
        IrInstr mv;
        mv.op = Opcode::MOV;
        mv.dst = res;
        mv.srcs = {else_tv.val};
        emit(std::move(mv));
    }
    BranchRef else_to_join = emitBranch(Opcode::BR, IrValue());

    const int join = newBlock();
    patchBranch(to_join, join);
    patchBranch(else_to_join, join);

    if (produce_value)
        return TV::make(IrValue::makeReg(res), res_type);
    return TV::voidValue();
}

TV
FuncBuilder::genWhile(const Sexpr& e)
{
    BranchRef entry = emitBranch(Opcode::BR, IrValue());
    const int cond_block = newBlock();
    patchBranch(entry, cond_block);

    TV cond = genExpr(e.at(1));
    if (cond.type != Type::Int)
        err(e, "while condition must be an integer expression");
    BranchRef to_exit = emitBranch(Opcode::BF, requireValue(cond, e));

    newBlock();  // body (fallthrough)
    genBody(e.items(), 2);
    BranchRef back = emitBranch(Opcode::BR, IrValue());
    patchBranch(back, cond_block);

    const int exit_block = newBlock();
    patchBranch(to_exit, exit_block);
    return TV::voidValue();
}

TV
FuncBuilder::genFor(const Sexpr& e)
{
    const Sexpr& head = e.at(1);
    const std::string& var = head.at(0).symbol();
    const Sexpr& lo_form = head.at(1);
    const Sexpr& hi_form = head.at(2);

    bool unroll = false;
    std::int64_t factor = 0;  // 0 = full unroll
    for (std::size_t i = 3; i < head.size(); ++i) {
        if (head.at(i).isSymbol(":unroll")) {
            unroll = true;
            if (i + 1 < head.size() && head.at(i + 1).isInt()) {
                factor = head.at(++i).intValue();
                if (factor < 2)
                    err(head, ":unroll factor must be at least 2");
            }
        } else {
            err(head, strCat("unknown for option ",
                             head.at(i).toString()));
        }
    }

    if (unroll && factor > 1) {
        // Partial unroll (runtime bounds allowed):
        //   v = lo; while (v <= hi - N) { N x [body; v += 1] }
        //   while (v < hi) { body; v += 1 }
        pushScope();
        TV lo_tv = genExpr(lo_form);
        Binding b;
        b.kind = Binding::Kind::Reg;
        b.type = Type::Int;
        b.reg = materialize(
            TV::make(coerce(lo_tv, Type::Int, e), Type::Int));
        bind(var, b);

        TV hi_tv = genExpr(hi_form);
        const std::uint32_t hi_reg = materialize(
            TV::make(coerce(hi_tv, Type::Int, e), Type::Int));
        IrValue limit = emitBin(Opcode::ISUB,
                                IrValue::makeReg(hi_reg),
                                IrValue::makeInt(factor), Type::Int);
        const std::uint32_t limit_reg =
            materialize(TV::make(limit, Type::Int));

        auto bump = [&] {
            IrValue next = emitBin(Opcode::IADD,
                                   IrValue::makeReg(b.reg),
                                   IrValue::makeInt(1), Type::Int);
            IrInstr inc;
            inc.op = Opcode::MOV;
            inc.dst = b.reg;
            inc.srcs = {next};
            emit(std::move(inc));
        };

        BranchRef entry = emitBranch(Opcode::BR, IrValue());
        const int main_cond = newBlock();
        patchBranch(entry, main_cond);
        IrValue more = emitBin(Opcode::ILE, IrValue::makeReg(b.reg),
                               IrValue::makeReg(limit_reg), Type::Int);
        BranchRef to_cleanup = emitBranch(Opcode::BF, more);
        newBlock();
        for (std::int64_t k = 0; k < factor; ++k) {
            genBody(e.items(), 2);
            bump();
        }
        BranchRef back = emitBranch(Opcode::BR, IrValue());
        patchBranch(back, main_cond);

        const int cleanup_cond = newBlock();
        patchBranch(to_cleanup, cleanup_cond);
        IrValue rest = emitBin(Opcode::ILT, IrValue::makeReg(b.reg),
                               IrValue::makeReg(hi_reg), Type::Int);
        BranchRef to_exit = emitBranch(Opcode::BF, rest);
        newBlock();
        genBody(e.items(), 2);
        bump();
        BranchRef back2 = emitBranch(Opcode::BR, IrValue());
        patchBranch(back2, cleanup_cond);

        patchBranch(to_exit, newBlock());
        popScope();
        return TV::voidValue();
    }

    if (unroll) {
        // Full unroll with the loop variable as a compile-time
        // constant — the paper's "loops must be unrolled by hand".
        const auto env = constEnv();
        const isa::Value lo = evalConstExpr(lo_form, env);
        const isa::Value hi = evalConstExpr(hi_form, env);
        if (lo.isFloat() || hi.isFloat())
            err(e, ":unroll bounds must be integers");
        for (std::int64_t k = lo.asInt(); k < hi.asInt(); ++k) {
            pushScope();
            Binding b;
            b.kind = Binding::Kind::Const;
            b.type = Type::Int;
            b.constVal = isa::Value::makeInt(k);
            bind(var, b);
            genBody(e.items(), 2);
            popScope();
        }
        return TV::voidValue();
    }

    // (let ((var lo)) (while (< var hi) body... (set var (+ var 1))))
    pushScope();
    TV lo = genExpr(lo_form);
    Binding b;
    b.kind = Binding::Kind::Reg;
    b.type = Type::Int;
    b.reg = materialize(TV::make(coerce(lo, Type::Int, e), Type::Int));
    bind(var, b);

    // Evaluate the bound once, before the loop.
    TV hi = genExpr(hi_form);
    IrValue hi_v = coerce(hi, Type::Int, e);
    std::uint32_t hi_reg_or = kNoReg;
    if (hi_v.isReg())
        hi_reg_or = materialize(TV::make(hi_v, Type::Int));
    IrValue bound = hi_v.isReg() ? IrValue::makeReg(hi_reg_or) : hi_v;

    BranchRef entry = emitBranch(Opcode::BR, IrValue());
    const int cond_block = newBlock();
    patchBranch(entry, cond_block);

    IrValue cond = emitBin(Opcode::ILT, IrValue::makeReg(b.reg), bound,
                           Type::Int);
    BranchRef to_exit = emitBranch(Opcode::BF, cond);

    newBlock();
    genBody(e.items(), 2);
    IrValue next = emitBin(Opcode::IADD, IrValue::makeReg(b.reg),
                           IrValue::makeInt(1), Type::Int);
    IrInstr inc;
    inc.op = Opcode::MOV;
    inc.dst = b.reg;
    inc.srcs = {next};
    emit(std::move(inc));
    BranchRef back = emitBranch(Opcode::BR, IrValue());
    patchBranch(back, cond_block);

    const int exit_block = newBlock();
    patchBranch(to_exit, exit_block);
    popScope();
    return TV::voidValue();
}

FuncBuilder::MemRef
FuncBuilder::genMemRef(const Sexpr& form, std::size_t num_trailing)
{
    const std::string& name = form.at(1).symbol();
    const Global* g = mod().findGlobal(name);
    if (g == nullptr)
        err(form, strCat("unknown array ", name));

    const std::size_t num_idx = form.size() - 2 - num_trailing;
    if (num_idx != g->dims.size() && !(g->dims.empty() && num_idx == 0))
        err(form, strCat(name, " has ", g->dims.size(),
                         " dimensions, given ", num_idx, " indices"));

    // Row-major linearization with inline folding; the integer-unit
    // multiply/adds this emits are the paper's "array index
    // calculations" that load the IUs.
    IrValue offset = IrValue::makeInt(0);
    for (std::size_t i = 0; i < num_idx; ++i) {
        TV idx = genExpr(form.at(2 + i));
        IrValue iv = coerce(idx, Type::Int, form);
        // A constant index outside the dimension is a guaranteed wild
        // access (or a silent wrap into a neighboring row): reject it
        // here instead of letting the simulator trap at runtime.
        if (iv.isConst() && i < g->dims.size()) {
            const std::int64_t c = iv.constant().asInt();
            if (c < 0 || c >= static_cast<std::int64_t>(g->dims[i]))
                err(form.at(2 + i),
                    strCat("index ", c, " out of range for dimension ",
                           i, " of ", name, " (size ", g->dims[i],
                           ")"));
        }
        if (i + 1 < g->dims.size())
            offset = emitBin(
                Opcode::IMUL,
                emitBin(Opcode::IADD, offset, iv, Type::Int),
                IrValue::makeInt(g->dims[i + 1]), Type::Int);
        else
            offset = emitBin(Opcode::IADD, offset, iv, Type::Int);
    }

    MemRef r;
    r.base = IrValue::makeInt(g->base);
    r.offset = offset;
    r.sym = name;
    r.elemType = g->elemType;
    return r;
}

TV
FuncBuilder::genMemRead(const Sexpr& e, isa::MemFlavor flavor)
{
    MemRef r = genMemRef(e, 0);
    IrInstr i;
    i.op = Opcode::LD;
    i.dst = fn().newReg(r.elemType);
    i.srcs = {r.base, r.offset};
    i.flavor = flavor;
    i.memSym = r.sym;
    const std::uint32_t d = i.dst;
    emit(std::move(i));
    return TV::make(IrValue::makeReg(d), r.elemType);
}

TV
FuncBuilder::genMemWrite(const Sexpr& e, isa::MemFlavor flavor)
{
    MemRef r = genMemRef(e, 1);
    TV v = genExpr(e.at(e.size() - 1));
    IrValue coerced = coerce(v, r.elemType, e);
    IrInstr i;
    i.op = Opcode::ST;
    i.srcs = {r.base, r.offset, coerced};
    i.flavor = flavor;
    i.memSym = r.sym;
    emit(std::move(i));
    return TV::voidValue();
}

void
FuncBuilder::emitForkTo(const std::vector<std::uint32_t>& clones,
                        IrValue which, const std::vector<IrValue>& args)
{
    auto emit_fork = [&](std::uint32_t target) {
        IrInstr i;
        i.op = Opcode::FORK;
        i.forkTarget = target;
        i.srcs = args;
        emit(std::move(i));
    };

    if (clones.size() == 1 || which.isConst()) {
        const std::size_t k =
            which.isConst()
                ? static_cast<std::size_t>(which.constant().asInt()) %
                      clones.size()
                : 0;
        emit_fork(clones[k]);
        return;
    }

    // Runtime selection tree: m = which mod n; if (m == k) fork clone k.
    IrValue m = emitBin(Opcode::IMOD, which,
                        IrValue::makeInt(
                            static_cast<std::int64_t>(clones.size())),
                        Type::Int);
    std::vector<BranchRef> to_join;
    for (std::size_t k = 0; k + 1 < clones.size(); ++k) {
        IrValue is_k = emitBin(Opcode::IEQ, m,
                               IrValue::makeInt(
                                   static_cast<std::int64_t>(k)),
                               Type::Int);
        BranchRef skip = emitBranch(Opcode::BF, is_k);
        newBlock();
        emit_fork(clones[k]);
        to_join.push_back(emitBranch(Opcode::BR, IrValue()));
        const int next_test = newBlock();
        patchBranch(skip, next_test);
    }
    emit_fork(clones.back());
    BranchRef last = emitBranch(Opcode::BR, IrValue());
    const int join = newBlock();
    patchBranch(last, join);
    for (const auto& r : to_join)
        patchBranch(r, join);
}

TV
FuncBuilder::genFork(const Sexpr& e)
{
    if (e.size() != 2 || !e.at(1).isList() || e.at(1).size() < 1)
        err(e, "fork takes a single call form: (fork (f args...))");
    const Sexpr& call = e.at(1);
    const std::string& name = call.at(0).symbol();

    std::vector<IrValue> args;
    std::vector<Type> types;
    for (std::size_t i = 1; i < call.size(); ++i) {
        TV a = genExpr(call.at(i));
        args.push_back(requireValue(a, call));
        types.push_back(a.type);
    }
    if (args.size() > 3)
        err(e, "fork passes at most 3 arguments");

    const auto& clones = fe.forkClonesFor(e, name, types);
    emitForkTo(clones, IrValue::makeInt(fe.forkSiteCount++), args);
    return TV::voidValue();
}

/** Collect locally-bound symbols referenced anywhere in a form. */
void
collectSymbols(const Sexpr& e, std::set<std::string>& out)
{
    if (e.isSymbol()) {
        out.insert(e.symbol());
    } else if (e.isList()) {
        for (const auto& item : e.items())
            collectSymbols(item, out);
    }
}

TV
FuncBuilder::genForall(const Sexpr& e)
{
    const Sexpr& head = e.at(1);
    const std::string& var = head.at(0).symbol();

    // Allocate the join cells for this forall site.
    const int sid = fe.forallCount;  // forallClonesFor increments
    Global counter;
    counter.name = strCat("forall", sid, ".counter");
    counter.elemType = Type::Int;
    const std::uint32_t counter_addr = mod().addGlobal(counter).base;
    Global done;
    done.name = strCat("forall", sid, ".done");
    done.elemType = Type::Int;
    done.startsEmpty = true;
    const std::uint32_t done_addr = mod().addGlobal(done).base;

    // Captured free variables (register bindings used by the body;
    // compile-time constants are re-bound in the child instead).
    std::set<std::string> used;
    for (std::size_t i = 2; i < e.size(); ++i)
        collectSymbols(e.at(i), used);

    std::vector<std::string> param_names;
    std::vector<Type> param_types;
    std::vector<IrValue> parent_args;
    std::vector<std::pair<std::string, isa::Value>> const_captures;
    for (const auto& name : used) {
        if (name == var)
            continue;
        const Binding* b = lookup(name);
        if (b == nullptr)
            continue;  // global or builtin
        if (b->kind == Binding::Kind::Const) {
            const_captures.emplace_back(name, b->constVal);
            continue;
        }
        param_names.push_back(name);
        param_types.push_back(b->type);
        parent_args.push_back(IrValue::makeReg(b->reg));
    }
    param_names.push_back(var);
    param_types.push_back(Type::Int);
    if (param_names.size() > 3)
        err(e, strCat("forall body captures too many variables (",
                      param_names.size() - 1, " + index; max 3 total)"));

    // Child body with constant captures wrapped back around it.
    std::vector<Sexpr> body(e.items().begin() + 2, e.items().end());
    if (!const_captures.empty()) {
        std::vector<Sexpr> bindings;
        for (const auto& [name, v] : const_captures) {
            bindings.push_back(Sexpr::makeList(
                {Sexpr::makeSymbol(name),
                 v.isFloat() ? Sexpr::makeFloat(v.asFloat())
                             : Sexpr::makeInt(v.asInt())}));
        }
        std::vector<Sexpr> let_form;
        let_form.push_back(Sexpr::makeSymbol("let"));
        let_form.push_back(Sexpr::makeList(std::move(bindings)));
        for (auto& b : body)
            let_form.push_back(std::move(b));
        body = {Sexpr::makeList(std::move(let_form))};
    }

    const auto clones = fe.forallClonesFor(param_names, param_types,
                                           body, counter_addr,
                                           done_addr);

    // Parent: counter = n; spawn children; wait on the done cell.
    TV lo_tv = genExpr(head.at(1));
    TV hi_tv = genExpr(head.at(2));
    IrValue lo = coerce(lo_tv, Type::Int, e);
    IrValue hi = coerce(hi_tv, Type::Int, e);

    if (lo.isConst() && hi.isConst()) {
        // Constant trip count: spawn straight-line, one FORK per
        // instance (the branch unit issues one per cycle), rotating
        // clones statically.
        const std::int64_t lo_c = lo.constant().asInt();
        const std::int64_t hi_c = hi.constant().asInt();
        if (hi_c <= lo_c)
            return TV::voidValue();  // nothing to spawn or wait for

        IrInstr st;
        st.op = Opcode::ST;
        st.srcs = {IrValue::makeInt(counter_addr), IrValue::makeInt(0),
                   IrValue::makeInt(hi_c - lo_c)};
        st.flavor = isa::MemFlavor::plainStore();
        st.memSym = strCat("forall", sid, ".counter");
        emit(std::move(st));

        for (std::int64_t k = 0; k < hi_c - lo_c; ++k) {
            std::vector<IrValue> args = parent_args;
            args.push_back(IrValue::makeInt(lo_c + k));
            emitForkTo(clones, IrValue::makeInt(k), args);
        }

        std::uint32_t done_val;
        {
            IrInstr ld;
            ld.op = Opcode::LD;
            ld.dst = fn().newReg(Type::Int);
            ld.srcs = {IrValue::makeInt(done_addr),
                       IrValue::makeInt(0)};
            ld.flavor = isa::MemFlavor::consumeLoad();
            ld.memSym = strCat("forall", sid, ".done");
            done_val = ld.dst;
            emit(std::move(ld));
        }
        BranchRef wait =
            emitBranch(Opcode::BF, IrValue::makeReg(done_val));
        patchBranch(wait, newBlock());
        return TV::voidValue();
    }

    const std::uint32_t lo_reg = materialize(TV::make(lo, Type::Int));
    const std::uint32_t hi_reg = materialize(TV::make(hi, Type::Int));
    lo = IrValue::makeReg(lo_reg);
    hi = IrValue::makeReg(hi_reg);

    IrValue n = emitBin(Opcode::ISUB, hi, lo, Type::Int);
    {
        IrInstr st;
        st.op = Opcode::ST;
        st.srcs = {IrValue::makeInt(counter_addr), IrValue::makeInt(0),
                   n};
        st.flavor = isa::MemFlavor::plainStore();
        st.memSym = strCat("forall", sid, ".counter");
        emit(std::move(st));
    }

    // if (n > 0) { spawn sub-loops; wait }
    IrValue any = emitBin(Opcode::IGT, n, IrValue::makeInt(0),
                          Type::Int);
    BranchRef skip = emitBranch(Opcode::BF, any);
    newBlock();

    // One stride-partitioned spawn loop per clone, each with a fixed
    // FORK target (no per-instance clone selection):
    //   for c in clones: v = lo + c; while (v < hi) { fork(clone_c,
    //       args, v); v += #clones }
    const auto stride =
        IrValue::makeInt(static_cast<std::int64_t>(clones.size()));
    for (std::size_t c = 0; c < clones.size(); ++c) {
        IrValue start = emitBin(
            Opcode::IADD, lo,
            IrValue::makeInt(static_cast<std::int64_t>(c)), Type::Int);
        const std::uint32_t v_reg =
            materialize(TV::make(start, Type::Int));

        BranchRef entry = emitBranch(Opcode::BR, IrValue());
        const int cond_block = newBlock();
        patchBranch(entry, cond_block);
        IrValue more = emitBin(Opcode::ILT, IrValue::makeReg(v_reg),
                               hi, Type::Int);
        BranchRef to_next = emitBranch(Opcode::BF, more);
        newBlock();

        std::vector<IrValue> args = parent_args;
        args.push_back(IrValue::makeReg(v_reg));
        IrInstr fk;
        fk.op = Opcode::FORK;
        fk.forkTarget = clones[c];
        fk.srcs = std::move(args);
        emit(std::move(fk));

        IrValue next = emitBin(Opcode::IADD, IrValue::makeReg(v_reg),
                               stride, Type::Int);
        IrInstr inc;
        inc.op = Opcode::MOV;
        inc.dst = v_reg;
        inc.srcs = {next};
        emit(std::move(inc));
        BranchRef back = emitBranch(Opcode::BR, IrValue());
        patchBranch(back, cond_block);

        patchBranch(to_next, newBlock());
    }


    // take(done): parks in the memory system until the last child
    // fills the cell, and re-empties it for the next execution. The
    // split-transaction protocol lets a thread run past a load whose
    // value nothing reads, so the join *branches on* the loaded value:
    // the branch cannot issue until the cell fills, which is what
    // actually blocks the parent.
    std::uint32_t done_val;
    {
        IrInstr ld;
        ld.op = Opcode::LD;
        ld.dst = fn().newReg(Type::Int);
        ld.srcs = {IrValue::makeInt(done_addr), IrValue::makeInt(0)};
        ld.flavor = isa::MemFlavor::consumeLoad();
        ld.memSym = strCat("forall", sid, ".done");
        done_val = ld.dst;
        emit(std::move(ld));
    }
    BranchRef wait_done =
        emitBranch(Opcode::BF, IrValue::makeReg(done_val));
    const int join = newBlock();  // both arms of the BF land here
    patchBranch(skip, join);
    patchBranch(wait_done, join);
    return TV::voidValue();
}

TV
FuncBuilder::genCall(const Sexpr& e)
{
    const std::string& name = e.at(0).symbol();
    const Sexpr* d = fe.findDefun(name);
    if (d == nullptr)
        err(e, strCat("unknown form or function ", name));

    for (const auto& frame : fe.inlineStack)
        if (frame == name)
            err(e, strCat("recursive call of ", name,
                          " (procedures are macro-expanded)"));

    const auto& params = d->at(2).items();
    if (params.size() != e.size() - 1)
        err(e, strCat(name, " takes ", params.size(), " arguments, given ",
                      e.size() - 1));

    // Macro expansion: bind arguments to fresh registers and splice
    // the body in a fresh scope (callee cannot see caller locals).
    std::vector<Binding> arg_bindings;
    for (std::size_t i = 0; i < params.size(); ++i) {
        TV a = genExpr(e.at(1 + i));
        if (a.isVoid)
            err(e, "argument has no value");
        Binding b;
        b.kind = Binding::Kind::Reg;
        b.type = a.type;
        b.reg = materialize(a);
        arg_bindings.push_back(b);
    }

    std::vector<std::map<std::string, Binding>> saved;
    saved.swap(scopes);
    pushScope();
    for (std::size_t i = 0; i < params.size(); ++i)
        bind(params[i].symbol(), arg_bindings[i]);

    fe.inlineStack.push_back(name);
    TV result = genBody(d->items(), 3);
    fe.inlineStack.pop_back();

    scopes.swap(saved);
    return result;
}

TV
FuncBuilder::genExpr(const Sexpr& e)
{
    if (e.isInt())
        return TV::make(IrValue::makeInt(e.intValue()), Type::Int);
    if (e.isFloat())
        return TV::make(IrValue::makeFloat(e.floatValue()), Type::Float);

    if (e.isSymbol()) {
        const std::string& name = e.symbol();
        if (const Binding* b = lookup(name)) {
            if (b->kind == Binding::Kind::Const)
                return TV::make(IrValue::makeConst(b->constVal), b->type);
            return TV::make(IrValue::makeReg(b->reg), b->type);
        }
        if (const Global* g = mod().findGlobal(name)) {
            if (!g->dims.empty())
                err(e, strCat(name, " is an array; use aref"));
            IrInstr i;
            i.op = Opcode::LD;
            i.dst = fn().newReg(g->elemType);
            i.srcs = {IrValue::makeInt(g->base), IrValue::makeInt(0)};
            i.flavor = isa::MemFlavor::plainLoad();
            i.memSym = name;
            const std::uint32_t d = i.dst;
            emit(std::move(i));
            return TV::make(IrValue::makeReg(d), g->elemType);
        }
        err(e, strCat("unknown variable ", name));
    }

    if (!e.isList() || e.size() == 0 || !e.at(0).isSymbol())
        err(e, strCat("cannot compile form ", e.toString()));

    const std::string& head = e.at(0).symbol();
    if (const BinOp* op = findBinOp(head))
        return genBinOp(e, *op);
    if (head == "not" || head == "float" || head == "int") {
        needOperands(e, 1);
        TV a = genExpr(e.at(1));
        if (head == "float")
            return TV::make(coerce(a, Type::Float, e), Type::Float);
        if (head == "int")
            return a.type == Type::Int
                ? a
                : TV::make(emitUnary(Opcode::FTOI, a.val, Type::Int),
                           Type::Int);
        const Opcode opc = opcodeFor(e, Opcode::INOT, Opcode::NOP,
                                     a.type == Type::Float);
        return TV::make(emitUnary(opc, requireValue(a, e), Type::Int),
                        Type::Int);
    }
    if (head == "let")
        return genLet(e);
    if (head == "set")
        return genSet(e);
    if (head == "begin")
        return genBody(e.items(), 1);
    if (head == "if")
        return genIf(e);
    if (head == "while")
        return genWhile(e);
    if (head == "for")
        return genFor(e);
    if (head == "aref")
        return genMemRead(e, isa::MemFlavor::plainLoad());
    if (head == "wait-load")
        return genMemRead(e, isa::MemFlavor::waitLoad());
    if (head == "take")
        return genMemRead(e, isa::MemFlavor::consumeLoad());
    if (head == "aset")
        return genMemWrite(e, isa::MemFlavor::plainStore());
    if (head == "put")
        return genMemWrite(e, isa::MemFlavor::produceStore());
    if (head == "update")
        return genMemWrite(e, isa::MemFlavor::updateStore());
    if (head == "fork")
        return genFork(e);
    if (head == "forall")
        return genForall(e);
    if (head == "mark") {
        IrInstr i;
        i.op = Opcode::MARK;
        i.markId = e.at(1).intValue();
        emit(std::move(i));
        return TV::voidValue();
    }
    return genCall(e);
}

void
FuncBuilder::build(const std::vector<std::string>& param_names,
                   const std::vector<Type>& param_types,
                   const std::vector<Sexpr>& body, std::size_t body_from)
{
    for (std::size_t i = 0; i < param_names.size(); ++i) {
        Binding b;
        b.kind = Binding::Kind::Reg;
        b.type = param_types[i];
        b.reg = fn().newReg(param_types[i]);
        fn().params.push_back(b.reg);
        bind(param_names[i], b);
    }
    genBody(body, body_from);
    if (blockOpen()) {
        IrInstr end;
        end.op = Opcode::ETHR;
        emit(std::move(end));
    }
}

void
FuncBuilder::buildForallChild(
    const std::vector<std::string>& param_names,
    const std::vector<Type>& param_types, const std::vector<Sexpr>& body,
    std::uint32_t counter_addr, std::uint32_t done_addr)
{
    for (std::size_t i = 0; i < param_names.size(); ++i) {
        Binding b;
        b.kind = Binding::Kind::Reg;
        b.type = param_types[i];
        b.reg = fn().newReg(param_types[i]);
        fn().params.push_back(b.reg);
        bind(param_names[i], b);
    }
    genBody(body, 0);

    // Countdown epilogue: t = take(counter); counter = t - 1;
    // if (t - 1 == 0) done = 1.
    PROCOUP_ASSERT(blockOpen(), "forall body may not end a thread");
    IrInstr take;
    take.op = Opcode::LD;
    take.dst = fn().newReg(Type::Int);
    take.srcs = {IrValue::makeInt(counter_addr), IrValue::makeInt(0)};
    take.flavor = isa::MemFlavor::consumeLoad();
    take.memSym = "forall.counter";
    const std::uint32_t t = take.dst;
    emit(std::move(take));

    IrValue t1 = emitBin(Opcode::ISUB, IrValue::makeReg(t),
                         IrValue::makeInt(1), Type::Int);
    IrInstr st;
    st.op = Opcode::ST;
    st.srcs = {IrValue::makeInt(counter_addr), IrValue::makeInt(0), t1};
    st.flavor = isa::MemFlavor::plainStore();
    st.memSym = "forall.counter";
    emit(std::move(st));

    IrValue is_last = emitBin(Opcode::IEQ, t1, IrValue::makeInt(0),
                              Type::Int);
    BranchRef skip = emitBranch(Opcode::BF, is_last);
    newBlock();
    IrInstr fill;
    fill.op = Opcode::ST;
    fill.srcs = {IrValue::makeInt(done_addr), IrValue::makeInt(0),
                 IrValue::makeInt(1)};
    fill.flavor = isa::MemFlavor::plainStore();
    fill.memSym = "forall.done";
    emit(std::move(fill));
    BranchRef through = emitBranch(Opcode::BR, IrValue());
    const int last = newBlock();
    patchBranch(skip, last);
    patchBranch(through, last);

    IrInstr end;
    end.op = Opcode::ETHR;
    emit(std::move(end));
}

} // namespace

// ===================================================================
// Public entry points
// ===================================================================

isa::Value
evalConstExpr(const Sexpr& e,
              const std::vector<std::pair<std::string, isa::Value>>& env)
{
    // A literal, such as each entry of an :init list, allocates nothing.
    if (e.isInt())
        return isa::Value::makeInt(e.intValue());
    if (e.isFloat())
        return isa::Value::makeFloat(e.floatValue());
    std::vector<std::string_view> names;
    std::vector<isa::Value> values;
    for (const auto& [name, v] : env) {
        names.push_back(name);
        values.push_back(v);
    }
    return ConstExpr(e, names).eval(values);
}

Module
buildModule(const std::vector<Sexpr>& forms, const FrontendOptions& opts)
{
    if (opts.forkClones < 1)
        throw CompileError("forkClones must be >= 1");
    Frontend fe(forms, opts);
    return fe.run();
}

Module
buildModule(const std::string& source, const FrontendOptions& opts)
{
    return buildModule(lang::parse(source), opts);
}

} // namespace ir
} // namespace procoup
