/** @file Language acceptance tests: corner cases of scoping,
 *  expansion, threading, and typing, verified end to end. */

#include <gtest/gtest.h>

#include <bit>
#include <limits>

#include "procoup/config/presets.hh"
#include "procoup/core/node.hh"
#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace {

using core::CoupledNode;
using core::SimMode;

core::RunResult
run(const std::string& src, SimMode mode = SimMode::Coupled)
{
    CoupledNode node(config::baseline());
    return node.runSource(src, mode);
}

TEST(LanguageCorners, LetShadowing)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((x 1))"
        "    (let ((x 10))"
        "      (set x (+ x 5)))"       // inner x
        "    (set out x)))");           // outer x untouched
    EXPECT_EQ(r.intValue("out"), 1);
}

TEST(LanguageCorners, DefunCallingDefun)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun twice (x) (* 2 x))"
        "(defun quad (x) (twice (twice x)))"
        "(defun main () (set out (quad 5)))");
    EXPECT_EQ(r.intValue("out"), 20);
}

TEST(LanguageCorners, DefunParamsAreCopies)
{
    // set on a parameter must not affect the caller's variable.
    const auto r = run(
        "(defvar out 0)"
        "(defun clobber (x) (set x 99) x)"
        "(defun main ()"
        "  (let ((a 5))"
        "    (clobber a)"
        "    (set out a)))");
    EXPECT_EQ(r.intValue("out"), 5);
}

TEST(LanguageCorners, DefunCannotSeeCallerLocals)
{
    EXPECT_THROW(run(
        "(defun leak () hidden)"
        "(defun main () (let ((hidden 5)) (leak)))"),
        CompileError);
}

TEST(LanguageCorners, ForallInsideDefunCalledFromMain)
{
    const auto r = run(
        "(defarray a (8))"
        "(defun fill () (forall (i 0 8) (aset a i (float i))))"
        "(defvar sum 0.0)"
        "(defun main ()"
        "  (fill)"
        "  (let ((s 0.0))"
        "    (for (i 0 8) (set s (+ s (aref a i))))"
        "    (set sum s)))");
    EXPECT_DOUBLE_EQ(r.value("sum"), 28.0);
}

TEST(LanguageCorners, UnrollInsideForallBody)
{
    const auto r = run(
        "(defarray a (4 4))"
        "(defun main ()"
        "  (forall (r 0 4)"
        "    (for (c 0 4 :unroll)"
        "      (aset a r c (float (+ (* 10 r) c))))))");
    for (int rr = 0; rr < 4; ++rr)
        for (int c = 0; c < 4; ++c)
            EXPECT_DOUBLE_EQ(r.value("a", 4 * rr + c), 10.0 * rr + c);
}

TEST(LanguageCorners, BeginYieldsLastValue)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun main ()"
        "  (set out (begin 1 2 (+ 3 4))))");
    EXPECT_EQ(r.intValue("out"), 7);
}

TEST(LanguageCorners, NestedWhileLoops)
{
    const auto r = run(
        "(defvar out 0)"
        "(defun main ()"
        "  (let ((i 0) (total 0))"
        "    (while (< i 5)"
        "      (let ((j 0))"
        "        (while (< j i)"
        "          (set total (+ total 1))"
        "          (set j (+ j 1))))"
        "      (set i (+ i 1)))"
        "    (set out total)))");
    EXPECT_EQ(r.intValue("out"), 10);  // 0+1+2+3+4
}

TEST(LanguageCorners, AndOrNotSemantics)
{
    const auto r = run(
        "(defvar a 0)(defvar b 0)(defvar c 0)"
        "(defun main ()"
        "  (let ((x 3) (y 0))"
        "    (set a (and (< y x) (!= x 0)))"
        "    (set b (or (= x 0) (= y 0)))"
        "    (set c (not (and 1 0)))))");
    EXPECT_EQ(r.intValue("a"), 1);
    EXPECT_EQ(r.intValue("b"), 1);
    EXPECT_EQ(r.intValue("c"), 1);
}

TEST(LanguageCorners, NegativeNumbersAndUnaryMinus)
{
    const auto r = run(
        "(defvar i 0)(defvar f 0.0)"
        "(defun main ()"
        "  (let ((x 7) (y 2.5))"
        "    (set i (- x))"
        "    (set f (+ -1.5 (- y)))))");
    EXPECT_EQ(r.intValue("i"), -7);
    EXPECT_DOUBLE_EQ(r.value("f"), -4.0);
}

TEST(LanguageCorners, IntFloatCasts)
{
    const auto r = run(
        "(defvar i 0)(defvar f 0.0)"
        "(defun main ()"
        "  (let ((x 2.9))"
        "    (set i (int x))"
        "    (set f (/ (float 7) 2.0))))");
    EXPECT_EQ(r.intValue("i"), 2);
    EXPECT_DOUBLE_EQ(r.value("f"), 3.5);
}

TEST(LanguageCorners, Int64MinOverMinusOneWraps)
{
    // Integer arithmetic wraps modulo 2^64 whether the frontend folds
    // it or the ALU runs it; INT64_MIN / -1 once raised SIGFPE in both.
    const std::string min = "(- -9223372036854775807 1)";
    for (const std::string op : {"/", "mod"}) {
        const std::int64_t want =
            op == "/" ? std::numeric_limits<std::int64_t>::min() : 0;
        const auto folded = run(strCat(
            "(defvar out 7)"
            "(defun main () (set out (", op, " ", min, " -1)))"));
        EXPECT_EQ(folded.intValue("out"), want) << op;
        const auto runtime = run(strCat(
            "(defarray d (1))(defvar out 7)"
            "(defun main ()"
            "  (aset d 0 -1.0)"
            "  (set out (", op, " ", min, " (int (aref d 0)))))"));
        EXPECT_EQ(runtime.intValue("out"), want) << op;
    }
}

/** A word's tag and bits, so that -0.0 and 0.0 differ. */
std::pair<bool, std::uint64_t>
bits(const isa::Value& v)
{
    return {v.isFloat(), v.isFloat()
                             ? std::bit_cast<std::uint64_t>(v.rawFloat())
                             : static_cast<std::uint64_t>(v.rawInt())};
}

isa::Value
word(const core::RunResult& r, const std::string& symbol)
{
    return r.memory.at(r.compiled.program.symbol(symbol).base);
}

TEST(LanguageCorners, ConstantsFoldAndAluAgree)
{
    // Every operator over every operand (pair), three ways: as a
    // defvar initializer, inline in main on literals (the frontend's
    // fold) and in main on operands loaded from memory (the ALU). The
    // results agree bit for bit, and an operand type an operator
    // rejects is a CompileError all three ways. An integer zero
    // divisor alone differs: a constant has no run time to trap in.
    const std::vector<std::string> lits = {
        "0", "1", "-1", "2", "-9223372036854775808",
        "9223372036854775807", "9007199254740993", "2.5", "-0.5"};
    const std::vector<std::pair<std::string, int>> ops = {
        {"+", 2}, {"-", 2}, {"*", 2}, {"/", 2}, {"mod", 2},
        {"<", 2}, {"<=", 2}, {"=", 2}, {"!=", 2}, {">", 2}, {">=", 2},
        {"and", 2}, {"or", 2},
        {"-", 1}, {"not", 1}, {"int", 1}, {"float", 1}};
    std::vector<std::string> loads;
    std::string operands;
    for (std::size_t i = 0; i < lits.size(); ++i) {
        loads.push_back(strCat("a", i));
        operands += strCat("(defvar a", i, " ", lits[i], ")");
    }
    auto is_float = [&](std::size_t i) {
        return lits[i].find('.') != std::string::npos;
    };

    for (const auto& [op, arity] : ops) {
        // Operators whose result keeps the promoted operand type.
        const bool arith =
            op == "+" || op == "-" || op == "*" || op == "/";
        std::string cells, body;
        std::vector<std::string> batched;
        for (std::size_t i = 0; i < lits.size(); ++i) {
            for (std::size_t j = 0; j < (arity == 2 ? lits.size() : 1);
                 ++j) {
                auto expr = [&](const std::vector<std::string>& names) {
                    return arity == 2
                        ? strCat("(", op, " ", names[i], " ", names[j], ")")
                        : strCat("(", op, " ", names[i], ")");
                };
                const std::string lit = expr(lits), loaded = expr(loads);
                const bool any_float =
                    is_float(i) || (arity == 2 && is_float(j));
                const bool rejected =
                    any_float && (op == "mod" || op == "and" ||
                                  op == "or" || op == "not");
                const bool traps = (op == "/" || op == "mod") &&
                                   arity == 2 && !any_float &&
                                   lits[j] == "0";
                if (rejected || traps) {
                    EXPECT_THROW(run(strCat("(defvar c ", lit, ")"
                                            "(defun main () 0)")),
                                 CompileError) << lit;
                    for (const std::string& code :
                         {strCat("(defvar f 0)(defun main () (set f ",
                                 lit, "))"),
                          strCat(operands, "(defvar l 0)"
                                 "(defun main () (set l ", loaded,
                                 "))")}) {
                        if (rejected) {
                            EXPECT_THROW(run(code), CompileError) << code;
                        } else {
                            EXPECT_THROW(run(code), SimError) << code;
                        }
                    }
                    continue;
                }
                const std::size_t k = batched.size();
                const char* zero =
                    op == "float" || (arith && any_float) ? "0.0" : "0";
                cells += strCat("(defvar c", k, " ", lit, ")(defvar f", k,
                                " ", zero, ")(defvar l", k, " ", zero,
                                ")");
                body += strCat("(set f", k, " ", lit, ")(set l", k, " ",
                               loaded, ")");
                batched.push_back(lit);
            }
        }
        const auto r =
            run(strCat(operands, cells, "(defun main () ", body, ")"));
        for (std::size_t k = 0; k < batched.size(); ++k) {
            const auto c = bits(word(r, strCat("c", k)));
            EXPECT_EQ(c, bits(word(r, strCat("f", k)))) << batched[k];
            EXPECT_EQ(c, bits(word(r, strCat("l", k)))) << batched[k];
        }
    }
}

TEST(LanguageCorners, InitEachRaisesAtTheElementThatMeetsAnError)
{
    // An :init-each initializer runs once per element, the arms of if
    // lazily: an unknown symbol or a wrong operand count that no
    // element reaches is silent, and the first element that meets an
    // error raises it, with the location of the form that raised it.
    const auto r = run(
        "(defarray a (3 4) :int :init-each"
        "  (if (< i 100) (+ (* 10 r) c) (+ nowhere (mod))))"
        "(defvar out 0)"
        "(defun main () (set out (+ (aref a 2 3) (aref a 1 0))))");
    EXPECT_EQ(r.intValue("out"), 33);

    auto error = [](const std::string& init) -> std::string {
        try {
            run(strCat("(defarray a (8) :int :init-each ", init,
                       ")(defun main () 0)"));
        } catch (const CompileError& e) {
            return e.what();
        }
        return "compiled";
    };
    // Element 5 divides by zero before element 6 names `later`.
    EXPECT_EQ(error("(if (< i 6) (/ 12 (- i 5)) later)"),
              "constant division by zero (at line 1, column 45)");
    // Element 5 names `later` before element 6 divides by zero.
    EXPECT_EQ(error("(if (< i 5) 1 (if (= i 6) (/ 1 0) later))"),
              "not a compile-time constant: later (at line 1, column 67)");
    // Element 4 is the first to give mod a float operand.
    EXPECT_EQ(error("(mod (if (< i 4) 7 1.5) 2)"),
              "mod requires integer operands (at line 1, column 33)");
}

TEST(LanguageCorners, FloatToIntOffRangeIsInt64Min)
{
    // (int x) of NaN or of a double outside int64 range is INT64_MIN,
    // whether the frontend folds it or the ALU runs it.
    const std::int64_t min = std::numeric_limits<std::int64_t>::min();
    const auto folded = run(
        "(defvar out 7)(defun main () (set out (int 1.0e300)))");
    EXPECT_EQ(folded.intValue("out"), min);
    for (const std::string x :
         {"(aref d 0)", "(- 0.0 (aref d 0))",
          "(- (* (aref d 0) 1.0e300) (* (aref d 0) 1.0e300))"}) {
        const auto runtime = run(strCat(
            "(defarray d (1))(defvar out 7)"
            "(defun main ()"
            "  (aset d 0 1.0e300)"
            "  (set out (int ", x, ")))"));
        EXPECT_EQ(runtime.intValue("out"), min) << x;
    }
}

TEST(LanguageCorners, GlobalScalarsReadAndWrite)
{
    const auto r = run(
        "(defvar counter 10)"
        "(defvar out 0)"
        "(defun main ()"
        "  (set counter (+ counter 5))"
        "  (set out (* counter 2)))");
    EXPECT_EQ(r.intValue("counter"), 15);
    EXPECT_EQ(r.intValue("out"), 30);
}

TEST(LanguageCorners, WhileConditionMustBeInt)
{
    EXPECT_THROW(run(
        "(defun main () (while 1.5 0))"), CompileError);
}

TEST(LanguageCorners, SetOnUnrolledVariableRejected)
{
    EXPECT_THROW(run(
        "(defun main () (for (i 0 3 :unroll) (set i 9)))"),
        CompileError);
}

TEST(LanguageCorners, ArrayDimensionMismatchRejected)
{
    EXPECT_THROW(run(
        "(defarray a (4 4))"
        "(defun main () (aref a 1))"), CompileError);
    EXPECT_THROW(run(
        "(defarray a (4))"
        "(defun main () (aset a 1 2 3.0))"), CompileError);
}

TEST(LanguageCorners, ForkRequiresCallForm)
{
    EXPECT_THROW(run("(defun main () (fork 5))"), CompileError);
    EXPECT_THROW(run(
        "(defun w (a b c d) 0)"
        "(defun main () (fork (w 1 2 3 4)))"), CompileError);
}

TEST(LanguageCorners, InconsistentForkArgTypesRejected)
{
    EXPECT_THROW(run(
        "(defarray a (4))"
        "(defun w (x) (aset a 0 (float x)))"
        "(defun main ()"
        "  (fork (w 1))"
        "  (fork (w 2.5)))"), CompileError);
}

TEST(LanguageCorners, EmptyForallBodyStillJoins)
{
    // Zero-trip forall: no children, no join wait, no deadlock.
    const auto r = run(
        "(defvar out 0)"
        "(defarray a (4))"
        "(defun main ()"
        "  (let ((n 0))"
        "    (forall (i 0 n) (aset a i 1.0)))"
        "  (set out 1))");
    EXPECT_EQ(r.intValue("out"), 1);
}

TEST(LanguageCorners, ForallSingleIteration)
{
    const auto r = run(
        "(defarray a (1))"
        "(defun main () (forall (i 0 1) (aset a i 9.0)))");
    EXPECT_DOUBLE_EQ(r.value("a", 0), 9.0);
}

} // namespace
} // namespace procoup
