/** @file Parameterized coverage of the functional ALU semantics. */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "procoup/isa/alu.hh"
#include "procoup/support/error.hh"

namespace procoup {
namespace {

using isa::Opcode;
using isa::Value;
using isa::evalAlu;

constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();

// --- Integer binary operations ---------------------------------------

struct IntBinCase
{
    const char* name;
    Opcode op;
    std::int64_t a;
    std::int64_t b;
    std::int64_t expect;
};

class IntBinTest : public ::testing::TestWithParam<IntBinCase> {};

TEST_P(IntBinTest, Evaluates)
{
    const auto& p = GetParam();
    const Value r =
        evalAlu(p.op, {Value::makeInt(p.a), Value::makeInt(p.b)});
    EXPECT_FALSE(r.isFloat());
    EXPECT_EQ(r.rawInt(), p.expect);
}

INSTANTIATE_TEST_SUITE_P(
    Ops, IntBinTest,
    ::testing::Values(
        IntBinCase{"add", Opcode::IADD, 7, 5, 12},
        IntBinCase{"add_negative", Opcode::IADD, -7, 5, -2},
        IntBinCase{"sub", Opcode::ISUB, 7, 5, 2},
        IntBinCase{"mul", Opcode::IMUL, -3, 9, -27},
        IntBinCase{"div", Opcode::IDIV, 17, 5, 3},
        IntBinCase{"div_negative", Opcode::IDIV, -17, 5, -3},
        IntBinCase{"mod", Opcode::IMOD, 17, 5, 2},
        IntBinCase{"mod_negative", Opcode::IMOD, -17, 5, -2},
        // Integer arithmetic wraps modulo 2^64.
        IntBinCase{"add_wraps", Opcode::IADD, kMax, 1, kMin},
        IntBinCase{"sub_wraps", Opcode::ISUB, kMin, 1, kMax},
        IntBinCase{"mul_wraps", Opcode::IMUL, kMax, 2, -2},
        IntBinCase{"mul_min_by_minus_one", Opcode::IMUL, kMin, -1, kMin},
        IntBinCase{"div_by_minus_one", Opcode::IDIV, 7, -1, -7},
        IntBinCase{"div_min_by_minus_one", Opcode::IDIV, kMin, -1, kMin},
        IntBinCase{"mod_min_by_minus_one", Opcode::IMOD, kMin, -1, 0},
        IntBinCase{"shl_into_sign", Opcode::ISHL, 1, 63, kMin},
        IntBinCase{"and", Opcode::IAND, 0b1100, 0b1010, 0b1000},
        IntBinCase{"or", Opcode::IOR, 0b1100, 0b1010, 0b1110},
        IntBinCase{"xor", Opcode::IXOR, 0b1100, 0b1010, 0b0110},
        IntBinCase{"shl", Opcode::ISHL, 3, 4, 48},
        IntBinCase{"shr", Opcode::ISHR, 48, 4, 3},
        IntBinCase{"lt_true", Opcode::ILT, 2, 3, 1},
        IntBinCase{"lt_false", Opcode::ILT, 3, 2, 0},
        IntBinCase{"le_equal", Opcode::ILE, 3, 3, 1},
        IntBinCase{"eq", Opcode::IEQ, 4, 4, 1},
        IntBinCase{"ne", Opcode::INE, 4, 4, 0},
        IntBinCase{"gt", Opcode::IGT, 5, 4, 1},
        IntBinCase{"ge", Opcode::IGE, 4, 5, 0}),
    [](const ::testing::TestParamInfo<IntBinCase>& i) {
        return i.param.name;
    });

// --- FTOI: truncation toward zero, INT64_MIN off int64's range -------

struct FtoiCase
{
    const char* name;
    double in;
    std::int64_t expect;
};

class FtoiTest : public ::testing::TestWithParam<FtoiCase> {};

TEST_P(FtoiTest, Truncates)
{
    const auto& p = GetParam();
    const Value r = evalAlu(Opcode::FTOI, {Value::makeFloat(p.in)});
    EXPECT_FALSE(r.isFloat());
    EXPECT_EQ(r.rawInt(), p.expect);
    // The integer units' view of a float word agrees.
    EXPECT_EQ(Value::makeFloat(p.in).asInt(), p.expect);
}

constexpr double kInf = std::numeric_limits<double>::infinity();

INSTANTIATE_TEST_SUITE_P(
    Values, FtoiTest,
    ::testing::Values(
        FtoiCase{"positive", 2.9, 2},
        FtoiCase{"negative", -2.9, -2},
        FtoiCase{"largest_below_2_63", 0x1.fffffffffffffp62,
                 kMax - 1023},
        FtoiCase{"min", -0x1p63, kMin},
        FtoiCase{"two_to_63", 0x1p63, kMin},
        FtoiCase{"below_min", -0x1.0000000000001p63, kMin},
        FtoiCase{"huge", 1.0e300, kMin},
        FtoiCase{"negative_huge", -1.0e300, kMin},
        FtoiCase{"infinity", kInf, kMin},
        FtoiCase{"negative_infinity", -kInf, kMin},
        FtoiCase{"nan", std::numeric_limits<double>::quiet_NaN(), kMin}),
    [](const ::testing::TestParamInfo<FtoiCase>& i) {
        return i.param.name;
    });

// --- Float binary operations -----------------------------------------

struct FloatBinCase
{
    const char* name;
    Opcode op;
    double a;
    double b;
    double expect;
    bool int_result;
};

class FloatBinTest : public ::testing::TestWithParam<FloatBinCase> {};

TEST_P(FloatBinTest, Evaluates)
{
    const auto& p = GetParam();
    const Value r =
        evalAlu(p.op, {Value::makeFloat(p.a), Value::makeFloat(p.b)});
    if (p.int_result) {
        EXPECT_FALSE(r.isFloat());
        EXPECT_EQ(r.rawInt(), static_cast<std::int64_t>(p.expect));
    } else {
        EXPECT_TRUE(r.isFloat());
        EXPECT_DOUBLE_EQ(r.rawFloat(), p.expect);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Ops, FloatBinTest,
    ::testing::Values(
        FloatBinCase{"add", Opcode::FADD, 1.5, 2.25, 3.75, false},
        FloatBinCase{"sub", Opcode::FSUB, 1.5, 2.0, -0.5, false},
        FloatBinCase{"mul", Opcode::FMUL, -1.5, 2.0, -3.0, false},
        FloatBinCase{"div", Opcode::FDIV, 7.0, 2.0, 3.5, false},
        FloatBinCase{"lt", Opcode::FLT, 1.0, 2.0, 1, true},
        FloatBinCase{"le", Opcode::FLE, 2.0, 2.0, 1, true},
        FloatBinCase{"eq", Opcode::FEQ, 2.0, 2.5, 0, true},
        FloatBinCase{"ne", Opcode::FNE, 2.0, 2.5, 1, true},
        FloatBinCase{"gt", Opcode::FGT, 2.5, 2.0, 1, true},
        FloatBinCase{"ge", Opcode::FGE, 1.0, 2.0, 0, true}),
    [](const ::testing::TestParamInfo<FloatBinCase>& i) {
        return i.param.name;
    });

// --- Unary / conversion / move ----------------------------------------

TEST(Alu, UnaryOps)
{
    EXPECT_EQ(evalAlu(Opcode::INEG, {Value::makeInt(5)}).rawInt(), -5);
    EXPECT_EQ(evalAlu(Opcode::INEG, {Value::makeInt(kMin)}).rawInt(), kMin);
    EXPECT_EQ(evalAlu(Opcode::INOT, {Value::makeInt(0)}).rawInt(), 1);
    EXPECT_EQ(evalAlu(Opcode::INOT, {Value::makeInt(7)}).rawInt(), 0);
    EXPECT_DOUBLE_EQ(
        evalAlu(Opcode::FNEG, {Value::makeFloat(2.5)}).rawFloat(),
        -2.5);
}

TEST(Alu, Conversions)
{
    const Value f = evalAlu(Opcode::ITOF, {Value::makeInt(-3)});
    EXPECT_TRUE(f.isFloat());
    EXPECT_DOUBLE_EQ(f.rawFloat(), -3.0);

    const Value i = evalAlu(Opcode::FTOI, {Value::makeFloat(2.9)});
    EXPECT_FALSE(i.isFloat());
    EXPECT_EQ(i.rawInt(), 2);  // truncation toward zero
    EXPECT_EQ(evalAlu(Opcode::FTOI, {Value::makeFloat(-2.9)}).rawInt(),
              -2);
}

TEST(Alu, MovesPreserveTags)
{
    const Value fi = evalAlu(Opcode::MOV, {Value::makeFloat(1.25)});
    EXPECT_TRUE(fi.isFloat());
    EXPECT_DOUBLE_EQ(fi.rawFloat(), 1.25);
    const Value ii = evalAlu(Opcode::FMOV, {Value::makeInt(9)});
    EXPECT_FALSE(ii.isFloat());
    EXPECT_EQ(ii.rawInt(), 9);
}

TEST(Alu, MixedTagOperandsConvert)
{
    // Integer unit coerces floats to ints; float unit the reverse.
    EXPECT_EQ(evalAlu(Opcode::IADD, {Value::makeFloat(2.9),
                                     Value::makeInt(1)})
                  .rawInt(),
              3);
    EXPECT_DOUBLE_EQ(evalAlu(Opcode::FMUL, {Value::makeInt(3),
                                            Value::makeFloat(0.5)})
                         .rawFloat(),
                     1.5);
}

TEST(Alu, DivisionByZeroTraps)
{
    EXPECT_THROW(
        evalAlu(Opcode::IDIV, {Value::makeInt(1), Value::makeInt(0)}),
        SimError);
    EXPECT_THROW(
        evalAlu(Opcode::IMOD, {Value::makeInt(1), Value::makeInt(0)}),
        SimError);
    // IEEE float division by zero is defined.
    EXPECT_TRUE(std::isinf(
        evalAlu(Opcode::FDIV,
                {Value::makeFloat(1.0), Value::makeFloat(0.0)})
            .rawFloat()));
}

} // namespace
} // namespace procoup
