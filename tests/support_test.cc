/** @file Unit tests for the support module (RNG, strings, tables,
 *  inline vectors). */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <typeinfo>
#include <utility>
#include <vector>

#include "procoup/support/error.hh"
#include "procoup/support/inline_vector.hh"
#include "procoup/support/rng.hh"
#include "procoup/support/strings.hh"
#include "procoup/support/table.hh"

namespace procoup {
namespace {

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 5);
}

TEST(Rng, ZeroSeedIsRemapped)
{
    Rng a(0);
    EXPECT_NE(a.next(), 0u);
}

TEST(Rng, UniformIntStaysInRange)
{
    Rng r(7);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = r.uniformInt(20, 100);
        ASSERT_GE(v, 20);
        ASSERT_LE(v, 100);
        seen.insert(v);
    }
    // The paper's miss-penalty range should be well covered.
    EXPECT_GT(seen.size(), 70u);
}

TEST(Rng, UniformIntSingletonRange)
{
    Rng r(9);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.uniformInt(5, 5), 5);
}

TEST(Rng, UniformDoubleInUnitInterval)
{
    Rng r(11);
    double sum = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double v = r.uniformDouble();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
        sum += v;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ChanceMatchesProbability)
{
    Rng r(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        if (r.chance(0.05))
            ++hits;
    EXPECT_NEAR(hits / 20000.0, 0.05, 0.01);
}

/** What std::ostream prints for @p v under default flags: the bytes
 *  strCat() promises. */
template <typename T>
std::string
streamed(const T& v)
{
    std::ostringstream os;
    os << v;
    return os.str();
}

/** strCat(v) against the stream for each of @p values of type T. */
template <typename T>
void
expectStreamBytes(std::initializer_list<T> values)
{
    for (const T& v : values)
        EXPECT_EQ(strCat(v), streamed(v))
            << typeid(T).name() << " " << streamed(v);
}

template <typename T>
void
expectStreamBytesAtLimits()
{
    using L = std::numeric_limits<T>;
    expectStreamBytes<T>({T{0}, L::min(), L::max()});
}

template <typename T>
void
expectStreamBytesOfFloats()
{
    using L = std::numeric_limits<T>;
    expectStreamBytes<T>({T(0.0), -T(0.0), T(0.1), T(1e-5), T(1e-4),
                          T(123456), T(1234567), T(1e21), L::denorm_min(),
                          L::max(), L::infinity(), -L::infinity(),
                          L::quiet_NaN(), -L::quiet_NaN()});
}

TEST(Strings, StrCat)
{
    EXPECT_EQ(strCat("a", 1, "b", 2.5), "a1b2.5");
    EXPECT_EQ(strCat(), "");

    // Keys, fingerprints and generated programs are stored and compared
    // by their bytes: every argument type prints as the stream did.
    expectStreamBytesAtLimits<short>();
    expectStreamBytesAtLimits<unsigned short>();
    expectStreamBytesAtLimits<int>();
    expectStreamBytesAtLimits<unsigned>();
    expectStreamBytesAtLimits<long>();
    expectStreamBytesAtLimits<unsigned long>();
    expectStreamBytesAtLimits<long long>();
    expectStreamBytesAtLimits<unsigned long long>();

    expectStreamBytesAtLimits<char>();
    expectStreamBytesAtLimits<signed char>();
    expectStreamBytesAtLimits<unsigned char>();
    expectStreamBytes<char>({'x', '|'});
    expectStreamBytes<bool>({false, true});

    expectStreamBytesOfFloats<float>();
    expectStreamBytesOfFloats<double>();

    expectStreamBytes<std::string>({"", "abc"});
    expectStreamBytes<std::string_view>({"", "abc"});
    expectStreamBytes<const char*>({"", "abc"});

    const std::string s = "src";
    const std::string_view sv = "view";
    EXPECT_EQ(strCat(s, '|', sv, 'x', -7, "|", 0.5f, true, 1e-300),
              streamed(s) + "|" + streamed(sv) + "x-7|" + streamed(0.5f) +
                  "1" + streamed(1e-300));
}

TEST(Strings, Split)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(parts[3], "c");
}

TEST(Strings, Trim)
{
    EXPECT_EQ(trim("  x y\t\n"), "x y");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
}

TEST(Strings, Fixed)
{
    EXPECT_EQ(fixed(1.2345, 2), "1.23");
    EXPECT_EQ(fixed(2.0, 1), "2.0");
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t;
    t.header({"Benchmark", "Cycles"});
    t.row({"Matrix", "638"});
    t.row({"FFT", "1102"});
    const std::string out = t.render();
    EXPECT_NE(out.find("Benchmark"), std::string::npos);
    EXPECT_NE(out.find("Matrix"), std::string::npos);
    // Header separator exists.
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(InlineVec, StaysInlineUpToCapacity)
{
    support::InlineVec<int, 4> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 4; ++i)
        v.push_back(i * 10);
    EXPECT_FALSE(v.onHeap());
    EXPECT_EQ(v.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[i], i * 10);
    EXPECT_EQ(v.front(), 0);
    EXPECT_EQ(v.back(), 30);
}

TEST(InlineVec, SpillsToHeapAndKeepsContents)
{
    support::InlineVec<std::string, 2> v;
    for (int i = 0; i < 40; ++i)
        v.push_back(strCat("elem-", i));
    EXPECT_TRUE(v.onHeap());
    EXPECT_EQ(v.size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(v[i], strCat("elem-", i));
}

TEST(InlineVec, CopyAndEquality)
{
    support::InlineVec<int, 2> a{1, 2, 3};  // spilled
    support::InlineVec<int, 2> b = a;
    EXPECT_EQ(a, b);
    b.push_back(4);
    EXPECT_FALSE(a == b);
    a = b;
    EXPECT_EQ(a.size(), 4u);
    EXPECT_EQ(a[3], 4);
}

TEST(InlineVec, MoveStealsHeapAndMovesInline)
{
    support::InlineVec<std::unique_ptr<int>, 2> inl;
    inl.push_back(std::make_unique<int>(7));
    auto moved_inl = std::move(inl);
    ASSERT_EQ(moved_inl.size(), 1u);
    EXPECT_EQ(*moved_inl[0], 7);
    EXPECT_TRUE(inl.empty());

    support::InlineVec<std::unique_ptr<int>, 2> big;
    for (int i = 0; i < 8; ++i)
        big.push_back(std::make_unique<int>(i));
    const int* stable = big[5].get();
    auto moved_big = std::move(big);
    EXPECT_TRUE(moved_big.onHeap());
    EXPECT_EQ(moved_big[5].get(), stable);  // pointer stolen, not copied
    EXPECT_TRUE(big.empty());

    // Move-assign over live contents releases them.
    moved_inl = std::move(moved_big);
    ASSERT_EQ(moved_inl.size(), 8u);
    EXPECT_EQ(*moved_inl[3], 3);
}

TEST(InlineVec, ClearReusesStorageAndIteratesInOrder)
{
    support::InlineVec<int, 4> v{5, 6, 7};
    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 18);
    v.clear();
    EXPECT_TRUE(v.empty());
    v.push_back(9);
    EXPECT_EQ(v.size(), 1u);
    EXPECT_EQ(v[0], 9);
    v.pop_back();
    EXPECT_TRUE(v.empty());
}

TEST(InlineVec, IteratorRangeConstructor)
{
    const std::vector<int> src = {3, 1, 4, 1, 5};
    support::InlineVec<int, 2> v(src.begin(), src.end());
    ASSERT_EQ(v.size(), 5u);
    EXPECT_EQ(v[4], 5);
}

TEST(Errors, CompileAndSimErrorsCarryMessages)
{
    try {
        throw CompileError("bad source");
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "bad source");
    }
    try {
        throw SimError("deadlock");
    } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "deadlock");
    }
}

} // namespace
} // namespace procoup
