#ifndef PROCOUP_ISA_VALUE_HH
#define PROCOUP_ISA_VALUE_HH

/**
 * @file
 * Machine word. The paper's node keeps "integers and floating point
 * numbers ... in the same register files", so a word is a tagged union
 * of a 64-bit integer and a double. Memory locations hold the same type
 * plus a full/empty presence bit (kept by the memory model, not here).
 */

#include <cstdint>
#include <string>

namespace procoup {
namespace isa {

/** A register or memory word: either an integer or a float. */
class Value
{
  public:
    /** Default: integer zero. */
    Value() : floatTag(false), ival(0), fval(0.0) {}

    static Value makeInt(std::int64_t v);
    static Value makeFloat(double v);

    bool isFloat() const { return floatTag; }

    /** Integer view; converts (truncToInt) if the word holds a float. */
    std::int64_t asInt() const;

    /** Float view; converts if the word holds an integer. */
    double asFloat() const;

    /** Raw accessors (no conversion). @pre matching tag */
    std::int64_t rawInt() const;
    double rawFloat() const;

    /** Nonzero test used by conditional branches. */
    bool truthy() const;

    /** Exact equality (tag and payload). */
    bool operator==(const Value& o) const;

    std::string toString() const;

  private:
    bool floatTag;
    std::int64_t ival;
    double fval;
};

/** @p d truncated toward zero. NaN and values outside int64 range
 *  give INT64_MIN, the value x86-64's cvttsd2si returns for them. */
std::int64_t truncToInt(double d);

} // namespace isa
} // namespace procoup

#endif // PROCOUP_ISA_VALUE_HH
