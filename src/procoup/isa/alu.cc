#include "procoup/isa/alu.hh"

#include "procoup/support/error.hh"
#include "procoup/support/strings.hh"

namespace procoup {
namespace isa {

namespace {

/** The int64 with the bits of @p v: arithmetic on uint64 wraps modulo
 *  2^64, and the conversion back is modular since C++20. */
std::int64_t
wrap(std::uint64_t v)
{
    return static_cast<std::int64_t>(v);
}

Value
intBin(Opcode op, std::int64_t a, std::int64_t b)
{
    const std::uint64_t ua = static_cast<std::uint64_t>(a);
    const std::uint64_t ub = static_cast<std::uint64_t>(b);
    switch (op) {
      case Opcode::IADD: return Value::makeInt(wrap(ua + ub));
      case Opcode::ISUB: return Value::makeInt(wrap(ua - ub));
      case Opcode::IMUL: return Value::makeInt(wrap(ua * ub));
      case Opcode::IDIV:
        if (b == 0)
            throw SimError("integer division by zero");
        // a / -1 is -a, which wraps for INT64_MIN.
        return Value::makeInt(b == -1 ? wrap(0 - ua) : a / b);
      case Opcode::IMOD:
        if (b == 0)
            throw SimError("integer modulo by zero");
        return Value::makeInt(b == -1 ? 0 : a % b);
      case Opcode::IAND: return Value::makeInt(a & b);
      case Opcode::IOR:  return Value::makeInt(a | b);
      case Opcode::IXOR: return Value::makeInt(a ^ b);
      case Opcode::ISHL: return Value::makeInt(wrap(ua << (b & 63)));
      case Opcode::ISHR: return Value::makeInt(a >> (b & 63));
      case Opcode::ILT:  return Value::makeInt(a < b);
      case Opcode::ILE:  return Value::makeInt(a <= b);
      case Opcode::IEQ:  return Value::makeInt(a == b);
      case Opcode::INE:  return Value::makeInt(a != b);
      case Opcode::IGT:  return Value::makeInt(a > b);
      case Opcode::IGE:  return Value::makeInt(a >= b);
      default:
        PROCOUP_PANIC(strCat("not an integer binop: ", opcodeName(op)));
    }
}

Value
floatBin(Opcode op, double a, double b)
{
    switch (op) {
      case Opcode::FADD: return Value::makeFloat(a + b);
      case Opcode::FSUB: return Value::makeFloat(a - b);
      case Opcode::FMUL: return Value::makeFloat(a * b);
      case Opcode::FDIV: return Value::makeFloat(a / b);
      case Opcode::FLT:  return Value::makeInt(a < b);
      case Opcode::FLE:  return Value::makeInt(a <= b);
      case Opcode::FEQ:  return Value::makeInt(a == b);
      case Opcode::FNE:  return Value::makeInt(a != b);
      case Opcode::FGT:  return Value::makeInt(a > b);
      case Opcode::FGE:  return Value::makeInt(a >= b);
      default:
        PROCOUP_PANIC(strCat("not a float binop: ", opcodeName(op)));
    }
}

} // namespace

Value
evalAlu(Opcode op, std::span<const Value> srcs)
{
    auto arg = [&](std::size_t i) -> const Value& {
        PROCOUP_ASSERT(i < srcs.size(), "ALU operand count mismatch");
        return srcs[i];
    };
    switch (op) {
      case Opcode::INEG:
        return Value::makeInt(
            wrap(0 - static_cast<std::uint64_t>(arg(0).asInt())));
      case Opcode::INOT:
        return Value::makeInt(arg(0).asInt() == 0);
      case Opcode::FNEG:
        return Value::makeFloat(-arg(0).asFloat());
      case Opcode::ITOF:
        return Value::makeFloat(static_cast<double>(arg(0).asInt()));
      case Opcode::FTOI:
        return Value::makeInt(truncToInt(arg(0).asFloat()));
      case Opcode::MOV:
      case Opcode::FMOV:
        return arg(0);
      default:
        break;
    }

    const Value& a = arg(0);
    const Value& b = arg(1);
    if (unitTypeOf(op) == UnitType::Integer)
        return intBin(op, a.asInt(), b.asInt());
    return floatBin(op, a.asFloat(), b.asFloat());
}

} // namespace isa
} // namespace procoup
