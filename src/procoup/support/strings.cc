#include "procoup/support/strings.hh"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <iomanip>
#include <sstream>

namespace procoup {

namespace detail {

std::string_view
StrCatPiece::printInt(long long v)
{
    const auto r = std::to_chars(_buf, _buf + sizeof _buf, v);
    return {_buf, static_cast<std::size_t>(r.ptr - _buf)};
}

std::string_view
StrCatPiece::printUnsigned(unsigned long long v)
{
    const auto r = std::to_chars(_buf, _buf + sizeof _buf, v);
    return {_buf, static_cast<std::size_t>(r.ptr - _buf)};
}

std::string_view
StrCatPiece::printDouble(double v)
{
    // std::ostream prints a double as printf's %g: precision 6.
    const int n = std::snprintf(_buf, sizeof _buf, "%g", v);
    return {_buf, static_cast<std::size_t>(n)};
}

std::string
strCatJoin(std::span<const StrCatPiece> pieces)
{
    std::size_t size = 0;
    for (const StrCatPiece& p : pieces)
        size += p.text().size();
    std::string out;
    out.reserve(size);
    for (const StrCatPiece& p : pieces)
        out.append(p.text());
    return out;
}

} // namespace detail

std::vector<std::string>
split(const std::string& s, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : s) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur.push_back(c);
        }
    }
    out.push_back(cur);
    return out;
}

std::string
trim(const std::string& s)
{
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
fixed(double v, int decimals)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(decimals) << v;
    return os.str();
}

std::string
jsonQuote(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          case '\r': out += "\\r"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(c);
            }
        }
    }
    out.push_back('"');
    return out;
}

} // namespace procoup
