#ifndef PROCOUP_SUPPORT_STRINGS_HH
#define PROCOUP_SUPPORT_STRINGS_HH

/**
 * @file
 * Small string helpers shared across the library. libstdc++ 12 lacks
 * std::format, so strCat() is the local replacement. It builds
 * diagnostics, and also cache keys, journal fingerprints, stats lines
 * and generated PCL source, whose bytes are stored on disk and
 * compared across builds.
 *
 * strCat() prints each argument in place and joins them in one
 * allocation of the exact size, with the bytes std::ostream's
 * operator<< prints under default flags:
 *  - std::string, std::string_view, const char* and character arrays
 *    as they are;
 *  - char, signed char and unsigned char as one character;
 *  - bool as 0 or 1 (no boolalpha);
 *  - every other integer type in decimal (std::to_chars);
 *  - float and double as printf's %g (precision 6, no floatfield),
 *    so nan, -nan, inf and -0 print as the C library prints them.
 * Any other argument type is a compile error, not a stream fallback.
 */

#include <cstddef>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace procoup {

namespace detail {

template <typename T>
inline constexpr bool kStrCatText =
    std::is_same_v<T, std::string> || std::is_same_v<T, std::string_view> ||
    std::is_same_v<std::decay_t<T>, const char*> ||
    std::is_same_v<std::decay_t<T>, char*>;

template <typename T>
inline constexpr bool kStrCatChar =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

template <typename T>
inline constexpr bool kStrCatInt =
    std::is_integral_v<T> && !kStrCatChar<T> && !std::is_same_v<T, bool> &&
    !std::is_same_v<T, wchar_t> && !std::is_same_v<T, char8_t> &&
    !std::is_same_v<T, char16_t> && !std::is_same_v<T, char32_t>;

template <typename T>
inline constexpr bool kStrCatFloat =
    std::is_same_v<T, float> || std::is_same_v<T, double>;

/** One strCat() argument as text: a view of a string argument, or a
 *  character or number printed into the piece's own buffer. Pieces
 *  live in strCat()'s argument array and are never copied. */
class StrCatPiece
{
  public:
    template <typename T>
    StrCatPiece(const T& v)  // implicit: strCat() lists its arguments
    {
        if constexpr (kStrCatText<T>) {
            _text = std::string_view(v);
        } else if constexpr (kStrCatChar<T>) {
            _buf[0] = static_cast<char>(v);
            _text = std::string_view(_buf, 1);
        } else if constexpr (std::is_same_v<T, bool>) {
            _text = v ? "1" : "0";
        } else if constexpr (kStrCatInt<T> && std::is_signed_v<T>) {
            _text = printInt(static_cast<long long>(v));
        } else if constexpr (kStrCatInt<T>) {
            _text = printUnsigned(static_cast<unsigned long long>(v));
        } else if constexpr (kStrCatFloat<T>) {
            _text = printDouble(v);
        } else {
            static_assert(!sizeof(T), "strCat: unsupported argument type");
        }
    }

    StrCatPiece(const StrCatPiece&) = delete;
    StrCatPiece& operator=(const StrCatPiece&) = delete;

    std::string_view text() const { return _text; }

  private:
    std::string_view printInt(long long v);
    std::string_view printUnsigned(unsigned long long v);
    std::string_view printDouble(double v);

    std::string_view _text;
    char _buf[32];
};

/** The pieces joined, in one allocation of their total size. */
std::string strCatJoin(std::span<const StrCatPiece> pieces);

} // namespace detail

/** Concatenate strings, characters and numbers into a string, printed
 *  as the file comment above states. */
template <typename... Args>
std::string
strCat(const Args&... args)
{
    if constexpr (sizeof...(Args) == 0) {
        return {};
    } else {
        const detail::StrCatPiece pieces[] = {args...};
        return detail::strCatJoin(pieces);
    }
}

/** Split @p s on @p sep; empty fields are kept. */
std::vector<std::string> split(const std::string& s, char sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string& s);

/** Format a double with a fixed number of decimals (for table output). */
std::string fixed(double v, int decimals);

/** Quote and escape @p s as a JSON string literal (including the
 *  surrounding double quotes). */
std::string jsonQuote(const std::string& s);

} // namespace procoup

#endif // PROCOUP_SUPPORT_STRINGS_HH
