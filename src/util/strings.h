#ifndef DATACELL_UTIL_STRINGS_H_
#define DATACELL_UTIL_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace datacell {

/// Splits `input` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string> SplitString(std::string_view input, char sep);

/// Joins the pieces with `sep` between them.
std::string JoinStrings(const std::vector<std::string>& pieces,
                        std::string_view sep);

/// Removes ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// ASCII lower-casing (SQL keywords are case-insensitive).
std::string ToLower(std::string_view s);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Strict integer / double parsing: the whole string must match, with
/// exactly the acceptance of strtoll (base 10) / strtod in the C locale.
/// Allocates only on rejection or for literals of 128+ bytes.
Result<int64_t> ParseInt64(std::string_view s);
Result<double> ParseDouble(std::string_view s);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace datacell

#endif  // DATACELL_UTIL_STRINGS_H_
