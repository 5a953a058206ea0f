//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The command-line tools' one number parser.
///
/// A number on a command line is outside input: `--threads -1` used to
/// reach a thread pool as 4,294,967,295 through strtoul, and `--check
/// abc 1` ran zero checks through atoi.  Every CLI in bench/ and examples/
/// parses its numbers here instead, and reports a rejected one as a usage
/// error.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_PARSENUMBER_H
#define JUMPSTART_SUPPORT_PARSENUMBER_H

#include "support/Status.h"

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

namespace jumpstart::support {

/// Parses all of \p Text as a decimal integer in [\p Min, \p Max] into
/// \p Out: digits only, after a leading '-' only where \p Min is
/// negative, with no overflow.  \returns invalid_argument otherwise,
/// leaving \p Out untouched.
template <typename T>
Status parseNumber(std::string_view Text, T Min, T Max, T &Out) {
  static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
  auto Reject = [&] {
    return errorStatus(StatusCode::InvalidArgument,
                       "'%.*s' is not a whole number in [%s, %s]",
                       static_cast<int>(Text.size()), Text.data(),
                       std::to_string(Min).c_str(),
                       std::to_string(Max).c_str());
  };
  // Where the digits start: past a '-' the range admits.
  size_t First = 0;
  if constexpr (std::is_signed_v<T>)
    First = Min < 0 && !Text.empty() && Text[0] == '-';
  if (First == Text.size())
    return Reject();
  for (size_t I = First; I < Text.size(); ++I)
    if (Text[I] < '0' || Text[I] > '9')
      return Reject();
  T Value{};
  std::from_chars_result R =
      std::from_chars(Text.data(), Text.data() + Text.size(), Value);
  if (R.ec != std::errc() || Value < Min || Value > Max)
    return Reject();
  Out = Value;
  return Status::okStatus();
}

} // namespace jumpstart::support

#endif // JUMPSTART_SUPPORT_PARSENUMBER_H
