//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// String formatting and manipulation helpers.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_SUPPORT_STRINGUTIL_H
#define JUMPSTART_SUPPORT_STRINGUTIL_H

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace jumpstart {

/// printf-style formatting into a std::string.
std::string strFormat(const char *Fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// va_list flavour of strFormat, for wrappers that forward their own
/// variadic arguments.  \p Ap is left in an unspecified state.
std::string strFormatV(const char *Fmt, va_list Ap)
    __attribute__((format(printf, 1, 0)));

/// Splits \p S on \p Sep; empty fields are kept.
std::vector<std::string> splitString(std::string_view S, char Sep);

/// Renders a byte count with a binary-unit suffix ("512 B", "1.5 MB").
std::string formatBytes(uint64_t Bytes);

} // namespace jumpstart

#endif // JUMPSTART_SUPPORT_STRINGUTIL_H
