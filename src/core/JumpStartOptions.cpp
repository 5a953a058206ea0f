//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "core/JumpStartOptions.h"

#include "support/StringUtil.h"

#include <cstdlib>

using namespace jumpstart;
using namespace jumpstart::core;
using support::Status;
using support::StatusCode;

std::vector<std::string> JumpStartOptions::validate() const {
  std::vector<std::string> Diags;
  if (Enabled && MaxConsumerAttempts == 0)
    Diags.push_back("max_consumer_attempts must be >= 1 when Jump-Start is "
                    "enabled (consumers need at least one attempt)");
  if (MaxValidationFaultRate < 0 || MaxValidationFaultRate > 1)
    Diags.push_back(strFormat(
        "max_validation_fault_rate must be in [0, 1], got %g",
        MaxValidationFaultRate));
  if (Enabled && ValidationRequests == 0 && MaxValidationFaultRate < 1)
    Diags.push_back("validation_requests=0 disables behavioural validation "
                    "but max_validation_fault_rate still expects it; set "
                    "the rate to 1 to acknowledge");
  return Diags;
}

namespace {

Status parseBool(std::string_view Key, std::string_view Value, bool &Out) {
  if (Value == "true" || Value == "1" || Value == "yes" || Value == "on") {
    Out = true;
    return Status::okStatus();
  }
  if (Value == "false" || Value == "0" || Value == "no" || Value == "off") {
    Out = false;
    return Status::okStatus();
  }
  return support::errorStatus(
      StatusCode::InvalidArgument, "%.*s: expected a boolean, got \"%.*s\"",
      static_cast<int>(Key.size()), Key.data(),
      static_cast<int>(Value.size()), Value.data());
}

template <typename UIntT>
Status parseUInt(std::string_view Key, std::string_view Value, UIntT &Out) {
  std::string S(Value);
  char *End = nullptr;
  unsigned long long V = std::strtoull(S.c_str(), &End, 10);
  if (S.empty() || End != S.c_str() + S.size())
    return support::errorStatus(
        StatusCode::InvalidArgument,
        "%.*s: expected an unsigned integer, got \"%s\"",
        static_cast<int>(Key.size()), Key.data(), S.c_str());
  Out = static_cast<UIntT>(V);
  return Status::okStatus();
}

Status parseDouble(std::string_view Key, std::string_view Value,
                   double &Out) {
  std::string S(Value);
  char *End = nullptr;
  double V = std::strtod(S.c_str(), &End);
  if (S.empty() || End != S.c_str() + S.size())
    return support::errorStatus(StatusCode::InvalidArgument,
                                "%.*s: expected a number, got \"%s\"",
                                static_cast<int>(Key.size()), Key.data(),
                                S.c_str());
  Out = V;
  return Status::okStatus();
}

} // namespace

Status JumpStartOptions::set(std::string_view Key, std::string_view Value) {
  if (Key == "enabled")
    return parseBool(Key, Value, Enabled);
  if (Key == "max_consumer_attempts")
    return parseUInt(Key, Value, MaxConsumerAttempts);
  if (Key == "strict_package_lint")
    return parseBool(Key, Value, StrictPackageLint);
  if (Key == "validation_requests")
    return parseUInt(Key, Value, ValidationRequests);
  if (Key == "max_validation_fault_rate")
    return parseDouble(Key, Value, MaxValidationFaultRate);
  if (Key == "min_profiled_funcs")
    return parseUInt(Key, Value, Coverage.MinProfiledFuncs);
  if (Key == "min_total_samples")
    return parseUInt(Key, Value, Coverage.MinTotalSamples);
  if (Key == "min_package_bytes")
    return parseUInt(Key, Value, Coverage.MinPackageBytes);
  return support::errorStatus(StatusCode::InvalidArgument,
                              "unknown Jump-Start option \"%.*s\"",
                              static_cast<int>(Key.size()), Key.data());
}

Status JumpStartOptions::parseAssignments(std::string_view Text) {
  size_t I = 0;
  auto IsSep = [](char C) {
    return C == ',' || C == ' ' || C == '\t' || C == '\n';
  };
  while (I < Text.size()) {
    while (I < Text.size() && IsSep(Text[I]))
      ++I;
    if (I >= Text.size())
      break;
    size_t End = I;
    while (End < Text.size() && !IsSep(Text[End]))
      ++End;
    std::string_view Token = Text.substr(I, End - I);
    I = End;
    size_t Eq = Token.find('=');
    if (Eq == std::string_view::npos)
      return support::errorStatus(
          StatusCode::InvalidArgument,
          "expected key=value, got \"%.*s\"",
          static_cast<int>(Token.size()), Token.data());
    JUMPSTART_RETURN_IF_ERROR(
        set(Token.substr(0, Eq), Token.substr(Eq + 1)));
  }
  return Status::okStatus();
}

std::vector<std::pair<std::string, std::string>>
JumpStartOptions::toKeyValues() const {
  auto B = [](bool V) { return std::string(V ? "true" : "false"); };
  std::vector<std::pair<std::string, std::string>> KVs;
  KVs.emplace_back("enabled", B(Enabled));
  KVs.emplace_back("max_consumer_attempts",
                   strFormat("%u", MaxConsumerAttempts));
  KVs.emplace_back("strict_package_lint", B(StrictPackageLint));
  KVs.emplace_back("validation_requests",
                   strFormat("%u", ValidationRequests));
  KVs.emplace_back("max_validation_fault_rate",
                   strFormat("%g", MaxValidationFaultRate));
  KVs.emplace_back("min_profiled_funcs",
                   strFormat("%zu", Coverage.MinProfiledFuncs));
  KVs.emplace_back(
      "min_total_samples",
      strFormat("%llu",
                static_cast<unsigned long long>(Coverage.MinTotalSamples)));
  KVs.emplace_back("min_package_bytes",
                   strFormat("%zu", Coverage.MinPackageBytes));
  return KVs;
}
