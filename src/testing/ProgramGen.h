//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The generative half of the differential conformance harness: a seeded
/// random generator that emits well-formed mini-Hack programs directly
/// against the frontend -- functions, classes, branches, bounded loops,
/// string/int ops and endpoint entry points -- with knobs for size and
/// shape.  No hand-written corpus is involved; the program space is the
/// corpus.
///
/// Programs are kept *structured* (one source line per statement, whole
/// class declarations as units) rather than flat text so that the
/// shrinker (Shrinker.h) can delta-debug a failure by removing lines and
/// re-rendering, instead of parsing source back apart.
///
/// Every generated program must compile and verify; ConformanceTest
/// sweeps seeds to enforce that invariant.  Dynamic faults at runtime are
/// intentional -- the VM's semantics are total, and the differential
/// oracle checks that every tier faults identically.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_TESTING_PROGRAMGEN_H
#define JUMPSTART_TESTING_PROGRAMGEN_H

#include <cstdint>
#include <string>
#include <vector>

namespace jumpstart::testing {

/// Shape knobs for the generator.  Defaults produce small programs (a
/// handful of functions, ~20-40 source lines) that still exercise calls,
/// classes, branches, loops and the string/int operator set.
struct GenParams {
  uint64_t Seed = 1;
  /// Non-endpoint helper functions (f0, f1, ...); helper I only calls
  /// helpers with index < I, so call graphs are acyclic by construction.
  uint32_t MinHelpers = 1;
  uint32_t MaxHelpers = 4;
  /// Endpoint entry points (endpoint0, ...): what the differential
  /// oracle drives requests against.  Must be >= 1.
  uint32_t NumEndpoints = 2;
  /// Most statements per function body, at least one (the fixed
  /// trailing return is extra).
  uint32_t MaxStmts = 4;
  /// Maximum expression nesting depth.
  uint32_t MaxExprDepth = 3;
  /// Classes (K0, K1, ...), each with props and set/get methods.
  uint32_t NumClasses = 1;
};

/// One generated function.  Statements are self-contained single source
/// lines (an `if` or `while` renders inline), so removing any one of
/// them leaves a program that still parses.
struct GenFunc {
  std::string Name;
  std::vector<std::string> Stmts;
  /// The trailing `return <expr>;` -- kept separate from Stmts so the
  /// shrinker can try simplifying it to a constant without losing the
  /// return statement itself.
  std::string ReturnExpr;
  bool IsEndpoint = false;
};

/// A structured program: class declarations (whole-unit removable) plus
/// functions.
struct GenProgram {
  std::vector<std::string> Classes;
  std::vector<GenFunc> Funcs;

  /// Names of the endpoint functions, in declaration order.
  std::vector<std::string> endpointNames() const;
  /// Renders to mini-Hack source.
  std::string render() const;
  /// Source lines of render() -- the unit of the "reproducer <= N lines"
  /// acceptance criterion.
  size_t sourceLines() const;
};

/// Generates one program.  Deterministic: equal \p P (including Seed)
/// yields byte-identical source.
GenProgram generateProgram(const GenParams &P);

} // namespace jumpstart::testing

#endif // JUMPSTART_TESTING_PROGRAMGEN_H
