//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bytecode verifier.
///
/// Runs after offline compilation (and in tests over hand-assembled code)
/// to guarantee the structural invariants the interpreter and JIT rely on:
/// in-range immediates, no fallthrough off the end of a function, and a
/// consistent operand-stack depth at every block boundary.
///
//===----------------------------------------------------------------------===//

#ifndef JUMPSTART_BYTECODE_VERIFIER_H
#define JUMPSTART_BYTECODE_VERIFIER_H

#include "bytecode/Repo.h"

#include <string>
#include <vector>

namespace jumpstart::bc {

/// One structural-verification finding, with the instruction it anchors
/// to when one exists (kNoInstr for whole-function problems).  The
/// analysis linter consumes these as its pass zero and re-renders them in
/// its uniform diagnostic format; verifyFunction() below flattens them to
/// the historical string form.
struct VerifyIssue {
  static constexpr uint32_t kNoInstr = ~0u;
  uint32_t Instr = kNoInstr;
  std::string Message;
};

/// Verifies a single function against \p R, producing structured issues.
/// \p NumBuiltins bounds the NativeCall immediates.  Empty means the
/// function verified.  When \p MaxStack is non-null it receives the
/// deepest operand stack the dataflow pass reached: for a verified
/// function, a bound on every execution path (the interpreter sizes its
/// frames with it).
std::vector<VerifyIssue> verifyFunctionIssues(const Repo &R,
                                              const Function &F,
                                              uint32_t NumBuiltins,
                                              uint32_t *MaxStack = nullptr);

/// Verifies a single function against \p R.  \p NumBuiltins bounds the
/// NativeCall immediates.  \returns human-readable error strings; empty
/// means the function verified.
std::vector<std::string> verifyFunction(const Repo &R, const Function &F,
                                        uint32_t NumBuiltins);

/// Verifies every function in the repo.  \returns all errors found.
std::vector<std::string> verifyRepo(const Repo &R, uint32_t NumBuiltins);

} // namespace jumpstart::bc

#endif // JUMPSTART_BYTECODE_VERIFIER_H
