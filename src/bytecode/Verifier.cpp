//===----------------------------------------------------------------------===//
//
// Part of the jumpstart project, a reproduction of "HHVM Jump-Start:
// Boosting Both Warmup and Steady-State Performance at Scale" (CGO 2021).
//
//===----------------------------------------------------------------------===//

#include "bytecode/Verifier.h"

#include "bytecode/Blocks.h"
#include "support/StringUtil.h"

#include <algorithm>
#include <deque>

using namespace jumpstart;
using namespace jumpstart::bc;

namespace {

/// Collects structured issues; instruction-anchored when an index is
/// known.
class ErrorSink {
public:
  explicit ErrorSink(std::vector<VerifyIssue> &Out) : Out(Out) {}

  template <typename... Args>
  void error(uint32_t Instr, const char *Fmt, Args... Values) {
    Out.push_back(VerifyIssue{Instr, strFormat(Fmt, Values...)});
  }

  template <typename... Args> void error(const char *Fmt, Args... Values) {
    error(VerifyIssue::kNoInstr, Fmt, Values...);
  }

  bool hadError() const { return !Out.empty(); }

private:
  std::vector<VerifyIssue> &Out;
};

void verifyImmediates(const Repo &R, const Function &F, uint32_t NumBuiltins,
                      ErrorSink &Sink) {
  auto CheckImm = [&](uint32_t Index, ImmKind Kind, int64_t Raw) {
    switch (Kind) {
    case ImmKind::None:
    case ImmKind::I64:
    case ImmKind::DblBits:
      return;
    case ImmKind::Str:
      if (static_cast<uint64_t>(Raw) >= R.numStrings())
        Sink.error(Index, "instr %u: string id %lld out of range", Index,
                   static_cast<long long>(Raw));
      return;
    case ImmKind::Local:
      if (static_cast<uint64_t>(Raw) >= F.NumLocals)
        Sink.error(Index, "instr %u: local %lld out of range (frame has %u)",
                   Index, static_cast<long long>(Raw), F.NumLocals);
      return;
    case ImmKind::Target:
      if (static_cast<uint64_t>(Raw) >= F.Code.size())
        Sink.error(Index, "instr %u: branch target %lld out of range", Index,
                   static_cast<long long>(Raw));
      return;
    case ImmKind::Func:
      if (static_cast<uint64_t>(Raw) >= R.numFuncs())
        Sink.error(Index, "instr %u: func id %lld out of range", Index,
                   static_cast<long long>(Raw));
      return;
    case ImmKind::Cls:
      if (static_cast<uint64_t>(Raw) >= R.numClasses())
        Sink.error(Index, "instr %u: class id %lld out of range", Index,
                   static_cast<long long>(Raw));
      return;
    case ImmKind::Builtin:
      if (static_cast<uint64_t>(Raw) >= NumBuiltins)
        Sink.error(Index, "instr %u: builtin id %lld out of range", Index,
                   static_cast<long long>(Raw));
      return;
    case ImmKind::Count:
      if (Raw < 0 || Raw > kMaxCallArgs)
        Sink.error(Index, "instr %u: implausible count %lld", Index,
                   static_cast<long long>(Raw));
      return;
    }
  };

  for (uint32_t I = 0; I < F.Code.size(); ++I) {
    const Instr &In = F.Code[I];
    const OpInfo &Info = opInfo(In.Opcode);
    CheckImm(I, Info.ImmA, In.ImmA);
    CheckImm(I, Info.ImmB, In.ImmB);
    // A call's argument count can never exceed the current stack depth;
    // that is covered by the dataflow pass below.  Direct calls must also
    // match the callee's declared parameter count.
    if (In.Opcode == Op::FCall &&
        static_cast<uint64_t>(In.ImmA) < R.numFuncs()) {
      const Function &Callee = R.func(In.funcImm());
      if (In.countImm() != Callee.NumParams)
        Sink.error(I, "instr %u: call to %s passes %u args, expects %u", I,
                   Callee.Name.c_str(), In.countImm(), Callee.NumParams);
    }
  }
}

/// Abstract interpretation of operand-stack depth over the CFG: every
/// block must be entered at one consistent depth, depth can never go
/// negative, and returns must leave a clean stack.  \returns the deepest
/// stack reached.
uint32_t verifyStackDepth(const Function &F, ErrorSink &Sink) {
  BlockList Blocks = BlockList::compute(F);
  constexpr int kUnknown = -1;
  std::vector<int> EntryDepth(Blocks.numBlocks(), kUnknown);
  EntryDepth[0] = 0;
  std::deque<uint32_t> Worklist;
  Worklist.push_back(0);
  int Max = 0;

  while (!Worklist.empty()) {
    uint32_t BlockId = Worklist.front();
    Worklist.pop_front();
    const BcBlock &B = Blocks.block(BlockId);
    int Depth = EntryDepth[BlockId];
    for (uint32_t I = B.Start; I < B.End; ++I) {
      const Instr &In = F.Code[I];
      if (Depth < instrStackPops(In)) {
        Sink.error(I, "instr %u (%s): stack underflow (depth %d)", I,
                   opName(In.Opcode), Depth);
        return static_cast<uint32_t>(Max);
      }
      Depth += instrStackDelta(In);
      Max = std::max(Max, Depth);
      if (In.Opcode == Op::RetC && Depth != 0) {
        Sink.error(I, "instr %u: return leaves %d values on the stack", I,
                   Depth);
        return static_cast<uint32_t>(Max);
      }
    }
    auto Propagate = [&](uint32_t Succ) {
      if (EntryDepth[Succ] == kUnknown) {
        EntryDepth[Succ] = Depth;
        Worklist.push_back(Succ);
      } else if (EntryDepth[Succ] != Depth) {
        Sink.error(Blocks.block(Succ).Start,
                   "block %u entered at inconsistent depths (%d vs %d)", Succ,
                   EntryDepth[Succ], Depth);
      }
    };
    if (B.hasTaken())
      Propagate(B.Taken);
    if (B.hasFallthru())
      Propagate(B.Fallthru);
  }
  return static_cast<uint32_t>(Max);
}

} // namespace

std::vector<VerifyIssue>
jumpstart::bc::verifyFunctionIssues(const Repo &R, const Function &F,
                                    uint32_t NumBuiltins,
                                    uint32_t *MaxStack) {
  std::vector<VerifyIssue> Issues;
  ErrorSink Sink(Issues);
  if (MaxStack)
    *MaxStack = 0;

  if (F.Code.empty()) {
    Sink.error("function has no bytecode");
    return Issues;
  }
  if (F.NumParams > F.NumLocals) {
    Sink.error("%u params exceed %u locals", F.NumParams, F.NumLocals);
    return Issues;
  }
  const Instr &Last = F.Code.back();
  const OpInfo &LastInfo = opInfo(Last.Opcode);
  if (!hasFlag(LastInfo.Flags, OpFlags::Terminal) &&
      !hasFlag(LastInfo.Flags, OpFlags::Branch)) {
    Sink.error("control can fall off the end of the function");
    return Issues;
  }

  verifyImmediates(R, F, NumBuiltins, Sink);
  if (!Sink.hadError()) {
    uint32_t Max = verifyStackDepth(F, Sink);
    if (MaxStack)
      *MaxStack = Max;
  }
  return Issues;
}

std::vector<std::string> jumpstart::bc::verifyFunction(const Repo &R,
                                                       const Function &F,
                                                       uint32_t NumBuiltins) {
  std::vector<std::string> Errors;
  for (const VerifyIssue &Issue : verifyFunctionIssues(R, F, NumBuiltins))
    Errors.push_back(
        strFormat("%s: %s", F.Name.c_str(), Issue.Message.c_str()));
  return Errors;
}

std::vector<std::string> jumpstart::bc::verifyRepo(const Repo &R,
                                                   uint32_t NumBuiltins) {
  std::vector<std::string> Errors;
  for (const Function &F : R.funcs()) {
    std::vector<std::string> FuncErrors = verifyFunction(R, F, NumBuiltins);
    Errors.insert(Errors.end(), FuncErrors.begin(), FuncErrors.end());
  }
  return Errors;
}
