// Compiled predicate program: flat bytecode + a specializing fast path.
//
// This is the repository's substitute for the paper's libgccjit backend
// (DESIGN.md §3). The pipeline is:
//
//   source --lex/parse--> AST --analyze--> Resolved --compile--> Program
//
// and Program offers three execution strategies, all semantically identical
// (differential-tested against each other):
//   * interpreter  — walks the Resolved tree (the ablation baseline),
//   * bytecode VM  — flat instruction array over an operand stack,
//   * specialized  — pattern-matched direct loops for the shapes that occur
//                    in practice (single MAX/MIN/KTH over one gathered list,
//                    and one level of nesting), i.e. "poor man's JIT".
#pragma once

#include <cstdint>
#include <vector>

#include "dsl/resolved.hpp"

namespace stab::dsl {

enum class OpCode : uint8_t {
  kPushConst,    // push imm (a = constant pool index)
  kGather,       // push row[type][n] for each n in list (a = list, b = type)
  kReduceMax,    // pop a values, push max (kNoSeq if a == 0)
  kReduceMin,    // pop a values, push min (kNoSeq if a == 0)
  kSelectKthMax, // pop a values, then pop k; push k-th largest or kNoSeq
  kSelectKthMin, // pop a values, then pop k; push k-th smallest or kNoSeq
};

struct Instr {
  OpCode op;
  uint32_t a = 0;
  uint32_t b = 0;
};

class Program {
 public:
  /// Compiles a resolved predicate. The Resolved's node_lists are copied in.
  static Program compile(const Resolved& resolved);

  /// Bytecode VM execution.
  int64_t eval_bytecode(const AckSource& acks) const;

  /// Specialized fast path; falls back to bytecode when the program shape
  /// was not specializable (is_specialized() tells which).
  int64_t eval_specialized(const AckSource& acks) const;
  bool is_specialized() const { return fast_.kind != FastKind::kNone; }

  /// Binding-cell eval-avoidance hook for the control plane. Given that one
  /// ack cell the program reads advanced monotonically from `old_value` to
  /// `new_value`, and that `frontier` is the cached result of the last full
  /// evaluation against the pre-update table, returns true when a
  /// re-evaluation provably cannot change the result — so the caller may
  /// skip eval() entirely.
  ///
  /// Soundness: every DSL program is a lattice polynomial of the ack cells
  /// and folded constants (a MIN/MAX/KTH_* composition; KTH_* is a MAX of
  /// MINs over k-subsets, and k is constant). Over a chain, any
  /// one-variable lattice polynomial is a clamp: as a function of one cell
  /// v, with every other cell fixed, g(v) = max(a, min(v, b)) for constants
  /// a <= b, however often v occurs. Let frontier = g(old) and new > old.
  ///   * bound rule: if new <= frontier, then either frontier = a and
  ///     min(new, b) <= a, or frontier = min(old, b) >= new >= old, so
  ///     new == old. Either way g(new) == frontier.
  ///   * binding rule: if old > frontier, then min(old, b) <= g(old) < old
  ///     gives b < old, so g(old) = max(a, b) = b; and new > old > b gives
  ///     g(new) = b as well.
  /// Both rules therefore hold for every shape — single-gather MIN/MAX/KTH_*,
  /// OP-of-reduced with overlapping lists, k out of range (a constant) —
  /// so the check is two comparisons. Programs without a specialized shape
  /// run the bytecode VM and answer false, like the interpreter and
  /// bytecode modes, which never skip (Predicate::eval_skippable).
  bool update_cannot_raise(int64_t old_value, int64_t new_value,
                           int64_t frontier) const {
    return fast_.kind != FastKind::kNone &&
           (new_value <= frontier || old_value > frontier);
  }

  const std::vector<Instr>& instructions() const { return code_; }
  const std::vector<std::vector<NodeId>>& node_lists() const { return lists_; }

 private:
  // Specialization shapes. kSingle covers OP(list[.type]) and
  // KTH(k, list[.type]); kOfReduced covers OP(MAX(l1), MAX(l2), ...) and the
  // KTH variant — the shape of every Table III predicate.
  enum class FastKind { kNone, kSingle, kOfReduced };
  struct FastInner {
    Op op;  // kMax or kMin reduction over one list
    uint32_t list;
    StabilityTypeId type;
  };
  struct Fast {
    FastKind kind = FastKind::kNone;
    Op op;
    int64_t k = 0;  // for KTH outer ops
    std::vector<FastInner> inner;  // one entry (kSingle) or several
  };

  static int64_t reduce_list(const AckSource& acks, Op op,
                             const std::vector<NodeId>& list,
                             StabilityTypeId type);

  std::vector<Instr> code_;
  std::vector<int64_t> consts_;
  std::vector<std::vector<NodeId>> lists_;
  Fast fast_;
  mutable std::vector<int64_t> stack_;    // reused scratch (single-threaded)
  mutable std::vector<int64_t> scratch_;  // for kth selection
};

/// Reference tree-walking interpreter over the Resolved form. Semantics are
/// the specification; Program must agree with it on every input.
int64_t interpret(const Resolved& resolved, const AckSource& acks);

}  // namespace stab::dsl
