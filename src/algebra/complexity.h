// Complexity classification of chronicle-algebra expressions.
//
// Implements the language hierarchy of the paper:
//
//   CA_1  — no chronicle/relation operation at all        → SCA_1 views are
//           maintainable in IM-Constant (Theorem 4.5)
//   CA_⋈  — relation access only through key joins        → IM-log(R)
//   CA    — arbitrary chronicle × relation cross products → IM-R^k
//   (anything outside CA)                                 → IM-C^k
//
// The analyzer also counts `u` (unions) and `j` (SN-equijoins + relation
// cross products/joins), the parameters of the Theorem 4.2 delta bound
// Time = O((u·|R|)^j · log|R|).

#ifndef CHRONICLE_ALGEBRA_COMPLEXITY_H_
#define CHRONICLE_ALGEBRA_COMPLEXITY_H_

#include <cstddef>
#include <string>

#include "algebra/ca_expr.h"

namespace chronicle {

// Language fragment an expression falls into.
enum class CaClass : uint8_t {
  kCa1 = 0,    // CA_1
  kCaJoin = 1, // CA_⋈
  kCaFull = 2, // CA
  kNotCa = 3,  // uses a Theorem 4.3 forbidden construct
};

// Incremental-maintenance complexity class of §3.
enum class ImClass : uint8_t {
  kImConstant = 0,  // IM-Constant
  kImLogR = 1,      // IM-log(R)
  kImPolyR = 2,     // IM-R^k
  kImPolyC = 3,     // IM-C^k
};

const char* CaClassToString(CaClass c);
const char* ImClassToString(ImClass c);

struct ComplexityReport {
  CaClass ca_class = CaClass::kCa1;
  ImClass im_class = ImClass::kImConstant;
  // Theorem 4.2 parameters.
  int num_unions = 0;      // u
  int num_joins = 0;       // j: SN-equijoins + relation cross/joins
  int num_rel_cross = 0;   // cross products with relations (CA, not CA_⋈)
  int num_rel_keyjoin = 0; // key joins with relations (CA_⋈)
  // Why the expression landed in its class.
  std::string explanation;

  std::string ToString() const;
};

// Classifies `expr` per the hierarchy above.
ComplexityReport AnalyzeComplexity(const CaExpr& expr);

// Measured counterpart of the Theorem 4.2 parameters: counters filled by
// one delta computation (DeltaPlan::Execute, or the reference
// DeltaEngine). Benchmarks E6/E8 and the per-view obs counters read these
// to check the time/space story.
struct DeltaStats {
  // Largest intermediate delta (in rows) materialized at any node.
  size_t max_intermediate_rows = 0;
  // Total rows produced across all nodes (proxy for work done).
  size_t total_rows_produced = 0;
  // Relation index lookups performed (the log|R| / O(1) component).
  size_t relation_lookups = 0;
  // Relation rows scanned by cross products (the |R|^j component).
  size_t relation_rows_scanned = 0;
};

}  // namespace chronicle

#endif  // CHRONICLE_ALGEBRA_COMPLEXITY_H_
