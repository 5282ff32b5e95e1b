// Test helper: the production delta engine — a compiled DeltaPlan run over
// one PlanScratch retained across ticks, exactly as the maintenance paths
// run it — behind a ComputeDelta call that returns owned rows. `columnar`
// selects the vector kernels (true) or pins every instruction to the row
// engine (false); the two must be byte-identical.

#ifndef CHRONICLE_TESTS_COMPILED_DELTA_H_
#define CHRONICLE_TESTS_COMPILED_DELTA_H_

#include <utility>
#include <vector>

#include "exec/plan_compiler.h"

namespace chronicle {

class CompiledDelta {
 public:
  CompiledDelta(CaExprPtr expr, bool columnar)
      : plan_(exec::CompileDeltaPlan(std::move(expr))) {
    scratch_.set_columnar_enabled(columnar);
  }

  // The compile error, if any, surfaces from every call.
  Result<std::vector<ChronicleRow>> ComputeDelta(const AppendEvent& event,
                                                 DeltaStats* stats = nullptr) {
    if (!plan_.ok()) return plan_.status();
    CHRONICLE_ASSIGN_OR_RETURN(
        const std::vector<ChronicleRow>* rows,
        plan_.value()->ExecuteToRows(event, &scratch_, stats));
    return *rows;
  }

 private:
  Result<exec::DeltaPlanPtr> plan_;
  exec::PlanScratch scratch_;
};

}  // namespace chronicle

#endif  // CHRONICLE_TESTS_COMPILED_DELTA_H_
