#include "engine/inum_bank.h"

#include "engine/workload_evaluator.h"

namespace parinda {

InumBank::InumBank(const CatalogReader& catalog, const CompressedWorkload& fold)
    : catalog_(catalog), workload_(fold.workload) {
  slots_.resize(workload_.queries.size());
}

Result<InumCostModel*> InumBank::Model(int q, const CostParams& params,
                                       const Deadline* deadline) {
  Slot& slot = slots_[static_cast<size_t>(q)];
  const std::string sig = ParamsSignature(params);
  if (slot.model == nullptr || !slot.init_ok || slot.params_sig != sig) {
    // Assign before Init so a model whose Init is cut short by the budget
    // still surfaces through Get(): its optimizer calls happened and must
    // stay observable in the advisor's aggregate counters.
    slot.model = std::make_unique<InumCostModel>(
        catalog_, workload_.queries[static_cast<size_t>(q)].stmt, params);
    slot.params_sig = sig;
    slot.init_ok = false;
    slot.model->set_deadline(deadline);
    PARINDA_RETURN_IF_ERROR(slot.model->Init());
    slot.init_ok = true;
  } else {
    slot.model->set_deadline(deadline);
  }
  // Touch after Init so the charge reflects the built cache. The governor's
  // MRU pin keeps this slot alive even if the Touch itself evicts others —
  // the returned pointer stays valid for the caller's use.
  if (governor_ != nullptr) {
    PARINDA_RETURN_IF_ERROR(governor_->Touch(governor_shard_,
                                             std::to_string(q),
                                             slot.model->ApproxCacheBytes()));
  }
  return slot.model.get();
}

void InumBank::set_governor(CacheGovernor* governor, int shard) {
  governor_ = governor;
  governor_shard_ = shard;
}

void InumBank::EvictSlot(int q) {
  if (q < 0 || static_cast<size_t>(q) >= slots_.size()) return;
  Slot& slot = slots_[static_cast<size_t>(q)];
  if (slot.model != nullptr) {
    evicted_optimizer_calls_ += slot.model->optimizer_calls();
    evicted_estimates_served_ += slot.model->estimates_served();
  }
  slot = Slot{};
}

InumCostModel* InumBank::Get(int q) const {
  return slots_[static_cast<size_t>(q)].model.get();
}

int64_t InumBank::TotalOptimizerCalls() const {
  int64_t total = evicted_optimizer_calls_;
  for (const Slot& slot : slots_) {
    if (slot.model != nullptr) total += slot.model->optimizer_calls();
  }
  return total;
}

int64_t InumBank::TotalEstimatesServed() const {
  int64_t total = evicted_estimates_served_;
  for (const Slot& slot : slots_) {
    if (slot.model != nullptr) total += slot.model->estimates_served();
  }
  return total;
}

}  // namespace parinda
