#include "core/protected_model.h"

namespace radar::core {

DetectionReport ProtectedModel::check_and_recover() {
  ++scans_;
  DetectionReport report = scheduler_.sweep(*qm_, pool_.get());
  if (report.attack_detected()) {
    ++detections_;
    groups_recovered_ += report.num_flagged_groups();
    if (alarm_) alarm_(report);
    scheme_->recover(*qm_, report, policy_);
    // Zeroed groups change the weight stream: re-sign them so the next
    // scan treats the recovered state as golden (the paper stores
    // signatures of the deployed weights; zeroed groups are the new
    // deployed state until a clean reload).
    if (policy_ == RecoveryPolicy::kZeroOut) scheme_->resign(*qm_);
  }
  return report;
}

nn::Tensor ProtectedModel::forward(const nn::Tensor& x) {
  check_and_recover();
  return qm_->forward(x);
}

const std::vector<std::vector<std::size_t>>& ProtectedModel::stage_map() {
  if (stage_map_built_) return stage_map_;
  nn::Sequential& net = qm_->network().net();
  stage_map_.assign(net.size(), {});
  for (std::size_t stage = 0; stage < net.size(); ++stage) {
    std::vector<nn::NamedParam> params;
    net.child(stage).collect_params("", params);
    for (const auto& np : params) {
      for (std::size_t qi = 0; qi < qm_->num_layers(); ++qi) {
        if (qm_->layer(qi).param == np.param)
          stage_map_[stage].push_back(qi);
      }
    }
  }
  stage_map_built_ = true;
  return stage_map_;
}

bool ProtectedModel::check_layer(std::size_t qlayer) {
  const auto flagged = scheme_->scan_layer(*qm_, qlayer);
  if (flagged.empty()) return false;
  DetectionReport report;
  report.flagged.resize(qm_->num_layers());
  report.flagged[qlayer] = flagged;
  ++detections_;
  groups_recovered_ += report.num_flagged_groups();
  if (alarm_) alarm_(report);
  scheme_->recover(*qm_, report, policy_);
  // Re-sign only this layer: other layers have not been scanned yet on
  // this fetch pass and must not have tampered state blessed as golden.
  if (policy_ == RecoveryPolicy::kZeroOut) scheme_->resign_layer(*qm_, qlayer);
  return true;
}

nn::Tensor ProtectedModel::forward_layerwise(const nn::Tensor& x) {
  ++scans_;
  const auto& map = stage_map();
  nn::Sequential& net = qm_->network().net();
  nn::Tensor cur = x;
  for (std::size_t stage = 0; stage < net.size(); ++stage) {
    // Verify every weight tensor this stage will fetch, then execute it.
    for (const std::size_t qi : map[stage]) check_layer(qi);
    cur = net.child(stage).forward(cur, nn::Mode::kEval);
  }
  return cur;
}

}  // namespace radar::core
